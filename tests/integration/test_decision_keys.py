"""The decision hot path builds each alternative's bin key once.

A Pangloss decision scores about a hundred alternatives, five resource
predictions and a file-access prediction each.  The canonical bin key
(``discrete_key``) is built once per alternative, memoized with its
decision context, and every predictor below keys on it; custom demand
models still see a plain dict.
"""

import sys

import pytest

from repro.core import DemandEstimator
from repro.perf.micro import PROBE_WORDS, build_decision_world
from repro.predictors import binned, logs

SERVERS = ["server-a", "server-b"]


@pytest.fixture
def world():
    bed, app = build_decision_world(quick=True)
    return bed, app, bed.client.operation(app.spec.name)


def test_one_decision_keys_each_alternative_at_most_once(world,
                                                         monkeypatch):
    bed, app, _registered = world
    original = binned.discrete_key
    calls = []

    def counting(discrete):
        calls.append(dict(discrete))
        return original(discrete)

    # Patch every module that imported the function by name, except its
    # home: ``logs`` keys the executed operation's usage sample after
    # the decision, which is not a decision-time call.
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if (name.startswith("repro") and name != logs.__name__
                and vars(module).get("discrete_key") is original):
            monkeypatch.setattr(module, "discrete_key", counting)

    report = bed.sim.run_process(app.translate(int(PROBE_WORDS)))

    assert report.prediction is not None  # the solver chose, not exploration
    distinct = len(set(app.spec.alternatives(SERVERS)))
    assert 0 < len(calls) <= distinct


def test_custom_model_receives_the_discrete_context_dict(world):
    bed, app, registered = world
    seen = []

    class Recording:
        def observe(self, discrete, continuous, value, data_object=None):
            pass

        def predict(self, discrete, continuous, data_object=None):
            seen.append(discrete)
            return 1e6

    predictor = registered.predictor
    predictor.set_custom_predictor("cpu:local", Recording())
    predictor.memoize = False  # one model call per prediction
    estimator = DemandEstimator(
        app.spec, predictor, bed.client._take_snapshot(),
        {"words": PROBE_WORDS},
    )
    for alternative in app.spec.alternatives(SERVERS):
        seen.clear()
        estimator.predict(alternative)
        assert seen == [alternative.discrete_context()]
        assert type(seen[0]) is dict
