"""Determinism properties of the scenario subsystem.

The subsystem's headline guarantee: the same spec and seed produce a
byte-identical report JSON, and changing the seed actually changes the
traffic.  These are the properties CI leans on when it diffs scenario
reports across commits.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import (SCENARIOS, ScenarioError, ScenarioSpec,
                             canned_spec, compile_scenario,
                             generate_arrivals, run_scenario)
from repro.scenarios.spec import ArrivalSpec


class TestReportDeterminism:
    def test_same_spec_same_seed_byte_identical_json(self):
        first = run_scenario(canned_spec("flash-crowd"), profile="smoke",
                             seed=1)
        second = run_scenario(canned_spec("flash-crowd"), profile="smoke",
                              seed=1)
        assert first.to_json() == second.to_json()

    def test_seed_is_recorded_and_changes_the_run(self):
        a = run_scenario(canned_spec("walk-in-office"), profile="smoke",
                         seed=1)
        b = run_scenario(canned_spec("walk-in-office"), profile="smoke",
                         seed=2)
        assert (a.seed, b.seed) == (1, 2)
        assert a.to_json() != b.to_json()

    def test_timeline_scenario_is_deterministic_too(self):
        first = run_scenario(canned_spec("degraded-commute"),
                             profile="smoke", seed=5)
        second = run_scenario(canned_spec("degraded-commute"),
                              profile="smoke", seed=5)
        assert first.to_json() == second.to_json()
        assert first.fault_journal == second.fault_journal


class TestArrivalSeedSensitivity:
    def test_different_seeds_different_arrival_times(self):
        spec = ArrivalSpec(kind="poisson", rate_ops_per_s=0.2)
        draws = {
            tuple(generate_arrivals(spec, random.Random(seed), 200.0))
            for seed in range(10)
        }
        assert len(draws) == 10

    def test_same_seed_same_arrival_times_across_kinds(self):
        for kind in ("poisson", "onoff"):
            spec = ArrivalSpec(kind=kind, rate_ops_per_s=0.5,
                               on_s=10.0, off_s=10.0)
            a = generate_arrivals(spec, random.Random(42), 100.0)
            b = generate_arrivals(spec, random.Random(42), 100.0)
            assert a == b


# -- spec fuzzing ---------------------------------------------------------------

CANNED_DOCS = {name: canned_spec(name).to_dict() for name in sorted(SCENARIOS)}

#: Any JSON value (finite numbers, as standard JSON has no NaN or
#: infinity), with the boundary numbers a random draw rarely hits.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0, -0.0, 5e-324, 1e300, -1e300, 10**18])
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every key/index path into a JSON document, root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_spec_json(draw):
    """A canned spec's JSON with one value replaced or one key deleted."""
    doc = json.loads(json.dumps(CANNED_DOCS[draw(st.sampled_from(
        sorted(CANNED_DOCS)))]))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(doc)


class TestSpecFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_spec_json())
    def test_mutated_spec_is_rejected_or_compiles(self, text):
        """The loader never crashes: a document either fails with the
        path-qualified ScenarioError or validates and compiles."""
        try:
            spec = ScenarioSpec.from_json(text).validate()
        except ScenarioError as exc:
            assert exc.problems and all(": " in p for p in exc.problems)
            return
        compile_scenario(spec)

    @pytest.mark.parametrize("mutate, path", [
        (lambda d: d.update(duration_s=None), "duration_s"),
        (lambda d: d["timeline"][0].update(target=5), "timeline[0].target"),
        (lambda d: d["clients"][0].update(servers=3), "clients[0].servers"),
    ], ids=["null-duration", "int-target", "int-servers"])
    def test_wrong_json_types_name_their_field(self, mutate, path):
        doc = canned_spec("walk-in-office").to_dict()
        mutate(doc)
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_json(json.dumps(doc)).validate()
        assert any(path in p for p in excinfo.value.problems)
