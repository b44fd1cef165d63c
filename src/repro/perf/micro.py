"""Microbenchmarks for the decision hot path.

Four phases dominate where the reproduction actually spends host CPU:

``snapshot``       building the :class:`ResourceSnapshot` a decision sees
``predict``        one demand/supply prediction per alternative
``solve``          the heuristic search over one space
``decision``       the whole snapshot → predict → solve pipeline, timed
                   twice — once as the pre-cache code ran it (fresh
                   :class:`SearchSpace` per decision, candidate
                   diagnostics always materialized) and once as the
                   cached hot path runs it — so ``BENCH_decision.json``
                   carries both numbers and their ratio.

Raw kernel event throughput is the kernel suite's ``event_throughput``
(:mod:`repro.perf.kernel`).

Everything runs on a trained Pangloss-Lite testbed: with ~100
alternatives per decision it is the paper's own worst case ("Overhead is
dominated by the cost of choosing the best alternative", §4.4) and the
workload the space cache was built for.  Simulated time stands still
while the wall clock runs — the benchmarked calls are plain functions,
not sim processes, so the measurements never disturb sim determinism.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..apps import (
    PanglossApplication,
    PanglossService,
    SentenceWorkload,
    install_pangloss_files,
    warm_pangloss_files,
)
from ..core.client import RegisteredOperation, SpectraClient
from ..core.estimate import DemandEstimator
from ..core.utility import DefaultUtility
from ..solver import HeuristicSolver, SearchSpace
from ..testbeds import ThinkpadTestbed
from .timing import Measurement, measure

#: words in the probe sentence every decision benchmark evaluates
PROBE_WORDS = 20.0


def build_decision_world(quick: bool = True
                         ) -> Tuple[ThinkpadTestbed, PanglossApplication]:
    """A trained Pangloss testbed ready to make steady-state decisions.

    Training forces one operation through every (plan × fidelity) bin so
    the exploration phase is over and each benchmarked decision walks
    the full solver path.  ``quick`` trains each bin once; the full mode
    uses the paper's 129-sentence regimen.
    """
    bed = ThinkpadTestbed()
    install_pangloss_files(bed.fileserver)
    for node in (bed.thinkpad, bed.server_a, bed.server_b):
        warm_pangloss_files(node.coda)
        node.register_service(PanglossService())
    bed.poll()

    app = PanglossApplication(bed.client)
    bed.sim.run_process(app.register())

    alternatives = app.spec.alternatives(["server-a", "server-b"])
    n_training = len(alternatives) if quick else 129
    for i, words in enumerate(SentenceWorkload().training(n_training)):
        forced = alternatives[i % len(alternatives)]
        bed.sim.run_process(app.translate(words, force=forced))
    bed.sim.advance(30.0)
    bed.poll()
    return bed, app


def _decide(client: SpectraClient, registered: RegisteredOperation,
            params: Dict[str, float]):
    """The snapshot → predict → solve pipeline, as begin_fidelity_op
    runs it, minus the sim-time accounting around it."""
    snapshot = client._take_snapshot()
    estimator = DemandEstimator(
        registered.spec, registered.predictor, snapshot, params, None,
        always_reintegrate=client.always_reintegrate,
    )
    return client._choose(registered, estimator, snapshot)


def bench_snapshot(client: SpectraClient, *, number: int,
                   repeats: int) -> Measurement:
    return measure("snapshot", client._take_snapshot,
                   number=number, repeats=repeats)


def bench_predict(client: SpectraClient, registered: RegisteredOperation,
                  *, number: int, repeats: int) -> Measurement:
    """One prediction per alternative, across the whole space."""
    snapshot = client._take_snapshot()
    estimator = DemandEstimator(
        registered.spec, registered.predictor, snapshot,
        {"words": PROBE_WORDS}, None,
        always_reintegrate=client.always_reintegrate,
    )
    space = SearchSpace(registered.spec,
                        [s.name for s in snapshot.reachable_servers()])
    alternatives = space.all_alternatives()

    def predict_all():
        for alternative in alternatives:
            estimator.predict(alternative)

    result = measure("predict", predict_all, number=number, repeats=repeats)
    # Report per-prediction cost, not per-sweep: the sweep width is a
    # property of the operation, the per-call cost of the predictor.
    n = max(len(alternatives), 1)
    return Measurement(
        name="predict", number=result.number * n, repeats=result.repeats,
        best_s=result.best_s / n, mean_s=result.mean_s / n,
        worst_s=result.worst_s / n,
    )


def bench_solve(client: SpectraClient, registered: RegisteredOperation,
                *, number: int, repeats: int) -> Measurement:
    """The heuristic search alone, over one fixed snapshot and space."""
    snapshot = client._take_snapshot()
    estimator = DemandEstimator(
        registered.spec, registered.predictor, snapshot,
        {"words": PROBE_WORDS}, None,
        always_reintegrate=client.always_reintegrate,
    )
    space = SearchSpace(registered.spec,
                        [s.name for s in snapshot.reachable_servers()])
    utility = DefaultUtility(registered.spec,
                             snapshot.battery.importance)
    solver = HeuristicSolver()
    return measure(
        "solve",
        lambda: solver.solve(space, estimator.predict, utility),
        number=number, repeats=repeats,
    )


def bench_decision(client: SpectraClient,
                   registered: RegisteredOperation, *, number: int,
                   repeats: int) -> Dict[str, object]:
    """Baseline-vs-optimized timing of the full decision pipeline.

    *Baseline* reproduces the pre-cache decision path: the space cache
    disabled (a fresh :class:`SearchSpace`, fresh alternatives, fresh
    decision contexts per decision), the demand-prediction memo off
    (every prediction re-runs bin lookup + regression), and a solver
    that materializes the per-candidate diagnostics on every solve,
    which used to be unconditional.  *Optimized* is the shipping hot
    path: cached space, memoized demand, diagnostics off.  Both must
    pick the same alternative — the caches are pure memoization, so a
    disagreement is a bug, not noise.
    """
    params = {"words": PROBE_WORDS}
    saved_solver = client.solver
    saved_cache = client.space_cache_enabled
    try:
        client.solver = HeuristicSolver(collect_evaluated=True)
        client.space_cache_enabled = False
        registered.predictor.memoize = False
        baseline_pick = _decide(client, registered, params)[0]
        baseline = measure(
            "decision/baseline",
            lambda: _decide(client, registered, params),
            number=number, repeats=repeats,
        )

        client.solver = HeuristicSolver()
        client.space_cache_enabled = True
        client._space_cache.invalidate()
        registered.predictor.memoize = True
        optimized_pick = _decide(client, registered, params)[0]
        optimized = measure(
            "decision/optimized",
            lambda: _decide(client, registered, params),
            number=number, repeats=repeats,
        )
    finally:
        client.solver = saved_solver
        client.space_cache_enabled = saved_cache
        registered.predictor.memoize = True
    return {
        "baseline": baseline.to_dict(),
        "optimized": optimized.to_dict(),
        "speedup": baseline.best_s / optimized.best_s,
        "same_choice": baseline_pick == optimized_pick,
    }


def run_micro_suite(quick: bool = True) -> Dict[str, object]:
    """All decision-path microbenchmarks; the ``BENCH_decision`` payload."""
    number, repeats = (3, 3) if quick else (10, 5)
    bed, app = build_decision_world(quick=quick)
    client = bed.client
    registered = client.operation(app.spec.name)
    benchmarks: Dict[str, object] = {
        "snapshot": bench_snapshot(
            client, number=number * 10, repeats=repeats).to_dict(),
        "predict": bench_predict(
            client, registered, number=number, repeats=repeats).to_dict(),
        "solve": bench_solve(
            client, registered, number=number, repeats=repeats).to_dict(),
        "decision": bench_decision(
            client, registered, number=number, repeats=repeats),
    }
    return benchmarks
