"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload metro-400 --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` under the current directory.  A
run repeats set-up plus measured run while another repetition still
fits in ``--seconds`` (and at least :data:`MIN_REPS` times), and reports
medians.  Each repetition's host times are scaled to the reference host
speed measured by :mod:`probe` around that repetition.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.

Every repetition is checked: its digest must equal every other
repetition's (and, under ``--trace 1``, the traced run's digest must
equal the untraced one), and must equal the digest recorded in
``digests.json`` when that file has one for this workload and seed.  A
run that fails the check counts all of its operations as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

from layers import LayerTracer, quantile
from probe import REFERENCE_S, probe

HERE = pathlib.Path(__file__).resolve().parent
#: Fewest repetitions a run makes, however long they take.
MIN_REPS = 3
#: Fewest untraced/traced pairs a traced run makes.
MIN_TRACE_PAIRS = 1


def _load_program(root: pathlib.Path) -> None:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'repro'}; run from "
                         "the root of a checkout")
    sys.path.insert(0, str(src))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {src}")


def _spec(root: pathlib.Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def _recorded_digest(workload: str, seed: int):
    data = json.loads((HERE / "digests.json").read_text())
    return data["digests"].get(workload, {}).get(str(seed))


def _rep(workload, seed: int, tracer=None):
    """One set-up plus measured run, bracketed by host-speed probes.

    Returns ``(setup_s, wall_s, probe_s, outcome)``: raw host seconds,
    and the mean of the probes taken right before and right after.
    """
    clock = time.perf_counter
    gc.collect()
    before = probe()
    gc.collect()
    start = clock()
    world = workload.setup(seed)
    setup_s = clock() - start
    gc.collect()
    if tracer is None:
        start = clock()
        outcome = workload.measure(world)
        wall_s = clock() - start
    else:
        with tracer:
            start = clock()
            outcome = workload.measure(world)
            wall_s = clock() - start
    # Free the world first: the probe must not add to peak memory.
    del world
    gc.collect()
    after = probe()
    return setup_s, wall_s, (before + after) / 2, outcome


def _check(outcomes, expected):
    """Problems with a run's outcomes; empty when the run is correct."""
    problems = []
    digests = {o.digest for o in outcomes}
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {sorted(digests)}")
    if expected is not None and digests != {expected}:
        problems.append(f"digest {sorted(digests)} != recorded {expected}")
    if any(o.attempted == 0 for o in outcomes):
        problems.append("a repetition attempted no operations")
    return problems


class _Budget:
    """Decides whether one more repetition fits in the run's seconds."""

    def __init__(self, seconds: float, min_reps: int):
        self.deadline = time.perf_counter() + seconds
        self.min_reps = min_reps
        self.durations = []
        self._last = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self._last is not None:
            self.durations.append(now - self._last)
        self._last = now
        if len(self.durations) < self.min_reps:
            return True
        return now + statistics.median(self.durations) <= self.deadline


def run_untraced(workload, seed: int, seconds: float):
    setups, walls, outcomes = [], [], []
    budget = _Budget(seconds, MIN_REPS)
    while budget.another():
        setup_s, wall_s, probe_s, outcome = _rep(workload, seed)
        scale = REFERENCE_S / probe_s
        setups.append(setup_s * scale)
        walls.append(wall_s * scale)
        outcomes.append(outcome)
    first = outcomes[0]
    completed = first.attempted - first.failed
    latencies = first.latencies_s
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(completed / w for w in walls),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_latency_p50_s": quantile(latencies, 0.50),
        "sim_latency_p95_s": quantile(latencies, 0.95),
        "sim_energy_j_per_op": first.energy_j / completed,
        "ops": first.attempted,
    }
    return outcomes, metrics


def run_traced(workload, seed: int, seconds: float):
    plain_walls, scaled_plain, overheads = [], [], []
    probes, outcomes, per_rep = [], [], []
    budget = _Budget(seconds, MIN_TRACE_PAIRS)
    while budget.another():
        _, wall_s, probe_s, outcome = _rep(workload, seed)
        plain_walls.append(wall_s)
        plain = wall_s * REFERENCE_S / probe_s
        scaled_plain.append(plain)
        probes.append(probe_s)
        outcomes.append(outcome)
        tracer = LayerTracer()
        _, wall_s, probe_s, outcome = _rep(workload, seed, tracer=tracer)
        # Compare each traced repetition with the untraced one just
        # before it, so that a drift in host speed cancels out.
        overheads.append(wall_s * REFERENCE_S / probe_s / plain - 1.0)
        probes.append(probe_s)
        outcomes.append(outcome)
        per_rep.append(tracer.metrics(wall_s))
    metrics = {name: statistics.median(rep[name] for rep in per_rep)
               for name in per_rep[0]}
    plain = statistics.median(scaled_plain)
    events = outcomes[0].events
    metrics["sim.events"] = events
    metrics["sim.host_us_per_event"] = plain / events * 1e6
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    metrics["host.probe_s"] = statistics.median(probes)
    metrics["host.raw_wall_s"] = statistics.median(plain_walls)
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    _load_program(root)
    spec = _spec(root)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    try:
        outcomes, metrics = runner(workload, args.seed, args.seconds)
    except Exception:
        # An operation that fails with an untyped error ends the run:
        # report it as incorrect rather than as a measurement.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0

    problems = _check(outcomes, _recorded_digest(args.workload, args.seed))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(o.attempted for o in outcomes)
    failed = attempted if problems else sum(o.failed for o in outcomes)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
