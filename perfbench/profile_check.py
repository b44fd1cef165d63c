"""Cross-check the wrapper attribution against a cProfile aggregation.

Usage, from the root of a checkout::

    python3 perfbench/profile_check.py

Runs the measured phase of :data:`WORKLOAD` on :data:`SEED` once under the benchmark's
:class:`~layers.LayerTracer` and once under :mod:`cProfile`, and prints
each package's share of the run by both methods.  The profile share of
a package is the self time of its functions, plus the self time of
functions outside ``repro`` (builtins, the standard library, numpy)
split among their callers in proportion to the time each caller spent
calling them.  Self time outside any package counts as unattributed.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
import sys
import time
from collections import defaultdict

#: The workload whose ``network`` share the transfer-log work rests on.
WORKLOAD = "metro-400"
SEED = 1


def _package_of(filename: str):
    parts = pathlib.Path(filename).parts
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    return rest[0] if len(rest) > 1 else "repro"


def profile_shares(workload, seed: int):
    """Package -> share of the profiled measured run."""
    world = workload.setup(seed)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.measure(world)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    shares = defaultdict(float)
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, own, _cum, callers) in \
            stats.items():
        total += own
        package = _package_of(filename)
        if package is not None:
            shares[package] += own
            continue
        # Outside repro: charge each repro caller its part of the time.
        spent = sum(entry[2] for entry in callers.values())
        for caller, entry in callers.items():
            caller_package = _package_of(caller[0])
            if spent > 0 and caller_package is not None:
                shares[caller_package] += own * entry[2] / spent
    return {package: seconds / total for package, seconds in shares.items()}


def tracer_shares(workload, seed: int):
    from layers import LayerTracer

    world = workload.setup(seed)
    tracer = LayerTracer()
    with tracer:
        start = time.perf_counter()
        workload.measure(world)
        wall = time.perf_counter() - start
    return {package: seconds / wall
            for package, seconds in tracer.package_self.items()}


def main() -> int:
    sys.path.insert(0, str(pathlib.Path.cwd() / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[WORKLOAD]
    traced = tracer_shares(workload, SEED)
    profiled = profile_shares(workload, SEED)
    print(f"{WORKLOAD} seed {SEED}: package share of the measured run")
    print(f"{'package':<12} {'wrappers':>9} {'cProfile':>9}")
    for package in sorted(set(traced) | set(profiled),
                          key=lambda p: -traced.get(p, 0.0)):
        print(f"{package:<12} {traced.get(package, 0.0):9.3f} "
              f"{profiled.get(package, 0.0):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
