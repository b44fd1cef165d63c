"""Record the expected digest of each workload for a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py

Runs every workload once per seed in :data:`SEEDS` and on
:data:`HOLDOUT_SEED` (untraced) and rewrites
``perfbench/digests.json``.  Re-record only in a change that means to
alter what the simulator decides; a change that only makes it faster
must leave every recorded digest matching.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
#: Seeds the workloads were sized on; the holdout seed is not among them.
SIZING_SEEDS = "1-10"
#: Seeds recorded in ``digests.json``.
SEEDS = range(0, 64)
#: Seed never run while the workloads were sized (choosing-metrics §6.3).
HOLDOUT_SEED = 7919


def main() -> int:
    sys.path.insert(0, str(pathlib.Path.cwd() / "src"))
    from workloads import WORKLOADS

    seeds = [*SEEDS, HOLDOUT_SEED]
    digests = {}
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in seeds:
            outcome = workload.measure(workload.setup(seed))
            if outcome.failed:
                raise SystemExit(f"{name} seed {seed}: {outcome.failed} "
                                 f"operations failed: {outcome.errors}")
            digests[name][str(seed)] = outcome.digest
            print(f"{name} {seed} {outcome.digest}", flush=True)
    document = {"sizing_seeds": SIZING_SEEDS, "holdout_seed": HOLDOUT_SEED,
                "digests": digests}
    (HERE / "digests.json").write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
