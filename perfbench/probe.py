"""Host-speed probe: a fixed piece of pure-Python work, timed.

The speed of the host the benchmark was built on swings by up to about
1.8x within minutes, as other tenants load its shared caches and memory
bandwidth, and that moves every host-time figure.  ``run.py`` times
this probe right before and right after each repetition and scales the
repetition's host times by ``REFERENCE_S / probe seconds``.  A scaled
figure reads as host seconds on a host where the probe takes
:data:`REFERENCE_S`.

The probe imports nothing from the program, so no change to the program
can move it.  Its shape follows the simulator's hot path: a heap of
timed events, generator processes resumed with ``send``, tuples
appended to a log that is scanned and trimmed, and a dict of recent
records.  It stays within a few megabytes, so that it never sets the
process's peak resident memory.
"""

from __future__ import annotations

import heapq
import random
import time

#: Probe seconds that a scale factor of 1 stands for.
REFERENCE_S = 0.25

PROCESSES = 400
EVENTS = 120_000
LOG_LIMIT = 20_000


def probe() -> float:
    """Run the probe once and return its host seconds."""
    start = time.perf_counter()
    rng = random.Random(7)
    log: list = []
    recent: dict = {}

    def process(i):
        total = 0.0
        while True:
            total += i * 0.5
            now = yield
            record = (i, total, now, str(i))
            log.append(record)
            recent[(i, len(log) % 8)] = record

    processes = [process(i) for i in range(PROCESSES)]
    queue = []
    for i, proc in enumerate(processes):
        next(proc)
        heapq.heappush(queue, (rng.random(), i, i))
    sequence = PROCESSES
    for _ in range(EVENTS):
        now, _, i = heapq.heappop(queue)
        processes[i].send(now)
        sequence += 1
        heapq.heappush(queue, (now + rng.random(), sequence, i))
        if len(log) > LOG_LIMIT:
            # Scan the log the way the network monitor scans its own.
            [r for r in log if r[2] > now - 0.5]
            del log[: LOG_LIMIT // 2]
    return time.perf_counter() - start
