"""Passive network observation log.

Spectra's network monitor predicts bandwidth and latency "based upon
passive observation of communication: the RPC package logs the sizes and
elapsed times of short exchanges and bulk transfers" (paper §3.3.2).
:class:`TransferLog` is that log: every simulated transfer appends a
record, and the monitor periodically mines recent records for round-trip
and throughput estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TransferRecord:
    """One logged network transfer.

    ``kind`` distinguishes ``"rpc"`` (short request/response exchange,
    good for RTT estimation) from ``"bulk"`` (large one-way payload, good
    for throughput estimation), mirroring the paper's short-vs-bulk split.
    """

    src: str
    dst: str
    nbytes: int
    started_at: float
    finished_at: float
    kind: str = "bulk"

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Observed bytes/second (0 for instantaneous records)."""
        if self.elapsed <= 0:
            return 0.0
        return self.nbytes / self.elapsed


class TransferLog:
    """Bounded in-memory log of :class:`TransferRecord` entries."""

    def __init__(self, max_records: int = 10_000):
        self.max_records = max_records
        self._records: List[TransferRecord] = []

    def append(self, record: TransferRecord) -> None:
        self._records.append(record)
        if len(self._records) > self.max_records:
            # Drop the oldest half in one slice rather than one-at-a-time.
            del self._records[: self.max_records // 2]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TransferRecord]:
        return iter(self._records)

    def recent(self, since: float, endpoint: Optional[Tuple[str, str]] = None
               ) -> List[TransferRecord]:
        """Records finishing after *since*, optionally for one (src,dst) pair.

        The endpoint filter is direction-insensitive: traffic both ways
        between the pair counts, as both reveal the same link.
        """
        out = []
        for rec in self._records:
            if rec.finished_at < since:
                continue
            if endpoint is not None:
                pair = {rec.src, rec.dst}
                if pair != set(endpoint):
                    continue
            out.append(rec)
        return out
