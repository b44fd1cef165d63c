"""Passive network observation log.

Spectra's network monitor predicts bandwidth and latency "based upon
passive observation of communication: the RPC package logs the sizes and
elapsed times of short exchanges and bulk transfers" (paper §3.3.2).
:class:`TransferLog` is that log, one per host: every simulated transfer
appends a record to each host's log at both of its ends, and that host's
monitor periodically mines its recent records for round-trip and
throughput estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class TransferRecord:
    """One logged network transfer."""

    src: str
    dst: str
    nbytes: int
    started_at: float
    finished_at: float

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


class TransferLog:
    """One host's bounded in-memory log of :class:`TransferRecord` entries."""

    MAX_RECORDS = 10_000

    def __init__(self):
        self._records: List[TransferRecord] = []

    def append(self, record: TransferRecord) -> None:
        self._records.append(record)
        if len(self._records) > self.MAX_RECORDS:
            # Drop the oldest half in one slice rather than one-at-a-time.
            del self._records[: self.MAX_RECORDS // 2]

    def __len__(self) -> int:
        return len(self._records)

    def recent(self, since: float, peer: Optional[str] = None
               ) -> List[TransferRecord]:
        """Records finishing after *since*, optionally only those with *peer*.

        The peer filter is direction-insensitive: traffic both ways
        between the host and *peer* counts, as both reveal the same link.
        Every record here already has the log's own host as one end.
        """
        return [
            rec for rec in self._records
            if rec.finished_at >= since
            and (peer is None or peer in (rec.src, rec.dst))
        ]
