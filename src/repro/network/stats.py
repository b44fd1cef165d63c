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

from bisect import bisect_left
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
    """One host's bounded in-memory log of :class:`TransferRecord` entries.

    Records arrive as transfers complete (``finished_at`` is the
    simulated time of the append), so the log is sorted by finish time
    and a time-window query bisects to its start.
    """

    MAX_RECORDS = 10_000

    def __init__(self):
        self._records: List[TransferRecord] = []
        #: ``finished_at`` of each record, parallel to ``_records``
        self._finished: List[float] = []

    def append(self, record: TransferRecord) -> None:
        self._records.append(record)
        self._finished.append(record.finished_at)
        if len(self._records) > self.MAX_RECORDS:
            # Drop the oldest half in one slice rather than one-at-a-time.
            del self._records[: self.MAX_RECORDS // 2]
            del self._finished[: self.MAX_RECORDS // 2]

    def __len__(self) -> int:
        return len(self._records)

    def recent(self, since: float, peer: Optional[str] = None
               ) -> List[TransferRecord]:
        """Records finishing at or after *since*, optionally only those
        with *peer*.

        The peer filter is direction-insensitive: traffic both ways
        between the host and *peer* counts, as both reveal the same link.
        Every record here already has the log's own host as one end.
        """
        window = self._records[bisect_left(self._finished, since):]
        if peer is None:
            return window
        return [rec for rec in window if peer in (rec.src, rec.dst)]
