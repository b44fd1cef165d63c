"""The network monitor (paper §3.3.2).

Supply is predicted **passively**: the monitor never injects probe
traffic.  It periodically examines its own host's transmission log —
"the short, small RPCs give an approximation of round trip time, while
the long, large bulk transfers approximate throughput" — and fits, per
(client, server) endpoint pair, the two-parameter model::

    elapsed(n) = latency + n / bandwidth

by recency-weighted least squares over recent transfer records.  In the
deterministic simulator this recovers the true link parameters from as
few as two differently-sized exchanges, and tracks changes (the halved-
bandwidth scenario) as soon as post-change traffic appears — in practice
the periodic server-status polls supply that traffic.

The fit (:func:`fit_link`) is the closed form of that 2×2 problem, in
plain Python: one pass over the log window, newest record first, keeps
the weighted means of size and elapsed time and the sums
``Σw·dx²`` and ``Σw·dx·dy`` about them.  Every snapshot runs it once per
candidate server, over a handful of records, so a numpy solver would
spend nearly all its time on call overhead.  The sums are centred:
raw ``Σw·x²`` for multi-megabyte transfers would swamp the spread it is
meant to measure, and the slope would come from cancellation.

Demand observation is trivial "since all client-server communication
passes through Spectra": the per-operation
:class:`~repro.rpc.ExchangeStats` already counts bytes and RPCs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..network import Network, NoRouteError, TransferRecord
from .base import OperationRecording, ResourceMonitor
from .snapshot import NetworkEstimate, ResourceSnapshot


def fit_link(records: Sequence[TransferRecord],
             decay: float) -> Optional[NetworkEstimate]:
    """Fit ``elapsed = latency + nbytes / bandwidth`` over *records*.

    *records* are in log order, which is finish order: the newest record
    weighs 1, the one before it *decay*, and so on.  The weighted means
    and centred sums are updated one record at a time (West's weighted
    incremental form), so the window is walked once.  ``None`` when the
    records cannot separate latency from bandwidth — fewer than two, or
    no spread in size — or when the slope is not a positive time per
    byte.  A negative intercept is clamped to zero latency.
    """
    if len(records) < 2:
        return None
    weight = 1.0
    total = mean_x = mean_y = sxx = sxy = 0.0
    for record in reversed(records):
        x = record.nbytes
        y = record.elapsed
        total += weight
        dx = x - mean_x
        mean_x += dx * weight / total
        mean_y += (y - mean_y) * weight / total
        sxx += weight * dx * (x - mean_x)
        sxy += weight * dx * (y - mean_y)
        weight *= decay
    if sxx <= 0.0:
        # All the same size: can't separate latency from bandwidth.  (The
        # first record sets the means exactly, so equal sizes give an
        # exact 0.0.)
        return None
    per_byte = sxy / sxx
    if per_byte <= 0:
        return None
    latency = max(mean_y - per_byte * mean_x, 0.0)
    return NetworkEstimate(
        bandwidth_bps=1.0 / per_byte, latency_s=latency, observed=True
    )


class NetworkMonitor(ResourceMonitor):
    """Passive bandwidth/latency estimation for one client host."""

    name = "network"

    BYTES_RESOURCE = "net:bytes"
    RPCS_RESOURCE = "net:rpcs"

    def __init__(self, host_name: str, network: Network,
                 window_s: float = 120.0, decay: float = 0.9):
        self._host_name = host_name
        self._network = network
        self.window_s = window_s
        self.decay = decay

    # -- supply ---------------------------------------------------------------------

    def estimate_to(self, remote: str, now: float) -> NetworkEstimate:
        """Current (bandwidth, latency) estimate for traffic to *remote*.

        Resolution order mirrors the paper: fit the pair's own recent
        transfers; failing that, fit the *machine-wide* transfer history
        ("the instantaneous bandwidth available to the entire machine
        ... assuming that the first hop is the bottleneck link" — on a
        one-interface mobile host, traffic to any peer reveals the
        bottleneck); failing that, the interface's nominal rate.
        """
        since = max(0.0, now - self.window_s)
        log = self._network.interface(self._host_name).log
        estimate = fit_link(log.recent(since, peer=remote), self.decay)
        if estimate is None:
            estimate = fit_link(log.recent(since), self.decay)
        if estimate is None:
            estimate = self._nominal(remote)
        return estimate

    def _nominal(self, remote: str) -> NetworkEstimate:
        """Fallback before any traffic has been observed.

        Uses the link's contention-adjusted nominal rate — morally the
        interface's advertised speed, which a real system also knows.
        """
        try:
            link = self._network.link_between(self._host_name, remote)
        except NoRouteError:
            # Unreachable is a *prediction* (zero bandwidth, infinite
            # latency); any other failure is a wiring bug and must
            # propagate rather than masquerade as a dead link.
            return NetworkEstimate(bandwidth_bps=0.0, latency_s=float("inf"),
                                   observed=False)
        nbytes = 1 << 20
        elapsed = link.estimate_transfer_time(nbytes)
        latency = link.latency_s
        bandwidth = nbytes / max(elapsed - latency, 1e-9)
        return NetworkEstimate(bandwidth_bps=bandwidth, latency_s=latency,
                               observed=False)

    def predict_avail(self, snapshot: ResourceSnapshot,
                      server_name: Optional[str] = None) -> None:
        if server_name is None:
            return
        server = snapshot.servers.get(server_name)
        if server is None:
            return
        if server_name == self._host_name:
            # Loopback: effectively infinite bandwidth, zero latency.
            server.network = NetworkEstimate(float("inf"), 0.0, observed=True)
            return
        if not self._network.connected(self._host_name, server_name):
            server.reachable = False
            server.network = NetworkEstimate(0.0, float("inf"), observed=False)
            return
        server.network = self.estimate_to(server_name, snapshot.taken_at)

    def estimate_fileserver(self, fileserver_host: str,
                            now: float) -> NetworkEstimate:
        """Connectivity estimate to the Coda file server (consistency costs)."""
        if fileserver_host == self._host_name:
            return NetworkEstimate(float("inf"), 0.0, observed=True)
        if not self._network.connected(self._host_name, fileserver_host):
            return NetworkEstimate(0.0, float("inf"), observed=False)
        return self.estimate_to(fileserver_host, now)

    # -- demand ----------------------------------------------------------------------

    def start_op(self, recording: OperationRecording) -> None:
        # ExchangeStats starts at zero inside the recording; nothing to mark.
        pass

    def stop_op(self, recording: OperationRecording) -> None:
        stats = recording.stats
        recording.usage[self.BYTES_RESOURCE] = float(
            stats.bytes_sent + stats.bytes_received
        )
        recording.usage[self.RPCS_RESOURCE] = float(stats.rpcs)
