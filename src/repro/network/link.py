"""Network links: one-way latency over a share of some bandwidth.

Two kinds of interconnect appear in the paper's testbeds:

* a **serial link** between the Itsy and the T20 (the Itsy lacks a
  PCMCIA slot) — a dedicated point-to-point pipe, and
* a **shared 2 Mb/s wireless network** connecting the 560X and servers A
  and B — a broadcast medium where concurrent transfers contend for the
  same airtime.

Both are a :class:`Link`: a one-way latency over a byte-rate
:class:`~repro.sim.resources.FairShareResource`; the difference is who
owns the resource.  A point-to-point ``Link`` owns a private one; every
link a :class:`SharedMedium` attaches shares the medium's, so
simultaneous transfers split the bandwidth — which is what makes Coda
reintegration traffic slow down a concurrent RPC, an effect Spectra's
predictions must capture.

Links can also *fail* mid-transfer: severing a link (a partition, a
server crash) aborts its own in-flight byte jobs with
:class:`TransferAbortedError`, which propagates up through the waiting
RPC exchange exactly like a real connection reset; the rest of a
medium's traffic keeps flowing.  Bandwidth may be degraded all the way
to zero (a jammed medium): in-flight transfers stall until capacity
returns, and transfer-time estimates become infinite rather than
dividing by zero.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..sim import FairShareJob, FairShareResource, Simulator, Timeout


class TransferAbortedError(RuntimeError):
    """An in-flight transfer was killed by a link failure.

    Raised inside the process waiting on the transfer when the link is
    severed (partition, server crash) while bytes are still moving.  The
    RPC layer classifies it as *retryable*: the link may heal, or
    another server may serve the request.
    """


class Link:
    """A pipe with one-way ``latency`` over a fair share of bandwidth.

    ``bandwidth`` is bytes/second for the pipe as a whole; concurrent
    transfers in either direction share it fairly (full-duplex serial
    lines and half-duplex radios both approximate this under load).  A
    link made by :meth:`SharedMedium.attach` shares the medium's
    bandwidth with every other attached link instead of owning its own.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 latency_s: float, name: str = "link"):
        self._bind(sim, latency_s, name)
        self._resource = FairShareResource(sim, bandwidth_bps, name=f"{name}.bw")

    @classmethod
    def _sharing(cls, sim: Simulator, resource: FairShareResource,
                 latency_s: float, name: str) -> "Link":
        """A link over *resource*, bandwidth another owner shares out."""
        link = cls.__new__(cls)
        link._bind(sim, latency_s, name)
        link._resource = resource
        return link

    def _bind(self, sim: Simulator, latency_s: float, name: str) -> None:
        if latency_s < 0:
            raise ValueError(f"negative latency: {latency_s}")
        self._sim = sim
        self.name = name
        self.latency_s = float(latency_s)
        #: this link's byte jobs, in submission order (on a medium the
        #: resource also serves other links' jobs, which are not ours
        #: to count or abort)
        self._jobs: List[FairShareJob] = []

    @property
    def bandwidth_bps(self) -> float:
        """Nominal capacity, bytes/second (a medium's, if attached)."""
        return self._resource.capacity

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change capacity (the paper's 'network scenario' halves it).

        On an attached link this changes the whole medium.  Zero is
        legal — a fully-jammed link; in-flight transfers stall until
        bandwidth returns.
        """
        self._resource.set_capacity(bandwidth_bps)

    @property
    def active_transfers(self) -> int:
        """This link's byte jobs still in service."""
        return sum(1 for job in self._jobs if job.in_service)

    def abort_transfers(self, reason: str = "") -> int:
        """Fail this link's in-flight transfers with :class:`TransferAbortedError`.

        One fresh exception per transfer, in submission order; returns
        the number aborted.  Called when the link is severed
        mid-operation (fault injection, partitions).  Other links on
        the same medium keep their traffic.
        """
        message = reason or f"transfer aborted: link {self.name!r} severed"
        return sum(self._resource.abort(job, TransferAbortedError(message))
                   for job in list(self._jobs))

    def transmit(self, nbytes: int) -> Generator:
        """Process: move *nbytes* across the link; returns elapsed seconds.

        Time = one-way latency + fair share of bandwidth.  Zero-byte
        transfers still pay latency (a bare datagram).  An abort (link
        severed) fails the job with :class:`TransferAbortedError`, which
        simply propagates; any other exception delivered while waiting
        (an :class:`~repro.sim.Interrupt` from an RPC timeout, a
        generator close) withdraws the job first, so the link's capacity
        is not leaked.
        """
        start = self._sim.now
        yield Timeout(self.latency_s)
        if nbytes > 0:
            job = self._resource.submit(float(nbytes))
            self._jobs.append(job)
            try:
                yield job.done
            except BaseException:
                self._resource.abort(job)  # no-op once finished/aborted
                raise
            finally:
                self._jobs.remove(job)
        return self._sim.now - start

    def estimate_transfer_time(self, nbytes: int) -> float:
        """Analytic estimate for a new transfer given current contention.

        A zero-rate (jammed) link yields ``inf``: the transfer would
        never complete, which the solver scores as infeasible.
        """
        rate = self._resource.rate_for_new_job()
        if nbytes <= 0:
            return self.latency_s
        if rate <= 0:
            return float("inf")
        return self.latency_s + nbytes / rate


class SharedMedium:
    """A broadcast medium (wireless LAN) shared by many endpoints.

    :meth:`attach` returns a :class:`Link` for one endpoint pair; every
    attached link shares the medium's bandwidth resource, so contention
    is global, while per-pair latency may differ.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 default_latency_s: float = 0.002, name: str = "medium"):
        self._sim = sim
        self.name = name
        self.default_latency_s = default_latency_s
        self._resource = FairShareResource(sim, bandwidth_bps, name=f"{name}.bw")
        self._attached = 0

    @property
    def bandwidth_bps(self) -> float:
        return self._resource.capacity

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        self._resource.set_capacity(bandwidth_bps)

    def attach(self, latency_s: Optional[float] = None,
               name: str = "") -> Link:
        """Create a link over this medium with its own latency."""
        link = Link._sharing(
            self._sim,
            self._resource,
            latency_s if latency_s is not None else self.default_latency_s,
            name=name or f"{self.name}.view{self._attached}",
        )
        self._attached += 1
        return link
