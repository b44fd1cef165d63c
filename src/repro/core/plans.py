"""Execution plans and alternatives.

An *execution plan* is one way of partitioning an operation between the
client and a remote machine (paper §3.1): the speech recognizer has
``local``, ``remote``, and ``hybrid``; Latex has ``local`` and
``remote``; Pangloss-Lite composes per-engine placements.

Spectra treats plans opaquely — the application's own code performs the
``do_local_op`` / ``do_remote_op`` calls a plan implies — but the plan
object carries the two facts placement reasoning needs:

* ``uses_remote`` — whether selecting this plan requires choosing a
  server (and whether it is even feasible when no server is reachable);
* ``file_access_role`` — on which machine the operation's file working
  set is read, which determines whose cache state matters and whether
  client-side dirty data must reintegrate first.

An :class:`Alternative` is one point of the solver's search space: a
plan, a concrete server (when the plan needs one), and a fidelity point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from .operation import DecisionContext


@dataclass(frozen=True)
class ExecutionPlan:
    """One way to split an operation between client and server."""

    name: str
    uses_remote: bool = False
    #: "local" or "remote" — where the operation's files are read.
    file_access_role: str = "local"
    description: str = ""
    #: Maximum number of servers the plan's remote work can spread over
    #: concurrently.  1 is the paper's sequential execution model; >1
    #: implements its future-work extension ("execution plans that
    #: support parallel execution ... the three engines could be
    #: executed in parallel on different servers").  The effective
    #: degree is capped by the number of reachable servers at decision
    #: time.
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.file_access_role not in ("local", "remote"):
            raise ValueError(
                f"file_access_role must be 'local' or 'remote': "
                f"{self.file_access_role!r}"
            )
        if self.file_access_role == "remote" and not self.uses_remote:
            raise ValueError(
                f"plan {self.name!r} reads files remotely but uses_remote=False"
            )
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1: {self.parallelism}")
        if self.parallelism > 1 and not self.uses_remote:
            raise ValueError(
                f"plan {self.name!r} is parallel but uses_remote=False"
            )


#: Convenience constructors for the two ubiquitous plans.
def local_plan(description: str = "all computation on the client") -> ExecutionPlan:
    return ExecutionPlan(name="local", uses_remote=False,
                         file_access_role="local", description=description)


def remote_plan(description: str = "all computation on a server") -> ExecutionPlan:
    return ExecutionPlan(name="remote", uses_remote=True,
                         file_access_role="remote", description=description)


@dataclass(frozen=True)
class Alternative:
    """One candidate (plan, server, fidelity) the solver can pick.

    ``fidelity`` is stored as a sorted tuple of (dimension, value) pairs
    so alternatives are hashable; :meth:`fidelity_dict` restores the
    mapping form.
    """

    plan: ExecutionPlan
    server: Optional[str]
    fidelity: Tuple[Tuple[str, Any], ...]
    #: memo slot for OperationSpec.decision_context — an Alternative is
    #: built from exactly one spec's plans/fidelity enumeration, so its
    #: demand context is a constant of the instance.
    #: compare=False keeps eq/hash on the (plan, server, fidelity) value.
    _context: Optional["DecisionContext"] = field(
        default=None, compare=False, repr=False,
    )

    @classmethod
    def build(cls, plan: ExecutionPlan, server: Optional[str],
              fidelity: Mapping[str, Any]) -> "Alternative":
        if plan.uses_remote and server is None:
            raise ValueError(f"plan {plan.name!r} requires a server")
        if not plan.uses_remote and server is not None:
            raise ValueError(f"plan {plan.name!r} does not take a server")
        return cls(plan=plan, server=server,
                   fidelity=tuple(sorted(fidelity.items())))

    def fidelity_dict(self) -> Dict[str, Any]:
        return dict(self.fidelity)

    def discrete_context(self) -> Dict[str, Any]:
        """The binning key for demand prediction: fidelity + plan name.

        The server is deliberately excluded: demand (cycles, bytes) is a
        property of the work, not of which machine does it — machine
        speed enters when demand is divided by supply.
        """
        context = self.fidelity_dict()
        context["plan"] = self.plan.name
        return context

    def describe(self) -> str:
        fid = ", ".join(f"{k}={v}" for k, v in self.fidelity)
        where = f"@{self.server}" if self.server else ""
        return f"{self.plan.name}{where} [{fid}]"
