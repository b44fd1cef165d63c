"""Per-layer attribution for the traced run.

The layers are the ``repro.<package>`` packages.  While a
:class:`LayerTracer` is installed, the public entry points listed in
:data:`ENTRY_POINTS` are replaced by wrappers that time each call on the
host clock and keep a stack of open spans, so that

* a span's *self* time is its duration minus the durations of the
  spans opened inside it, and
* a package's self time is the sum of its spans' self times.

Time spent in code no listed entry point covers (for example ``apps``,
``hosts`` or ``energy``) counts as self time of the innermost span that
encloses it.  Simulator processes are generators: a wrapped generator
entry point is timed per resumption, so a span sums the host time spent
inside the generator, never the simulated time it spends suspended.

Everything here lives in the benchmark; the program is not changed.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers reported, one per ``repro`` package.
PACKAGES = ("sim", "network", "monitors", "predictors", "solver", "core",
            "rpc", "coda", "faults", "telemetry", "scenarios")

#: (span name, package, "module:Class.method" or "module:function", kind).
#: ``kind`` is ``call`` for plain callables and ``gen`` for generator
#: functions that simulator processes drive.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.run", "sim", "repro.sim.kernel:Simulator.run", "call"),
    ("sim.run_process", "sim", "repro.sim.kernel:Simulator.run_process",
     "call"),
    ("sim.advance", "sim", "repro.sim.kernel:Simulator.advance", "call"),
    ("sim.fairshare.submit", "sim",
     "repro.sim.resources:FairShareResource.submit", "call"),
    ("network.log.recent", "network",
     "repro.network.stats:TransferLog.recent", "call"),
    ("network.transfer", "network", "repro.network.topology:Network.transfer",
     "gen"),
    ("monitors.snapshot", "monitors",
     "repro.monitors.base:MonitorSet.predict_all", "call"),
    ("monitors.start_all", "monitors",
     "repro.monitors.base:MonitorSet.start_all", "call"),
    ("monitors.stop_all", "monitors",
     "repro.monitors.base:MonitorSet.stop_all", "call"),
    ("monitors.network.estimate", "monitors",
     "repro.monitors.network:NetworkMonitor.estimate_to", "call"),
    ("monitors.network.estimate_fileserver", "monitors",
     "repro.monitors.network:NetworkMonitor.estimate_fileserver", "call"),
    ("monitors.update_preds", "monitors",
     "repro.monitors.remote:RemoteProxyMonitor.update_preds", "call"),
    ("predictors.predict", "predictors",
     "repro.predictors.base:OperationDemandPredictor.predict", "call"),
    ("predictors.observe", "predictors",
     "repro.predictors.base:OperationDemandPredictor.observe_operation",
     "call"),
    ("predictors.has_bin", "predictors",
     "repro.predictors.base:OperationDemandPredictor.has_bin", "call"),
    ("predictors.files.expected_fetch_bytes", "predictors",
     "repro.predictors.fileaccess:FileAccessPredictor.expected_fetch_bytes",
     "call"),
    ("predictors.files.likely_files", "predictors",
     "repro.predictors.fileaccess:FileAccessPredictor.likely_files", "call"),
    ("solver.solve", "solver", "repro.solver.heuristic:HeuristicSolver.solve",
     "call"),
    ("solver.solve", "solver",
     "repro.solver.exhaustive:ExhaustiveSolver.solve", "call"),
    ("solver.space_cache", "solver", "repro.solver.space:SpaceCache.get",
     "call"),
    ("solver.all_alternatives", "solver",
     "repro.solver.space:SearchSpace.all_alternatives", "call"),
    ("core.begin_op", "core",
     "repro.core.client:SpectraClient.begin_fidelity_op", "gen"),
    ("core.end_op", "core",
     "repro.core.client:SpectraClient.end_fidelity_op", "gen"),
    ("core.do_local_op", "core",
     "repro.core.client:SpectraClient.do_local_op", "gen"),
    ("core.do_remote_op", "core",
     "repro.core.client:SpectraClient.do_remote_op", "gen"),
    ("core.poll", "core", "repro.core.client:SpectraClient.poll_servers",
     "gen"),
    ("core.register", "core",
     "repro.core.client:SpectraClient.register_fidelity", "gen"),
    ("core.estimate.predict", "core",
     "repro.core.estimate:DemandEstimator.predict", "call"),
    ("rpc.call", "rpc", "repro.rpc.transport:RpcTransport.call", "gen"),
    ("rpc.backoff", "rpc", "repro.rpc.transport:RetryPolicy.backoff_s",
     "call"),
    ("coda.access", "coda", "repro.coda.client:CodaClient.access", "gen"),
    ("coda.modify", "coda", "repro.coda.client:CodaClient.modify", "gen"),
    ("coda.reintegrate", "coda",
     "repro.coda.client:CodaClient.reintegrate_volume", "gen"),
    ("coda.flush", "coda", "repro.coda.client:CodaClient.flush", "call"),
    ("faults.apply", "faults", "repro.faults.injector:FaultInjector.apply",
     "call"),
    ("telemetry.start_span", "telemetry",
     "repro.telemetry.tracer:SpanTracer.start_span", "call"),
    ("telemetry.span_end", "telemetry", "repro.telemetry.tracer:Span.end",
     "call"),
    ("telemetry.counter", "telemetry",
     "repro.telemetry.metrics:MetricsRegistry.counter", "call"),
    ("telemetry.histogram", "telemetry",
     "repro.telemetry.metrics:MetricsRegistry.histogram", "call"),
    ("telemetry.observe", "telemetry",
     "repro.telemetry.metrics:Histogram.observe", "call"),
    ("telemetry.inc", "telemetry", "repro.telemetry.metrics:Counter.inc",
     "call"),
    ("scenarios.run_scenario", "scenarios",
     "repro.scenarios.runner:run_scenario", "call"),
    ("scenarios.compile_scenario", "scenarios",
     "repro.scenarios.compiler:compile_scenario", "call"),
)


def _resolve(target: str) -> Tuple[Any, str, Callable]:
    """``module:Class.attr`` -> (owner, attr, function)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class LayerTracer:
    """Span stack, per-span and per-package self times, and counters."""

    def __init__(self):
        #: one ``[child_seconds]`` cell per open span
        self.stack: List[List[float]] = []
        #: span name -> [calls, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.package_self: Dict[str, float] = {p: 0.0 for p in PACKAGES}
        self.counts: Dict[str, float] = {
            "network.log.records_scanned": 0,
            "network.log.records_returned": 0,
            "network.transfers_aborted": 0,
            "sim.fairshare.peak_active_jobs": 0,
            "solver.evaluations": 0,
            "rpc.failures": 0,
        }
        #: inclusive host seconds of each begin_fidelity_op
        self.begin_op_s: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------------

    def _wrap_call(self, function, span: str, package: str, after=None):
        stack, clock = self.stack, time.perf_counter
        stat = self.spans.setdefault(span, [0, 0.0])
        package_self = self.package_self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[0]
                stat[0] += 1
                stat[1] += own
                package_self[package] += own
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_gen(self, function, span: str, package: str, on_exit=None):
        stack, clock = self.stack, time.perf_counter
        stat = self.spans.setdefault(span, [0, 0.0])
        package_self = self.package_self

        def drive(gen):
            inclusive = 0.0
            value: Any = None
            error: Optional[BaseException] = None
            failure: Optional[BaseException] = None
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        if error is None:
                            item = gen.send(value)
                        else:
                            thrown, error = error, None
                            item = gen.throw(thrown)
                    finally:
                        duration = clock() - start
                        stack.pop()
                        own = duration - frame[0]
                        stat[1] += own
                        package_self[package] += own
                        inclusive += duration
                        if stack:
                            stack[-1][0] += duration
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded into gen
                        value, error = None, exc
            except StopIteration as stop:
                return stop.value
            except BaseException as exc:
                failure = exc
                raise
            finally:
                if on_exit is not None:
                    on_exit(failure, inclusive)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return drive(function(*args, **kwargs))

        return wrapper

    # -- per-span observers -------------------------------------------------------

    def _after_recent(self, args, result) -> None:
        self.counts["network.log.records_scanned"] += len(args[0])
        self.counts["network.log.records_returned"] += len(result)

    def _after_submit(self, args, _result) -> None:
        active = args[0].active_jobs
        if active > self.counts["sim.fairshare.peak_active_jobs"]:
            self.counts["sim.fairshare.peak_active_jobs"] = active

    def _after_solve(self, _args, result) -> None:
        self.counts["solver.evaluations"] += result.evaluations

    def _exit_transfer(self, failure, _inclusive) -> None:
        if isinstance(failure, self._aborted):
            self.counts["network.transfers_aborted"] += 1

    def _exit_rpc(self, failure, _inclusive) -> None:
        if isinstance(failure, Exception):
            self.counts["rpc.failures"] += 1

    def _exit_begin(self, _failure, inclusive) -> None:
        self.begin_op_s.append(inclusive)

    # -- install / remove ---------------------------------------------------------

    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.network import TransferAbortedError
        self._aborted = TransferAbortedError
        after = {"network.log.recent": self._after_recent,
                 "sim.fairshare.submit": self._after_submit,
                 "solver.solve": self._after_solve}
        on_exit = {"network.transfer": self._exit_transfer,
                   "rpc.call": self._exit_rpc,
                   "core.begin_op": self._exit_begin}
        for span, package, target, kind in ENTRY_POINTS:
            owner, attr, function = _resolve(target)
            if kind == "gen":
                wrapper = self._wrap_gen(function, span, package,
                                         on_exit.get(span))
            else:
                wrapper = self._wrap_call(function, span, package,
                                          after.get(span))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                # A module-level function is reached through every
                # module that imported it by name.
                for module in list(sys.modules.values()):
                    if vars(module).get(attr) is function:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def calls(self, span: str) -> float:
        return self.spans.get(span, [0, 0.0])[0]

    def self_s(self, span: str) -> float:
        return self.spans.get(span, [0, 0.0])[1]

    def metrics(self, traced_wall_s: float) -> Dict[str, float]:
        """The per-layer metrics of everything traced so far.

        *traced_wall_s* is the host time of the traced region; package
        shares and the unattributed share are fractions of it.
        """
        counts = self.counts
        scanned = counts["network.log.records_scanned"]
        solves = self.calls("solver.solve")
        begin_ms = [s * 1e3 for s in self.begin_op_s]
        attributed = sum(self.package_self.values())
        out = {
            "network.log.recent.calls": self.calls("network.log.recent"),
            "network.log.recent.self_s": self.self_s("network.log.recent"),
            "network.log.records_scanned": scanned,
            "network.log.scan_hit_ratio": (
                counts["network.log.records_returned"] / scanned
                if scanned else 0.0),
            "network.transfer.calls": self.calls("network.transfer"),
            "network.transfers_aborted": counts["network.transfers_aborted"],
            "monitors.network.estimate.calls":
                self.calls("monitors.network.estimate"),
            "monitors.network.estimate.self_s":
                self.self_s("monitors.network.estimate"),
            "monitors.snapshot.self_s": self.self_s("monitors.snapshot"),
            "sim.fairshare.submit.calls": self.calls("sim.fairshare.submit"),
            "sim.fairshare.submit.self_s":
                self.self_s("sim.fairshare.submit"),
            "sim.fairshare.peak_active_jobs":
                counts["sim.fairshare.peak_active_jobs"],
            "predictors.predict.calls": self.calls("predictors.predict"),
            "predictors.predict.self_s": self.self_s("predictors.predict"),
            "predictors.observe.calls": self.calls("predictors.observe"),
            "predictors.observe.self_s": self.self_s("predictors.observe"),
            "core.estimate.predict.calls":
                self.calls("core.estimate.predict"),
            "core.estimate.predict.self_s":
                self.self_s("core.estimate.predict"),
            "solver.solve.calls": solves,
            "solver.solve.self_s": self.self_s("solver.solve"),
            "solver.evaluations_per_solve": (
                counts["solver.evaluations"] / solves if solves else 0.0),
            "core.begin_op.host_ms_p50": quantile(begin_ms, 0.50),
            "core.begin_op.host_ms_p95": quantile(begin_ms, 0.95),
            "core.begin_op.samples": len(begin_ms),
            "core.end_op.self_s": self.self_s("core.end_op"),
            "rpc.call.calls": self.calls("rpc.call"),
            "rpc.call.self_s": self.self_s("rpc.call"),
            "rpc.retries": self.calls("rpc.backoff"),
            "rpc.failures": counts["rpc.failures"],
            "coda.access.calls": self.calls("coda.access"),
            "coda.access.self_s": self.self_s("coda.access"),
            "faults.injected": self.calls("faults.apply"),
            "telemetry.spans": self.calls("telemetry.start_span"),
            "trace.unattributed_frac": (
                (traced_wall_s - attributed) / traced_wall_s),
        }
        for package, seconds in self.package_self.items():
            out[f"{package}.self_s"] = seconds
            out[f"{package}.self_frac"] = seconds / traced_wall_s
        return out


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolation quantile, q in hundredths (0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[
        round(q * 100) - 1]
