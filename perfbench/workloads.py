"""The benchmark's three workloads, built from a seed through the public API.

Each workload has two phases, timed separately by ``run.py``:

``setup(seed)``
    Build the world before measured traffic starts (reported as
    ``setup_s``) and return it.
``measure(world)``
    Run the measured traffic on that world and return an
    :class:`Outcome`: per-op simulated latencies, simulated client
    energy, and a digest of everything the simulator decided.

The simulator is deterministic, so one seed always gives one digest;
``digests.json`` records the expected digest per workload and seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List
from unittest import mock

from repro.apps import (
    ENGINE_FILES,
    PanglossApplication,
    PanglossService,
    SentenceWorkload,
    install_pangloss_files,
    warm_pangloss_files,
)
from repro.core import NoFeasibleAlternativeError
from repro.rpc import RetryPolicy, RpcError
from repro.scenarios import (
    AppSpec,
    ArrivalSpec,
    ClientSpec,
    HostSpec,
    LinkSpec,
    MediumSpec,
    ScenarioSpec,
    ThinkSpec,
    TimelineEventSpec,
    compile_scenario,
    derive_seed,
    generate_arrivals,
    run_scenario,
    think_time,
)
from repro.scenarios import library, runner
from repro.sim import AllOf, Timeout
from repro.telemetry import Telemetry
from repro.testbeds import ThinkpadTestbed

#: Errors an operation may end with and still count as handled: the
#: scenario runner's own typed failure set.
TYPED_ERRORS = (NoFeasibleAlternativeError, RpcError)


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int
    failed: int
    latencies_s: List[float]
    energy_j: float
    digest: str
    #: simulator kernel events processed during the measured run
    events: int = 0
    errors: List[str] = field(default_factory=list)


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- metro-400 -------------------------------------------------------------------

METRO_CLIENTS_PER_CELL = 50


@dataclass
class _MetroWorld:
    spec: ScenarioSpec
    telemetry: Telemetry
    world: Any


class Metro400:
    """The canned ``metro`` layout at 8 cells x 50 clients.

    Population scale: 400 clients issue null operations (Poisson
    arrivals), so the transfer log, the network monitor's fit and the
    fair-share scheduler carry the load while the predictors and the
    solver stay nearly idle.
    """

    name = "metro-400"

    def spec(self, seed: int) -> ScenarioSpec:
        # The canned factory reads the per-cell client count when it is
        # called; patching it scales the layout without copying it.
        with mock.patch.object(library, "METRO_CLIENTS_PER_CELL",
                               METRO_CLIENTS_PER_CELL):
            spec = library.metro()
        spec = dataclasses.replace(spec, seed=seed).validate()
        expected = library.METRO_CELLS * METRO_CLIENTS_PER_CELL
        if len(spec.clients) != expected:
            raise RuntimeError(f"metro layout has {len(spec.clients)} "
                               f"clients, expected {expected}")
        return spec

    def setup(self, seed: int) -> _MetroWorld:
        spec = self.spec(seed)
        telemetry = Telemetry()
        return _MetroWorld(spec=spec, telemetry=telemetry,
                           world=compile_scenario(spec, telemetry=telemetry))

    def measure(self, metro: _MetroWorld) -> Outcome:
        def compiled(spec, telemetry, predictor_store):
            if (spec is not metro.spec or telemetry is not metro.telemetry
                    or predictor_store is not None):
                raise RuntimeError("run_scenario compiled a different world")
            return metro.world

        # run_scenario compiles its spec itself and takes no compiled
        # world; handing it the one built in setup keeps compile time in
        # setup_s only.  The report is the same, since compiling is
        # deterministic, and the digest check confirms it.
        with mock.patch.object(runner, "compile_scenario", compiled):
            report = run_scenario(metro.spec, telemetry=metro.telemetry)
        completed = [op for op in report.ops if op.completed]
        return Outcome(
            attempted=len(report.ops),
            failed=len(report.ops) - len(completed),
            latencies_s=[op.elapsed_s for op in completed],
            energy_j=sum(report.energy_j.values()),
            digest=hashlib.sha256(
                report.to_json().encode("utf-8")).hexdigest(),
            events=int(metro.telemetry.metrics.counter("sim.events").value),
            errors=sorted({op.error for op in report.ops if op.error}),
        )


# -- pangloss-steady -------------------------------------------------------------

PANGLOSS_SCENARIOS = ("baseline", "filecache", "cpu")
PANGLOSS_TRAINING_SENTENCES = 129
PANGLOSS_SENTENCES = 100
EBMT_CORPUS = ENGINE_FILES["ebmt"][0]


@dataclass
class _PanglossWorld:
    seed: int
    beds: Dict[str, Any]
    apps: Dict[str, PanglossApplication]


class PanglossSteady:
    """The paper's three Pangloss-Lite scenarios (section 4.3).

    Each scenario gets a ThinkPad testbed trained on the 129-sentence
    regimen; the measured phase asks Spectra to choose, unforced, for
    100 seeded sentences per scenario, restoring the scenario's cache
    state after each one.  About 100 alternatives per decision, one
    client, no contention: the decision path (predictors, demand
    estimation, solver) carries the load.
    """

    name = "pangloss-steady"

    def setup(self, seed: int) -> _PanglossWorld:
        beds: Dict[str, Any] = {}
        apps: Dict[str, PanglossApplication] = {}
        for scenario in PANGLOSS_SCENARIOS:
            bed = ThinkpadTestbed()
            install_pangloss_files(bed.fileserver)
            for node in (bed.thinkpad, bed.server_a, bed.server_b):
                warm_pangloss_files(node.coda)
                node.register_service(PanglossService())
            bed.poll()
            app = PanglossApplication(bed.client)
            bed.sim.run_process(app.register())
            alternatives = app.spec.alternatives(["server-a", "server-b"])
            training = SentenceWorkload().training(PANGLOSS_TRAINING_SENTENCES)
            for i, words in enumerate(training):
                bed.sim.run_process(app.translate(
                    words, force=alternatives[i % len(alternatives)]))
            bed.sim.advance(30.0)
            bed.poll()
            if scenario in ("filecache", "cpu"):
                self._evict_corpus(bed)
                if scenario == "cpu":
                    bed.load_server_cpu("server-a", nprocesses=2)
                    bed.sim.advance(10.0)
                bed.poll()
            beds[scenario] = bed
            apps[scenario] = app
        return _PanglossWorld(seed=seed, beds=beds, apps=apps)

    @staticmethod
    def _evict_corpus(bed) -> None:
        if bed.server_b.coda.is_cached(EBMT_CORPUS):
            bed.server_b.coda.flush(EBMT_CORPUS)

    def measure(self, world: _PanglossWorld) -> Outcome:
        # Every seed translates the same lengths, spread evenly over the
        # workload's word range, in a seeded order: the order changes
        # what the predictors have learned at each decision, while the
        # per-op latency and energy mix stays comparable across seeds.
        span = SentenceWorkload()
        sentences = [
            span.min_words + (i * (span.max_words - span.min_words + 1))
            // PANGLOSS_SENTENCES
            for i in range(PANGLOSS_SENTENCES)
        ]
        random.Random(derive_seed(world.seed, "pangloss-sentences")
                      ).shuffle(sentences)
        chosen: List[list] = []
        latencies: List[float] = []
        energy = 0.0
        failed = 0
        errors = set()
        events = 0
        for scenario in PANGLOSS_SCENARIOS:
            bed, app = world.beds[scenario], world.apps[scenario]
            events0 = bed.sim.events_processed
            for index, words in enumerate(sentences):
                e0 = bed.thinkpad.host.energy_consumed_joules()
                try:
                    report = bed.sim.run_process(app.translate(words))
                except TYPED_ERRORS as exc:
                    failed += 1
                    errors.add(f"{type(exc).__name__}: {exc}")
                    chosen.append([scenario, index, words, "error",
                                   type(exc).__name__])
                    continue
                spent = bed.thinkpad.host.energy_consumed_joules() - e0
                latencies.append(report.elapsed_s)
                energy += spent
                chosen.append([scenario, index, words,
                               report.alternative.describe(),
                               report.elapsed_s, spent])
                if scenario != "baseline":
                    # Keep the scenario steady: a choice that read the
                    # corpus on server B would otherwise warm its cache.
                    self._evict_corpus(bed)
                    bed.poll()
            events += bed.sim.events_processed - events0
        return Outcome(
            attempted=len(chosen), failed=failed, latencies_s=latencies,
            energy_j=energy, digest=_digest(chosen), events=events,
            errors=sorted(errors),
        )


# -- churn-failover --------------------------------------------------------------

CHURN_CLIENTS = 4
CHURN_OPS_PER_CLIENT = 250
CHURN_DURATION_S = 2000.0
#: About 333 arrivals are due in the run, so every client reaches the
#: 250-operation cap and the operation count does not vary with the seed.
CHURN_RATE_OPS_PER_S = 1.0 / 6.0
CHURN_PERIOD_S = 70.0
CHURN_DOWN_S = 30.0
CHURN_DEGRADE_EVERY_S = 300.0
CHURN_DEGRADE_FOR_S = 60.0
CHURN_POLL_INTERVAL_S = 10.0
CHURN_TRAINING_OPS = 9
CHURN_SETTLE_S = 10.0


@dataclass
class _ChurnWorld:
    world: Any
    telemetry: Telemetry


class ChurnFailover:
    """Four clients against two servers that crash and restart in turn.

    Clients alternate Latex and speech.  For the first 2000 s of
    simulated time, server A and server B take turns going down for
    30 s every 70 s, and client c0's link to server A drops to 20%
    bandwidth for 60 s every 300 s; the operations run on past that.
    Clients poll their servers every 10 s, so a restarted server is
    used again and the next crash aborts transfers in flight: few
    endpoint pairs, frequent aborts, capacity changes, RPC retries and
    failover.
    """

    name = "churn-failover"

    def spec(self, seed: int) -> ScenarioSpec:
        servers = ("server-a", "server-b")
        hosts = [HostSpec(name=s, profile=s) for s in servers]
        links = [
            LinkSpec(a=a, b=b, bandwidth_bps=library.WIRED_BANDWIDTH_BPS,
                     latency_s=library.WIRED_LATENCY_S)
            for a, b in (("server-a", "fs"), ("server-b", "fs"),
                         ("server-a", "server-b"))
        ]
        media = []
        clients = []
        for i in range(CHURN_CLIENTS):
            name, medium = f"c{i}", f"wireless-{i}"
            hosts.append(HostSpec(name=name, profile="ibm-560x",
                                  role="client", battery_powered=True,
                                  battery_driver="acpi"))
            media.append(MediumSpec(
                name=medium, bandwidth_bps=library.WIRELESS_BANDWIDTH_BPS,
                latency_s=library.WIRELESS_LATENCY_S))
            links.extend(LinkSpec(a=name, b=dst, medium=medium)
                         for dst in servers + ("fs",))
            clients.append(ClientSpec(
                host=name, app="latex" if i % 2 == 0 else "speech",
                servers=servers,
                arrivals=ArrivalSpec(
                    kind="poisson", rate_ops_per_s=CHURN_RATE_OPS_PER_S,
                    n_ops=CHURN_OPS_PER_CLIENT),
                think=ThinkSpec(kind="exponential", mean_s=2.0),
                training_ops=CHURN_TRAINING_OPS,
            ))
        timeline = []
        t, k = CHURN_PERIOD_S / 2, 0
        while t < CHURN_DURATION_S:
            timeline.append(TimelineEventSpec(
                at_s=t, kind="server_down", target=servers[k % 2],
                until_s=t + CHURN_DOWN_S))
            t, k = t + CHURN_PERIOD_S, k + 1
        t = CHURN_DEGRADE_EVERY_S / 3
        while t < CHURN_DURATION_S:
            timeline.append(TimelineEventSpec(
                at_s=t, kind="bandwidth", target=("c0", "server-a"),
                value=0.2, until_s=t + CHURN_DEGRADE_FOR_S))
            t += CHURN_DEGRADE_EVERY_S
        return ScenarioSpec(
            name="churn-failover",
            description="Alternating server crashes under mixed "
                        "Latex/speech traffic with periodic polling.",
            duration_s=CHURN_DURATION_S, seed=seed,
            settle_s=CHURN_SETTLE_S,
            hosts=tuple(hosts), media=tuple(media), links=tuple(links),
            apps=(AppSpec(kind="latex",
                          options={"documents": ["small"],
                                   "warm_outputs": True}),
                  AppSpec(kind="speech",
                          options={"mean_length_s": 1.5,
                                   "spread_s": 0.5})),
            clients=tuple(clients), timeline=tuple(timeline),
        ).validate()

    def setup(self, seed: int) -> _ChurnWorld:
        telemetry = Telemetry()
        world = compile_scenario(self.spec(seed), telemetry=telemetry)
        return _ChurnWorld(world=world, telemetry=telemetry)

    def measure(self, churn: _ChurnWorld) -> Outcome:
        world, spec = churn.world, churn.world.spec
        sim = world.sim
        events0 = sim.events_processed
        # Training, settle and the first poll belong to the measured run,
        # as they do inside run_scenario on metro-400.
        for compiled in world.clients:
            alternatives = compiled.app.spec.alternatives(
                list(compiled.spec.servers))
            for i in range(compiled.spec.training_ops):
                sim.run_process(compiled.operation(
                    i, force=alternatives[i % len(alternatives)]))
        sim.advance(spec.settle_s)
        for compiled in world.clients:
            sim.run_process(compiled.client.poll_servers())
        policy = RetryPolicy(
            max_attempts=3, timeout_s=600.0, backoff_base_s=0.5,
            backoff_multiplier=2.0, backoff_max_s=5.0, jitter=0.1,
            seed=derive_seed(spec.seed, "retry"),
        )
        for compiled in world.clients:
            compiled.client.retry_policy = policy
            compiled.client.start_polling(CHURN_POLL_INTERVAL_S)
        t0 = sim.now
        world.install_timeline(offset_s=t0)
        e0 = {c.name: c.node.host.energy_consumed_joules()
              for c in world.clients}
        records: List[list] = []
        errors = set()

        def drive(compiled):
            arrival_rng = random.Random(
                derive_seed(spec.seed, "arrivals", compiled.name))
            think_rng = random.Random(
                derive_seed(spec.seed, "think", compiled.name))
            times = generate_arrivals(compiled.spec.arrivals, arrival_rng,
                                      spec.duration_s)
            for index, offset in enumerate(times):
                if sim.now < t0 + offset:
                    yield Timeout(t0 + offset - sim.now)
                try:
                    report = yield from compiled.operation(index)
                except TYPED_ERRORS as exc:
                    errors.add(f"{type(exc).__name__}: {exc}")
                    records.append([compiled.name, index, "error",
                                    type(exc).__name__, sim.now - t0])
                else:
                    records.append([compiled.name, index,
                                    report.alternative.describe(),
                                    report.elapsed_s, report.failed_over])
                pause = think_time(compiled.spec.think, think_rng)
                if pause > 0:
                    yield Timeout(pause)

        processes = [sim.spawn(drive(c), name=f"bench@{c.name}")
                     for c in world.clients]

        def barrier():
            yield AllOf(processes)

        sim.run_process(barrier())
        # Energy up to the last completion: the drain below only plays
        # out the rest of the fault timeline on idle clients.
        energy = {c.name: c.node.host.energy_consumed_joules() - e0[c.name]
                  for c in world.clients}
        for compiled in world.clients:
            compiled.client.stop_polling()
        sim.run()
        events = sim.events_processed - events0
        metrics = churn.telemetry.metrics
        counters = {name: metrics.counter(name).value
                    for name in ("spectra.failovers", "rpc.retries",
                                 "rpc.failures", "faults.injected")}
        records.sort(key=lambda r: (r[0], r[1]))
        done = [r for r in records if r[2] != "error"]
        return Outcome(
            attempted=len(records), failed=len(records) - len(done),
            latencies_s=[r[3] for r in done],
            energy_j=sum(energy.values()),
            digest=_digest({"ops": records, "energy_j": energy,
                            "counters": counters,
                            "faults": world.injector.journal()}),
            events=events, errors=sorted(errors),
        )


WORKLOADS = {w.name: w for w in (Metro400(), PanglossSteady(), ChurnFailover())}
