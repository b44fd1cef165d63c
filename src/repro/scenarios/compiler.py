"""Compile a validated :class:`ScenarioSpec` into a live testbed.

The compiler is the bridge between the declarative world description
and the existing substrates: it instantiates the simulator, network,
RPC transport and Coda file server, wires every host up as a
:class:`~repro.core.SpectraNode`, installs application services and
warms caches through per-app adapters, connects clients to their
servers, and arms a :class:`~repro.faults.FaultInjector` with the
compiled environment timeline.  Everything it builds is exposed on the
returned :class:`CompiledScenario`, so callers that need more than the
canned runner (examples driving discovery, experiments with bespoke
measurement loops) can take the compiled world and drive it by hand.

Construction order is deliberate and stable — hosts in spec order, then
media, then links, then client wiring — because the simulation is
deterministic only relative to a fixed construction sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional

from ..apps import (
    FULL_LM_BYTES,
    FULL_LM_PATH,
    LARGE_DOCUMENT,
    REDUCED_LM_BYTES,
    REDUCED_LM_PATH,
    SMALL_DOCUMENT,
    JanusService,
    LatexApplication,
    LatexService,
    NullApplication,
    SpeechApplication,
    install_document,
    warm_document,
)
from ..coda import FileServer
from ..core import SpectraNode
from ..faults import FaultInjector, FaultSchedule
from ..hosts import get_profile
from ..network import Link, Network, SharedMedium
from ..predictors.store import PredictorStore
from ..rpc import NullService, RpcTransport
from ..sim import Simulator
from ..telemetry import Telemetry
from .arrivals import derive_seed
from .spec import ClientSpec, ScenarioSpec
from .timeline import compile_timeline

#: Latex documents addressable from a scenario's app options.
LATEX_DOCUMENTS = {"small": SMALL_DOCUMENT, "large": LARGE_DOCUMENT}


class AppAdapter:
    """How one application kind maps onto a compiled world.

    An adapter knows how to install the app's files on the Coda file
    server, which RPC service to register on hosts that run the app,
    how to warm a machine's cache, and how to drive operations through
    a per-client application object.  ``options`` is the free-form
    mapping from :class:`~repro.scenarios.spec.AppSpec`.
    """

    kind: str = ""

    def __init__(self, options: Optional[Mapping] = None):
        self.options: Dict[str, Any] = dict(options or {})

    def install(self, fileserver: FileServer) -> None:
        """Create the app's files on the Coda file server."""

    def service(self):
        """A fresh server-side Service instance for one host."""
        raise NotImplementedError

    def warm(self, coda) -> None:
        """Populate one machine's Coda cache with the app's files."""

    def driver(self, client):
        """The per-client application object (has .spec and .register())."""
        raise NotImplementedError

    def operation(self, app, rng: random.Random, index: int,
                  force=None) -> Generator:
        """Process: one operation; returns the OperationReport."""
        raise NotImplementedError


class SpeechAdapter(AppAdapter):
    """Janus speech recognition; options: ``mean_length_s``,
    ``spread_s``, ``min_length_s`` (utterance-length distribution)."""

    kind = "speech"

    def __init__(self, options: Optional[Mapping] = None):
        super().__init__(options)
        self.mean_length_s = float(self.options.get("mean_length_s", 2.0))
        self.spread_s = float(self.options.get("spread_s", 0.8))
        self.min_length_s = float(self.options.get("min_length_s", 0.5))

    def install(self, fileserver) -> None:
        for path, size in ((FULL_LM_PATH, FULL_LM_BYTES),
                           (REDUCED_LM_PATH, REDUCED_LM_BYTES)):
            if not fileserver.exists(path):
                fileserver.create_file(path, size)

    def service(self):
        return JanusService()

    def warm(self, coda) -> None:
        coda.warm(FULL_LM_PATH)
        coda.warm(REDUCED_LM_PATH)

    def driver(self, client):
        return SpeechApplication(client)

    def operation(self, app, rng, index, force=None) -> Generator:
        mean, spread = self.mean_length_s, self.spread_s
        length = max(self.min_length_s,
                     rng.uniform(mean - spread, mean + spread))
        return app.recognize(length, force=force)


class LatexAdapter(AppAdapter):
    """Latex typesetting; options: ``documents`` (names from
    ``LATEX_DOCUMENTS``, default both) and ``warm_outputs``."""

    kind = "latex"

    def __init__(self, options: Optional[Mapping] = None):
        super().__init__(options)
        names = self.options.get("documents", sorted(LATEX_DOCUMENTS))
        unknown = [n for n in names if n not in LATEX_DOCUMENTS]
        if unknown:
            raise ValueError(
                f"unknown latex document(s) {unknown!r} "
                f"(known: {', '.join(sorted(LATEX_DOCUMENTS))})"
            )
        self.documents = {name: LATEX_DOCUMENTS[name] for name in names}

    def install(self, fileserver) -> None:
        for document in self.documents.values():
            install_document(fileserver, document)

    def service(self):
        return LatexService(self.documents)

    def warm(self, coda) -> None:
        outputs = bool(self.options.get("warm_outputs", True))
        for document in self.documents.values():
            warm_document(coda, document, outputs=outputs)

    def driver(self, client):
        return LatexApplication(client, self.documents)

    def operation(self, app, rng, index, force=None) -> Generator:
        names = sorted(self.documents)
        return app.format(names[index % len(names)], force=force)


class NullAdapter(AppAdapter):
    """The §4.4 null operation — pure Spectra overhead traffic."""

    kind = "null"

    def service(self):
        return NullService()

    def driver(self, client):
        return NullApplication(client)

    def operation(self, app, rng, index, force=None) -> Generator:
        return app.invoke(force=force)


#: App kind -> adapter class; the spec validator checks against this.
ADAPTERS = {
    "speech": SpeechAdapter,
    "latex": LatexAdapter,
    "null": NullAdapter,
}


@dataclass
class CompiledClient:
    """One traffic source of a compiled world."""

    spec: ClientSpec
    node: SpectraNode
    adapter: AppAdapter
    app: Any  # the per-client application driver
    #: seeded generator for this client's workload draws
    rng: random.Random = field(repr=False,
                               default_factory=lambda: random.Random(0))

    @property
    def name(self) -> str:
        return self.spec.host

    @property
    def client(self):
        return self.node.require_client()

    def operation(self, index: int, force=None) -> Generator:
        return self.adapter.operation(self.app, self.rng, index, force=force)


@dataclass
class CompiledScenario:
    """A live, runnable world built from a spec."""

    spec: ScenarioSpec
    sim: Simulator
    network: Network
    transport: RpcTransport
    fileserver: FileServer
    nodes: Dict[str, SpectraNode]
    media: Dict[str, SharedMedium]
    clients: List[CompiledClient]
    injector: FaultInjector
    schedule: FaultSchedule
    telemetry: Optional[Telemetry]

    def install_timeline(self, offset_s: float = 0.0) -> FaultSchedule:
        """Arm the compiled timeline, shifted to start at *offset_s*."""
        shifted = (self.schedule.shifted(offset_s) if offset_s > 0
                   else self.schedule)
        self.injector.install(shifted)
        return shifted


def compile_scenario(
    spec: ScenarioSpec,
    telemetry: Optional[Telemetry] = None,
    connect_clients: bool = True,
    register_apps: bool = True,
    predictor_store: Optional[PredictorStore] = None,
) -> CompiledScenario:
    """Build the world *spec* describes and return every live piece.

    ``connect_clients=False`` leaves every client's server database
    empty and skips status polls (for discovery-driven worlds);
    ``register_apps=False`` skips client-side ``register_fidelity``
    (for callers that register with an imported usage log).
    ``predictor_store`` attaches a per-client scope of the given store
    to every Spectra client *before* registration runs, so operations
    warm-start from any state a previous run persisted.
    """
    spec.validate()

    sim = Simulator(telemetry=telemetry) if telemetry else Simulator()
    network = Network(sim)
    transport = RpcTransport(sim, network, telemetry=telemetry)
    fileserver = FileServer(sim, spec.fileserver)
    network.register_host(spec.fileserver)

    adapters = {app.kind: ADAPTERS[app.kind](app.options)
                for app in spec.apps}
    for app in spec.apps:
        adapters[app.kind].install(fileserver)

    nodes: Dict[str, SpectraNode] = {}
    for host in spec.hosts:
        node = SpectraNode(
            sim, network, transport, fileserver,
            host.name, get_profile(host.profile),
            battery_powered=host.battery_powered,
            battery_driver=host.battery_driver,
            with_client=(host.role == "client"),
            telemetry=telemetry,
        )
        nodes[host.name] = node
        for app in spec.apps:
            if app.runs_on(host.name):
                adapter = adapters[app.kind]
                node.register_service(adapter.service())
                adapter.warm(node.coda)

    media = {
        medium.name: SharedMedium(sim, medium.bandwidth_bps,
                                  default_latency_s=medium.latency_s,
                                  name=medium.name)
        for medium in spec.media
    }
    for link in spec.links:
        if link.medium is not None:
            iface = media[link.medium].attach(name=f"{link.a}-{link.b}")
        else:
            iface = Link(sim, link.bandwidth_bps, link.latency_s,
                         name=f"{link.a}-{link.b}")
        network.connect(link.a, link.b, iface)

    clients: List[CompiledClient] = []
    for client_spec in spec.clients:
        node = nodes[client_spec.host]
        client = node.require_client()
        if predictor_store is not None:
            # Each client learns (and persists) its own history: scoping
            # by host name keeps co-named operations on different
            # clients from clobbering each other's documents, and keeps
            # save order irrelevant to the on-disk result.
            client.predictor_store = predictor_store.scoped(client_spec.host)
        if connect_clients:
            for server in client_spec.servers:
                client.add_server(server)
        adapter = adapters[client_spec.app]
        app = adapter.driver(client)
        rng = random.Random(derive_seed(spec.seed, "workload",
                                        client_spec.host))
        clients.append(CompiledClient(spec=client_spec, node=node,
                                      adapter=adapter, app=app, rng=rng))

    if connect_clients:
        for compiled in clients:
            sim.run_process(compiled.client.poll_servers())
            if register_apps:
                sim.run_process(compiled.app.register())

    servers = {host.name: nodes[host.name].server
               for host in spec.hosts if host.role == "server"}
    injector = FaultInjector(sim, network, servers, telemetry=telemetry)
    schedule = compile_timeline(spec)

    return CompiledScenario(
        spec=spec, sim=sim, network=network, transport=transport,
        fileserver=fileserver, nodes=nodes, media=media, clients=clients,
        injector=injector, schedule=schedule, telemetry=telemetry,
    )
