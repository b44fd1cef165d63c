"""Unit tests for the network substrate (repro.network)."""

import pytest

from repro.faults import FaultEvent, FaultInjector
from repro.network import (
    Link,
    Network,
    NoRouteError,
    SharedMedium,
    TransferAbortedError,
    TransferLog,
    TransferRecord,
)


class TestLink:
    def test_transfer_time_is_latency_plus_serialization(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.5)

        def push():
            return (yield from link.transmit(2000))

        assert sim.run_process(push()) == pytest.approx(2.5)

    def test_zero_bytes_pays_latency_only(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.25)

        def push():
            return (yield from link.transmit(0))

        assert sim.run_process(push()) == pytest.approx(0.25)

    def test_concurrent_transfers_share_bandwidth(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.0)
        done = []

        def push(tag, nbytes):
            elapsed = yield from link.transmit(nbytes)
            done.append((tag, sim.now))

        sim.spawn(push("a", 1000))
        sim.spawn(push("b", 1000))
        sim.run()
        # Both share 1000 B/s: each finishes at t=2.
        assert dict(done) == {"a": 2.0, "b": 2.0}

    def test_bandwidth_change_affects_inflight(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.0)

        def push():
            return (yield from link.transmit(1000))

        sim.call_in(0.5, lambda: link.set_bandwidth(500.0))
        assert sim.run_process(push()) == pytest.approx(0.5 + 0.5 * 1000 / 500)

    def test_estimate_reflects_contention(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.1)
        assert link.estimate_transfer_time(1000) == pytest.approx(1.1)
        job = link._resource.submit(1e9)
        assert link.estimate_transfer_time(1000) == pytest.approx(2.1)

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 1000.0, -0.1)


class TestSharedMedium:
    def test_views_contend_globally(self, sim):
        medium = SharedMedium(sim, bandwidth_bps=1000.0,
                              default_latency_s=0.0)
        view1 = medium.attach()
        view2 = medium.attach()
        finished = {}

        def push(view, tag):
            yield from view.transmit(1000)
            finished[tag] = sim.now

        sim.spawn(push(view1, "v1"))
        sim.spawn(push(view2, "v2"))
        sim.run()
        # Different host pairs, same airtime: both take 2 s.
        assert finished == {"v1": 2.0, "v2": 2.0}

    def test_per_view_latency(self, sim):
        medium = SharedMedium(sim, 1000.0, default_latency_s=0.001)
        near = medium.attach(latency_s=0.001)
        far = medium.attach(latency_s=0.1)
        assert near.latency_s == 0.001
        assert far.latency_s == 0.1

    def test_bandwidth_change_propagates_to_views(self, sim):
        medium = SharedMedium(sim, 1000.0)
        views = [medium.attach() for _ in range(3)]
        medium.set_bandwidth(500.0)
        assert [view.bandwidth_bps for view in views] == [500.0] * 3
        views[0].set_bandwidth(250.0)  # one link's change is the medium's
        assert medium.bandwidth_bps == 250.0
        assert [view.bandwidth_bps for view in views] == [250.0] * 3


class TestNetworkTopology:
    @pytest.fixture
    def net(self, sim):
        network = Network(sim)
        network.register_host("a")
        network.register_host("b")
        network.connect("a", "b", Link(sim, 1000.0, 0.1))
        return network

    def test_transfer_logs_record(self, sim, net):
        def push():
            return (yield from net.transfer("a", "b", 500))

        elapsed = sim.run_process(push())
        assert elapsed == pytest.approx(0.6)
        for host in ("a", "b"):
            [record] = net.interface(host).log.recent(0.0)
            assert (record.src, record.dst, record.nbytes) == ("a", "b", 500)
            assert record.elapsed == pytest.approx(0.6)

    def test_loopback_is_free_and_unlogged(self, sim, net):
        def push():
            return (yield from net.transfer("a", "a", 10_000))

        assert sim.run_process(push()) == 0.0
        assert len(net.interface("a").log) == 0
        assert net.transfers == 0

    def test_totals_count_every_completed_transfer(self, sim, net,
                                                   monkeypatch):
        """The report totals count every completed transfer, also once
        the capped host logs have evicted records, and no aborted one."""
        monkeypatch.setattr(TransferLog, "MAX_RECORDS", 4)
        sizes = [100 + i for i in range(10)]

        def push():
            for size in sizes:
                yield from net.transfer("a", "b", size)

        sim.run_process(push())
        assert net.transfers == 10
        assert net.bytes_transferred == sum(sizes)
        for host in ("a", "b"):
            assert len(net.interface(host).log) <= 4

        outcome = {}

        def doomed():
            try:
                yield from net.transfer("a", "b", 10_000)
            except TransferAbortedError:
                outcome["aborted"] = True

        sim.spawn(doomed())
        sim.advance(0.5)
        net.disconnect("a", "b")
        sim.run()
        assert outcome == {"aborted": True}
        assert net.transfers == 10
        assert net.bytes_transferred == sum(sizes)

    def test_tx_rx_power_callbacks(self, sim, net):
        events = []
        net.interface("a").on_tx_change = lambda active: events.append(
            ("tx", active)
        )
        net.interface("b").on_rx_change = lambda active: events.append(
            ("rx", active)
        )

        def push():
            yield from net.transfer("a", "b", 500)

        sim.run_process(push())
        assert events == [("tx", True), ("rx", True),
                          ("tx", False), ("rx", False)]

    def test_no_route_raises(self, sim, net):
        net.register_host("c")
        with pytest.raises(NoRouteError):
            net.link_between("a", "c")
        assert not net.connected("a", "c")

    def test_disconnect(self, sim, net):
        assert net.connected("a", "b")
        net.disconnect("a", "b")
        assert not net.connected("a", "b")

    def test_connect_requires_registered_hosts(self, sim, net):
        with pytest.raises(NoRouteError):
            net.connect("a", "ghost", Link(sim, 1.0, 0.0))

    def test_negative_transfer_rejected(self, sim, net):
        with pytest.raises(ValueError):
            list(net.transfer("a", "b", -1))


class TestTransferLog:
    def make_record(self, nbytes, t0=0.0, t1=1.0):
        return TransferRecord(src="a", dst="b", nbytes=nbytes,
                              started_at=t0, finished_at=t1)

    def test_recent_filters_by_time(self):
        log = TransferLog()
        log.append(self.make_record(100, 0.0, 1.0))
        log.append(self.make_record(200, 5.0, 6.0))
        assert [r.nbytes for r in log.recent(2.0)] == [200]

    def test_endpoint_filter_is_bidirectional(self):
        log = TransferLog()  # host a's log
        log.append(TransferRecord("a", "b", 1, 0, 1))
        log.append(TransferRecord("b", "a", 2, 0, 1))
        log.append(TransferRecord("a", "c", 3, 0, 1))
        pair = log.recent(0.0, peer="b")
        assert [r.nbytes for r in pair] == [1, 2]

    def test_bounded_size(self):
        log = TransferLog()
        total = TransferLog.MAX_RECORDS * 2 + 5
        for i in range(total):
            log.append(self.make_record(i, t0=i, t1=i + 1))
        assert len(log) <= TransferLog.MAX_RECORDS
        # Newest records survive.
        assert log.recent(0.0)[-1].nbytes == total - 1


class TestLinkFailures:
    def test_zero_bandwidth_estimate_is_infinite(self, sim):
        """Regression: a jammed link used to divide by zero."""
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.1)
        link.set_bandwidth(0.0)
        assert link.estimate_transfer_time(500) == float("inf")
        # Zero bytes still only pay latency, even when jammed.
        assert link.estimate_transfer_time(0) == pytest.approx(0.1)

    def test_zero_bandwidth_estimate_on_medium_view(self, sim):
        medium = SharedMedium(sim, 1000.0, default_latency_s=0.01)
        view = medium.attach()
        medium.set_bandwidth(0.0)
        assert view.estimate_transfer_time(500) == float("inf")

    def test_network_estimate_propagates_infinity(self, sim):
        network = Network(sim)
        network.register_host("a")
        network.register_host("b")
        link = Link(sim, 1000.0, 0.1)
        network.connect("a", "b", link)
        link.set_bandwidth(0.0)
        assert network.estimate_transfer_time("a", "b", 500) == float("inf")

    def test_abort_transfers_fails_waiters(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.0)
        failures = []

        def push():
            try:
                yield from link.transmit(10_000)
            except TransferAbortedError as exc:
                failures.append(str(exc))

        sim.spawn(push())
        sim.spawn(push())
        sim.advance(0.5)
        assert link.abort_transfers("storm") == 2
        sim.run()
        assert failures == ["storm", "storm"]
        assert link.active_transfers == 0

    def test_medium_view_abort_is_pair_scoped(self, sim):
        medium = SharedMedium(sim, 1000.0, default_latency_s=0.0)
        view_ab = medium.attach(name="a-b")
        view_cd = medium.attach(name="c-d")
        fates = {}

        def push(view, key):
            try:
                yield from view.transmit(10_000)
                fates[key] = "done"
            except TransferAbortedError:
                fates[key] = "aborted"

        sim.spawn(push(view_ab, "ab"))
        sim.spawn(push(view_cd, "cd"))
        sim.advance(0.5)
        # Severing one pair leaves the rest of the medium's traffic up.
        assert view_ab.abort_transfers() == 1
        sim.run()
        assert fates == {"ab": "aborted", "cd": "done"}
        assert view_ab.active_transfers == view_cd.active_transfers == 0

    def test_disconnect_aborts_in_flight_by_default(self, sim):
        network = Network(sim)
        network.register_host("a")
        network.register_host("b")
        network.connect("a", "b", Link(sim, 1000.0, 0.0))
        outcome = {}

        def push():
            try:
                yield from network.transfer("a", "b", 10_000)
            except TransferAbortedError as exc:
                outcome["error"] = str(exc)

        sim.spawn(push())
        sim.advance(0.5)
        removed = network.disconnect("a", "b")
        sim.run()
        assert "partition" in outcome["error"]
        assert removed is not None
        assert network.disconnect("a", "b") is None  # already gone

    def test_links_of_returns_adjacent_links(self, sim):
        network = Network(sim)
        for host in ("a", "b", "c"):
            network.register_host(host)
        ab = Link(sim, 1000.0, 0.0)
        bc = Link(sim, 1000.0, 0.0)
        network.connect("a", "b", ab)
        network.connect("b", "c", bc)
        links = network.links_of("b")
        assert links == {("a", "b"): ab, ("b", "c"): bc}
        assert network.links_of("a") == {("a", "b"): ab}


def _point_to_point(sim):
    return Link(sim, bandwidth_bps=1000.0, latency_s=0.0, name="a-b"), None


def _on_medium(sim):
    medium = SharedMedium(sim, 1000.0, default_latency_s=0.0)
    return medium.attach(name="a-b"), medium


@pytest.fixture(params=[_point_to_point, _on_medium],
                ids=["point-to-point", "medium"])
def make_link(request):
    """Both kinds of link: one that owns its bandwidth, one on a medium."""
    return request.param


class TestOneLinkType:
    def test_abort_order_and_fresh_exception_per_job(self, sim, make_link):
        link, _medium = make_link(sim)
        failures = []

        def push(tag):
            try:
                yield from link.transmit(10_000)
            except TransferAbortedError as exc:
                failures.append((tag, exc))

        for tag in ("first", "second", "third"):
            sim.spawn(push(tag))
        sim.advance(0.5)
        assert link.abort_transfers("severed") == 3
        assert [tag for tag, _exc in failures] == ["first", "second", "third"]
        assert len({id(exc) for _tag, exc in failures}) == 3
        assert all(str(exc) == "severed" for _tag, exc in failures)

    def test_active_transfers_counts_this_link_only(self, sim, make_link):
        link, medium = make_link(sim)
        other = (medium.attach(name="c-d") if medium
                 else Link(sim, 1000.0, 0.0, name="c-d"))
        for transport, nbytes in ((link, 1000), (link, 5000), (other, 5000)):
            sim.spawn(transport.transmit(nbytes))
        sim.advance(0.5)
        assert (link.active_transfers, other.active_transfers) == (2, 1)
        link.abort_transfers()
        assert (link.active_transfers, other.active_transfers) == (0, 1)
        sim.run()
        assert (link.active_transfers, other.active_transfers) == (0, 0)

    def test_completed_job_is_not_in_flight(self, sim, make_link):
        """A job that finished at this instant is not counted or aborted,
        even while its waiter has yet to resume (an RPC timeout's
        interrupt is still queued)."""
        link, _medium = make_link(sim)
        sim.call_at(1.0, lambda: waiter.interrupt("rpc timeout"))
        waiter = sim.spawn(link.transmit(1000))
        seen = {}

        def probe():
            seen["active"] = link.active_transfers
            seen["aborted"] = link.abort_transfers()
        # At t=1.0, in queue order: the interrupt is issued, the
        # 1000 B job finishes (1000 B/s), the probe runs, and only then
        # is the interrupt delivered to the waiter.
        sim.call_at(0.5, lambda: sim.call_at(1.0, probe))
        sim.run()
        assert seen == {"active": 0, "aborted": 0}
        assert link.active_transfers == 0

    def test_attached_links_keep_default_names(self, sim):
        medium = SharedMedium(sim, 1000.0, name="wlan")
        names = [medium.attach().name, medium.attach(name="x-y").name,
                 medium.attach().name]
        assert names == ["wlan.view0", "x-y", "wlan.view2"]

    def test_attach_rejects_negative_latency(self, sim):
        medium = SharedMedium(sim, 1000.0)
        with pytest.raises(ValueError):
            medium.attach(latency_s=-0.1)


class TestPartitionAtCompletionInstant:
    """The partition journal records the link's in-flight count; a
    transfer completing at the partition's instant counts only if the
    partition lands first."""

    def _world(self, sim, make_link):
        network = Network(sim)
        for host in ("a", "b"):
            network.register_host(host)
        link, _medium = make_link(sim)
        network.connect("a", "b", link)
        return network, FaultInjector(sim, network)

    def _push(self, sim, network, fates):
        def push():
            try:
                yield from network.transfer("a", "b", 1000)
                fates.append("done")
            except TransferAbortedError:
                fates.append("aborted")
        sim.spawn(push())

    def test_partition_first_aborts_the_transfer(self, sim, make_link):
        network, injector = self._world(sim, make_link)
        fates = []
        injector.schedule(FaultEvent(1.0, "partition", ("a", "b")))
        self._push(sim, network, fates)  # completion timer queued later
        sim.run()
        assert fates == ["aborted"]
        assert injector.applied[0].aborted_transfers == 1

    def test_completion_first_leaves_nothing_to_abort(self, sim, make_link):
        network, injector = self._world(sim, make_link)
        fates = []
        self._push(sim, network, fates)
        sim.call_at(0.5, lambda: injector.schedule(
            FaultEvent(1.0, "partition", ("a", "b"))))
        sim.run()
        assert fates == ["done"]
        assert injector.applied[0].aborted_transfers == 0
