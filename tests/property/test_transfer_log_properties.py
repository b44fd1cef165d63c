"""A host's transfer log answers as a filter over every transfer would.

Each transfer is logged at both of its ends.  For every host, a query
on its own log must return the same records, in the same order, as the
network's whole transfer history filtered down to that host (and
peer), so the network monitor's fit sees the records it would see in
one network-wide log.
"""

from hypothesis import given, settings, strategies as st

from repro.network import TransferLog, TransferRecord

HOSTS = ("h0", "h1", "h2", "h3")

transfers = st.lists(
    st.tuples(
        st.sampled_from(HOSTS),
        st.sampled_from(HOSTS),
        st.integers(min_value=0, max_value=10_000),  # bytes
        st.floats(min_value=0.0, max_value=5.0),  # gap since last finish
        st.floats(min_value=0.0, max_value=5.0),  # elapsed
    ).filter(lambda t: t[0] != t[1]),
    max_size=40,
)


@given(specs=transfers, since=st.floats(min_value=0.0, max_value=120.0))
@settings(max_examples=150, deadline=None)
def test_host_logs_match_filtered_flat_log(specs, since):
    logs = {host: TransferLog() for host in HOSTS}
    flat = []
    finished = 0.0
    for src, dst, nbytes, gap, elapsed in specs:
        finished += gap
        record = TransferRecord(src, dst, nbytes, finished - elapsed, finished)
        logs[src].append(record)
        logs[dst].append(record)
        flat.append(record)
    for host in HOSTS:
        log = logs[host]
        assert log.recent(since) == [
            r for r in flat
            if r.finished_at >= since and host in (r.src, r.dst)
        ]
        for peer in HOSTS:
            if peer == host:
                continue
            assert log.recent(since, peer=peer) == [
                r for r in flat
                if r.finished_at >= since and {r.src, r.dst} == {host, peer}
            ]
