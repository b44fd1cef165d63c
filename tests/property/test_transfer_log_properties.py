"""A host's transfer log answers as a filter over every transfer would.

Each transfer is logged at both of its ends.  For every host, a query
on its own log must return the same records, in the same order, as the
network's whole transfer history filtered down to that host (and
peer), so the network monitor's fit sees the records it would see in
one network-wide log.  A log is sorted by finish time, so ``recent``
bisects to the window start; records finishing exactly at ``since``
belong to the window.
"""

import pytest
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


def replay(specs):
    """Per-host logs and the flat history of one transfer sequence."""
    logs = {host: TransferLog() for host in HOSTS}
    flat = []
    finished = 0.0
    for src, dst, nbytes, gap, elapsed in specs:
        finished += gap
        record = TransferRecord(src, dst, nbytes, finished - elapsed, finished)
        logs[src].append(record)
        logs[dst].append(record)
        flat.append(record)
    return logs, flat


def assert_logs_match(logs, flat, since):
    for host in HOSTS:
        log = logs[host]
        # Eviction drops a host's oldest records: the log keeps a suffix
        # of that host's history.
        history = [r for r in flat if host in (r.src, r.dst)]
        kept = history[len(history) - len(log):]
        assert log.recent(since) == [r for r in kept if r.finished_at >= since]
        for peer in HOSTS:
            if peer == host:
                continue
            assert log.recent(since, peer=peer) == [
                r for r in kept
                if r.finished_at >= since and peer in (r.src, r.dst)
            ]


@given(specs=transfers, since=st.floats(min_value=0.0, max_value=120.0))
@settings(max_examples=150, deadline=None)
def test_host_logs_match_filtered_flat_log(specs, since):
    logs, flat = replay(specs)
    assert all(len(logs[h]) == sum(h in (r.src, r.dst) for r in flat)
               for h in HOSTS)
    assert_logs_match(logs, flat, since)


@given(specs=transfers, since=st.floats(min_value=0.0, max_value=120.0))
@settings(max_examples=150, deadline=None)
def test_window_survives_eviction(specs, since):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransferLog, "MAX_RECORDS", 4)
        logs, flat = replay(specs)
    assert all(len(log) <= 4 for log in logs.values())
    assert_logs_match(logs, flat, since)


#: mostly zero gaps, so many transfers finish at the same instant
tied_transfers = st.lists(
    st.tuples(
        st.sampled_from(HOSTS),
        st.sampled_from(HOSTS),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.0, 0.0, 0.0, 1.0]),
        st.floats(min_value=0.0, max_value=5.0),
    ).filter(lambda t: t[0] != t[1]),
    min_size=1, max_size=40,
)


@given(specs=tied_transfers, data=st.data())
@settings(max_examples=150, deadline=None)
def test_ties_at_since_are_in_the_window(specs, data):
    logs, flat = replay(specs)
    since = data.draw(st.sampled_from([r.finished_at for r in flat]))
    assert_logs_match(logs, flat, since)
