"""The network monitor's closed-form fit agrees with weighted ``lstsq``.

:func:`~repro.monitors.network.fit_link` solves the recency-weighted
``elapsed = latency + nbytes / bandwidth`` fit in closed form.  The
oracle below is the numpy body it replaced, kept verbatim apart from
returning the raw coefficients.  Record windows run from 2 to 800
records, with sizes from 1 B to 50 MB, including near-degenerate size
spreads (a few bytes on a multi-megabyte base) and elapsed times that
are exactly linear, noisy, or unrelated to size.

Both sides must return ``None`` in the same cases and otherwise agree
within ``TOL``.  Left out of the comparison are designs with
a reference slope within ``TOL`` of zero — the slope's whole effect
across the window's size spread is below ``TOL`` of its elapsed times,
so rounding alone picks the sign that ``per_byte <= 0`` tests.

A design that ``lstsq`` solves as rank-deficient is compared with an
80-digit decimal evaluation of the same weighted fit instead: there
the ``rcond`` cut-off drops the smaller singular value of a nearly
collinear weighted design and returns the minimum-norm solution, which
is not the fit.
"""

import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.monitors.network import fit_link
from repro.network import TransferRecord

TOL = 1e-6

MAX_BYTES = 50_000_000


def reference_fit(records, decay):
    """The weighted-``lstsq`` fit: ``(latency, per_byte, rank)`` or None."""
    if len(records) < 2:
        return None
    sizes = np.array([float(r.nbytes) for r in records])
    elapsed = np.array([r.elapsed for r in records])
    if np.ptp(sizes) <= 0:
        # All the same size: can't separate latency from bandwidth.
        return None
    order = np.argsort([r.finished_at for r in records])
    weights = np.empty(len(records))
    weights[order] = decay ** np.arange(len(records) - 1, -1, -1)
    design = np.column_stack([np.ones_like(sizes), sizes])
    sw = np.sqrt(weights)
    coef, _residuals, rank, _sv = np.linalg.lstsq(
        design * sw[:, None], elapsed * sw, rcond=None)
    return float(coef[0]), float(coef[1]), int(rank)


def decimal_fit(records, decay):
    """``(latency, per_byte)`` of the weighted fit, in 80-digit decimal."""
    with localcontext() as context:
        context.prec = 80
        weights = [Decimal(decay) ** rank
                   for rank in range(len(records) - 1, -1, -1)]
        xs = [Decimal(r.nbytes) for r in records]
        ys = [Decimal(r.elapsed) for r in records]
        total = sum(weights)
        mean_x = sum(w * x for w, x in zip(weights, xs)) / total
        mean_y = sum(w * y for w, y in zip(weights, ys)) / total
        sxx = sum(w * (x - mean_x) ** 2 for w, x in zip(weights, xs))
        sxy = sum(w * (x - mean_x) * (y - mean_y)
                  for w, x, y in zip(weights, xs, ys))
        per_byte = sxy / sxx
        return float(mean_y - per_byte * mean_x), float(per_byte)


def oracle(records, decay):
    """``(latency, per_byte)`` of the weighted fit, or None."""
    reference = reference_fit(records, decay)
    if reference is None:
        return None
    latency, per_byte, rank = reference
    if rank < 2:
        return decimal_fit(records, decay)
    return latency, per_byte


@st.composite
def windows(draw):
    """A log window in finish order, drawn around a latency/bandwidth line."""
    count = draw(st.integers(min_value=2, max_value=800))
    latency = draw(st.floats(min_value=0.0, max_value=2.0))
    bandwidth = draw(st.floats(min_value=1e3, max_value=1e9))
    shape = draw(st.sampled_from(["linear", "noisy", "unrelated"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        # Near-degenerate: a few bytes of spread on a large base.
        base = draw(st.integers(min_value=1, max_value=MAX_BYTES - 8))
        spread = draw(st.integers(min_value=0, max_value=8))
        sizes = [base + rng.randint(0, spread) for _ in range(count)]
    else:
        top = draw(st.integers(min_value=1, max_value=MAX_BYTES))
        sizes = [rng.randint(1, top) for _ in range(count)]
    records = []
    finished = 0.0
    for nbytes in sizes:
        elapsed = latency + nbytes / bandwidth
        if shape == "noisy":
            elapsed *= rng.uniform(0.7, 1.3)
        elif shape == "unrelated":
            elapsed = rng.uniform(1e-3, 100.0)
        finished += elapsed + rng.uniform(0.0, 1.0)
        records.append(
            TransferRecord("c", "s", nbytes, finished - elapsed, finished))
    return records


@given(records=windows(), decay=st.sampled_from([0.5, 0.9, 0.99]))
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_weighted_lstsq(records, decay):
    fit = fit_link(records, decay)
    expected = oracle(records, decay)
    if expected is None:
        assert fit is None
        return
    ref_latency, ref_per_byte = expected
    sizes = [r.nbytes for r in records]
    elapsed_scale = max(r.elapsed for r in records)
    if abs(ref_per_byte) * (max(sizes) - min(sizes)) <= TOL * elapsed_scale:
        return  # rounding alone picks the slope's sign
    if ref_per_byte <= 0:
        assert fit is None
        return
    assert fit is not None and fit.observed
    assert fit.bandwidth_bps == pytest.approx(1.0 / ref_per_byte, rel=TOL)
    # latency = mean elapsed - slope * mean size: a difference of terms
    # on the scale of the window's elapsed times, so it agrees to TOL of
    # that scale (before and after the clamp at zero).
    assert abs(fit.latency_s - max(ref_latency, 0.0)) <= TOL * elapsed_scale
