"""Sampling-based volume estimate vs the closed form, and backend parity."""

import datetime
import math
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredet import Sphere, intersection_volume, mc_intersection_volume
from spheredet import _mc_python
from spheredet.montecarlo import _lens_box

PAIRS = [
    # (r_a, r_b, d) covering lens, containment, near-tangency slivers
    (1.0, 1.0, 1.0),
    (3.0, 1.0, 2.5),
    (1.0, 3.0, 2.5),
    (2.0, 2.0, 0.1),
    (5.0, 1.0, 3.0),  # contained
    (1.0, 1.0, 1.95),  # sliver
    (4.0, 2.5, 6.3),  # sliver
]


def _pair(r_a, r_b, d):
    return Sphere((0.0, 0.0, 0.0), r_a), Sphere((d, 0.0, 0.0), r_b)


@pytest.mark.parametrize("r_a,r_b,d", PAIRS)
def test_estimate_matches_closed_form_at_1e6(r_a, r_b, d):
    a, b = _pair(r_a, r_b, d)
    exact = intersection_volume(a, b)
    estimate = mc_intersection_volume(a, b, samples=1_000_000, seed=11)
    assert estimate == pytest.approx(exact, rel=1e-2)


def test_estimate_tight_at_1e7():
    a, b = _pair(1.0, 1.0, 1.0)
    exact = intersection_volume(a, b)
    estimate = mc_intersection_volume(a, b, samples=10_000_000, seed=3)
    assert abs(estimate - exact) / exact <= 3e-3


def test_estimate_is_deterministic():
    a, b = _pair(2.0, 1.5, 1.0)
    first = mc_intersection_volume(a, b, samples=100_000, seed=9)
    second = mc_intersection_volume(a, b, samples=100_000, seed=9)
    assert first == second
    assert first != mc_intersection_volume(a, b, samples=100_000, seed=10)


def test_estimate_is_symmetric():
    a, b = _pair(2.0, 1.0, 1.5)
    assert mc_intersection_volume(a, b, samples=50_000, seed=5) == mc_intersection_volume(
        b, a, samples=50_000, seed=5
    )


def test_disjoint_and_tangent_pairs_are_exactly_zero():
    a, b = _pair(1.0, 1.0, 2.0)
    assert mc_intersection_volume(a, b, samples=1000, seed=0) == 0.0
    a, b = _pair(1.0, 1.0, 5.0)
    assert mc_intersection_volume(a, b, samples=1000, seed=0) == 0.0


def test_offaxis_pair_matches_closed_form():
    a = Sphere((1.0, -2.0, 3.0), 2.0)
    b = Sphere((2.0, -1.0, 4.0), 1.5)
    exact = intersection_volume(a, b)
    estimate = mc_intersection_volume(a, b, samples=1_000_000, seed=21)
    assert estimate == pytest.approx(exact, rel=1e-2)


def test_rejects_bad_sample_count():
    a, b = _pair(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mc_intersection_volume(a, b, samples=0, seed=0)


@pytest.mark.parametrize("n", [1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1])
def test_backends_count_identically(n):
    # The counts straddle the fallback's 2^20-sample chunk boundary.
    compiled = pytest.importorskip("spheredet._mc_core")
    for r_a, r_b, d in PAIRS:
        box = _lens_box(r_a, r_b, d)
        assert box is not None
        x_lo, x_hi, rho = box
        hits_compiled = compiled.count_hits(
            np.random.PCG64(123), n, r_a, r_b, d, x_lo, x_hi, rho
        )
        hits_python = _mc_python.count_hits(
            np.random.PCG64(123), n, r_a, r_b, d, x_lo, x_hi, rho
        )
        assert hits_compiled == hits_python


def test_compiled_kernel_rejects_a_foreign_capsule():
    compiled = pytest.importorskip("spheredet._mc_core")
    for capsule in (datetime.datetime_CAPI, None):
        fake = types.SimpleNamespace(capsule=capsule, lock=threading.Lock())
        with pytest.raises(ValueError, match="BitGenerator capsule"):
            compiled.count_hits(fake, 10, 1.0, 1.0, 1.0, 0.0, 1.0, 0.5)
        assert not fake.lock.locked()


# --------------------------------------------------------------------------
# the enclosing box itself


@given(
    r_a=st.floats(0.2, 10.0),
    r_b=st.floats(0.2, 10.0),
    frac=st.floats(0.0, 0.999),
)
def test_lens_box_shape(r_a, r_b, frac):
    d = frac * (r_a + r_b)
    box = _lens_box(r_a, r_b, d)
    assert box is not None
    x_lo, x_hi, rho = box
    assert x_lo < x_hi
    assert 0.0 < rho <= min(r_a, r_b) * (1.0 + 1e-12)
    assert x_lo >= -r_a and x_hi <= d + r_b


@given(r_a=st.floats(0.2, 10.0), r_b=st.floats(0.2, 10.0), extra=st.floats(0.0, 5.0))
def test_lens_box_empty_iff_disjoint(r_a, r_b, extra):
    assert _lens_box(r_a, r_b, r_a + r_b + extra) is None


@settings(max_examples=30)
@given(
    r_a=st.floats(0.5, 5.0),
    r_b=st.floats(0.5, 5.0),
    frac=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**31 - 1),
)
def test_lens_box_contains_the_intersection(r_a, r_b, frac, seed):
    # Rejection-sample points of A cap B from a loose cube; each must fall
    # inside the reported box.
    d = frac * (r_a + r_b)
    box = _lens_box(r_a, r_b, d)
    assert box is not None
    x_lo, x_hi, rho = box
    rng = np.random.default_rng(seed)
    lo, hi = -r_a, d + r_b
    points = rng.uniform(lo, hi, size=(4000, 3))
    in_a = np.sum(points**2, axis=1) <= r_a * r_a
    shifted = points.copy()
    shifted[:, 0] -= d
    in_b = np.sum(shifted**2, axis=1) <= r_b * r_b
    hits = points[in_a & in_b]
    eps = 1e-9
    assert np.all(hits[:, 0] >= x_lo - eps) and np.all(hits[:, 0] <= x_hi + eps)
    assert np.all(np.abs(hits[:, 1:]) <= rho + eps)


def test_sliver_overlap_keeps_relative_accuracy():
    # The box hugs the lens, so even a ~1e-4 relative-volume overlap stays
    # within a few percent at one million samples.
    a, b = _pair(1.0, 1.0, 1.99)
    exact = intersection_volume(a, b)
    assert exact < 1e-3 * a.volume
    estimate = mc_intersection_volume(a, b, samples=1_000_000, seed=17)
    assert estimate == pytest.approx(exact, rel=3e-2)
