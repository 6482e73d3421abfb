"""Sampling-based volume estimate vs the closed form, and backend parity."""

import importlib
import inspect
import math
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spheredet
from spheredet import Sphere, intersection_volume, mc_intersection_volume
from spheredet import _mc_python, montecarlo
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
    for samples, message in [
        (0, "samples must be >= 1, got 0"),
        (2.5, "samples must be an integer, got 2.5"),
        (True, "samples must be a number, got True"),
    ]:
        with pytest.raises(ValueError) as error:
            mc_intersection_volume(a, b, samples=samples, seed=0)
        assert str(error.value) == message


# Raw draws per block of the compiled kernel (BLOCK in _mc_core.c).
_BLOCK = 1024
# Fewest samples per share of one estimate (montecarlo._MIN_SHARE).
_SHARE = 1 << 20
# A fixed 128-bit jump, drawn once at random.
_JUMP = 0xA5E1_7C39_0D4B_F2E8_6613_9B07_C4AD_5F21


def _words(generator):
    """The (state, inc) LCG words of a PCG64 generator."""
    words = generator.state["state"]
    return words["state"], words["inc"]


def _generator_at(words):
    """A PCG64 generator at the stream position (state, inc)."""
    generator = np.random.PCG64()
    generator.state = {"bit_generator": "PCG64", "state": dict(zip(("state", "inc"), words)),
                       "has_uint32": 0, "uinteger": 0}
    return generator


def _fresh():
    return _words(np.random.PCG64(123))


def _jumped():
    return _words(np.random.PCG64(123).advance(_JUMP))


def _holding_a_uint32():
    # One 32-bit draw leaves the other half of a 64-bit output buffered; the
    # buffer is no part of the stream position, so both backends ignore it.
    generator = np.random.PCG64(123)
    np.random.Generator(generator).integers(0, 1 << 32, dtype=np.uint32)
    assert generator.state["has_uint32"] == 1
    return _words(generator)


def _starts(make, n):
    """make()'s words, and the same stream advanced by a random 128-bit jump."""
    jump = int.from_bytes(np.random.default_rng(abs(n)).bytes(16), "little")
    words = make()
    return [words, _words(_generator_at(words).advance(jump))]


def _kernel(backend):
    if backend == "compiled":
        return pytest.importorskip("spheredet._mc_core")
    return _mc_python


@pytest.mark.parametrize(
    "n,make",
    [
        pytest.param(n, _fresh, id=str(n))
        for n in [-1, 0, *range(1, 10), _BLOCK - 1, _BLOCK, _BLOCK + 1,
                  _SHARE - 1, _SHARE, _SHARE + 1,
                  2 * _SHARE - 1, 2 * _SHARE, 2 * _SHARE + 1, 5 * _SHARE + 3]
    ]
    + [
        pytest.param(_BLOCK + 3, _jumped, id="jumped"),
        pytest.param(_BLOCK + 3, _holding_a_uint32, id="has_uint32"),
        pytest.param(2 * _SHARE + 3, _jumped, id="jumped-sharded"),
        pytest.param(2 * _SHARE + 3, _holding_a_uint32, id="has_uint32-sharded"),
    ],
)
def test_backends_count_identically(n, make):
    # The counts straddle the compiled kernel's lane groups and blocks and the
    # fallback's chunks; a count of n <= 0 is 0.
    compiled = pytest.importorskip("spheredet._mc_core")
    for state, inc in _starts(make, n):
        for r_a, r_b, d in PAIRS:
            box = _lens_box(r_a, r_b, d)
            assert box is not None
            hits_compiled = compiled.count_hits(state, inc, n, r_a, r_b, d, *box)
            hits_python = _mc_python.count_hits(state, inc, n, r_a, r_b, d, *box)
            assert hits_compiled == hits_python
            if n <= 0:
                assert hits_compiled == 0


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_backends_take_the_words_modulo_2_128(backend):
    kernel = _kernel(backend)
    state, inc = _jumped()
    args = (_BLOCK + 5, 1.0, 3.0, 2.5, *_lens_box(1.0, 3.0, 2.5))
    expected = kernel.count_hits(state, inc, *args)
    assert kernel.count_hits(state + (1 << 128), inc - (3 << 128), *args) == expected
    assert kernel.count_hits(state - (1 << 128), inc + (1 << 129), *args) == expected


def test_backends_declare_one_signature():
    compiled = pytest.importorskip("spheredet._mc_core")
    names = list(inspect.signature(_mc_python.count_hits).parameters)
    assert list(inspect.signature(compiled.count_hits).parameters) == names
    assert names[:3] == ["state", "inc", "samples"]


def _assert_count_does_not_depend_on_the_cpu_count(backend, monkeypatch):
    # Each forced CPU count cuts the estimate into that many shares; every
    # total must equal one plain count over the whole stream.
    samples, seed, lens = 5 * _SHARE + 3, 2024, (1.0, 3.0, 2.5, *_lens_box(1.0, 3.0, 2.5))
    expected = _mc_python.count_hits(*_words(np.random.PCG64(seed)), samples, *lens)
    sizes = []

    def recording_count(state, inc, size, *rest):
        sizes.append(size)
        return backend.count_hits(state, inc, size, *rest)

    monkeypatch.setattr(montecarlo, "_backend", types.SimpleNamespace(count_hits=recording_count))
    for cpus in (1, 2, 3, 5):
        sizes.clear()
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        assert montecarlo._count_hits(seed, samples, lens) == expected
        assert len(sizes) == cpus and sum(sizes) == samples


def test_compiled_count_does_not_depend_on_the_cpu_count(monkeypatch):
    _assert_count_does_not_depend_on_the_cpu_count(_kernel("compiled"), monkeypatch)


def test_fallback_count_does_not_depend_on_the_cpu_count(monkeypatch):
    _assert_count_does_not_depend_on_the_cpu_count(_mc_python, monkeypatch)


@pytest.mark.parametrize("on_calling_thread", [True, False], ids=["calling", "worker"])
def test_a_failing_share_makes_the_estimate_fail(monkeypatch, on_calling_thread):
    calling = threading.current_thread()

    def failing_count(*args):
        if (threading.current_thread() is calling) == on_calling_thread:
            raise FloatingPointError("share failed")
        return _mc_python.count_hits(*args)

    monkeypatch.setattr(montecarlo, "_backend", types.SimpleNamespace(count_hits=failing_count))
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    a, b = _pair(1.0, 3.0, 2.5)
    with pytest.raises(FloatingPointError, match="share failed"):
        mc_intersection_volume(a, b, samples=3 * _SHARE, seed=4)


def test_shares_whose_thread_cannot_start_run_on_the_calling_thread(monkeypatch):
    a, b = _pair(1.0, 3.0, 2.5)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    expected = mc_intersection_volume(a, b, samples=3 * _SHARE + 5, seed=6)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert mc_intersection_volume(a, b, samples=3 * _SHARE + 5, seed=6) == expected


@pytest.mark.parametrize("samples", [1, _SHARE + 7, 3 * _SHARE + 5])
def test_estimates_are_equal_on_both_backends(monkeypatch, samples):
    compiled = pytest.importorskip("spheredet._mc_core")
    for r_a, r_b, d in PAIRS[:4]:
        a, b = _pair(r_a, r_b, d)
        monkeypatch.setattr(montecarlo, "_backend", compiled)
        estimate = mc_intersection_volume(a, b, samples, seed=31)
        monkeypatch.setattr(montecarlo, "_backend", _mc_python)
        assert mc_intersection_volume(a, b, samples, seed=31) == estimate


def _reference_count(words, n, r_a, r_b, d, x_lo, x_hi, rho):
    """Plain-Python sampler: one raw PCG64 output per sample, from the stream
    at the LCG words (state, inc), high 32 bits to the axial position, low 32
    bits to the squared radial distance."""
    ra2, rb2, span, rho2 = r_a * r_a, r_b * r_b, x_hi - x_lo, rho * rho
    hits = 0
    for r in _generator_at(words).random_raw(n).tolist():
        x = x_lo + (r >> 32) * 2.0**-32 * span
        t = (r & 0xFFFFFFFF) * 2.0**-32 * rho2
        hits += x * x + t <= ra2 and (x - d) * (x - d) + t <= rb2
    return hits


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_backends_count_as_the_reference_loop(backend, n):
    kernel = _kernel(backend)
    for words in _starts(lambda: _words(np.random.PCG64(77)), n):
        for r_a, r_b, d in PAIRS:
            box = _lens_box(r_a, r_b, d)
            assert box is not None
            expected = _reference_count(words, n, r_a, r_b, d, *box)
            assert kernel.count_hits(*words, n, r_a, r_b, d, *box) == expected


def test_estimate_is_cylinder_volume_times_hit_fraction():
    a, b = _pair(1.0, 3.0, 2.5)  # already in the canonical (smaller radius first) order
    x_lo, x_hi, rho = _lens_box(1.0, 3.0, 2.5)
    hits = _reference_count(_words(np.random.PCG64(5)), 1000, 1.0, 3.0, 2.5, x_lo, x_hi, rho)
    expected = (x_hi - x_lo) * math.pi * (rho * rho) * (hits / 1000)
    assert mc_intersection_volume(a, b, samples=1000, seed=5) == expected


@pytest.fixture
def reload_montecarlo(monkeypatch):
    """Re-runs montecarlo's import-time backend choice with a stand-in
    ``_mc_core``; the real choice is restored afterwards."""

    def reload_with(compiled):
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "spheredet._mc_core", compiled)
            patch.setattr(spheredet, "_mc_core", compiled, raising=False)
            importlib.reload(montecarlo)
        return montecarlo.backend_name()

    yield reload_with
    importlib.reload(montecarlo)


def test_a_kernel_without_the_sampler_tag_is_not_used(reload_montecarlo):
    # A stale build of the three-draw box kernel has count_hits but no tag.
    stale = types.ModuleType("spheredet._mc_core")
    stale.count_hits = lambda *args: 0
    assert reload_montecarlo(stale) == "python"
    assert montecarlo._backend is _mc_python
    stale.SAMPLER = _mc_python.SAMPLER - 1
    assert reload_montecarlo(stale) == "python"
    stale.SAMPLER = _mc_python.SAMPLER
    assert reload_montecarlo(stale) == "compiled"
    assert montecarlo._backend is stale


def test_built_kernel_carries_the_fallbacks_sampler_tag():
    compiled = pytest.importorskip("spheredet._mc_core")
    assert compiled.SAMPLER == _mc_python.SAMPLER


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


@given(
    r_a=st.floats(0.2, 10.0),
    r_b=st.floats(0.2, 10.0),
    frac=st.floats(0.0, 0.999),
)
def test_lens_fills_at_least_half_its_cylinder(r_a, r_b, frac):
    d = frac * (r_a + r_b)
    x_lo, x_hi, rho = _lens_box(r_a, r_b, d)
    a, b = _pair(r_a, r_b, d)
    cylinder = (x_hi - x_lo) * math.pi * rho * rho
    assert intersection_volume(a, b) >= 0.5 * cylinder * (1.0 - 1e-9)


def test_sliver_overlap_keeps_relative_accuracy():
    # The cylinder hugs the lens (the hit fraction is at least 1/2), so even
    # a ~1e-4 relative-volume overlap stays within a few percent at one
    # million samples.
    a, b = _pair(1.0, 1.0, 1.99)
    exact = intersection_volume(a, b)
    assert exact < 1e-3 * a.volume
    estimate = mc_intersection_volume(a, b, samples=1_000_000, seed=17)
    assert estimate == pytest.approx(exact, rel=3e-2)
