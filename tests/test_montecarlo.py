"""Sampling-based volume estimate vs the closed form, and backend parity."""

import datetime
import importlib
import json
import math
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

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
    with pytest.raises(ValueError):
        mc_intersection_volume(a, b, samples=0, seed=0)


# Raw draws per block of the compiled kernel (BLOCK in _mc_core.c).
_BLOCK = 1024
# Fewest samples per share of one compiled call (MIN_SHARE in _mc_core.c).
_SHARE = 1 << 20
# A fixed 128-bit jump, drawn once at random.
_JUMP = 0xA5E1_7C39_0D4B_F2E8_6613_9B07_C4AD_5F21


def _fresh():
    return np.random.PCG64(123)


def _jumped():
    return np.random.PCG64(123).advance(_JUMP)


def _holding_a_uint32():
    # One 32-bit draw leaves the other half of a 64-bit output buffered.
    generator = np.random.PCG64(123)
    np.random.Generator(generator).integers(0, 1 << 32, dtype=np.uint32)
    assert generator.state["has_uint32"] == 1
    return generator


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
    # The counts straddle the compiled kernel's lane groups, blocks and shares
    # (uneven ones at 5 * 2^20 + 3) and the fallback's 2^20-sample chunks;
    # both must leave the generator where random_raw(n) does.
    compiled = pytest.importorskip("spheredet._mc_core")
    for r_a, r_b, d in PAIRS:
        box = _lens_box(r_a, r_b, d)
        assert box is not None
        x_lo, x_hi, rho = box
        generator_compiled, generator_python = make(), make()
        before = generator_compiled.state
        hits_compiled = compiled.count_hits(
            generator_compiled, n, r_a, r_b, d, x_lo, x_hi, rho
        )
        hits_python = _mc_python.count_hits(
            generator_python, n, r_a, r_b, d, x_lo, x_hi, rho
        )
        assert hits_compiled == hits_python
        assert generator_compiled.state == generator_python.state
        if n <= 0:
            assert generator_compiled.state == before


_PINNED_CHILD = """
import json, os, sys
import numpy as np
from spheredet import _mc_core
os.sched_setaffinity(0, {int(sys.argv[1])})
assert len(os.sched_getaffinity(0)) == 1
generator = np.random.PCG64(2024)
hits = _mc_core.count_hits(generator, *json.loads(sys.argv[2]))
print(json.dumps([hits, generator.state]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_compiled_count_does_not_depend_on_the_cpu_count():
    # A child process pinned to one CPU counts in a single share; this
    # process counts in one share per CPU it may use.
    compiled = pytest.importorskip("spheredet._mc_core")
    args = [4 * _SHARE + 5, 1.0, 3.0, 2.5, *_lens_box(1.0, 3.0, 2.5)]
    generator = np.random.PCG64(2024)
    hits = compiled.count_hits(generator, *args)
    source_root = str(Path(spheredet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _PINNED_CHILD, str(min(os.sched_getaffinity(0))),
         json.dumps(args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(child.stdout) == [hits, generator.state]


def _reference_count(seed, n, r_a, r_b, d, x_lo, x_hi, rho):
    """Plain-Python sampler: one raw PCG64 output per sample, high 32 bits
    to the axial position, low 32 bits to the squared radial distance."""
    ra2, rb2, span, rho2 = r_a * r_a, r_b * r_b, x_hi - x_lo, rho * rho
    hits = 0
    for r in np.random.PCG64(seed).random_raw(n).tolist():
        x = x_lo + (r >> 32) * 2.0**-32 * span
        t = (r & 0xFFFFFFFF) * 2.0**-32 * rho2
        hits += x * x + t <= ra2 and (x - d) * (x - d) + t <= rb2
    return hits


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_backends_count_as_the_reference_loop(backend, n):
    if backend == "compiled":
        kernel = pytest.importorskip("spheredet._mc_core")
    else:
        kernel = _mc_python
    for r_a, r_b, d in PAIRS:
        box = _lens_box(r_a, r_b, d)
        assert box is not None
        expected = _reference_count(77, n, r_a, r_b, d, *box)
        assert kernel.count_hits(np.random.PCG64(77), n, r_a, r_b, d, *box) == expected


def test_estimate_is_cylinder_volume_times_hit_fraction():
    a, b = _pair(1.0, 3.0, 2.5)  # already in the canonical (smaller radius first) order
    x_lo, x_hi, rho = _lens_box(1.0, 3.0, 2.5)
    hits = _reference_count(5, 1000, 1.0, 3.0, 2.5, x_lo, x_hi, rho)
    expected = (x_hi - x_lo) * math.pi * (rho * rho) * (hits / 1000)
    assert mc_intersection_volume(a, b, samples=1000, seed=5) == expected


@pytest.fixture
def reload_montecarlo(monkeypatch):
    """Re-runs montecarlo's import-time backend choice with a stand-in
    ``_mc_core``; the real choice is restored afterwards."""

    def reload_with(compiled):
        with monkeypatch.context() as patch:
            patch.delenv("SPHEREDET_FORCE_PYTHON", raising=False)
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


def test_compiled_kernel_rejects_a_foreign_capsule():
    compiled = pytest.importorskip("spheredet._mc_core")
    for capsule in (datetime.datetime_CAPI, None):
        fake = types.SimpleNamespace(capsule=capsule, lock=threading.Lock())
        with pytest.raises(ValueError, match="BitGenerator capsule"):
            compiled.count_hits(fake, 10, 1.0, 1.0, 1.0, 0.0, 1.0, 0.5)
        assert not fake.lock.locked()


@pytest.mark.parametrize("kind", [np.random.Philox, np.random.PCG64DXSM])
def test_compiled_kernel_rejects_a_bit_generator_other_than_pcg64(kind):
    compiled = pytest.importorskip("spheredet._mc_core")
    generator = kind(5)
    with pytest.raises(ValueError, match="PCG64"):
        compiled.count_hits(generator, 10, 1.0, 1.0, 1.0, 0.0, 1.0, 0.5)
    assert generator.random_raw() == kind(5).random_raw()  # the stream did not move
    # The lock may be reentrant, so only another thread can tell it is free.
    acquired = []

    def probe():
        acquired.append(generator.lock.acquire(blocking=False))
        if acquired[0]:
            generator.lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    assert acquired == [True]


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
