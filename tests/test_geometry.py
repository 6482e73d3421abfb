"""Closed-form sphere overlap: pinned values and geometric invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredet import (
    Regime,
    Sphere,
    angle_score,
    center_distance,
    distance_radius_ratio,
    intersection_volume,
    overlap_geometry,
    siou,
    union_volume,
)
from spheredet.geometry import _lens_volume, _sphere_volume
from helpers import random_rotation

UNIT_A = Sphere((0.0, 0.0, 0.0), 1.0)
UNIT_B = Sphere((1.0, 0.0, 0.0), 1.0)

radii = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def sphere_pairs():
    return st.tuples(radii, radii, coords, coords, coords, coords, coords, coords).map(
        lambda t: (Sphere((t[2], t[3], t[4]), t[0]), Sphere((t[5], t[6], t[7]), t[1]))
    )


# --------------------------------------------------------------------------
# pinned values


def test_unit_pair_intersection_volume():
    # two unit spheres, centers one apart: lens volume 5*pi/12
    assert intersection_volume(UNIT_A, UNIT_B) == pytest.approx(
        5.0 * math.pi / 12.0, abs=1e-12
    )


def test_unit_pair_union_volume():
    assert union_volume(UNIT_A, UNIT_B) == pytest.approx(9.0 * math.pi / 4.0, abs=1e-12)


def test_unit_pair_siou():
    assert siou(UNIT_A, UNIT_B) == pytest.approx(5.0 / 27.0, abs=1e-12)


def test_contained_pair_uses_smaller_volume():
    big = Sphere((0.0, 0.0, 0.0), 3.0)
    small = Sphere((1.0, 0.0, 0.0), 1.0)
    assert intersection_volume(big, small) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    assert siou(big, small) == pytest.approx(1.0 / 27.0, abs=1e-12)
    assert overlap_geometry(big, small).regime is Regime.CONTAINED


def test_tangent_pair_is_disjoint():
    b = Sphere((2.0, 0.0, 0.0), 1.0)
    assert intersection_volume(UNIT_A, b) == 0.0
    assert siou(UNIT_A, b) == 0.0
    assert overlap_geometry(UNIT_A, b).regime is Regime.DISJOINT


def test_identical_spheres():
    assert siou(UNIT_A, UNIT_A) == 1.0
    geometry = overlap_geometry(UNIT_A, UNIT_A)
    assert geometry.regime is Regime.CONTAINED
    assert geometry.cos_phi_a == 1.0 and geometry.cos_phi_b == 1.0
    assert geometry.d_ab == 0.0


def test_concentric_distinct_radii():
    big = Sphere((0.0, 0.0, 0.0), 2.0)
    assert intersection_volume(UNIT_A, big) == pytest.approx(UNIT_A.volume, abs=1e-12)
    assert union_volume(UNIT_A, big) == pytest.approx(big.volume, abs=1e-12)


def test_unit_pair_overlap_geometry_fields():
    geometry = overlap_geometry(UNIT_A, UNIT_B)
    assert geometry.regime is Regime.INTERSECTING
    assert geometry.d_ab == 1.0
    assert geometry.cos_phi_a == pytest.approx(0.5, abs=1e-15)
    assert geometry.cos_phi_b == pytest.approx(0.5, abs=1e-15)
    assert geometry.cos_phi_ab == pytest.approx(0.5, abs=1e-15)
    assert geometry.h1 == pytest.approx(0.5, abs=1e-15)
    assert geometry.h2 == pytest.approx(0.5, abs=1e-15)


def test_angle_score_values():
    assert angle_score(UNIT_A, UNIT_B) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # exactly at tangency the aperture is pi
    assert angle_score(UNIT_A, Sphere((2.0, 0.0, 0.0), 1.0)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert angle_score(UNIT_A, Sphere((2.5, 0.0, 0.0), 1.0)) == 0.0


def test_distance_radius_ratio_values():
    assert distance_radius_ratio(UNIT_A, UNIT_B) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert distance_radius_ratio(UNIT_A, UNIT_A) == 0.0


def test_sphere_volume():
    assert Sphere((0.0, 0.0, 0.0), 2.0).volume == pytest.approx(
        32.0 * math.pi / 3.0, abs=1e-12
    )


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_sphere_rejects_bad_radius(radius):
    with pytest.raises(ValueError):
        Sphere((0.0, 0.0, 0.0), radius)


def test_sphere_rejects_bad_center():
    with pytest.raises(ValueError):
        Sphere((0.0, math.nan, 0.0), 1.0)
    with pytest.raises(ValueError):
        Sphere((0.0, 0.0), 1.0)


# --------------------------------------------------------------------------
# invariants


@given(pair=sphere_pairs())
def test_symmetry_is_bit_identical(pair):
    a, b = pair
    assert center_distance(a, b) == center_distance(b, a)
    assert intersection_volume(a, b) == intersection_volume(b, a)
    assert union_volume(a, b) == union_volume(b, a)
    assert siou(a, b) == siou(b, a)


@given(pair=sphere_pairs())
def test_volume_bounds(pair):
    a, b = pair
    inter = intersection_volume(a, b)
    union = union_volume(a, b)
    v_min = min(a.volume, b.volume)
    v_max = max(a.volume, b.volume)
    assert 0.0 <= inter <= v_min * (1.0 + 1e-12)
    assert v_max * (1.0 - 1e-12) <= union <= (a.volume + b.volume) * (1.0 + 1e-12)
    assert 0.0 <= siou(a, b) <= 1.0


@given(pair=sphere_pairs())
def test_regime_partition(pair):
    a, b = pair
    geometry = overlap_geometry(a, b)
    d = center_distance(a, b)
    if d >= a.radius + b.radius:
        assert geometry.regime is Regime.DISJOINT
    elif d + min(a.radius, b.radius) <= max(a.radius, b.radius):
        assert geometry.regime is Regime.CONTAINED
    else:
        assert geometry.regime is Regime.INTERSECTING


@given(pair=sphere_pairs(), scale=st.sampled_from([1e-10, 1e-5, 1e5, 1e10]))
def test_siou_scale_invariance(pair, scale):
    a, b = pair
    a2 = Sphere(tuple(c * scale for c in a.center), a.radius * scale)
    b2 = Sphere(tuple(c * scale for c in b.center), b.radius * scale)
    assert siou(a2, b2) == pytest.approx(siou(a, b), rel=1e-9, abs=1e-12)


@given(
    pair=sphere_pairs(),
    shift=st.tuples(
        st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)
    ),
)
def test_siou_translation_invariance(pair, shift):
    a, b = pair
    a2 = Sphere(tuple(c + s for c, s in zip(a.center, shift)), a.radius)
    b2 = Sphere(tuple(c + s for c, s in zip(b.center, shift)), b.radius)
    assert siou(a2, b2) == pytest.approx(siou(a, b), rel=1e-6, abs=1e-9)


@settings(max_examples=50)
@given(pair=sphere_pairs(), seed=st.integers(0, 2**31 - 1))
def test_siou_rotation_invariance(pair, seed):
    a, b = pair
    rotation = random_rotation(np.random.default_rng(seed))
    a2 = Sphere(tuple(rotation @ np.array(a.center)), a.radius)
    b2 = Sphere(tuple(rotation @ np.array(b.center)), b.radius)
    assert siou(a2, b2) == pytest.approx(siou(a, b), rel=1e-6, abs=1e-9)


@given(
    r_a=st.floats(0.5, 10.0),
    r_b=st.floats(0.5, 10.0),
    side=st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]),
)
def test_containment_boundary_is_continuous(r_a, r_b, side):
    # Just inside/outside d == |r_a - r_b| the volume stays within 1e-4
    # (relative) of the smaller sphere's volume.
    gap = abs(r_a - r_b)
    if gap < 1e-3:
        return
    a = Sphere((0.0, 0.0, 0.0), r_a)
    b = Sphere((gap * side, 0.0, 0.0), r_b)
    v_small = min(a.volume, b.volume)
    assert intersection_volume(a, b) == pytest.approx(v_small, rel=1e-4)


@given(r_a=st.floats(0.5, 10.0), r_b=st.floats(0.5, 10.0))
def test_tangency_boundary_is_continuous(r_a, r_b):
    # Just inside d == r_a + r_b the lens volume is negligible.
    a = Sphere((0.0, 0.0, 0.0), r_a)
    b = Sphere(((r_a + r_b) * (1.0 - 1e-6), 0.0, 0.0), r_b)
    v_small = min(a.volume, b.volume)
    assert 0.0 <= intersection_volume(a, b) <= 1e-4 * v_small


def test_volume_arithmetic_on_arrays_matches_scalars_bit_for_bit():
    # Cubes are written as products, so NumPy and Python round alike.
    rng = np.random.default_rng(17)
    r_a = rng.uniform(0.1, 10.0, 5000)
    r_b = rng.uniform(0.1, 10.0, 5000)
    lo, hi = np.abs(r_a - r_b), r_a + r_b
    d = lo + rng.uniform(0.0, 1.0, 5000) * (hi - lo)
    scalars = [tuple(map(float, row)) for row in zip(r_a, r_b, d)]
    lens = [_lens_volume(*row) for row in scalars]
    assert _lens_volume(r_a, r_b, d).tobytes() == np.array(lens).tobytes()
    volumes = [_sphere_volume(float(r)) for r in r_a]
    assert _sphere_volume(r_a).tobytes() == np.array(volumes).tobytes()
