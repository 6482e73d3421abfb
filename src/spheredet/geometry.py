"""Sphere overlap geometry in world voxel coordinates.

Objects are represented as spheres (center + radius).  The overlap of two
spheres is described by the center distance and the heights of the two
spherical caps bounding the intersection lens; from those the lens volume,
the union volume, and the sphere-IoU follow in closed form.  Three mutually
exclusive regimes partition every configuration:

* ``disjoint``:     d >= r_a + r_b, compared exactly (tangency counts as disjoint)
* ``contained``:    d + min(r) <= max(r), compared exactly (one sphere inside
  the other, internal tangency included; the lens is the smaller sphere)
* ``intersecting``: everything else (a proper two-cap lens)

All functions are pure and operate on scalars; the sampling-based volume
estimate lives in :mod:`spheredet.montecarlo`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

Point3 = Tuple[float, float, float]

_FOUR_THIRDS_PI = 4.0 * math.pi / 3.0


class Regime(enum.Enum):
    """Overlap regime of a sphere pair."""

    DISJOINT = "disjoint"
    INTERSECTING = "intersecting"
    CONTAINED = "contained"


@dataclass(frozen=True)
class Sphere:
    """A sphere in world voxel units.

    Attributes:
        center: (x, y, z) world coordinates; every component must be finite.
        radius: strictly positive, finite.
    """

    center: Point3
    radius: float

    def __post_init__(self) -> None:
        if len(self.center) != 3 or not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"sphere center must be 3 finite components, got {self.center!r}")
        if not math.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"sphere radius must be finite and > 0, got {self.radius!r}")

    @property
    def volume(self) -> float:
        return _sphere_volume(self.radius)


@dataclass(frozen=True)
class OverlapGeometry:
    """Geometric quantities describing the overlap of a sphere pair.

    ``cos_phi_a``/``cos_phi_b`` are the cosines of the cap half-aperture
    angles at each center, ``cos_phi_ab`` the cosine of the center-to-center
    aperture, all clamped to [-1, 1]; ``h1``/``h2`` are the cap heights on
    sphere b and sphere a respectively.  The cap quantities are only
    meaningful in the intersecting regime: outside it ``h1 = h2 = 0`` and at
    ``d == 0`` the per-sphere cosines (undefined) are reported as 1.0.  The
    ``regime`` tag is authoritative.
    """

    d_ab: float
    cos_phi_a: float
    cos_phi_b: float
    cos_phi_ab: float
    h1: float
    h2: float
    regime: Regime


def _clamp(value: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return lo if value < lo else hi if value > hi else value


def _distance(ca: Point3, cb: Point3) -> float:
    # (x1-x2)**2 == (x2-x1)**2 bitwise, so the result is symmetric.
    return math.sqrt(
        (ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2 + (ca[2] - cb[2]) ** 2
    )


def _gap(a: float, b: float, c: float) -> float:
    """``a + b - c`` for a, b, c >= 0 with the exact sign: the rounding error
    of a + b (Knuth's two-sum) is added back after subtracting c, which is
    exact where the result nearly cancels (Sterbenz)."""
    s = a + b
    b_virtual = s - a
    error = (a - (s - b_virtual)) + (b - b_virtual)
    return (s - c) + error


def _classify(r_a: float, r_b: float, d: float) -> Regime:
    if _gap(r_a, r_b, d) <= 0.0:
        return Regime.DISJOINT
    if _gap(d, min(r_a, r_b), max(r_a, r_b)) <= 0.0:
        return Regime.CONTAINED
    return Regime.INTERSECTING


def _aperture_cos(r_a: float, r_b: float, d: float) -> float:
    """Clamped cosine of the center-to-center aperture (``cos_phi_ab``)."""
    return _clamp((r_a * r_a + r_b * r_b - d * d) / (2.0 * r_a * r_b))


def _sphere_volume(r: float) -> float:
    return _FOUR_THIRDS_PI * (r * r * r)


def _cap_heights(r_a: float, r_b: float, d: float) -> Tuple[float, float]:
    """(h2, h1): the lens's cap heights on sphere a and on sphere b (needs d > 0).

    r * (1 - cos) multiplied out into factors that vanish only where the
    height does, each computed by ``_gap``, so no digits cancel near
    tangency or containment.
    """
    half_gap = _gap(r_a, r_b, d) / (2.0 * d)
    return _gap(r_b, d, r_a) * half_gap, _gap(r_a, d, r_b) * half_gap


def _lens_volume(r_a: float, r_b: float, d: float) -> float:
    """Two-cap lens volume for the intersecting regime (d > 0 guaranteed)."""
    h2, h1 = _cap_heights(r_a, r_b, d)
    return math.pi * (h2 * h2 * (r_a - h2 / 3.0) + h1 * h1 * (r_b - h1 / 3.0))


def _intersection_volume(r_a: float, r_b: float, d: float) -> float:
    """Intersection volume from radii and center distance.

    Canonicalizes the argument order (small radius first) so swapped
    arguments produce bit-identical results.
    """
    regime = _classify(r_a, r_b, d)
    if regime is Regime.DISJOINT:
        return 0.0
    if regime is Regime.CONTAINED:
        return _sphere_volume(min(r_a, r_b))
    if r_a <= r_b:
        return _lens_volume(r_a, r_b, d)
    return _lens_volume(r_b, r_a, d)


def _union_volume(r_a: float, r_b: float, inter: float) -> float:
    """Union volume of a pair whose intersection volume is ``inter``."""
    return _sphere_volume(r_a) + _sphere_volume(r_b) - inter


def _siou(r_a: float, r_b: float, d: float) -> float:
    inter = _intersection_volume(r_a, r_b, d)
    if inter == 0.0:
        return 0.0
    return _clamp(inter / _union_volume(r_a, r_b, inter), 0.0, 1.0)


def _rdr(r_a: float, r_b: float, d: float) -> float:
    return d / (d + r_a + r_b)


def _angle_score(r_a: float, r_b: float, d: float) -> float:
    if _gap(r_a, r_b, d) < 0.0:
        return 0.0
    return math.acos(_aperture_cos(r_a, r_b, d)) / math.pi


def center_distance(a: Sphere, b: Sphere) -> float:
    """Euclidean distance between the two sphere centers."""
    return _distance(a.center, b.center)


def overlap_geometry(a: Sphere, b: Sphere) -> OverlapGeometry:
    """Computes the cap angles, cap heights, and regime for a sphere pair.

    The degenerate concentric case (d == 0) is classified as contained
    before any per-sphere cap angle is evaluated, so no division by zero
    occurs.

    Args:
        a: first sphere (the "predicted" sphere in loss contexts).
        b: second sphere.

    Returns:
        An OverlapGeometry; see the class docstring for field semantics.
    """
    r_a, r_b = a.radius, b.radius
    d = _distance(a.center, b.center)
    regime = _classify(r_a, r_b, d)
    cos_a = _clamp((r_a * r_a + d * d - r_b * r_b) / (2.0 * r_a * d)) if d > 0.0 else 1.0
    cos_b = _clamp((r_b * r_b + d * d - r_a * r_a) / (2.0 * r_b * d)) if d > 0.0 else 1.0
    h2, h1 = _cap_heights(r_a, r_b, d) if regime is Regime.INTERSECTING else (0.0, 0.0)
    return OverlapGeometry(
        d_ab=d,
        cos_phi_a=cos_a,
        cos_phi_b=cos_b,
        cos_phi_ab=_aperture_cos(r_a, r_b, d),
        h1=h1,
        h2=h2,
        regime=regime,
    )


def intersection_volume(a: Sphere, b: Sphere) -> float:
    """Volume of the intersection of two spheres.

    Zero in the disjoint regime (tangency included), the smaller sphere's
    volume in the contained regime, and the two-cap lens volume otherwise.
    Symmetric: swapping the arguments returns a bit-identical value.
    """
    return _intersection_volume(a.radius, b.radius, center_distance(a, b))


def union_volume(a: Sphere, b: Sphere) -> float:
    """Volume of the union of two spheres (sum of volumes minus overlap)."""
    return _union_volume(a.radius, b.radius, intersection_volume(a, b))


def siou(a: Sphere, b: Sphere) -> float:
    """Sphere intersection-over-union, in [0, 1].

    1.0 exactly for identical spheres (the concentric equal-radius case is
    contained, so the ratio is volume/volume); 0.0 for disjoint pairs.
    """
    return _siou(a.radius, b.radius, center_distance(a, b))


def distance_radius_ratio(a: Sphere, b: Sphere) -> float:
    """Normalized center distance d / (d + r_a + r_b), in [0, 1)."""
    return _rdr(a.radius, b.radius, center_distance(a, b))


def angle_score(a: Sphere, b: Sphere) -> float:
    """Aperture-angle penalty in [0, 1].

    Zero when the centers are farther apart than the exact radius sum; otherwise
    arccos of the (clamped) center-to-center aperture cosine, normalized by
    pi.  Exactly at tangency the arccos branch applies and yields 1; the
    sphere losses never consume that value because their own disjoint branch
    already includes tangency.
    """
    return _angle_score(a.radius, b.radius, center_distance(a, b))
