"""Sampling-based sphere intersection volume.

This is the independent cross-check for the closed-form lens volume: an
unbiased uniform-sampling estimate over the minimal axis-aligned box (in the
center-axis frame) that encloses the intersection region.  Because the box
hugs the lens, the hit fraction stays bounded below (~pi/8) in every regime,
so the relative error is ~1/sqrt(samples) with a small constant even for
sliver overlaps.

Backends: the compiled kernel ``spheredet._mc_core`` when it has been built
(``python setup.py build_ext --inplace`` compiles the hand-written
``_mc_core.c``; it needs only a C compiler and the NumPy headers), otherwise
the pure-numpy fallback ``spheredet._mc_python``.  Both consume the identical
PCG64 stream and return bit-identical counts; set ``SPHEREDET_FORCE_PYTHON=1``
to force the fallback.  ``backend_name()`` reports which one is in use.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Tuple

import numpy as np

from .geometry import Sphere, _distance

if os.environ.get("SPHEREDET_FORCE_PYTHON") == "1":
    from . import _mc_python as _backend

    COMPILED_BACKEND = False
else:
    try:
        from . import _mc_core as _backend  # type: ignore[no-redef]

        COMPILED_BACKEND = True
    except ImportError:  # pragma: no cover - exercised via env override
        from . import _mc_python as _backend  # type: ignore[no-redef]

        COMPILED_BACKEND = False


def backend_name() -> str:
    """Name of the sampling backend selected at import ("compiled"/"python")."""
    return "compiled" if COMPILED_BACKEND else "python"


def _lens_box(r_a: float, r_b: float, d: float) -> Optional[Tuple[float, float, float]]:
    """Minimal enclosing box of the intersection region, or None if empty.

    Coordinates are in the frame with sphere a centered at the origin and
    sphere b at (d, 0, 0); the box is [x_lo, x_hi] x [-rho, rho]^2.  The
    transverse extent of the lens at axial position x is
    min(r_a^2 - x^2, r_b^2 - (d-x)^2), a concave function whose maximum sits
    at sphere a's equator (x=0) when that equator lies inside b, at sphere
    b's equator (x=d) when it lies inside a, and at the chord plane otherwise.
    """
    if d >= r_a + r_b:
        return None
    x_lo = max(-r_a, d - r_b)
    x_hi = min(r_a, d + r_b)
    ra2 = r_a * r_a
    rb2 = r_b * r_b
    if ra2 <= rb2 - d * d:
        rho_sq = ra2
    elif rb2 <= ra2 - d * d:
        rho_sq = rb2
    else:
        xc = (ra2 + d * d - rb2) / (2.0 * d)  # d > 0 in this branch
        rho_sq = ra2 - xc * xc
    return x_lo, x_hi, math.sqrt(max(rho_sq, 0.0))


def mc_intersection_volume(a: Sphere, b: Sphere, samples: int, seed: int) -> float:
    """Unbiased Monte-Carlo estimate of the two-sphere intersection volume.

    Args:
        a: first sphere.
        b: second sphere.
        samples: number of uniform samples, >= 1.
        seed: PCG64 seed; the estimate is deterministic given the seed.

    Returns:
        Estimated intersection volume in cubic world voxels.  Exactly 0.0
        for disjoint pairs (the enclosing box is empty).

    Raises:
        ValueError: if ``samples`` < 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    # Canonical argument order makes the estimate symmetric in (a, b).
    if (a.radius, a.center) > (b.radius, b.center):
        a, b = b, a
    d = _distance(a.center, b.center)
    box = _lens_box(a.radius, b.radius, d)
    if box is None:
        return 0.0
    x_lo, x_hi, rho = box
    hits = _backend.count_hits(
        np.random.PCG64(seed), int(samples), a.radius, b.radius, d, x_lo, x_hi, rho
    )
    box_volume = (x_hi - x_lo) * (2.0 * rho) * (2.0 * rho)
    return box_volume * (hits / samples)
