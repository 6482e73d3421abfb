"""Sampling-based sphere intersection volume.

This is the independent cross-check for the closed-form lens volume: an
unbiased uniform-sampling estimate over the minimal cylinder around the
center axis that encloses the intersection region.  The lens is
rotationally symmetric about that axis, so a sample needs only its axial
position x and its squared radial distance t, which is uniform on
[0, rho^2) for a point uniform in a disk of radius rho; both come from one
64-bit draw, resolved to 2^-32 of the cylinder's length and of rho^2.
Because the cylinder hugs the lens, the hit fraction is at least 1/2 in
every regime, so the relative error is ~1/sqrt(samples) with a small
constant even for sliver overlaps.

Backends: the compiled kernel ``spheredet._mc_core`` when it has been built
(``python setup.py build_ext --inplace`` compiles the hand-written
``_mc_core.c``; it needs a C compiler with 128-bit integers) and its
``SAMPLER`` tag matches the fallback's, otherwise the pure-numpy fallback
``spheredet._mc_python``; ``backend_name()`` reports which one is in use.
Both count the hits among the next ``samples`` outputs of the PCG64 stream
at a given position, its two LCG words (state, inc), and return
bit-identical counts.  This module cuts a call's samples into contiguous
shares, one per usable CPU and none smaller than 2^20, reads each share's
start words from one ``PCG64(seed)`` stepped along with ``advance``, and
counts the shares on threads (the kernel releases the GIL, and so do most of
the fallback's NumPy passes).  The hits are an integer sum over the same
stream positions, so the estimate depends neither on the backend nor on the
CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from types import ModuleType
from typing import Optional, Tuple

import numpy as np

from . import _mc_python
from .geometry import Sphere, _distance
from .matching import _integer

_MIN_SHARE = 1 << 20  # fewest samples worth a thread
_MAX_SHARES = 64


def _select_backend(compiled: Optional[ModuleType]) -> ModuleType:
    """The compiled module if it samples as the fallback does, else the fallback.

    A kernel built from an older ``_mc_core.c`` maps the stream to points
    differently (or lacks the tag), and pairing it with this module's volume
    formula would scale every estimate wrongly.
    """
    if compiled is not None and getattr(compiled, "SAMPLER", None) == _mc_python.SAMPLER:
        return compiled
    return _mc_python


try:
    from . import _mc_core
except ImportError:  # pragma: no cover - the kernel was not built
    _backend = _mc_python
else:
    _backend = _select_backend(_mc_core)


def backend_name() -> str:
    """Name of the sampling backend selected at import ("compiled"/"python")."""
    return "python" if _backend is _mc_python else "compiled"


def _usable_cpus() -> int:
    """The number of CPUs this process may run on, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_hits(seed: int, samples: int, lens: Tuple[float, ...]) -> int:
    """The backend's hits among the first ``samples`` outputs of ``PCG64(seed)``.

    Share k of n covers stream positions [samples*k//n, samples*(k+1)//n).
    The calling thread counts share 0 and a thread each other share; a share
    whose thread cannot be started is counted on the calling thread.  An
    exception raised in any share is raised here once every share is done.
    """
    n = max(1, min(samples // _MIN_SHARE, _usable_cpus(), _MAX_SHARES))
    stream = np.random.PCG64(seed)
    outcomes: list = [None] * n  # each share's hits, or the exception it raised

    def count(k: int, state: int, inc: int, size: int) -> None:
        try:
            outcomes[k] = _backend.count_hits(state, inc, size, *lens)
        except BaseException as error:
            outcomes[k] = error

    shares = []
    for k in range(n):
        size = samples * (k + 1) // n - samples * k // n
        words = stream.state["state"]
        shares.append((k, words["state"], words["inc"], size))
        stream.advance(size)
    threads, unstarted = [], []
    for share in shares[1:]:
        thread = threading.Thread(target=count, args=share)
        try:
            thread.start()
        except RuntimeError:  # no thread to be had
            unstarted.append(share)
        else:
            threads.append(thread)
    for share in [shares[0], *unstarted]:
        count(*share)
    for thread in threads:
        thread.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return sum(outcomes)


def _lens_box(r_a: float, r_b: float, d: float) -> Optional[Tuple[float, float, float]]:
    """Minimal enclosing cylinder of the intersection region, or None if empty.

    Coordinates are in the frame with sphere a centered at the origin and
    sphere b at (d, 0, 0); the cylinder is [x_lo, x_hi] x disk(rho) around
    the x axis.  The squared transverse extent of the lens at axial position
    x is min(r_a^2 - x^2, r_b^2 - (d-x)^2), a concave function whose maximum sits
    at sphere a's equator (x=0) when that equator lies inside b, at sphere
    b's equator (x=d) when it lies inside a, and at the chord plane otherwise.
    Being concave, it lies above the tent rising from 0 at x_lo and x_hi to
    rho^2 at that maximum, so the lens fills at least half the cylinder.
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
        for disjoint pairs (the enclosing cylinder is empty).

    Raises:
        ValueError: if ``samples`` is not an integer >= 1.
    """
    samples = _integer(samples, "samples")
    # Canonical argument order makes the estimate symmetric in (a, b).
    if (a.radius, a.center) > (b.radius, b.center):
        a, b = b, a
    d = _distance(a.center, b.center)
    box = _lens_box(a.radius, b.radius, d)
    if box is None:
        return 0.0
    x_lo, x_hi, rho = box
    hits = _count_hits(seed, samples, (a.radius, b.radius, d, x_lo, x_hi, rho))
    cylinder_volume = (x_hi - x_lo) * math.pi * (rho * rho)
    return cylinder_volume * (hits / samples)
