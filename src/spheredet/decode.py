"""Decoding prediction grids into candidates and sphere-overlap NMS.

A cell decodes to a candidate sphere with world center ((i + 0.5 + v) * R)
per axis and world radius (radius map value * R).  Cells whose decoded
radius is nonpositive are dropped (counted, never clamped).  Candidate
ordering everywhere is descending score, with ties broken by ascending
linear index of the producing cell and then by level tag, which makes the
pipeline output independent of input order as long as each grid of a scan
carries its own level tag.

Sphere NMS skips pairs that cannot interact.  A pair can only be suppressed
when ``siou > tau_siou >= 0``, which needs ``d < r_a + r_b``, or when
``d / (d + s) < tau_dr`` with ``s = r_a + r_b``, which needs
``d < s * tau_dr / (1 - tau_dr)``.  A vectorised distance test with
``reach = max(1, tau_dr / (1 - tau_dr))`` (plus a rounding slack) discards
the rest; every pair that passes is still decided by the scalar ``siou`` and
``distance_radius_ratio``, so the kept list equals the plain quadratic loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, List, Optional, Sequence, Tuple

import math
from numbers import Real

import numpy as np

from .geometry import Sphere, distance_radius_ratio, siou
from .matching import GridSpec, _cell_center, _integer


@dataclass
class PredictionGrid:
    """Raw per-cell predictions on one grid, as float32 or float64 arrays.

    Attributes:
        spec: grid geometry.
        center_prob: (D, H, W) probabilities in [0, 1].
        radius: (D, H, W) radii in grid units.
        offset: (D, H, W, 3) center offsets in grid units, channels (x, y, z).
        level: integer tag of the producing output level.
        scan_id: owning scan, "" when unknown.
    """

    spec: GridSpec
    center_prob: np.ndarray
    radius: np.ndarray
    offset: np.ndarray
    level: int = 0
    scan_id: str = ""

    def __post_init__(self) -> None:
        d, h, w = self.spec.dims
        if self.center_prob.shape != (d, h, w):
            raise ValueError(
                f"center_prob shape {self.center_prob.shape} != grid dims {(d, h, w)}"
            )
        if self.radius.shape != (d, h, w):
            raise ValueError(f"radius shape {self.radius.shape} != grid dims {(d, h, w)}")
        if self.offset.shape != (d, h, w, 3):
            raise ValueError(
                f"offset shape {self.offset.shape} != {(d, h, w, 3)}"
            )
        # NaN and +-inf show in min() or max(): no boolean temporaries.
        names = ("center_prob", "radius", "offset")
        bounds = [(getattr(self, name).min(), getattr(self, name).max()) for name in names]
        for name, (lo, hi) in zip(names, bounds):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} contains non-finite values")
        prob_lo, prob_hi = bounds[0]
        if prob_lo < 0.0 or prob_hi > 1.0:
            raise ValueError("center_prob values must lie in [0, 1]")


@dataclass(frozen=True)
class Candidate:
    """One decoded detection: sphere, score, producing level and cell."""

    sphere: Sphere
    score: float
    level: int = 0
    cell_index: int = -1

    def __post_init__(self) -> None:
        if not math.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"candidate score must lie in [0, 1], got {self.score!r}")


@dataclass(frozen=True)
class NmsParams:
    """Suppression thresholds: overlap above tau_siou or normalized center
    distance below tau_dr kills the lower-scoring candidate."""

    tau_siou: float = 0.05
    tau_dr: float = 0.5

    def __post_init__(self) -> None:
        siou, dr = self.tau_siou, self.tau_dr
        if isinstance(siou, bool) or not (isinstance(siou, Real) and 0.0 <= siou <= 1.0):
            raise ValueError(f"tau_siou must lie in [0, 1], got {siou!r}")
        if isinstance(dr, bool) or not (isinstance(dr, Real) and 0.0 <= dr < 1.0):
            raise ValueError(f"tau_dr must lie in [0, 1), got {dr!r}")
        object.__setattr__(self, "tau_siou", float(siou))  # a config file's 0 echoes as 0.0
        object.__setattr__(self, "tau_dr", float(dr))


@dataclass
class DecodeStats:
    """Counters reported by the decoding stage."""

    dropped_nonpositive_radius: int = 0


def _sort_key(candidate: Candidate):
    return (-candidate.score, candidate.cell_index, candidate.level)


def _decode(
    grid: PredictionGrid, cells: np.ndarray, stats: Optional[DecodeStats] = None
) -> List[Candidate]:
    """Decodes the cells at linear indices ``cells``, in that order, dropping
    (and tallying in ``stats``) those whose decoded radius is nonpositive."""
    iz, iy, ix = np.unravel_index(cells, grid.spec.dims)
    # Widened to float64 before any arithmetic: float32 * int stays float32.
    radius = grid.radius[iz, iy, ix].astype(np.float64) * grid.spec.stride
    keep = radius > 0.0
    if stats is not None:
        stats.dropped_nonpositive_radius += int(keep.size - np.count_nonzero(keep))
    offset = grid.offset[iz, iy, ix].astype(np.float64).T
    center = np.stack(_cell_center((ix, iy, iz), offset, grid.spec.stride), axis=-1)
    # .tolist() gives Python floats and ints: no NumPy scalar reaches a Candidate.
    rows = zip(center[keep].tolist(), radius[keep].tolist(),
               grid.center_prob[iz, iy, ix][keep].tolist(), cells[keep].tolist())
    return [Candidate(Sphere(tuple(c), r), p, grid.level, i) for c, r, p, i in rows]


def decode_cell(grid: PredictionGrid, cell: Tuple[int, int, int]) -> Candidate:
    """Decodes one (ix, iy, iz) cell into a candidate.

    Raises:
        IndexError: if the cell lies outside the grid.
        ValueError: if the decoded radius is nonpositive.
    """
    ix, iy, iz = cell
    d, h, w = grid.spec.dims
    if not (0 <= ix < w and 0 <= iy < h and 0 <= iz < d):
        raise IndexError(f"cell {cell} outside grid dims (W={w}, H={h}, D={d})")
    decoded = _decode(grid, np.array([(iz * h + iy) * w + ix]))
    if not decoded:
        raise ValueError(f"nonpositive decoded radius at cell {cell}")
    return decoded[0]


def top_n_candidates(
    grid: PredictionGrid, n: int, stats: Optional[DecodeStats] = None
) -> List[Candidate]:
    """Decodes the n highest-probability cells, dropping nonpositive radii.

    Returns candidates sorted by descending score (ties by ascending linear
    cell index).  Dropped cells are tallied in ``stats`` when provided.
    """
    n = _integer(n, "n")
    flat = grid.center_prob.ravel()
    n = min(n, flat.size)
    # Same order as np.argsort(-flat, kind="stable")[:n]: every cell above
    # the n-th largest value, then the lowest-index cells equal to it.
    floor = np.partition(flat, flat.size - n)[flat.size - n]
    above = np.flatnonzero(flat > floor)
    chosen = np.concatenate([above, np.flatnonzero(flat == floor)[: n - above.size]])
    return _decode(grid, chosen[np.lexsort((chosen, -flat[chosen]))], stats)


def merge_levels(a: Sequence[Candidate], b: Sequence[Candidate]) -> List[Candidate]:
    """Concatenates two candidate lists, re-sorted by descending score."""
    return sorted(list(a) + list(b), key=_sort_key)


def nms_siou(candidates: Sequence[Candidate], params: NmsParams) -> List[Candidate]:
    """Greedy sphere-overlap NMS.

    Repeatedly accepts the highest-scoring remaining candidate and removes
    every candidate that overlaps it (siou > tau_siou) or sits too close to
    it (distance_radius_ratio < tau_dr).  The kept list is an antichain
    under those two tests and the operation is idempotent.

    Only pairs with center distance ``d <= (r_a + r_b) * reach``, where
    ``reach = max(1, tau_dr / (1 - tau_dr))``, can meet either test (see the
    module docstring); the rest are skipped with one vector distance per
    kept candidate.  The scalar tests still decide every remaining pair.
    The relative slack ``1e-9 / (1 - tau_dr)`` on ``reach`` exceeds the
    rounding error of both tests, including for tau_dr close to 1.
    """
    pending = sorted(candidates, key=_sort_key)
    centers = np.array([c.sphere.center for c in pending], dtype=np.float64).reshape(-1, 3)
    radii = np.array([c.sphere.radius for c in pending], dtype=np.float64)
    tau_dr = params.tau_dr
    reach = max(1.0, tau_dr / (1.0 - tau_dr)) * (1.0 + 1e-9 / (1.0 - tau_dr))
    alive = np.ones(len(pending), dtype=bool)
    kept: List[Candidate] = []
    for i, candidate in enumerate(pending):
        if not alive[i]:
            continue
        kept.append(candidate)
        rest = i + 1 + np.flatnonzero(alive[i + 1:])
        d = np.sqrt(((centers[rest] - centers[i]) ** 2).sum(axis=1))
        for j in rest[d <= (radii[i] + radii[rest]) * reach]:
            other = pending[j]
            if (
                siou(candidate.sphere, other.sphere) > params.tau_siou
                or distance_radius_ratio(candidate.sphere, other.sphere) < tau_dr
            ):
                alive[j] = False
    return kept


def detect_candidates(
    grids: Iterable[PredictionGrid],
    top_n: int,
    params: NmsParams,
    stats: Optional[DecodeStats] = None,
) -> List[Candidate]:
    """Full per-scan pipeline: per-grid top-n, merge across levels, NMS.

    No grid is held once decoded, so a generator of grids keeps one in memory
    at a time."""
    per_level = list(map(lambda grid: top_n_candidates(grid, top_n, stats), grids))
    if not per_level:
        return []
    merged = reduce(merge_levels, per_level)
    return nms_siou(merged, params)
