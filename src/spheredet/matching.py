"""Center-points label assignment on a downsampled prediction grid.

A grid cell with integer index (ix, iy, iz) covers the world-voxel cube
[i*R, (i+1)*R) per axis and has its center at ((i + 0.5) * R).  Grid arrays
are stored (D, H, W) = (z, y, x), so the linear cell index (C-order ravel)
runs z-major, then y, then x — that order breaks every tie in this package.

Assignment rules, applied per annotation in list order:

* the K nearest cells (center-to-centroid distance, ties by ascending
  linear index) become Positive and are matched to that annotation;
  cells already Positive for an earlier annotation are skipped, so later
  annotations claim their next-nearest unclaimed cells;
* cells within world distance (radius + 2R) of the centroid that are not
  Positive become Ignored (a later annotation may promote an Ignored cell
  to Positive; nothing ever demotes a Positive);
* everything else stays Negative.

Online hard-example mining then keeps the N hardest negatives (N = n * M
positives, or 100 when there are no positives) and demotes the rest to
Ignored.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import Point3


def _integer(value, name: str, low: Optional[int] = 1) -> int:
    """``value`` as an int: a real number (not a bool) with no fractional part
    and, unless ``low`` is None, at least ``low``; else a ValueError."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        integral = math.isfinite(value) and int(value) == value
    except OverflowError:  # an int too large for a float
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


# The largest world coordinate or radius accepted: sums of a few such values,
# their squares and their cubes stay finite in the geometry, NMS and FROC.
_WORLD_LIMIT = 1e100
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class GridSpec:
    """Prediction grid geometry.

    Attributes:
        dims: cell counts (D, H, W) along (z, y, x).
        stride: world voxels per cell (R); no cell may decode past ``_WORLD_LIMIT``.
    """

    dims: Tuple[int, int, int]
    stride: int

    def __post_init__(self) -> None:
        if not isinstance(self.dims, (list, tuple)) or len(self.dims) != 3:
            raise ValueError(f"grid dims must have 3 entries, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(_integer(d, "grid dims") for d in self.dims))
        object.__setattr__(self, "stride", _integer(self.stride, "grid stride"))
        # Decoded centers (i + 0.5 + v) * stride and radii r * stride, v and r any float32.
        if self.stride > _WORLD_LIMIT / (max(self.dims) + 0.5 + _FLOAT32_MAX):
            raise ValueError(
                f"stride {self.stride} could decode world values above {_WORLD_LIMIT:g}"
            )

    @property
    def n_cells(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]


@dataclass(frozen=True)
class NoduleAnnotation:
    """One annotated nodule: world-voxel centroid and radius."""

    id: str
    center: Point3
    radius: float

    def __post_init__(self) -> None:
        if len(self.center) != 3 or not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"annotation center must be 3 finite components, got {self.center!r}")
        if not math.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"annotation radius must be finite and > 0, got {self.radius!r}")


class Label(enum.IntEnum):
    NEGATIVE = 0
    POSITIVE = 1
    IGNORED = 2


@dataclass
class LabelAssignment:
    """Per-cell labels plus regression targets for one grid.

    ``matched_nodule`` holds the annotation list index at Positive cells and
    -1 elsewhere.  ``radius_target`` (grid units) and ``offset_target``
    (grid units, channels x/y/z) are zero until ``regression_targets``
    fills them.
    """

    grid: GridSpec
    labels: np.ndarray
    matched_nodule: np.ndarray
    radius_target: np.ndarray
    offset_target: np.ndarray

    def __post_init__(self) -> None:
        d, h, w = self.grid.dims
        if self.labels.shape != (d, h, w):
            raise ValueError(f"labels shape {self.labels.shape} != grid dims {(d, h, w)}")
        if self.matched_nodule.shape != (d, h, w):
            raise ValueError("matched_nodule shape mismatch")
        if self.radius_target.shape != (d, h, w):
            raise ValueError("radius_target shape mismatch")
        if self.offset_target.shape != (d, h, w, 3):
            raise ValueError("offset_target shape mismatch")

    @property
    def positive_count(self) -> int:
        return int(np.count_nonzero(self.labels == Label.POSITIVE))


def _cell_center(cell, offset, stride):
    """World center ``(i + 0.5 + v) * R`` per axis of cell (ix, iy, iz) with
    offset (vx, vy, vz) in grid units; arrays work elementwise.  Offsets must
    be Python floats or float64: a NumPy float32 scalar keeps the sum float32."""
    return tuple((i + 0.5 + v) * stride for i, v in zip(cell, offset))


def _cell_offset(center, cell, stride):
    """Inverse of ``_cell_center``: the offset ``c / R - (i + 0.5)`` per axis
    that decodes cell (ix, iy, iz) to ``center``; arrays work elementwise."""
    return tuple(c / stride - (i + 0.5) for c, i in zip(center, cell))


def distance_map(grid: GridSpec, centroid: Point3) -> np.ndarray:
    """Per-cell Euclidean distance from the cell center to a world point.

    The squared components are accumulated in (x, y, z) order before the
    square root, matching the scalar evaluation ``(dx*dx + dy*dy) + dz*dz``
    bit for bit so that independent implementations agree on ties.
    """
    d, h, w = grid.dims
    axes = tuple(np.arange(n, dtype=np.float64) for n in (w, h, d))
    cx, cy, cz = _cell_center(axes, (0.0, 0.0, 0.0), float(grid.stride))
    dx, dy, dz = cx - centroid[0], cy - centroid[1], cz - centroid[2]
    sq = (dx * dx)[None, None, :] + (dy * dy)[None, :, None]
    sq = sq + (dz * dz)[:, None, None]
    return np.sqrt(sq)


def _empty_assignment(grid: GridSpec) -> LabelAssignment:
    d, h, w = grid.dims
    return LabelAssignment(
        grid=grid,
        labels=np.full((d, h, w), Label.NEGATIVE, dtype=np.int8),
        matched_nodule=np.full((d, h, w), -1, dtype=np.int32),
        radius_target=np.zeros((d, h, w), dtype=np.float64),
        offset_target=np.zeros((d, h, w, 3), dtype=np.float64),
    )


def assign_labels(
    grid: GridSpec, nodules: Sequence[NoduleAnnotation], k: int
) -> LabelAssignment:
    """Assigns Positive/Negative/Ignored labels for a list of annotations.

    Annotations are processed in list order; see the module docstring for
    the claiming and ignore-ring rules.

    Raises:
        ValueError: if k is not an integer >= 1 or exceeds the cell count,
            if an annotation centroid lies outside the grid's world extent,
            or if fewer than k unclaimed cells remain for some annotation.
    """
    k = _integer(k, "k")
    if k > grid.n_cells:
        raise ValueError(f"k = {k} exceeds the cell count {grid.n_cells}")
    extent = tuple(grid.dims[2 - i] * grid.stride for i in range(3))  # (x, y, z)
    assignment = _empty_assignment(grid)
    labels_flat = assignment.labels.ravel()
    matched_flat = assignment.matched_nodule.ravel()
    two_r = 2.0 * grid.stride
    for index, nodule in enumerate(nodules):
        for axis in range(3):
            if not 0.0 <= nodule.center[axis] <= extent[axis]:
                raise ValueError(
                    f"annotation {nodule.id!r} center {nodule.center} lies outside "
                    f"the volume extent {extent}"
                )
        dmap = distance_map(grid, nodule.center)
        order = np.argsort(dmap.ravel(), kind="stable")
        free = order[labels_flat[order] != Label.POSITIVE]
        if free.size < k:
            raise ValueError(
                f"fewer than k = {k} unclaimed cells remain for annotation "
                f"{nodule.id!r}"
            )
        labels_flat[free[:k]] = Label.POSITIVE
        matched_flat[free[:k]] = index
        ring = (dmap <= nodule.radius + two_r) & (
            assignment.labels == Label.NEGATIVE
        )
        assignment.labels[ring] = Label.IGNORED
    return assignment


def regression_targets(
    grid: GridSpec,
    assignment: LabelAssignment,
    nodules: Sequence[NoduleAnnotation],
) -> LabelAssignment:
    """Fills radius/offset targets at Positive cells (grid units).

    The offset target is the matched centroid in grid coordinates minus the
    cell center (x + 0.5); the radius target is radius / stride.  Decoding a
    cell with these targets reproduces the annotation exactly.
    """
    r = float(grid.stride)
    radius_target = np.zeros_like(assignment.radius_target)
    offset_target = np.zeros_like(assignment.offset_target)
    cells = np.argwhere(assignment.labels == Label.POSITIVE)  # rows (iz, iy, ix)
    at = tuple(cells.T)
    index = assignment.matched_nodule[at]
    bad = np.flatnonzero((index < 0) | (index >= len(nodules)))
    if bad.size:
        iz, iy, ix = cells[bad[0]]
        raise ValueError(f"positive cell ({ix}, {iy}, {iz}) has no matched nodule")
    matched = [nodules[i] for i in index]
    centers = np.array([m.center for m in matched], dtype=np.float64).reshape(-1, 3)
    radius_target[at] = np.array([m.radius for m in matched], dtype=np.float64) / r
    offset_target[at] = np.stack(_cell_offset(centers.T, at[::-1], r), axis=-1)
    return replace(
        assignment, radius_target=radius_target, offset_target=offset_target
    )


def ohem_refine(
    assignment: LabelAssignment, per_cell_cls_loss: np.ndarray, n: int
) -> LabelAssignment:
    """Keeps the hardest negatives, demoting the rest to Ignored.

    N = n * (positive count), or 100 when there are no positives.  Hardness
    is the per-cell classification loss, descending; ties fall back to
    ascending linear cell index.

    Raises:
        ValueError: if n is not an integer >= 1, the loss map is not real
            or its shape mismatches, or the loss is not finite on some
            Negative cell.
    """
    n = _integer(n, "n")
    loss = np.asarray(per_cell_cls_loss)
    if loss.dtype.kind not in "biuf":
        raise ValueError(f"per-cell loss must be real numbers, got dtype {loss.dtype}")
    loss = loss.astype(np.float64, copy=False)
    if loss.shape != assignment.labels.shape:
        raise ValueError(
            f"loss map shape {loss.shape} != label grid shape {assignment.labels.shape}"
        )
    negative_lin = np.flatnonzero(assignment.labels.ravel() == Label.NEGATIVE)
    values = loss.ravel()[negative_lin]
    if not np.all(np.isfinite(values)):
        raise ValueError("per-cell loss must be finite on all Negative cells")
    positives = assignment.positive_count
    budget = n * positives if positives > 0 else 100
    keep = min(budget, negative_lin.size)
    order = np.argsort(-values, kind="stable")
    demote = negative_lin[order[keep:]]
    labels = assignment.labels.copy()
    labels.ravel()[demote] = Label.IGNORED
    return replace(assignment, labels=labels)
