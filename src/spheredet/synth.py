"""Synthetic scan generator for end-to-end harness runs.

Each synthetic scan is a prediction grid rendered directly from a set of
randomly placed ground-truth spheres: the home cell of every sphere carries
its exact regression targets, so decoding reproduces the sphere up to f32
rounding.  Optional uniform noise perturbs the probability map (background
cells keep radius 0 and are therefore dropped at decode time), and optional
"clutter" spheres with mid-range scores produce controlled false positives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .decode import PredictionGrid
from .geometry import _distance
from .matching import GridSpec, NoduleAnnotation, _cell_offset, _integer

_MAX_PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic dataset generator.

    Attributes:
        grid: geometry of the emitted prediction grids.
        nodules: inclusive (low, high) range for the per-scan nodule count.
        radius_range: (low, high) range for nodule and clutter radii.
        noise: amplitude of the uniform probability noise (0 disables it).
        clutter: number of false-positive spheres injected per scan.
    """

    grid: GridSpec = field(default_factory=lambda: GridSpec(dims=(24, 24, 24), stride=4))
    nodules: Tuple[int, int] = (3, 6)
    radius_range: Tuple[float, float] = (4.0, 12.0)
    noise: float = 0.0
    clutter: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.nodules
        if not (0 <= lo <= hi):
            raise ValueError(f"bad nodule count range {self.nodules!r}")
        r_lo, r_hi = self.radius_range
        if not (0.0 < r_lo <= r_hi):
            raise ValueError(f"bad radius range {self.radius_range!r}")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError(f"noise must lie in [0, 0.5), got {self.noise}")
        if self.clutter < 0:
            raise ValueError(f"clutter must be >= 0, got {self.clutter}")
        d, h, w = self.grid.dims
        extent = (w * self.grid.stride, h * self.grid.stride, d * self.grid.stride)
        margin = r_hi + self.grid.stride
        if any(margin > e - margin for e in extent):
            raise ValueError(
                f"volume extent {extent} too small for radius {r_hi} plus margins"
            )


@dataclass(frozen=True)
class ScanRecord:
    """One generated scan: its grid plus the ground truth that produced it."""

    scan_id: str
    grid: PredictionGrid
    annotations: Tuple[NoduleAnnotation, ...]


def _home_cell(center: Tuple[float, float, float], grid: GridSpec) -> Tuple[int, int, int]:
    """Index of the cell whose center is nearest to a world coordinate."""
    d, h, w = grid.dims
    return tuple(
        min(max(math.floor(c / grid.stride), 0), bound - 1)
        for c, bound in zip(center, (w, h, d))
    )


def _place(
    rng: np.random.Generator,
    radius: float,
    grid: GridSpec,
    keep_away: List[Tuple[Tuple[float, float, float], float]],
) -> Tuple[float, float, float]:
    """Draws a center inside the volume margins, away from existing spheres.

    The separation rule ``dist >= r_new + r_old + 2 * stride`` keeps every
    pair of rendered spheres disjoint with slack, so none of them suppress
    each other downstream.
    """
    d, h, w = grid.dims
    extent = (w * grid.stride, h * grid.stride, d * grid.stride)
    lows = [radius + grid.stride] * 3
    highs = [extent[axis] - radius - grid.stride for axis in range(3)]
    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        center = tuple(rng.uniform(lows[axis], highs[axis]) for axis in range(3))
        ok = True
        for other_center, other_radius in keep_away:
            if _distance(center, other_center) < radius + other_radius + 2.0 * grid.stride:
                ok = False
                break
        if ok:
            return center
    raise RuntimeError(
        f"could not place a sphere of radius {radius} after "
        f"{_MAX_PLACEMENT_ATTEMPTS} attempts; volume too crowded"
    )


def generate_scan(
    spec: SyntheticSpec, scan_id: str, rng: np.random.Generator
) -> ScanRecord:
    """Generates one scan from an already-seeded generator."""
    grid = spec.grid
    d, h, w = grid.dims
    stride = grid.stride

    n_nodules = int(rng.integers(spec.nodules[0], spec.nodules[1] + 1))
    placed: List[Tuple[Tuple[float, float, float], float]] = []
    annotations: List[NoduleAnnotation] = []
    for index in range(n_nodules):
        radius = float(rng.uniform(*spec.radius_range))
        center = _place(rng, radius, grid, placed)
        placed.append((center, radius))
        annotations.append(
            NoduleAnnotation(id=f"{scan_id}:{index}", center=center, radius=radius)
        )

    clutter: List[Tuple[Tuple[float, float, float], float]] = []
    for _ in range(spec.clutter):
        radius = float(rng.uniform(*spec.radius_range))
        center = _place(rng, radius, grid, placed + clutter)
        clutter.append((center, radius))

    nodule_probs = [1.0 - float(rng.uniform(0.0, spec.noise)) for _ in annotations]
    clutter_probs = [float(rng.uniform(0.2, 0.95)) for _ in clutter]

    if spec.noise > 0.0:
        prob = np.clip(rng.uniform(-spec.noise, spec.noise, size=(d, h, w)), 0.0, 1.0)
    else:
        prob = np.zeros((d, h, w), dtype=np.float64)
    radius_map = np.zeros((d, h, w), dtype=np.float64)
    offset = np.zeros((d, h, w, 3), dtype=np.float64)

    def render(center, radius, probability):
        ix, iy, iz = _home_cell(center, grid)
        prob[iz, iy, ix] = probability
        radius_map[iz, iy, ix] = radius / stride
        offset[iz, iy, ix] = _cell_offset(center, (ix, iy, iz), stride)

    for (center, radius), probability in zip(placed, nodule_probs):
        render(center, radius, probability)
    for (center, radius), probability in zip(clutter, clutter_probs):
        render(center, radius, probability)

    return ScanRecord(
        scan_id=scan_id,
        grid=PredictionGrid(
            spec=grid,
            center_prob=prob,
            radius=radius_map,
            offset=offset,
            level=0,
            scan_id=scan_id,
        ),
        annotations=tuple(annotations),
    )


def generate_dataset(spec: SyntheticSpec, n_scans: int, seed: int) -> List[ScanRecord]:
    """Generates ``n_scans`` independent scans from one master seed."""
    n_scans = _integer(n_scans, "n_scans")
    children = np.random.SeedSequence(seed).spawn(n_scans)
    return [
        generate_scan(spec, f"synth-{index:04d}", np.random.Generator(np.random.PCG64(child)))
        for index, child in enumerate(children)
    ]
