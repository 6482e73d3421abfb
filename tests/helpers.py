"""Shared test oracles: finite differences, brute-force reference
implementations, and pinned fixtures.

Everything here is deliberately written with plain loops and tuple sorts,
independent of the vectorized library code it cross-checks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from spheredet import (
    Candidate,
    GridSpec,
    Label,
    NmsParams,
    NoduleAnnotation,
    ScanResult,
    Sphere,
    SphereGradient,
    SphereLossKind,
    sphere_loss,
    write_grid,
)
from spheredet.geometry import distance_radius_ratio, siou

# --------------------------------------------------------------------------
# files


def write_grid_with_stride(path: Path, grid, stride: int) -> None:
    """Writes ``grid`` with ``stride`` in its header line in place of its own,
    to make the files ``GridSpec`` itself refuses (a stride past the world bound)."""
    write_grid(path, grid)
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    fields["stride"] = stride
    line = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("ascii")
    path.write_bytes(b"\n".join([magic, line, payload]))


# --------------------------------------------------------------------------
# finite differences


def fd_gradient(
    kind: SphereLossKind, pred: Sphere, gt: Sphere, h: float = 1e-5
) -> SphereGradient:
    """Central finite differences over (cx, cy, cz, r) of the predicted sphere."""

    def loss_at(params: Sequence[float]) -> float:
        return sphere_loss(kind, Sphere((params[0], params[1], params[2]), params[3]), gt)

    base = [pred.center[0], pred.center[1], pred.center[2], pred.radius]
    parts = []
    for i in range(4):
        hi = list(base)
        lo = list(base)
        hi[i] += h
        lo[i] -= h
        parts.append((loss_at(hi) - loss_at(lo)) / (2.0 * h))
    return SphereGradient(*parts)


def assert_gradient_close(
    analytic: SphereGradient,
    numeric: SphereGradient,
    rel: float = 1e-4,
    floor: float = 1e-6,
    context: str = "",
) -> None:
    pairs = [
        ("d_cx", analytic.d_cx, numeric.d_cx),
        ("d_cy", analytic.d_cy, numeric.d_cy),
        ("d_cz", analytic.d_cz, numeric.d_cz),
        ("d_r", analytic.d_r, numeric.d_r),
    ]
    for name, a, f in pairs:
        tol = max(rel * max(abs(a), abs(f)), floor)
        assert abs(a - f) <= tol, (
            f"{name}: analytic {a!r} vs finite-difference {f!r} "
            f"(tol {tol:g}) {context}"
        )


# --------------------------------------------------------------------------
# random pair generators (margins keep finite differences on one regime)


def random_overlap_pair(
    rng: np.random.Generator, margin_frac: float = 0.05
) -> Tuple[Sphere, Sphere]:
    """Random pair for the sphere-loss family, away from regime boundaries."""
    while True:
        r_a = float(rng.uniform(0.5, 8.0))
        r_b = float(rng.uniform(0.5, 8.0))
        s = r_a + r_b
        gap = abs(r_a - r_b)
        m = margin_frac * s
        mode = int(rng.integers(3))
        if mode == 0:  # proper lens
            lo, hi = gap + m, s - m
            if lo >= hi:
                continue
            d = float(rng.uniform(lo, hi))
        elif mode == 1:  # disjoint
            d = float(rng.uniform(s + m, 2.0 * s))
        else:  # contained, strictly inside and away from concentric
            if gap <= 2.0 * m:
                continue
            d = float(rng.uniform(m, gap - m))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        base = rng.uniform(-5.0, 5.0, size=3)
        pred_center = base + d * direction
        return Sphere(tuple(pred_center), r_a), Sphere(tuple(base), r_b)


def random_box_pair(
    rng: np.random.Generator, margin: float = 0.02
) -> Tuple[Sphere, Sphere]:
    """Random pair whose circumscribed cubes overlap, away from every kink."""
    while True:
        r_a = float(rng.uniform(0.5, 4.0))
        r_b = float(rng.uniform(0.5, 4.0))
        offsets = rng.uniform(-0.8, 0.8, size=3) * (r_a + r_b)
        ok = True
        for i in range(3):
            a_hi, a_lo = offsets[i] + r_a, offsets[i] - r_a
            b_hi, b_lo = r_b, -r_b
            if min(a_hi, b_hi) - max(a_lo, b_lo) < margin:
                ok = False  # near face contact
            if abs(a_hi - b_hi) < margin or abs(a_lo - b_lo) < margin:
                ok = False  # near a min/max switchover
        if not ok:
            continue
        base = rng.uniform(-5.0, 5.0, size=3)
        return Sphere(tuple(base + offsets), r_a), Sphere(tuple(base), r_b)


def random_separated_pair(rng: np.random.Generator) -> Tuple[Sphere, Sphere]:
    """Pair whose cubes (and therefore spheres) are separated along one axis."""
    r_a = float(rng.uniform(0.5, 4.0))
    r_b = float(rng.uniform(0.5, 4.0))
    offsets = rng.uniform(-0.3, 0.3, size=3) * (r_a + r_b)
    axis = int(rng.integers(3))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    offsets[axis] = sign * (r_a + r_b) * float(rng.uniform(1.2, 2.0))
    base = rng.uniform(-5.0, 5.0, size=3)
    return Sphere(tuple(base + offsets), r_a), Sphere(tuple(base), r_b)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


# --------------------------------------------------------------------------
# matching oracle


def brute_force_assign(
    grid: GridSpec, nodules: Sequence[NoduleAnnotation], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference label assignment with explicit loops and tuple sorts.

    Returns (labels, matched) as flat arrays over linear cell index.
    """
    d, h, w = grid.dims
    r = float(grid.stride)
    n = d * h * w
    labels = np.full(n, int(Label.NEGATIVE), dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)

    def center(lin: int) -> Tuple[float, float, float]:
        iz, rem = divmod(lin, h * w)
        iy, ix = divmod(rem, w)
        return ((ix + 0.5) * r, (iy + 0.5) * r, (iz + 0.5) * r)

    for index, nodule in enumerate(nodules):
        dists = []
        for lin in range(n):
            cx, cy, cz = center(lin)
            dx = cx - nodule.center[0]
            dy = cy - nodule.center[1]
            dz = cz - nodule.center[2]
            dists.append((math.sqrt((dx * dx + dy * dy) + dz * dz), lin))
        dists.sort()
        claimed = 0
        for _, lin in dists:
            if claimed == k:
                break
            if labels[lin] != Label.POSITIVE:
                labels[lin] = int(Label.POSITIVE)
                matched[lin] = index
                claimed += 1
        for dist, lin in dists:
            if dist <= nodule.radius + 2.0 * r and labels[lin] == Label.NEGATIVE:
                labels[lin] = int(Label.IGNORED)
    return labels, matched


def brute_force_ohem(
    labels: np.ndarray, loss_flat: np.ndarray, n: int
) -> np.ndarray:
    """Reference hard-negative selection over flat labels."""
    out = labels.copy()
    positives = int(np.sum(labels == Label.POSITIVE))
    budget = n * positives if positives > 0 else 100
    negatives = [int(i) for i in np.flatnonzero(labels == Label.NEGATIVE)]
    negatives.sort(key=lambda i: (-float(loss_flat[i]), i))
    for lin in negatives[budget:]:
        out[lin] = int(Label.IGNORED)
    return out


# --------------------------------------------------------------------------
# NMS oracle


def nms_oracle(
    candidates: Sequence[Candidate], params: NmsParams
) -> List[Candidate]:
    """Quadratic pop-the-best suppression, independent of the library loop."""
    remaining = list(candidates)
    kept: List[Candidate] = []
    while remaining:
        best = min(remaining, key=lambda c: (-c.score, c.cell_index, c.level))
        kept.append(best)
        survivors = []
        for c in remaining:
            if c is best:
                continue
            if (
                siou(best.sphere, c.sphere) > params.tau_siou
                or distance_radius_ratio(best.sphere, c.sphere) < params.tau_dr
            ):
                continue
            survivors.append(c)
        remaining = survivors
    return kept


# --------------------------------------------------------------------------
# FROC oracle


def _hits(candidate: Candidate, annotation: NoduleAnnotation) -> bool:
    c, g = candidate.sphere.center, annotation.center
    dist = math.sqrt((c[0] - g[0]) ** 2 + (c[1] - g[1]) ** 2 + (c[2] - g[2]) ** 2)
    return dist <= annotation.radius


def froc_threshold_oracle(
    results: Sequence[ScanResult], budgets: Sequence[float]
) -> List[Tuple[float, float]]:
    """Exhaustive threshold sweep: for every candidate score as the cutoff,
    recount detected annotations and false positives from scratch."""
    n_scans = len(results)
    total = sum(len(r.annotations) for r in results)
    thresholds = [math.inf] + sorted(
        {c.score for r in results for c in r.candidates}
    )
    points = []
    for budget in budgets:
        best = 0.0
        for theta in thresholds:
            fp = 0
            detected = 0
            for result in results:
                kept = [c for c in result.candidates if c.score >= theta]
                for annotation in result.annotations:
                    if any(_hits(c, annotation) for c in kept):
                        detected += 1
                for c in kept:
                    if not any(_hits(c, g) for g in result.annotations):
                        fp += 1
            if fp / n_scans <= budget:
                best = max(best, detected / total)
        points.append((float(budget), best))
    return points


def four_scan_fixture() -> List[ScanResult]:
    """Scripted 4-scan result set with hand-computed curve.

    Events by descending score: trigger .95, trigger .90, FP .85, trigger
    .80, FP .75, FP .70, trigger .60 (a boundary hit), FP .55, FP .50; one
    annotation is never hit, and one candidate (.58) hits an already-credited
    annotation.  Expected sensitivities at (1/8, 1/4, 1/2, 1, 2, 4, 8) FPs
    per scan: (0.4, 0.6, 0.6, 0.8, 0.8, 0.8, 0.8).
    """

    def cand(center, score):
        return Candidate(sphere=Sphere(center, 4.0), score=score)

    return [
        ScanResult(
            scan_id="s1",
            annotations=(
                NoduleAnnotation(id="s1:a", center=(0.0, 0.0, 0.0), radius=5.0),
                NoduleAnnotation(id="s1:b", center=(50.0, 0.0, 0.0), radius=5.0),
            ),
            candidates=(
                cand((0.0, 0.0, 0.0), 0.95),
                cand((50.0, 1.0, 0.0), 0.90),
                cand((100.0, 0.0, 0.0), 0.85),
                cand((2.0, 0.0, 0.0), 0.58),  # duplicate hit on s1:a
            ),
        ),
        ScanResult(
            scan_id="s2",
            annotations=(
                NoduleAnnotation(id="s2:c", center=(0.0, 0.0, 0.0), radius=4.0),
            ),
            candidates=(
                cand((0.0, 0.0, 3.0), 0.80),
                cand((30.0, 0.0, 0.0), 0.75),
                cand((60.0, 0.0, 0.0), 0.70),
            ),
        ),
        ScanResult(
            scan_id="s3",
            annotations=(
                NoduleAnnotation(id="s3:d", center=(10.0, 10.0, 10.0), radius=6.0),
            ),
            candidates=(
                cand((10.0, 10.0, 16.0), 0.60),  # distance exactly the radius
                cand((40.0, 0.0, 0.0), 0.55),
            ),
        ),
        ScanResult(
            scan_id="s4",
            annotations=(
                NoduleAnnotation(id="s4:e", center=(5.0, 5.0, 5.0), radius=3.0),
            ),
            candidates=(cand((5.0, 5.0, 9.0), 0.50),),  # misses by 1
        ),
    ]


FOUR_SCAN_EXPECTED = (
    (0.125, 0.4),
    (0.25, 0.6),
    (0.5, 0.6),
    (1.0, 0.8),
    (2.0, 0.8),
    (4.0, 0.8),
    (8.0, 0.8),
)
