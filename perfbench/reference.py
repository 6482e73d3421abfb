"""Reference computations the benchmark checks the program against.

Everything here is written from the documented formulas with plain loops
and tuple sorts, and imports nothing from spheredet: the grid container and
the CSVs are parsed from their documented layouts, spheres are compared with
the textbook lens-volume formula, and FROC is a threshold sweep.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

Sphere = Tuple[Tuple[float, float, float], float]  # (center, radius)

OPERATING_POINTS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
NEGATIVE, POSITIVE, IGNORED = 0, 1, 2


# --------------------------------------------------------------------------
# file formats


def parse_grid(path: Path) -> Tuple[dict, np.ndarray]:
    """Header and (5, D, H, W) float64 maps of a grid container file."""
    data = Path(path).read_bytes()
    magic, header_line, payload = data.split(b"\n", 2)
    if magic != b"SCPMGRID1":
        raise ValueError(f"{path}: bad magic")
    header = json.loads(header_line)
    d, h, w = header["dims"]
    maps = np.frombuffer(payload, dtype="<f4").reshape(5, d, h, w)
    return header, maps.astype(np.float64)


def parse_csv(text: str) -> List[List[str]]:
    """Data rows of a CSV text (header dropped, blank lines skipped)."""
    return [line.split(",") for line in text.splitlines()[1:] if line.strip()]


def parse_annotations(text: str) -> Dict[str, List[Sphere]]:
    by_scan: Dict[str, List[Sphere]] = {}
    for scan, x, y, z, diameter in parse_csv(text):
        by_scan.setdefault(scan, []).append(
            ((float(x), float(y), float(z)), float(diameter) / 2.0)
        )
    return by_scan


def parse_candidates(text: str) -> List[Tuple[str, float, float, float, float, float]]:
    """(seriesuid, x, y, z, radius, probability) rows in file order."""
    return [
        (scan, float(x), float(y), float(z), float(r), float(p))
        for scan, x, y, z, r, p in parse_csv(text)
    ]


# --------------------------------------------------------------------------
# sphere geometry


def distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((p - q) * (p - q) for p, q in zip(a, b)))


def sphere_iou(a: Sphere, b: Sphere) -> float:
    """Intersection over union of two spheres via the lens-volume formula
    V = pi (ra + rb - d)^2 (d^2 + 2 d (ra + rb) - 3 (ra - rb)^2) / (12 d)."""
    (ca, ra), (cb, rb) = a, b
    d = distance(ca, cb)
    if d >= ra + rb:
        return 0.0
    small, large = min(ra, rb), max(ra, rb)
    if d + small <= large:
        return (small / large) ** 3
    lens = (
        math.pi
        * (ra + rb - d) ** 2
        * (d * d + 2.0 * d * (ra + rb) - 3.0 * (ra - rb) ** 2)
        / (12.0 * d)
    )
    volume = 4.0 * math.pi / 3.0 * (ra**3 + rb**3)
    return lens / (volume - lens)


def distance_ratio(a: Sphere, b: Sphere) -> float:
    d = distance(a[0], b[0])
    return d / (d + a[1] + b[1])


def siou_pp(pred: Sphere, gt: Sphere) -> float:
    """R_DR for disjoint pairs, else 1 + R_DR - SIoU + acos(cos)/pi, where cos
    is the law-of-cosines angle at the intersection circle."""
    (cp, rp), (cg, rg) = pred, gt
    d = distance(cp, cg)
    rdr = d / (d + rp + rg)
    if d >= rp + rg:
        return rdr
    cos = (rp * rp + rg * rg - d * d) / (2.0 * rp * rg)
    eta = math.acos(max(-1.0, min(1.0, cos))) / math.pi
    return 1.0 + rdr - sphere_iou(pred, gt) + eta


# --------------------------------------------------------------------------
# decode and NMS


def decode_top_n(header: dict, maps: np.ndarray, top_n: int) -> List[tuple]:
    """Plain-loop decode of the top_n cells of one grid.

    Cells are ranked by descending probability, ties by ascending linear
    index.  A cell decodes to center ((i + 0.5 + v) * R) per axis and radius
    (radius map * R); a nonpositive radius drops the cell.  Returns
    (score, cell, level, center, radius) tuples in rank order.
    """
    d, h, w = header["dims"]
    stride = header["stride"]
    prob = maps[0].ravel().tolist()
    radius, ox, oy, oz = (m.ravel().tolist() for m in maps[1:])
    ranked = heapq.nsmallest(top_n, range(len(prob)), key=lambda i: (-prob[i], i))
    out = []
    for lin in ranked:
        iz, rest = divmod(lin, h * w)
        iy, ix = divmod(rest, w)
        r = radius[lin] * stride
        if r <= 0.0:
            continue
        center = (
            (ix + 0.5 + ox[lin]) * stride,
            (iy + 0.5 + oy[lin]) * stride,
            (iz + 0.5 + oz[lin]) * stride,
        )
        out.append((prob[lin], lin, header["level"], center, r))
    return out


def greedy_nms(candidates: Sequence[tuple], tau_siou: float, tau_dr: float) -> List[tuple]:
    """Keeps the best remaining candidate (score desc, cell asc, level asc)
    and drops every other one with IoU above tau_siou or distance ratio
    below tau_dr, until none remain."""
    remaining = sorted(candidates, key=lambda c: (-c[0], c[1], c[2]))
    kept = []
    while remaining:
        best = remaining[0]
        kept.append(best)
        sphere = (best[3], best[4])
        remaining = [
            c
            for c in remaining[1:]
            if sphere_iou(sphere, (c[3], c[4])) <= tau_siou
            and distance_ratio(sphere, (c[3], c[4])) >= tau_dr
        ]
    return kept


# --------------------------------------------------------------------------
# FROC


def froc_sweep(
    scans: Sequence[str],
    annotations: Dict[str, List[Sphere]],
    candidates: Sequence[tuple],
) -> List[Tuple[float, float]]:
    """Sensitivity at each operating point by a sweep over score thresholds.

    At threshold t an annotation is found when a candidate of its scan with
    score >= t has its center within the annotation radius; a candidate is a
    false positive when its center lies in no annotation of its scan.  The
    scan count is the explicit scan list, as in the LUNA16 protocol.
    """
    best_hit: List[float] = []
    fp_scores: List[float] = []
    by_scan: Dict[str, List[tuple]] = {}
    for row in candidates:
        by_scan.setdefault(row[0], []).append(row)
    for scan in scans:
        spheres = annotations.get(scan, [])
        rows = by_scan.get(scan, [])
        for center, radius in spheres:
            scores = [r[5] for r in rows if distance(r[1:4], center) <= radius]
            best_hit.append(max(scores) if scores else -math.inf)
        for row in rows:
            if not any(distance(row[1:4], c) <= r for c, r in spheres):
                fp_scores.append(row[5])
    fp_scores.sort()
    hits = sorted(best_hit)
    thresholds = sorted({r[5] for r in candidates}, reverse=True)
    points = []
    for budget in OPERATING_POINTS:
        best = 0.0
        for t in thresholds:
            fps = (len(fp_scores) - bisect_left(fp_scores, t)) / len(scans)
            if fps > budget:
                break
            best = (len(hits) - bisect_left(hits, t)) / len(hits)
        points.append((budget, best))
    return points


# --------------------------------------------------------------------------
# training targets


def assign(dims: Tuple[int, int, int], stride: float, nodules: Sequence[Sphere], k: int):
    """Brute-force center-point assignment over flat cells.

    Per nodule in order: its k nearest cells (distance, then linear index)
    that are not yet positive become positive and matched to it; the other
    negative cells within radius + 2 * stride become ignored.
    """
    d, h, w = dims
    n = d * h * w
    labels = [NEGATIVE] * n
    matched = [-1] * n
    centers = []
    for lin in range(n):
        iz, rest = divmod(lin, h * w)
        iy, ix = divmod(rest, w)
        centers.append(((ix + 0.5) * stride, (iy + 0.5) * stride, (iz + 0.5) * stride))
    for index, (center, radius) in enumerate(nodules):
        ranked = []
        for lin, (x, y, z) in enumerate(centers):
            dx, dy, dz = x - center[0], y - center[1], z - center[2]
            ranked.append((math.sqrt((dx * dx + dy * dy) + dz * dz), lin))
        ranked.sort()
        claimed = 0
        for _, lin in ranked:
            if claimed == k:
                break
            if labels[lin] != POSITIVE:
                labels[lin], matched[lin] = POSITIVE, index
                claimed += 1
        for dist, lin in ranked:
            if dist <= radius + 2.0 * stride and labels[lin] == NEGATIVE:
                labels[lin] = IGNORED
    return labels, matched


def hard_negatives(labels: Sequence[int], hardness: Sequence[float], n: int) -> List[int]:
    """Keeps the n * positives hardest negatives (100 without positives),
    hardness descending then linear index; the rest become ignored."""
    positives = sum(1 for v in labels if v == POSITIVE)
    budget = n * positives if positives else 100
    negatives = sorted(
        (lin for lin, v in enumerate(labels) if v == NEGATIVE),
        key=lambda lin: (-hardness[lin], lin),
    )
    out = list(labels)
    for lin in negatives[budget:]:
        out[lin] = IGNORED
    return out


def focal_terms(
    prob: np.ndarray,
    labels: np.ndarray,
    alpha: float,
    gamma: float,
    t: float,
    w: float,
    eps: float = 1e-7,
) -> float:
    """Re-weighted focal loss: sum over positive and negative cells of
    weight * alpha * (1 - p_t)^gamma * -log(p_t), with p clamped to
    [eps, 1 - eps], p_t = p on positives and 1 - p on negatives, and weight
    w on positives with p < t, else 1."""
    total = 0.0
    for p, label in zip(prob.ravel().tolist(), labels.ravel().tolist()):
        if label == IGNORED:
            continue
        p = min(max(p, eps), 1.0 - eps)
        p_t = p if label == POSITIVE else 1.0 - p
        weight = w if label == POSITIVE and p < t else 1.0
        total += weight * alpha * (1.0 - p_t) ** gamma * -math.log(p_t)
    return total


def radius_term(r: float, r_star: float, beta: float) -> float:
    diff = abs(r - r_star)
    return 0.5 * diff * diff / beta if diff < beta else diff
