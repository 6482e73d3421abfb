"""Sphere-overlap losses, the re-weighted focal loss, and regression losses.

The sphere losses compare a predicted sphere against a ground-truth sphere:

* ``siou``:    1 - SIoU
* ``sdiou``:   1 + R_DR - SIoU, where R_DR = d / (d + r_a + r_b)
* ``siou_pp``: R_DR alone when the pair is disjoint (tangency included),
  otherwise 1 + R_DR - SIoU + eta with eta the normalized aperture angle —
  this is the variant whose gradient stays informative for disjoint pairs.
* ``box_iou``: 1 - IoU of the tight axis-aligned cubes circumscribing the
  spheres (side 2r), the box-based baseline.

Gradients are closed-form partial derivatives with respect to the predicted
center and radius; agreement with central finite differences is the
normative contract and is enforced by the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .geometry import (
    _FOUR_THIRDS_PI,
    Regime,
    Sphere,
    _angle_score,
    _aperture_cos,
    _caps,
    _classify,
    _distance,
    _intersection_volume,
    _rdr,
    _siou,
)
from .matching import Label, LabelAssignment, _cell_center

PROB_EPS = 1e-7
DEFAULT_BETA = 1.0 / 9.0

# Below this center distance the direction to the target is undefined and
# the center gradient of every kind is reported as zero (symmetric
# subgradient at the |d| kink).
_DEGENERATE_D = 1e-12


class SphereLossKind(enum.Enum):
    """Selector for the sphere-overlap loss family."""

    BOX_IOU = "box_iou"
    SIOU = "siou"
    SDIOU = "sdiou"
    SIOU_PP = "siou_pp"


@dataclass(frozen=True)
class SphereGradient:
    """Partial derivatives of a sphere loss w.r.t. the predicted sphere."""

    d_cx: float
    d_cy: float
    d_cz: float
    d_r: float

    def center_norm(self) -> float:
        return math.sqrt(self.d_cx**2 + self.d_cy**2 + self.d_cz**2)


@dataclass(frozen=True)
class FocalParams:
    """Classification-loss parameters.

    alpha/gamma are the focal factors, t the confidence threshold above
    which a positive keeps weight 1, w the extra weight for positives whose
    predicted probability falls below t.
    """

    alpha: float = 0.375
    gamma: float = 2.0
    t: float = 0.9
    w: float = 4.0


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term sums of the total training loss over a grid."""

    cls: float
    radius: float
    offset: float
    siou_pp: float
    total: float


def _box_iou(pred: Sphere, gt: Sphere) -> float:
    inter = 1.0
    for i in range(3):
        hi = min(pred.center[i] + pred.radius, gt.center[i] + gt.radius)
        lo = max(pred.center[i] - pred.radius, gt.center[i] - gt.radius)
        if hi <= lo:
            return 0.0
        inter *= hi - lo
    v_pred = (2.0 * pred.radius) ** 3
    v_gt = (2.0 * gt.radius) ** 3
    return inter / (v_pred + v_gt - inter)


def sphere_loss(kind: SphereLossKind, pred: Sphere, gt: Sphere) -> float:
    """Evaluates one sphere-overlap loss for a predicted/ground-truth pair."""
    if kind is SphereLossKind.BOX_IOU:
        return 1.0 - _box_iou(pred, gt)
    r_a, r_b = pred.radius, gt.radius
    d = _distance(pred.center, gt.center)
    if kind is SphereLossKind.SIOU:
        return 1.0 - _siou(r_a, r_b, d)
    if kind is SphereLossKind.SDIOU:
        return 1.0 + _rdr(r_a, r_b, d) - _siou(r_a, r_b, d)
    if kind is SphereLossKind.SIOU_PP:
        if d >= r_a + r_b:
            return _rdr(r_a, r_b, d)
        return 1.0 + _rdr(r_a, r_b, d) - _siou(r_a, r_b, d) + _angle_score(r_a, r_b, d)
    raise ValueError(f"unknown sphere loss kind: {kind!r}")


def _siou_partials(r_a: float, r_b: float, d: float) -> Tuple[float, float]:
    """(dSIoU/dd, dSIoU/dr_a) in the pair's current regime."""
    regime = _classify(r_a, r_b, d)
    if regime is Regime.DISJOINT:
        return 0.0, 0.0
    inter = _intersection_volume(r_a, r_b, d)
    if regime is Regime.CONTAINED:
        d_inter_dd = 0.0
        d_inter_dra = 4.0 * math.pi * r_a * r_a if r_a <= r_b else 0.0
    else:
        # Two-cap lens with cap heights h2 = r_a - xc and h1 = r_b - (d - xc)
        # on the predicted/ground-truth sphere, where xc is the chord-plane
        # position along the center axis measured from the predicted center.
        _, _, h2, h1 = _caps(r_a, r_b, d)
        dxc_dd = (d * d - r_a * r_a + r_b * r_b) / (2.0 * d * d)
        dxc_dra = r_a / d
        d_inter_dh2 = math.pi * h2 * (2.0 * r_a - h2)
        d_inter_dh1 = math.pi * h1 * (2.0 * r_b - h1)
        d_inter_dd = d_inter_dh2 * (-dxc_dd) + d_inter_dh1 * (dxc_dd - 1.0)
        d_inter_dra = (
            math.pi * h2 * h2
            + d_inter_dh2 * (1.0 - dxc_dra)
            + d_inter_dh1 * dxc_dra
        )
    union = _FOUR_THIRDS_PI * (r_a**3 + r_b**3) - inter
    d_union_dd = -d_inter_dd
    d_union_dra = 4.0 * math.pi * r_a * r_a - d_inter_dra
    dsiou_dd = (d_inter_dd * union - inter * d_union_dd) / (union * union)
    dsiou_dra = (d_inter_dra * union - inter * d_union_dra) / (union * union)
    return dsiou_dd, dsiou_dra


def _rdr_partials(r_a: float, r_b: float, d: float) -> Tuple[float, float]:
    denom = (d + r_a + r_b) ** 2
    return (r_a + r_b) / denom, -d / denom


def _eta_partials(r_a: float, r_b: float, d: float) -> Tuple[float, float]:
    """(deta/dd, deta/dr_a); zero where the clamped cosine saturates."""
    g = _aperture_cos(r_a, r_b, d)
    if g <= -1.0 or g >= 1.0:
        return 0.0, 0.0
    deta_dg = -1.0 / (math.pi * math.sqrt(1.0 - g * g))
    dg_dd = -d / (r_a * r_b)
    dg_dra = (r_a * r_a - r_b * r_b + d * d) / (2.0 * r_a * r_a * r_b)
    return deta_dg * dg_dd, deta_dg * dg_dra


def _box_iou_gradient(pred: Sphere, gt: Sphere) -> SphereGradient:
    overlaps = [0.0, 0.0, 0.0]
    d_o_dc = [0.0, 0.0, 0.0]
    d_o_dr = [0.0, 0.0, 0.0]
    for i in range(3):
        a_hi = pred.center[i] + pred.radius
        a_lo = pred.center[i] - pred.radius
        b_hi = gt.center[i] + gt.radius
        b_lo = gt.center[i] - gt.radius
        hi = min(a_hi, b_hi)
        lo = max(a_lo, b_lo)
        if hi - lo <= 0.0:
            # Separated cubes: the loss is locally constant 1.
            return SphereGradient(0.0, 0.0, 0.0, 0.0)
        overlaps[i] = hi - lo
        hi_from_pred = 1.0 if a_hi < b_hi else 0.0
        lo_from_pred = 1.0 if a_lo > b_lo else 0.0
        d_o_dc[i] = hi_from_pred - lo_from_pred
        d_o_dr[i] = hi_from_pred + lo_from_pred
    inter = overlaps[0] * overlaps[1] * overlaps[2]
    union = (2.0 * pred.radius) ** 3 + (2.0 * gt.radius) ** 3 - inter
    d_inter_dc = [d_o_dc[i] * inter / overlaps[i] for i in range(3)]
    d_inter_dr = sum(d_o_dr[i] * inter / overlaps[i] for i in range(3))
    d_union_dr = 24.0 * pred.radius * pred.radius - d_inter_dr
    usq = union * union
    # L = 1 - inter/union
    d_loss_dc = [-(d_inter_dc[i] * (union + inter)) / usq for i in range(3)]
    d_loss_dr = -(d_inter_dr * union - inter * d_union_dr) / usq
    return SphereGradient(d_loss_dc[0], d_loss_dc[1], d_loss_dc[2], d_loss_dr)


def sphere_loss_gradient(kind: SphereLossKind, pred: Sphere, gt: Sphere) -> SphereGradient:
    """Closed-form gradient of ``sphere_loss`` w.r.t. the predicted sphere.

    At regime boundaries the one-sided derivative of the pair's current
    regime is returned; at d < 1e-12 the center gradient is zero (the
    direction to the target is undefined there).
    """
    if kind is SphereLossKind.BOX_IOU:
        return _box_iou_gradient(pred, gt)
    r_a, r_b = pred.radius, gt.radius
    d = _distance(pred.center, gt.center)
    if kind is SphereLossKind.SIOU:
        ds_dd, ds_dra = _siou_partials(r_a, r_b, d)
        dl_dd, dl_dr = -ds_dd, -ds_dra
    elif kind is SphereLossKind.SDIOU:
        ds_dd, ds_dra = _siou_partials(r_a, r_b, d)
        dr_dd, dr_dra = _rdr_partials(r_a, r_b, d)
        dl_dd, dl_dr = dr_dd - ds_dd, dr_dra - ds_dra
    elif kind is SphereLossKind.SIOU_PP:
        dr_dd, dr_dra = _rdr_partials(r_a, r_b, d)
        if d >= r_a + r_b:
            dl_dd, dl_dr = dr_dd, dr_dra
        else:
            ds_dd, ds_dra = _siou_partials(r_a, r_b, d)
            de_dd, de_dra = _eta_partials(r_a, r_b, d)
            dl_dd = dr_dd - ds_dd + de_dd
            dl_dr = dr_dra - ds_dra + de_dra
    else:
        raise ValueError(f"unknown sphere loss kind: {kind!r}")
    if d < _DEGENERATE_D:
        return SphereGradient(0.0, 0.0, 0.0, dl_dr)
    scale = dl_dd / d
    return SphereGradient(
        scale * (pred.center[0] - gt.center[0]),
        scale * (pred.center[1] - gt.center[1]),
        scale * (pred.center[2] - gt.center[2]),
        dl_dr,
    )


def refocal_loss(
    probabilities: np.ndarray, assignment: LabelAssignment, params: FocalParams
) -> float:
    """Re-weighted focal classification loss summed over non-ignored cells.

    Positives use p_t = p, negatives p_t = 1 - p; positives below the
    confidence threshold t get weight w, all other contributing cells
    weight 1 (the boundary p == t keeps weight 1), ignored cells weight 0.
    Probabilities are clamped to [1e-7, 1 - 1e-7] before the log.

    Raises:
        ValueError: on shape mismatch or probabilities outside [0, 1].
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.shape != assignment.labels.shape:
        raise ValueError(
            f"probability grid shape {p.shape} != label grid shape "
            f"{assignment.labels.shape}"
        )
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must be finite and within [0, 1]")
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    positive = assignment.labels == Label.POSITIVE
    negative = assignment.labels == Label.NEGATIVE
    p_t = np.where(positive, pc, 1.0 - pc)
    weights = np.zeros_like(pc)
    weights[negative] = 1.0
    weights[positive] = np.where(pc[positive] < params.t, params.w, 1.0)
    terms = weights * params.alpha * (1.0 - p_t) ** params.gamma * (-np.log(p_t))
    return float(np.sum(terms[positive | negative]))


def radius_loss(r: float, r_star: float, beta: float = DEFAULT_BETA) -> float:
    """Radius regression loss: quadratic inside beta, absolute outside.

    The two pieces deliberately do not meet at |r - r*| == beta (the
    absolute branch applies there); the jump is part of the contract.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    diff = abs(r - r_star)
    if diff < beta:
        return 0.5 * diff * diff / beta
    return diff


def offset_loss(offset: Sequence[float], offset_star: Sequence[float]) -> float:
    """Euclidean norm of the offset residual (grid units)."""
    if len(offset) != 3 or len(offset_star) != 3:
        raise ValueError("offsets must have 3 components")
    return _distance(offset, offset_star)


def total_loss(
    probabilities: np.ndarray,
    radii: np.ndarray,
    offsets: np.ndarray,
    assignment: LabelAssignment,
    gt_spheres: Sequence[Sphere],
    params: FocalParams,
    lambda_s: float,
    beta: float = DEFAULT_BETA,
) -> LossBreakdown:
    """Total training loss over one grid.

    The classification term runs over all non-ignored cells; the radius,
    offset, and sphere terms are summed over positive cells only, with the
    sphere term comparing the decoded predicted sphere at each positive cell
    against its matched ground-truth sphere (``gt_spheres`` is indexed by
    the assignment's matched-nodule index).

    Raises:
        ValueError: on shape mismatches, a positive cell without a matched
            nodule (corrupted assignment), or a nonpositive predicted radius
            at a positive cell.
    """
    radii = np.asarray(radii, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    labels = assignment.labels
    if radii.shape != labels.shape:
        raise ValueError(f"radius grid shape {radii.shape} != {labels.shape}")
    if offsets.shape != labels.shape + (3,):
        raise ValueError(f"offset grid shape {offsets.shape} != {labels.shape + (3,)}")
    cls = refocal_loss(probabilities, assignment, params)
    stride = assignment.grid.stride
    radius_sum = 0.0
    offset_sum = 0.0
    siou_pp_sum = 0.0
    for iz, iy, ix in np.argwhere(labels == Label.POSITIVE).tolist():
        matched = int(assignment.matched_nodule[iz, iy, ix])
        if matched < 0:
            raise ValueError(
                f"positive cell ({ix}, {iy}, {iz}) has no matched nodule"
            )
        gt = gt_spheres[matched]
        radius_sum += radius_loss(
            float(radii[iz, iy, ix]), float(assignment.radius_target[iz, iy, ix]), beta
        )
        offset_sum += offset_loss(
            offsets[iz, iy, ix], assignment.offset_target[iz, iy, ix]
        )
        pred_radius = float(radii[iz, iy, ix]) * stride
        if pred_radius <= 0.0:
            raise ValueError(
                f"nonpositive predicted radius at positive cell ({ix}, {iy}, {iz})"
            )
        pred_center = _cell_center((ix, iy, iz), offsets[iz, iy, ix], stride)
        siou_pp_sum += sphere_loss(
            SphereLossKind.SIOU_PP, Sphere(pred_center, pred_radius), gt
        )
    total = cls + radius_sum + offset_sum + lambda_s * siou_pp_sum
    return LossBreakdown(
        cls=cls,
        radius=radius_sum,
        offset=offset_sum,
        siou_pp=siou_pp_sum,
        total=total,
    )
