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
normative contract and is enforced by the test suite.  The lens volume V is
differentiated with two exact area identities: moving the centers apart
loses the chord disk, dV/dd = -pi h2 (2 r_a - h2), and growing the predicted
sphere gains its surface inside the other, dV/dr_a = 2 pi r_a h2, with h2
the cap height on the predicted sphere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    Regime,
    Sphere,
    _angle_score,
    _aperture_cos,
    _cap_heights,
    _classify,
    _distance,
    _intersection_volume,
    _rdr,
    _siou,
    _sphere_volume,
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


def _box_overlap(pred: Sphere, gt: Sphere) -> Optional[Tuple[float, float, list]]:
    """(inter, union, axes) of the cubes circumscribing the spheres (side 2r),
    or None when they are apart; ``axes`` holds per axis the overlap length
    and its derivatives w.r.t. the predicted center and radius."""
    axes = []
    for i in range(3):
        a_hi = pred.center[i] + pred.radius
        a_lo = pred.center[i] - pred.radius
        b_hi = gt.center[i] + gt.radius
        b_lo = gt.center[i] - gt.radius
        hi = min(a_hi, b_hi)
        lo = max(a_lo, b_lo)
        if hi <= lo:
            return None
        hi_from_pred = 1.0 if a_hi < b_hi else 0.0
        lo_from_pred = 1.0 if a_lo > b_lo else 0.0
        axes.append((hi - lo, hi_from_pred - lo_from_pred, hi_from_pred + lo_from_pred))
    inter = axes[0][0] * axes[1][0] * axes[2][0]
    return inter, (2.0 * pred.radius) ** 3 + (2.0 * gt.radius) ** 3 - inter, axes


def _box_iou_gradient(pred: Sphere, gt: Sphere) -> SphereGradient:
    overlap = _box_overlap(pred, gt)
    if overlap is None:  # separated cubes: the loss is locally constant 1
        return SphereGradient(0.0, 0.0, 0.0, 0.0)
    inter, union, axes = overlap
    usq = union * union
    d_inter_dr = sum(dr * inter / length for length, _, dr in axes)
    d_union_dr = 24.0 * pred.radius * pred.radius - d_inter_dr
    # L = 1 - inter/union
    d_cx, d_cy, d_cz = (-(dc * inter / length * (union + inter)) / usq for length, dc, _ in axes)
    return SphereGradient(d_cx, d_cy, d_cz, -(d_inter_dr * union - inter * d_union_dr) / usq)


def _siou_partials(r_a: float, r_b: float, d: float) -> Tuple[float, float]:
    """(dSIoU/dd, dSIoU/dr_a) in the pair's current regime: with SIoU = I / (T - I)
    and T = V_a + V_b, each is (dI T - I dT) / (T - I)^2."""
    regime = _classify(r_a, r_b, d)
    if regime is Regime.DISJOINT:
        return 0.0, 0.0
    if regime is Regime.CONTAINED:
        # No chord disk; all of a's surface lies inside b, or none of it.
        d_inter_dd = 0.0
        h2 = 2.0 * r_a if r_a <= r_b else 0.0
    else:
        h2, _ = _cap_heights(r_a, r_b, d)
        d_inter_dd = -math.pi * h2 * (2.0 * r_a - h2)
    d_inter_dra = 2.0 * math.pi * r_a * h2
    inter = _intersection_volume(r_a, r_b, d)
    total = _sphere_volume(r_a) + _sphere_volume(r_b)
    usq = (total - inter) * (total - inter)
    return d_inter_dd * total / usq, (d_inter_dra * total - inter * 4.0 * math.pi * r_a * r_a) / usq


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


# Each sphere-overlap kind is a constant plus signed terms; a term is a
# (value, partials) pair of functions of (r_a, r_b, d).  siou_pp keeps only
# its R_DR term on disjoint pairs (tangency included).
_RDR = (_rdr, _rdr_partials)
_SIOU = (_siou, _siou_partials)
_ETA = (_angle_score, _eta_partials)
_MAKEUP = {
    SphereLossKind.SIOU: (1.0, ((-1.0, _SIOU),)),
    SphereLossKind.SDIOU: (1.0, ((1.0, _RDR), (-1.0, _SIOU))),
    SphereLossKind.SIOU_PP: (1.0, ((1.0, _RDR), (-1.0, _SIOU), (1.0, _ETA))),
}
_SIOU_PP_DISJOINT = (0.0, ((1.0, _RDR),))


def _makeup(kind: SphereLossKind, r_a: float, r_b: float, d: float) -> Tuple[float, tuple]:
    """(constant, signed terms) of a sphere-overlap kind for this pair."""
    if kind is SphereLossKind.SIOU_PP and _classify(r_a, r_b, d) is Regime.DISJOINT:
        return _SIOU_PP_DISJOINT
    makeup = _MAKEUP.get(kind)
    if makeup is None:
        raise ValueError(f"unknown sphere loss kind: {kind!r}")
    return makeup


def sphere_loss(kind: SphereLossKind, pred: Sphere, gt: Sphere) -> float:
    """Evaluates one sphere-overlap loss for a predicted/ground-truth pair."""
    if kind is SphereLossKind.BOX_IOU:
        overlap = _box_overlap(pred, gt)
        return 1.0 if overlap is None else 1.0 - overlap[0] / overlap[1]
    r_a, r_b = pred.radius, gt.radius
    d = _distance(pred.center, gt.center)
    loss, terms = _makeup(kind, r_a, r_b, d)
    for sign, (value, _) in terms:
        loss += sign * value(r_a, r_b, d)
    return loss


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
    dl_dd = dl_dr = -0.0  # -0.0 + x == x for every x, signed zeros included
    for sign, (_, partials) in _makeup(kind, r_a, r_b, d)[1]:
        dd, dr = partials(r_a, r_b, d)
        dl_dd += sign * dd
        dl_dr += sign * dr
    if d < _DEGENERATE_D:
        return SphereGradient(0.0, 0.0, 0.0, dl_dr)
    scale = dl_dd / d
    (px, py, pz), (gx, gy, gz) = pred.center, gt.center
    return SphereGradient(scale * (px - gx), scale * (py - gy), scale * (pz - gz), dl_dr)


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
        pred_center = _cell_center((ix, iy, iz), offsets[iz, iy, ix].tolist(), stride)
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
