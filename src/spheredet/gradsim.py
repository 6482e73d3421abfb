"""Loss-landscape sampling and gradient-descent simulation on sphere pairs.

Two small tools for studying how each sphere-loss variant behaves when a
predicted sphere approaches a fixed target along the z axis:

* :func:`gradient_curve` samples loss and d(loss)/dz along the approach path,
  which makes the flat region of the pure overlap loss and the everywhere-
  informative ratio term directly visible.
* :func:`descend` runs plain gradient descent with a decaying step on the
  predicted sphere's center and radius.  The decay matters: the landscape has
  a conical minimum at zero separation, so any fixed step ends up orbiting
  the bottom instead of settling into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .geometry import Sphere, center_distance
from .losses import SphereLossKind, sphere_loss, sphere_loss_gradient

_RADIUS_FLOOR = 1e-6


@dataclass(frozen=True)
class GradientSample:
    """One row of a loss/gradient curve."""

    kind: str
    d_ab: float
    loss: float
    dloss_dz: float


@dataclass(frozen=True)
class DescentResult:
    """Trajectory of one descent run.

    ``d_history`` holds the center separation at every iterate, including the
    starting point, so it has ``iters + 1`` entries.
    """

    kind: str
    d_history: np.ndarray
    loss_history: np.ndarray
    final: Sphere

    @property
    def final_distance(self) -> float:
        return float(self.d_history[-1])


def gradient_curve(
    kinds: Sequence[SphereLossKind],
    start: float = 8.0,
    n_points: int = 161,
    r_pred: float = 1.5,
    r_gt: float = 1.5,
) -> List[GradientSample]:
    """Samples loss and d(loss)/dz for a z-axis approach.

    The predicted sphere sits at (0, 0, z) with z swept from ``start`` down
    to 0 over ``n_points`` evenly spaced values; the target sits at the
    origin.  For z > 0 the z component of the center gradient equals the
    derivative of the loss along the path.
    """
    if start <= 0.0:
        raise ValueError(f"start must be > 0, got {start}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    gt = Sphere((0.0, 0.0, 0.0), r_gt)
    rows: List[GradientSample] = []
    for kind in kinds:
        for z in np.linspace(start, 0.0, n_points):
            pred = Sphere((0.0, 0.0, float(z)), r_pred)
            loss = sphere_loss(kind, pred, gt)
            gradient = sphere_loss_gradient(kind, pred, gt)
            rows.append(
                GradientSample(
                    kind=kind.value, d_ab=float(z), loss=loss, dloss_dz=gradient.d_cz
                )
            )
    return rows


def descend(
    kind: SphereLossKind,
    start: float = 8.0,
    rate: float = 0.5,
    iters: int = 5000,
    decay: float = 0.998,
    r_pred: float = 1.5,
    r_gt: float = 1.5,
) -> DescentResult:
    """Runs plain gradient descent on the predicted sphere's parameters.

    Step ``k`` uses learning rate ``rate * decay**k``.  Both the center and
    the radius follow the gradient; the radius is floored at a tiny positive
    value to keep the sphere valid.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if rate <= 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must lie in (0, 1], got {decay}")
    gt = Sphere((0.0, 0.0, 0.0), r_gt)
    pred = Sphere((0.0, 0.0, float(start)), r_pred)
    d_history = np.empty(iters + 1, dtype=np.float64)
    loss_history = np.empty(iters + 1, dtype=np.float64)
    d_history[0] = center_distance(pred, gt)
    loss_history[0] = sphere_loss(kind, pred, gt)
    for k in range(iters):
        gradient = sphere_loss_gradient(kind, pred, gt)
        step = rate * decay**k
        center = (
            pred.center[0] - step * gradient.d_cx,
            pred.center[1] - step * gradient.d_cy,
            pred.center[2] - step * gradient.d_cz,
        )
        radius = max(pred.radius - step * gradient.d_r, _RADIUS_FLOOR)
        pred = Sphere(center, radius)
        d_history[k + 1] = center_distance(pred, gt)
        loss_history[k + 1] = sphere_loss(kind, pred, gt)
    return DescentResult(
        kind=kind.value, d_history=d_history, loss_history=loss_history, final=pred
    )
