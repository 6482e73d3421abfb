"""Loss family: pinned scalar values, weighting rules, and the total-loss sum."""

import math

import numpy as np
import pytest

from spheredet import (
    FocalParams,
    GridSpec,
    Label,
    LabelAssignment,
    NoduleAnnotation,
    Sphere,
    SphereLossKind,
    assign_labels,
    offset_loss,
    radius_loss,
    refocal_loss,
    regression_targets,
    decode_cell,
    sphere_loss,
    total_loss,
)
from spheredet.decode import PredictionGrid

UNIT_A = Sphere((0.0, 0.0, 0.0), 1.0)
UNIT_B = Sphere((1.0, 0.0, 0.0), 1.0)
BETA = 1.0 / 9.0


# --------------------------------------------------------------------------
# sphere-loss family


def test_siou_loss_unit_pair():
    assert sphere_loss(SphereLossKind.SIOU, UNIT_B, UNIT_A) == pytest.approx(
        22.0 / 27.0, abs=1e-12
    )


def test_sdiou_loss_unit_pair():
    assert sphere_loss(SphereLossKind.SDIOU, UNIT_B, UNIT_A) == pytest.approx(
        31.0 / 27.0, abs=1e-12
    )


def test_siou_pp_loss_unit_pair():
    assert sphere_loss(SphereLossKind.SIOU_PP, UNIT_B, UNIT_A) == pytest.approx(
        40.0 / 27.0, abs=1e-12
    )


def test_siou_pp_loss_disjoint_is_ratio_only():
    pred = Sphere((0.0, 0.0, 8.0), 1.5)
    gt = Sphere((0.0, 0.0, 0.0), 1.5)
    assert sphere_loss(SphereLossKind.SIOU_PP, pred, gt) == pytest.approx(
        8.0 / 11.0, abs=1e-12
    )


def test_box_iou_loss_unit_pair():
    # cubes of side 2 offset by 1 along x: IoU = 4 / 12
    assert sphere_loss(SphereLossKind.BOX_IOU, UNIT_B, UNIT_A) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )


def test_siou_pp_jumps_at_contact():
    gt = Sphere((0.0, 0.0, 0.0), 1.0)
    at_tangency = Sphere((2.0, 0.0, 0.0), 1.0)
    just_inside = Sphere((2.0 * (1.0 - 1e-9), 0.0, 0.0), 1.0)
    assert sphere_loss(SphereLossKind.SIOU_PP, at_tangency, gt) == pytest.approx(
        0.5, abs=1e-12
    )
    # crossing into contact adds the full 1 + eta jump
    assert sphere_loss(SphereLossKind.SIOU_PP, just_inside, gt) > 2.4


def test_perfect_match_losses_are_zero():
    for kind in SphereLossKind:
        assert sphere_loss(kind, UNIT_A, UNIT_A) == pytest.approx(0.0, abs=1e-12)


def test_siou_loss_saturates_when_disjoint():
    gt = Sphere((0.0, 0.0, 0.0), 1.0)
    for d in (2.0, 3.0, 10.0):
        assert sphere_loss(SphereLossKind.SIOU, Sphere((d, 0.0, 0.0), 1.0), gt) == 1.0


# --------------------------------------------------------------------------
# classification loss


def _assignment_from_labels(labels: np.ndarray) -> LabelAssignment:
    grid = GridSpec(dims=labels.shape, stride=1)
    return LabelAssignment(
        grid=grid,
        labels=labels.astype(np.int8),
        matched_nodule=np.full(labels.shape, -1, dtype=np.int32),
        radius_target=np.zeros(labels.shape),
        offset_target=np.zeros(labels.shape + (3,)),
    )


def _single_cell(label: Label, p: float) -> float:
    labels = np.full((1, 1, 1), int(label), dtype=np.int8)
    probs = np.array([[[p]]])
    return refocal_loss(probs, _assignment_from_labels(labels), FocalParams())


def test_refocal_confident_positive():
    expected = 0.375 * (1.0 - 0.95) ** 2 * -math.log(0.95)
    value = _single_cell(Label.POSITIVE, 0.95)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(4.808746e-05, rel=1e-5)


def test_refocal_low_confidence_positive_is_upweighted():
    expected = 4.0 * 0.375 * (1.0 - 0.5) ** 2 * -math.log(0.5)
    value = _single_cell(Label.POSITIVE, 0.5)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.2599302, rel=1e-6)


def test_refocal_threshold_boundary_keeps_weight_one():
    expected = 0.375 * (1.0 - 0.9) ** 2 * -math.log(0.9)
    assert _single_cell(Label.POSITIVE, 0.9) == pytest.approx(expected, rel=1e-12)


def test_refocal_negative_cell():
    expected = 0.375 * 0.5**2 * -math.log(0.5)
    assert _single_cell(Label.NEGATIVE, 0.5) == pytest.approx(expected, rel=1e-12)


def test_refocal_ignored_cells_contribute_nothing():
    assert _single_cell(Label.IGNORED, 0.01) == 0.0


def test_refocal_clamps_extreme_probabilities():
    eps = 1e-7
    expected_pos = 4.0 * 0.375 * (1.0 - eps) ** 2 * -math.log(eps)
    assert _single_cell(Label.POSITIVE, 0.0) == pytest.approx(expected_pos, rel=1e-9)
    expected_neg = 0.375 * (1.0 - eps) ** 2 * -math.log(eps)
    assert _single_cell(Label.NEGATIVE, 1.0) == pytest.approx(expected_neg, rel=1e-9)


def test_refocal_sums_over_cells():
    labels = np.array([[[int(Label.POSITIVE), int(Label.NEGATIVE), int(Label.IGNORED)]]])
    probs = np.array([[[0.95, 0.5, 0.123]]])
    total = refocal_loss(probs, _assignment_from_labels(labels), FocalParams())
    expected = _single_cell(Label.POSITIVE, 0.95) + _single_cell(Label.NEGATIVE, 0.5)
    assert total == pytest.approx(expected, rel=1e-12)


def test_refocal_custom_threshold_and_weight():
    params = FocalParams(alpha=0.25, gamma=1.0, t=0.5, w=2.0)
    value = refocal_loss(
        np.array([[[0.4]]]),
        _assignment_from_labels(np.full((1, 1, 1), int(Label.POSITIVE))),
        params,
    )
    expected = 2.0 * 0.25 * (1.0 - 0.4) ** 1 * -math.log(0.4)
    assert value == pytest.approx(expected, rel=1e-12)


def test_refocal_rejects_bad_input():
    assignment = _assignment_from_labels(np.zeros((1, 1, 1), dtype=np.int8))
    with pytest.raises(ValueError):
        refocal_loss(np.array([[[1.2]]]), assignment, FocalParams())
    with pytest.raises(ValueError):
        refocal_loss(np.array([[[-0.1]]]), assignment, FocalParams())
    with pytest.raises(ValueError):
        refocal_loss(np.array([[[math.nan]]]), assignment, FocalParams())
    with pytest.raises(ValueError):
        refocal_loss(np.zeros((2, 1, 1)), assignment, FocalParams())


# --------------------------------------------------------------------------
# regression losses


def test_radius_loss_quadratic_region():
    assert radius_loss(1.05, 1.0) == pytest.approx(0.01125, abs=1e-15)


def test_radius_loss_absolute_region():
    assert radius_loss(1.5, 1.0) == 0.5
    assert radius_loss(0.5, 1.0) == 0.5


def test_radius_loss_discontinuity_at_beta():
    # exactly at |r - r*| == beta the absolute branch applies: value beta,
    # while the quadratic limit from below is beta / 2.
    assert radius_loss(BETA, 0.0) == BETA
    just_below = BETA * (1.0 - 1e-9)
    assert radius_loss(just_below, 0.0) == pytest.approx(BETA / 2.0, rel=1e-8)


def test_radius_loss_custom_beta():
    assert radius_loss(1.1, 1.0, beta=0.5) == pytest.approx(0.5 * 0.1**2 / 0.5, rel=1e-9)
    with pytest.raises(ValueError):
        radius_loss(1.0, 1.0, beta=0.0)


def test_offset_loss_euclidean():
    assert offset_loss((0.1, 0.2, 0.2), (0.0, 0.0, 0.0)) == pytest.approx(0.3, abs=1e-15)
    assert offset_loss((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0
    with pytest.raises(ValueError):
        offset_loss((1.0, 2.0), (0.0, 0.0, 0.0))


# --------------------------------------------------------------------------
# total loss


def _total_loss_fixture():
    grid = GridSpec(dims=(6, 6, 6), stride=4)
    nodules = [NoduleAnnotation(id="n0", center=(10.0, 10.0, 10.0), radius=4.0)]
    assignment = assign_labels(grid, nodules, k=2)
    assignment = regression_targets(grid, assignment, nodules)
    probs = np.full(grid.dims, 0.02)
    radii = np.zeros(grid.dims)
    offsets = np.zeros(grid.dims + (3,))
    # home cell (2, 2, 2) and the tie-broken second positive (2, 2, 1)
    probs[2, 2, 2], probs[1, 2, 2] = 0.95, 0.4
    radii[2, 2, 2], radii[1, 2, 2] = 1.1, 0.9
    offsets[2, 2, 2] = (0.1, -0.05, 0.0)
    offsets[1, 2, 2] = (0.0, 0.0, 0.2)
    return grid, nodules, assignment, probs, radii, offsets


def test_total_loss_matches_hand_sum():
    grid, nodules, assignment, probs, radii, offsets = _total_loss_fixture()
    params = FocalParams()
    breakdown = total_loss(
        probs, radii, offsets, assignment, [Sphere(n.center, n.radius) for n in nodules],
        params, lambda_s=2.0,
    )
    assert set(map(tuple, np.argwhere(assignment.labels == Label.POSITIVE))) == {
        (2, 2, 2),
        (1, 2, 2),
    }
    expected_cls = refocal_loss(probs, assignment, params)
    expected_radius = radius_loss(1.1, 1.0) + radius_loss(0.9, 1.0)
    expected_offset = offset_loss((0.1, -0.05, 0.0), (0.0, 0.0, 0.0)) + offset_loss(
        (0.0, 0.0, 0.2), (0.0, 0.0, 1.0)
    )
    gt = Sphere((10.0, 10.0, 10.0), 4.0)
    pred_home = Sphere(((2.5 + 0.1) * 4.0, (2.5 - 0.05) * 4.0, 2.5 * 4.0), 1.1 * 4.0)
    pred_second = Sphere((2.5 * 4.0, 2.5 * 4.0, (1.5 + 0.2) * 4.0), 0.9 * 4.0)
    expected_spp = sphere_loss(SphereLossKind.SIOU_PP, pred_home, gt) + sphere_loss(
        SphereLossKind.SIOU_PP, pred_second, gt
    )
    assert breakdown.cls == pytest.approx(expected_cls, rel=1e-12)
    assert breakdown.radius == pytest.approx(expected_radius, rel=1e-12)
    assert breakdown.offset == pytest.approx(expected_offset, rel=1e-12)
    assert breakdown.siou_pp == pytest.approx(expected_spp, rel=1e-12)
    assert breakdown.total == pytest.approx(
        expected_cls + expected_radius + expected_offset + 2.0 * expected_spp, rel=1e-12
    )


def test_total_loss_sphere_term_sums_decoded_cells_bit_for_bit():
    rng = np.random.default_rng(5)
    grid = GridSpec(dims=(8, 8, 8), stride=4)
    nodules = [
        NoduleAnnotation(id="a", center=(9.3, 14.1, 11.7), radius=5.0),
        NoduleAnnotation(id="b", center=(22.6, 20.2, 23.9), radius=3.5),
    ]
    assignment = regression_targets(grid, assign_labels(grid, nodules, k=7), nodules)
    probs = rng.random(grid.dims)
    radii = rng.uniform(0.5, 2.0, grid.dims)
    offsets = rng.uniform(-0.5, 0.5, grid.dims + (3,))
    spheres = [Sphere(n.center, n.radius) for n in nodules]
    breakdown = total_loss(probs, radii, offsets, assignment, spheres, FocalParams(), 2.0)
    prediction = PredictionGrid(spec=grid, center_prob=probs, radius=radii, offset=offsets)
    expected = 0.0
    for iz, iy, ix in np.argwhere(assignment.labels == Label.POSITIVE):
        pred = decode_cell(prediction, (int(ix), int(iy), int(iz))).sphere
        gt = spheres[assignment.matched_nodule[iz, iy, ix]]
        expected += sphere_loss(SphereLossKind.SIOU_PP, pred, gt)
    assert assignment.positive_count == 14
    assert breakdown.siou_pp == expected


def test_total_loss_scales_with_lambda():
    grid, nodules, assignment, probs, radii, offsets = _total_loss_fixture()
    spheres = [Sphere(n.center, n.radius) for n in nodules]
    base = total_loss(probs, radii, offsets, assignment, spheres, FocalParams(), 0.5)
    assert base.total == pytest.approx(
        base.cls + base.radius + base.offset + 0.5 * base.siou_pp, rel=1e-12
    )


def test_total_loss_rejects_corrupted_assignment():
    grid, nodules, assignment, probs, radii, offsets = _total_loss_fixture()
    spheres = [Sphere(n.center, n.radius) for n in nodules]
    assignment.matched_nodule[2, 2, 2] = -1
    with pytest.raises(ValueError, match="no matched nodule"):
        total_loss(probs, radii, offsets, assignment, spheres, FocalParams(), 2.0)


def test_total_loss_rejects_nonpositive_predicted_radius():
    grid, nodules, assignment, probs, radii, offsets = _total_loss_fixture()
    spheres = [Sphere(n.center, n.radius) for n in nodules]
    radii[2, 2, 2] = 0.0
    with pytest.raises(ValueError, match="radius"):
        total_loss(probs, radii, offsets, assignment, spheres, FocalParams(), 2.0)


def test_total_loss_rejects_shape_mismatch():
    grid, nodules, assignment, probs, radii, offsets = _total_loss_fixture()
    spheres = [Sphere(n.center, n.radius) for n in nodules]
    with pytest.raises(ValueError):
        total_loss(probs, radii[:-1], offsets, assignment, spheres, FocalParams(), 2.0)
