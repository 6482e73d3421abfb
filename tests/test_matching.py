"""Cell labeling: nearest-cell claiming, ignore rings, targets, hard negatives."""

import numpy as np
import pytest

from spheredet import (
    GridSpec,
    Label,
    LabelAssignment,
    NoduleAnnotation,
    Sphere,
    SyntheticSpec,
    assign_labels,
    decode_cell,
    distance_map,
    generate_dataset,
    mc_intersection_volume,
    ohem_refine,
    regression_targets,
    top_n_candidates,
)
from spheredet.decode import PredictionGrid
from helpers import brute_force_assign, brute_force_ohem


def nodule(center, radius, id="n"):
    return NoduleAnnotation(id=id, center=center, radius=radius)


# --------------------------------------------------------------------------
# assignment


def test_two_cube_grid_claims_by_linear_index_on_ties():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    assignment = assign_labels(grid, [nodule((0.5, 0.5, 0.5), 0.25)], k=3)
    positives = np.flatnonzero(assignment.labels.ravel() == Label.POSITIVE)
    # distance 0 for cell 0, then a three-way tie at distance 1 resolved by
    # ascending linear index
    assert positives.tolist() == [0, 1, 2]


def test_distance_map_values():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    dmap = distance_map(grid, (0.5, 0.5, 0.5))
    assert dmap[0, 0, 0] == 0.0
    assert dmap[0, 0, 1] == 1.0
    assert dmap[0, 1, 1] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert dmap[1, 1, 1] == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_home_cell_and_neighbors_claimed():
    grid = GridSpec(dims=(6, 6, 6), stride=4)
    assignment = assign_labels(grid, [nodule((10.0, 10.0, 10.0), 4.0)], k=7)
    positives = set(
        map(tuple, np.argwhere(assignment.labels == Label.POSITIVE))
    )  # (iz, iy, ix)
    assert (2, 2, 2) in positives
    assert positives == {
        (2, 2, 2),
        (1, 2, 2),
        (2, 1, 2),
        (2, 2, 1),
        (2, 2, 3),
        (2, 3, 2),
        (3, 2, 2),
    }


def test_ignore_ring_partition():
    grid = GridSpec(dims=(8, 8, 8), stride=2)
    nod = nodule((7.0, 7.0, 7.0), 3.0)
    assignment = assign_labels(grid, [nod], k=1)
    dmap = distance_map(grid, nod.center)
    for iz, iy, ix in np.ndindex(grid.dims):
        label = Label(assignment.labels[iz, iy, ix])
        if label == Label.POSITIVE:
            continue
        if dmap[iz, iy, ix] <= nod.radius + 2.0 * grid.stride:
            assert label == Label.IGNORED
        else:
            assert label == Label.NEGATIVE


def test_first_annotation_wins_contested_cells():
    grid = GridSpec(dims=(4, 4, 4), stride=1)
    shared = (2.0, 2.0, 2.0)
    first, second = nodule(shared, 0.5, "a"), nodule(shared, 0.5, "b")
    assignment = assign_labels(grid, [first, second], k=4)
    matched = assignment.matched_nodule.ravel()
    order = np.argsort(distance_map(grid, shared).ravel(), kind="stable")
    # nodule a takes the 4 nearest cells, b the next 4
    assert (matched[order[:4]] == 0).all()
    assert (matched[order[4:8]] == 1).all()


def test_positive_claim_overrides_earlier_ignore_ring():
    grid = GridSpec(dims=(6, 6, 6), stride=2)
    big = nodule((6.0, 6.0, 6.0), 5.0, "big")  # ring swallows most of the grid
    far = nodule((9.0, 9.0, 9.0), 1.0, "far")
    assignment = assign_labels(grid, [big, far], k=2)
    assert assignment.positive_count == 4
    assert (assignment.matched_nodule == 1).sum() == 2


def test_assign_validation_errors():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    with pytest.raises(ValueError, match="k"):
        assign_labels(grid, [], k=0)
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        assign_labels(grid, [], k=2.5)
    with pytest.raises(ValueError, match="k must be a number, got True"):
        assign_labels(grid, [], k=True)
    with pytest.raises(ValueError, match="cell count"):
        assign_labels(grid, [], k=9)
    with pytest.raises(ValueError, match="outside"):
        assign_labels(grid, [nodule((5.0, 0.5, 0.5), 0.2)], k=1)
    # two annotations cannot both claim 5 of 8 cells
    with pytest.raises(ValueError, match="unclaimed"):
        assign_labels(
            grid, [nodule((0.5, 0.5, 0.5), 0.1, "a"), nodule((0.5, 0.5, 0.5), 0.1, "b")],
            k=5,
        )


def test_integral_float_counts_act_as_their_ints():
    # Every count argument goes through one integer rule, which takes 1e3 as 1000.
    grid = GridSpec(dims=(4, 4, 4), stride=4)
    nodules = [nodule((6.0, 7.0, 8.0), 3.0)]
    by_int, by_float = assign_labels(grid, nodules, k=7), assign_labels(grid, nodules, k=7.0)
    np.testing.assert_array_equal(by_float.labels, by_int.labels)
    np.testing.assert_array_equal(by_float.matched_nodule, by_int.matched_nodule)
    loss = np.random.default_rng(3).random(grid.dims)
    np.testing.assert_array_equal(
        ohem_refine(by_int, loss, n=3.0).labels, ohem_refine(by_int, loss, n=3).labels
    )
    prediction = PredictionGrid(grid, loss, np.ones(grid.dims), np.zeros(grid.dims + (3,)))
    assert top_n_candidates(prediction, 4.0) == top_n_candidates(prediction, 4)
    spec = SyntheticSpec(GridSpec(dims=(12, 12, 12), stride=4), (1, 2), (4.0, 6.0))
    assert [scan.annotations for scan in generate_dataset(spec, 2.0, seed=1)] == [
        scan.annotations for scan in generate_dataset(spec, 2, seed=1)
    ]
    a, b = Sphere((0.0, 0.0, 0.0), 1.0), Sphere((1.0, 0.0, 0.0), 1.0)
    assert mc_intersection_volume(a, b, 1e3, seed=2) == mc_intersection_volume(a, b, 1000, seed=2)


def test_empty_annotation_list_is_all_negative():
    grid = GridSpec(dims=(3, 3, 3), stride=2)
    assignment = assign_labels(grid, [], k=7)
    assert (assignment.labels == Label.NEGATIVE).all()
    assert (assignment.matched_nodule == -1).all()


def test_assignment_matches_brute_force_oracle():
    rng = np.random.default_rng(404)
    for _ in range(10):
        dims = tuple(int(d) for d in rng.integers(3, 8, size=3))
        stride = int(rng.choice([1, 2, 4]))
        grid = GridSpec(dims=dims, stride=stride)
        extent = (dims[2] * stride, dims[1] * stride, dims[0] * stride)
        nodules = [
            nodule(
                tuple(float(rng.uniform(0, extent[axis])) for axis in range(3)),
                float(rng.uniform(0.5, 3.0)),
                f"n{i}",
            )
            for i in range(int(rng.integers(0, 3)))
        ]
        assignment = assign_labels(grid, nodules, k=4)
        labels, matched = brute_force_assign(grid, nodules, k=4)
        np.testing.assert_array_equal(assignment.labels.ravel(), labels)
        np.testing.assert_array_equal(assignment.matched_nodule.ravel(), matched)


# --------------------------------------------------------------------------
# regression targets


def test_targets_at_home_cell():
    grid = GridSpec(dims=(6, 6, 6), stride=4)
    nod = nodule((10.0, 10.0, 10.0), 4.0)
    assignment = regression_targets(grid, assign_labels(grid, [nod], k=7), [nod])
    assert assignment.radius_target[2, 2, 2] == 1.0
    np.testing.assert_array_equal(assignment.offset_target[2, 2, 2], [0.0, 0.0, 0.0])
    # neighbor one cell over in x: its center is 4 voxels past the nodule
    np.testing.assert_allclose(
        assignment.offset_target[2, 2, 3], [-1.0, 0.0, 0.0], atol=1e-15
    )


def test_targets_equal_the_scalar_formulas_bit_for_bit():
    grid = GridSpec(dims=(5, 6, 7), stride=3)
    nods = [nodule((11.2, 7.9, 4.4), 2.7, "a"), nodule((5.3, 13.1, 10.6), 1.9, "b")]
    assignment = regression_targets(grid, assign_labels(grid, nods, k=5), nods)
    positive = assignment.labels == Label.POSITIVE
    assert np.count_nonzero(positive) == 10
    for iz, iy, ix in np.argwhere(positive):
        nod = nods[assignment.matched_nodule[iz, iy, ix]]
        assert assignment.radius_target[iz, iy, ix] == nod.radius / 3.0
        expected = [c / 3.0 - (i + 0.5) for c, i in zip(nod.center, (ix, iy, iz))]
        assert assignment.offset_target[iz, iy, ix].tolist() == expected
    assert not assignment.radius_target[~positive].any()
    assert not assignment.offset_target[~positive].any()


def test_targets_decode_back_to_annotation():
    grid = GridSpec(dims=(5, 6, 7), stride=3)
    nod = nodule((11.2, 7.9, 4.4), 2.7)
    assignment = regression_targets(grid, assign_labels(grid, [nod], k=5), [nod])
    prediction = PredictionGrid(
        spec=grid,
        center_prob=np.where(assignment.labels == Label.POSITIVE, 1.0, 0.0),
        radius=assignment.radius_target,
        offset=assignment.offset_target,
    )
    for iz, iy, ix in np.argwhere(assignment.labels == Label.POSITIVE):
        candidate = decode_cell(prediction, (int(ix), int(iy), int(iz)))
        np.testing.assert_allclose(candidate.sphere.center, nod.center, rtol=1e-12)
        assert candidate.sphere.radius == pytest.approx(nod.radius, rel=1e-12)


def test_targets_reject_corrupt_matched_index():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    nod = nodule((0.5, 0.5, 0.5), 0.25)
    assignment = assign_labels(grid, [nod], k=1)
    assignment.matched_nodule[0, 0, 0] = 5
    with pytest.raises(ValueError):
        regression_targets(grid, assignment, [nod])


# --------------------------------------------------------------------------
# hard-negative refinement


def _assignment_with_positives(grid, n_positive):
    labels = np.zeros(grid.dims, dtype=np.int8)
    labels.ravel()[:n_positive] = Label.POSITIVE
    return LabelAssignment(
        grid=grid,
        labels=labels,
        matched_nodule=np.where(labels == Label.POSITIVE, 0, -1).astype(np.int32),
        radius_target=np.zeros(grid.dims),
        offset_target=np.zeros(grid.dims + (3,)),
    )


def test_ohem_keeps_hardest_negatives():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    assignment = _assignment_with_positives(grid, 1)  # budget n * 1
    loss = np.zeros(grid.dims)
    loss.ravel()[:] = [0.0, 0.5, 0.1, 0.9, 0.2, 0.9, 0.05, 0.3]
    refined = ohem_refine(assignment, loss, n=3)
    kept = np.flatnonzero(refined.labels.ravel() == Label.NEGATIVE)
    # hardest negatives among cells 1..7: losses .5 .1 .9 .2 .9 .05 .3 ->
    # cells 3 and 5 (tie kept in index order), then cell 1
    assert kept.tolist() == [1, 3, 5]
    demoted = np.flatnonzero(refined.labels.ravel() == Label.IGNORED)
    assert demoted.tolist() == [2, 4, 6, 7]


def test_ohem_tie_break_prefers_low_linear_index():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    assignment = _assignment_with_positives(grid, 1)
    refined = ohem_refine(assignment, np.zeros(grid.dims), n=2)
    kept = np.flatnonzero(refined.labels.ravel() == Label.NEGATIVE)
    assert kept.tolist() == [1, 2]


def test_ohem_budget_without_positives_is_100():
    grid = GridSpec(dims=(6, 6, 6), stride=1)
    assignment = _assignment_with_positives(grid, 0)
    refined = ohem_refine(assignment, np.zeros(grid.dims), n=5)
    assert int((refined.labels == Label.NEGATIVE).sum()) == 100
    assert int((refined.labels == Label.IGNORED).sum()) == grid.n_cells - 100


def test_ohem_budget_caps_at_available_negatives():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    assignment = _assignment_with_positives(grid, 2)
    refined = ohem_refine(assignment, np.ones(grid.dims), n=100)
    assert int((refined.labels == Label.NEGATIVE).sum()) == 6
    assert int((refined.labels == Label.IGNORED).sum()) == 0


def test_ohem_never_touches_positives_or_ignored():
    grid = GridSpec(dims=(3, 3, 3), stride=1)
    assignment = _assignment_with_positives(grid, 2)
    assignment.labels.ravel()[5] = Label.IGNORED
    before = assignment.labels.copy()
    refined = ohem_refine(assignment, np.zeros(grid.dims), n=1)
    changed = refined.labels != before
    assert (before[changed] == Label.NEGATIVE).all()
    assert (refined.labels[changed] == Label.IGNORED).all()


def test_ohem_matches_brute_force_oracle():
    rng = np.random.default_rng(505)
    for _ in range(10):
        grid = GridSpec(dims=(4, 4, 4), stride=1)
        n_positive = int(rng.integers(0, 4))
        assignment = _assignment_with_positives(grid, n_positive)
        loss = rng.choice([0.0, 0.25, 0.5, 1.0], size=grid.dims)
        refined = ohem_refine(assignment, loss, n=7)
        expected = brute_force_ohem(assignment.labels.ravel(), loss.ravel(), n=7)
        np.testing.assert_array_equal(refined.labels.ravel(), expected)


def test_ohem_validation_errors():
    grid = GridSpec(dims=(2, 2, 2), stride=1)
    assignment = _assignment_with_positives(grid, 1)
    with pytest.raises(ValueError):
        ohem_refine(assignment, np.zeros(grid.dims), n=0)
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        ohem_refine(assignment, np.zeros(grid.dims), n=2.5)
    with pytest.raises(ValueError, match="n must be a number, got True"):
        ohem_refine(assignment, np.zeros(grid.dims), n=True)
    with pytest.raises(ValueError):
        ohem_refine(assignment, np.zeros((3, 3, 3)), n=1)
    bad = np.zeros(grid.dims)
    bad.ravel()[3] = np.nan
    with pytest.raises(ValueError):
        ohem_refine(assignment, bad, n=1)
