"""Grid decoding, candidate ordering, and sphere-overlap suppression."""

import numpy as np
import pytest

from spheredet import (
    Candidate,
    DecodeStats,
    GridSpec,
    NmsParams,
    PredictionGrid,
    Sphere,
    decode_cell,
    detect_candidates,
    merge_levels,
    nms_siou,
    top_n_candidates,
)
from helpers import nms_oracle


def empty_grid(dims=(2, 2, 2), stride=4, level=0):
    return PredictionGrid(
        spec=GridSpec(dims=dims, stride=stride),
        center_prob=np.zeros(dims),
        radius=np.zeros(dims),
        offset=np.zeros(dims + (3,)),
        level=level,
    )


def cand(center, radius, score, cell_index=-1, level=0):
    return Candidate(
        sphere=Sphere(center, radius), score=score, cell_index=cell_index, level=level
    )


# --------------------------------------------------------------------------
# decoding


def test_decode_cell_example():
    grid = empty_grid()
    grid.center_prob[1, 0, 1] = 0.9
    grid.radius[1, 0, 1] = 1.5
    grid.offset[1, 0, 1] = (0.25, -0.25, 0.0)
    candidate = decode_cell(grid, (1, 0, 1))
    assert candidate.sphere.center == (7.0, 1.0, 6.0)
    assert candidate.sphere.radius == 6.0
    assert candidate.score == 0.9
    assert candidate.cell_index == 5
    assert candidate.level == 0


def test_decode_cell_rejects_out_of_bounds():
    grid = empty_grid()
    with pytest.raises(IndexError):
        decode_cell(grid, (2, 0, 0))
    with pytest.raises(IndexError):
        decode_cell(grid, (0, -1, 0))


def test_decode_cell_rejects_nonpositive_radius():
    grid = empty_grid()
    grid.center_prob[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        decode_cell(grid, (0, 0, 0))


def test_top_n_orders_by_score_then_cell_index():
    grid = empty_grid()
    grid.radius[:] = 1.0
    grid.center_prob[0, 0, 0] = 0.5
    grid.center_prob[0, 0, 1] = 0.9
    grid.center_prob[1, 1, 1] = 0.5  # ties with cell 0 -> cell 0 first
    out = top_n_candidates(grid, n=3)
    assert [c.cell_index for c in out] == [1, 0, 7]
    assert [c.score for c in out] == [0.9, 0.5, 0.5]


def test_top_n_counts_dropped_cells():
    grid = empty_grid()
    grid.center_prob[0, 0, 0] = 0.9  # radius stays 0 -> dropped
    grid.center_prob[0, 0, 1] = 0.8
    grid.radius[0, 0, 1] = 2.0
    stats = DecodeStats()
    out = top_n_candidates(grid, n=4, stats=stats)
    assert [c.cell_index for c in out] == [1]
    assert stats.dropped_nonpositive_radius == 3


def test_top_n_rejects_bad_n():
    with pytest.raises(ValueError):
        top_n_candidates(empty_grid(), n=0)
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        top_n_candidates(empty_grid(), n=2.5)
    with pytest.raises(ValueError, match="n must be a number, got True"):
        top_n_candidates(empty_grid(), n=True)


def test_top_n_clips_to_grid_size():
    grid = empty_grid()
    grid.radius[:] = 1.0
    out = top_n_candidates(grid, n=100)
    assert len(out) == 8


def test_prediction_grid_validation():
    dims = (2, 2, 2)
    spec = GridSpec(dims=dims, stride=4)
    good = dict(
        center_prob=np.zeros(dims), radius=np.zeros(dims), offset=np.zeros(dims + (3,))
    )
    with pytest.raises(ValueError):
        PredictionGrid(spec=spec, **{**good, "center_prob": np.full(dims, 1.5)})
    with pytest.raises(ValueError):
        PredictionGrid(spec=spec, **{**good, "radius": np.full(dims, np.nan)})
    with pytest.raises(ValueError):
        PredictionGrid(spec=spec, **{**good, "offset": np.zeros(dims)})
    with pytest.raises(ValueError):
        PredictionGrid(spec=spec, **{**good, "center_prob": np.zeros((3, 2, 2))})


def test_candidate_score_validation():
    with pytest.raises(ValueError):
        cand((0.0, 0.0, 0.0), 1.0, 1.5)
    with pytest.raises(ValueError):
        cand((0.0, 0.0, 0.0), 1.0, float("nan"))


# --------------------------------------------------------------------------
# merging


def test_merge_levels_is_ordered_and_stable():
    a = cand((0.0, 0.0, 0.0), 1.0, 0.9, cell_index=3, level=0)
    b = cand((9.0, 0.0, 0.0), 1.0, 0.9, cell_index=3, level=1)
    c = cand((18.0, 0.0, 0.0), 1.0, 0.95, cell_index=9, level=1)
    merged = merge_levels([a], [b, c])
    assert merged == [c, a, b]  # score desc, then cell index, then level


# --------------------------------------------------------------------------
# suppression


def test_nms_suppresses_overlap_and_keeps_far():
    a = cand((0.0, 0.0, 0.0), 2.0, 0.9)
    b = cand((1.0, 0.0, 0.0), 2.0, 0.8)  # heavy overlap with a
    c = cand((30.0, 0.0, 0.0), 2.0, 0.7)  # far away
    kept = nms_siou([b, c, a], NmsParams())
    assert kept == [a, c]


def test_nms_distance_rule_fires_without_overlap():
    # disjoint pair (siou == 0) but closer than the separation threshold
    a = cand((0.0, 0.0, 0.0), 1.0, 0.9)
    b = cand((2.2, 0.0, 0.0), 1.0, 0.8)  # R_DR = 2.2 / 4.2 ~ 0.524
    assert nms_siou([a, b], NmsParams(tau_siou=0.05, tau_dr=0.5)) == [a, b]
    assert nms_siou([a, b], NmsParams(tau_siou=0.05, tau_dr=0.6)) == [a]


def test_nms_overlap_rule_fires_when_distance_rule_disabled():
    a = cand((0.0, 0.0, 0.0), 2.0, 0.9)
    b = cand((1.0, 0.0, 0.0), 2.0, 0.8)
    assert nms_siou([a, b], NmsParams(tau_siou=0.05, tau_dr=0.0)) == [a]
    # with a permissive overlap threshold the pair survives
    assert nms_siou([a, b], NmsParams(tau_siou=0.99, tau_dr=0.0)) == [a, b]


def test_nms_tangent_pair_survives_defaults():
    a = cand((0.0, 0.0, 0.0), 1.0, 0.9)
    b = cand((2.0, 0.0, 0.0), 1.0, 0.8)  # exactly tangent: R_DR = 0.5
    assert nms_siou([a, b], NmsParams()) == [a, b]


def test_nms_chain_suppression_is_greedy():
    # b overlaps a and c; c does not overlap a.  Greedy keeps a and c: b is
    # removed by a before it can remove c.
    a = cand((0.0, 0.0, 0.0), 2.0, 0.9)
    b = cand((3.0, 0.0, 0.0), 2.0, 0.8)
    c = cand((6.0, 0.0, 0.0), 2.0, 0.7)
    kept = nms_siou([a, b, c], NmsParams(tau_siou=0.01, tau_dr=0.0))
    assert kept == [a, c]


def test_nms_empty_input():
    assert nms_siou([], NmsParams()) == []


def _random_candidates(rng, n):
    out = []
    for index in range(n):
        center = tuple(float(x) for x in rng.uniform(0.0, 40.0, size=3))
        out.append(
            cand(
                center,
                float(rng.uniform(0.5, 6.0)),
                float(rng.uniform(0.0, 1.0)),
                cell_index=index,
                level=int(rng.integers(0, 2)),
            )
        )
    return out


def test_nms_matches_quadratic_oracle():
    rng = np.random.default_rng(606)
    for _ in range(25):
        candidates = _random_candidates(rng, int(rng.integers(0, 30)))
        params = NmsParams(
            tau_siou=float(rng.uniform(0.0, 0.3)), tau_dr=float(rng.uniform(0.0, 0.8))
        )
        assert nms_siou(candidates, params) == nms_oracle(candidates, params)


def test_nms_is_idempotent_and_antichain():
    rng = np.random.default_rng(707)
    from spheredet.geometry import distance_radius_ratio, siou

    for _ in range(10):
        candidates = _random_candidates(rng, 25)
        params = NmsParams()
        kept = nms_siou(candidates, params)
        assert nms_siou(kept, params) == kept
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert siou(a.sphere, b.sphere) <= params.tau_siou
                assert distance_radius_ratio(a.sphere, b.sphere) >= params.tau_dr


def test_nms_is_permutation_invariant():
    rng = np.random.default_rng(808)
    candidates = _random_candidates(rng, 20)
    params = NmsParams()
    expected = nms_siou(candidates, params)
    for _ in range(5):
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        assert nms_siou(shuffled, params) == expected


# --------------------------------------------------------------------------
# full per-scan pipeline


def test_detect_candidates_merges_levels_and_suppresses_duplicates():
    coarse = empty_grid(dims=(2, 2, 2), stride=8, level=0)
    fine = empty_grid(dims=(4, 4, 4), stride=4, level=1)
    # same object seen at both levels, slightly offset
    coarse.center_prob[0, 0, 0] = 0.9
    coarse.radius[0, 0, 0] = 0.5  # world radius 4
    fine.center_prob[0, 0, 0] = 0.8
    fine.radius[0, 0, 0] = 1.0  # world radius 4, center 2 away
    fine.offset[0, 0, 0] = (0.5, 0.0, 0.0)
    kept = detect_candidates([coarse, fine], top_n=8, params=NmsParams())
    assert len(kept) == 1
    assert kept[0].score == 0.9 and kept[0].level == 0


def test_detect_candidates_empty_grid_list():
    assert detect_candidates([], top_n=5, params=NmsParams()) == []
