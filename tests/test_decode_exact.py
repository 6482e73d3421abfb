"""The pruned NMS and the partitioned top-n give exactly the plain results."""

import numpy as np
import pytest

from spheredet import (
    Candidate,
    DecodeStats,
    GridSpec,
    NmsParams,
    PredictionGrid,
    Sphere,
    nms_siou,
    read_grid,
    top_n_candidates,
    write_grid,
)
from helpers import nms_oracle


def clustered_candidates(rng, size):
    """Blobs of overlapping spheres plus scattered small ones, on a 64^3
    grid of stride 4, with scores drawn from a few values so ties occur."""
    blobs = [
        (rng.uniform(40.0, 216.0, size=3), float(rng.uniform(4.0, 12.0)))
        for _ in range(8)
    ]
    out = []
    for index in range(size):
        if index % 4 == 0:
            center, radius = blobs[int(rng.integers(len(blobs)))]
            center = center + rng.uniform(-0.8, 0.8, size=3) * 4.0
            radius *= float(rng.uniform(0.9, 1.1))
        else:
            center = rng.uniform(0.0, 256.0, size=3)
            radius = float(rng.uniform(0.5, 1.0)) * 4.0
        score = float(rng.choice([0.25, 0.5, 0.75, rng.uniform(0.0, 1.0)]))
        out.append(
            Candidate(
                sphere=Sphere(tuple(float(v) for v in center), radius),
                score=score,
                level=int(rng.integers(0, 2)),
                cell_index=int(rng.integers(0, 64**3)),
            )
        )
    return out


@pytest.mark.parametrize("tau_siou, tau_dr", [(0.0, 0.0), (0.05, 0.5), (0.3, 0.9), (1.0, 0.0)])
def test_pruned_nms_matches_oracle_on_clustered_sets(tau_siou, tau_dr):
    rng = np.random.default_rng(int(tau_siou * 100 + tau_dr * 10))
    params = NmsParams(tau_siou=tau_siou, tau_dr=tau_dr)
    for size in (300, 400, 500):
        candidates = clustered_candidates(rng, size)
        assert nms_siou(candidates, params) == nms_oracle(candidates, params), size


def test_pruned_nms_keeps_pairs_at_the_reach_bound():
    # R_DR of the pair is 6 / (6 + 2) = 0.75, three times the radius sum
    # away: the pair is suppressed for tau_dr just above 0.75 only.
    a = Candidate(sphere=Sphere((0.0, 0.0, 0.0), 1.0), score=0.9)
    b = Candidate(sphere=Sphere((6.0, 0.0, 0.0), 1.0), score=0.8)
    for tau_dr in (0.75, np.nextafter(0.75, 1.0), 0.76):
        params = NmsParams(tau_siou=0.05, tau_dr=float(tau_dr))
        assert nms_siou([a, b], params) == nms_oracle([a, b], params)
    assert nms_siou([a, b], NmsParams(tau_siou=0.05, tau_dr=0.76)) == [a]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau_siou": -0.01},
        {"tau_siou": 1.01},
        {"tau_siou": float("nan")},
        {"tau_dr": 1.0},
        {"tau_dr": -0.5},
        {"tau_dr": float("inf")},
        {"tau_dr": "0.5"},
        {"tau_siou": True},
    ],
)
def test_nms_params_reject_out_of_range_thresholds(kwargs):
    with pytest.raises(ValueError, match="tau_"):
        NmsParams(**kwargs)


def test_nms_params_accept_the_range_ends():
    NmsParams(tau_siou=0.0, tau_dr=0.0)
    NmsParams(tau_siou=1.0, tau_dr=float(np.nextafter(1.0, 0.0)))


def tie_heavy_grid(rng, dims=(6, 7, 8)):
    return PredictionGrid(
        spec=GridSpec(dims=dims, stride=4),
        center_prob=rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=dims),
        radius=rng.uniform(0.5, 1.0, size=dims),
        offset=np.zeros(dims + (3,)),
    )


@pytest.mark.parametrize("n", [1, 7, 100, 335, 336, 337, 1000])
def test_top_n_order_equals_stable_argsort_on_ties(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        grid = tie_heavy_grid(rng)
        flat = grid.center_prob.ravel()
        expected = np.argsort(-flat, kind="stable")[:n]
        got = [c.cell_index for c in top_n_candidates(grid, n)]
        assert got == [int(i) for i in expected]


@pytest.mark.parametrize("n", [1, 50, 336])
def test_top_n_decode_equals_a_per_cell_loop_on_float32_maps(tmp_path, n):
    # Float32 maps from the grid container, tied scores, and about a third
    # of the radii nonpositive.  An odd stride makes the product round, so
    # summing in float32 instead of float64 would show.
    rng = np.random.default_rng(500 + n)
    dims, stride = (6, 7, 8), 3
    nonpositive = rng.choice([0.0, -0.0, -0.5], size=dims)
    radius = np.where(rng.random(dims) < 0.35, nonpositive, rng.uniform(0.1, 2.0, dims))
    path = tmp_path / "ties.grid"
    write_grid(path, PredictionGrid(
        spec=GridSpec(dims=dims, stride=stride),
        center_prob=rng.choice([0.1, 0.3, 0.7], size=dims),
        radius=radius,
        offset=rng.uniform(-0.5, 0.5, size=dims + (3,)),
        level=2,
    ))
    grid = read_grid(path)
    assert grid.radius.dtype == grid.offset.dtype == np.float32

    expected, dropped = [], 0
    d, h, w = dims
    for lin in np.argsort(-grid.center_prob.ravel(), kind="stable")[:n].tolist():
        iz, iy, ix = lin // (h * w), lin // w % h, lin % w
        decoded_radius = float(grid.radius[iz, iy, ix]) * stride
        if decoded_radius <= 0.0:
            dropped += 1
            continue
        offset = grid.offset[iz, iy, ix]
        center = tuple((i + 0.5 + float(v)) * stride for i, v in zip((ix, iy, iz), offset))
        expected.append((center, decoded_radius, float(grid.center_prob[iz, iy, ix]), 2, lin))

    stats = DecodeStats()
    got = top_n_candidates(grid, n, stats)
    assert [
        (c.sphere.center, c.sphere.radius, c.score, c.level, c.cell_index) for c in got
    ] == expected
    assert stats.dropped_nonpositive_radius == dropped
    assert n < 50 or 0 < dropped < n
    for c in got:
        assert type(c.sphere.center) is tuple
        assert all(type(v) is float for v in (*c.sphere.center, c.sphere.radius, c.score))
        assert type(c.cell_index) is int
