"""The float32 grid path: validation of float32 maps, byte-identical detect
output after a container round trip, and one grid in memory at a time."""

import tracemalloc
import weakref

import numpy as np
import pytest

from spheredet import GridSpec, PredictionGrid, write_grid
from spheredet import cli


def _maps(dims, dtype, rng):
    prob = rng.random(dims).astype(dtype)
    radius = rng.uniform(-0.5, 2.0, dims).astype(dtype)
    offset = rng.uniform(-0.5, 0.5, dims + (3,)).astype(dtype)
    return prob, radius, offset


# --------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["center_prob", "radius", "offset"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prediction_grid_rejects_non_finite(dtype, name, bad):
    dims = (3, 4, 5)
    prob, radius, offset = _maps(dims, dtype, np.random.default_rng(0))
    maps = {"center_prob": prob, "radius": radius, "offset": offset}
    maps[name].flat[7] = bad
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
        PredictionGrid(spec=GridSpec(dims=dims, stride=4), **maps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [-1e-30, 1.0 + 1e-6, 2.0])
def test_prediction_grid_rejects_probability_out_of_range(dtype, bad):
    dims = (2, 3, 4)
    prob, radius, offset = _maps(dims, dtype, np.random.default_rng(1))
    prob.flat[5] = bad
    with pytest.raises(ValueError, match=r"^center_prob values must lie in \[0, 1\]$"):
        PredictionGrid(GridSpec(dims=dims, stride=4), prob, radius, offset)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prediction_grid_checks_finiteness_of_every_map_before_range(dtype):
    dims = (2, 2, 2)
    prob, radius, offset = _maps(dims, dtype, np.random.default_rng(2))
    prob.flat[0] = 3.0
    offset.flat[0] = np.nan
    with pytest.raises(ValueError, match="^offset contains non-finite values$"):
        PredictionGrid(GridSpec(dims=dims, stride=4), prob, radius, offset)
    offset.flat[0] = 0.0
    prob.flat[1] = np.nan
    with pytest.raises(ValueError, match="^center_prob contains non-finite values$"):
        PredictionGrid(GridSpec(dims=dims, stride=4), prob, radius, offset)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prediction_grid_accepts_probability_bounds(dtype):
    dims = (2, 2, 2)
    prob, radius, offset = _maps(dims, dtype, np.random.default_rng(3))
    prob.flat[:3] = [0.0, -0.0, 1.0]
    PredictionGrid(GridSpec(dims=dims, stride=4), prob, radius, offset)


# --------------------------------------------------------------------------
# detect


def _scan_grids(scan, rng):
    """Two float64 levels of one scan holding float32-exact values, with
    tied probabilities and nonpositive radii."""
    grids = []
    for level, (dims, stride) in enumerate((((4, 4, 4), 8), ((8, 8, 8), 4))):
        prob, radius, offset = (
            m.astype(np.float32).astype(np.float64) for m in _maps(dims, np.float64, rng)
        )
        prob.flat[::3] = 0.5
        grids.append(
            PredictionGrid(GridSpec(dims, stride), prob, radius, offset, level, scan)
        )
    return grids


def _write_scans(tmp_path, n_scans):
    """Writes n_scans x 2 levels; returns {path: in-memory grid}, paths
    listed level-major so each scan's grids are interleaved with others'."""
    rng = np.random.default_rng(11)
    scans = [_scan_grids(f"scan-{i}", rng) for i in range(n_scans)]
    written = {}
    for level in range(2):
        for i, grids in enumerate(scans):
            path = tmp_path / f"scan-{i}-level{level}.grid"
            write_grid(path, grids[level])
            written[path] = grids[level]
    return written


def _detect(paths, out):
    rc = cli.main(
        ["detect", "--grids", *map(str, paths), "--out", str(out), "--top-n", "40"]
    )
    assert rc == 0
    return out.read_bytes(), out.with_name(out.name + ".meta.json").read_bytes()


def test_detect_bytes_equal_for_float64_grids_and_their_round_trip(tmp_path, monkeypatch):
    written = _write_scans(tmp_path, 2)
    from_files = _detect(written, tmp_path / "files.csv")
    monkeypatch.setattr(cli, "read_grid", written.__getitem__)
    assert all(g.center_prob.dtype == np.float64 for g in written.values())
    in_memory = _detect(written, tmp_path / "memory.csv")
    assert from_files[0].count(b"\n") > 40
    assert from_files == in_memory


def test_detect_holds_one_grid_at_a_time(tmp_path, monkeypatch):
    paths = list(_write_scans(tmp_path, 4))
    grouped = sorted(paths, key=lambda p: p.name)
    expected = _detect(grouped, tmp_path / "grouped.csv")

    alive = [0]
    peak = [0]
    calls = []
    read_grid = cli.read_grid

    def counting_read_grid(path):
        grid = read_grid(path)
        calls.append(path)
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        weakref.finalize(grid, lambda: alive.__setitem__(0, alive[0] - 1))
        return grid

    monkeypatch.setattr(cli, "read_grid", counting_read_grid)
    assert _detect(paths, tmp_path / "interleaved.csv") == expected
    assert peak[0] == 1
    assert sorted(calls) == sorted(paths)  # each grid read once


def test_detect_peak_memory_stays_below_one_and_a_half_grids(tmp_path):
    # Two 64^3 levels of one scan: holding both grids, or one grid while the
    # next is read, would take at least two payloads.
    dims = (64, 64, 64)
    rng = np.random.default_rng(5)
    paths = []
    for level in range(2):
        prob, radius, offset = _maps(dims, np.float32, rng)
        paths.append(tmp_path / f"level{level}.grid")
        write_grid(paths[-1], PredictionGrid(GridSpec(dims, 4), prob, radius, offset, level, "s"))
    del prob, radius, offset
    payload = 5 * 64**3 * 4
    tracemalloc.start()
    try:
        _detect(paths, tmp_path / "candidates.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * payload, peak / payload


def test_detect_short_payload_in_last_scan_fails_cleanly(tmp_path, capsys):
    paths = list(_write_scans(tmp_path, 4))
    last = tmp_path / "scan-3-level1.grid"
    last.write_bytes(last.read_bytes()[:-1])
    out = tmp_path / "candidates.csv"
    rc = cli.main(["detect", "--grids", *map(str, paths), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {last}: payload is ") and err.count("\n") == 1, err
    assert not out.exists()
    assert not out.with_name(out.name + ".meta.json").exists()
