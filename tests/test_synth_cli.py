"""Synthetic data generator and the command-line harness."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from spheredet import (
    Candidate,
    DecodeStats,
    GridSpec,
    NmsParams,
    NoduleAnnotation,
    Sphere,
    SyntheticSpec,
    decode_cell,
    detect_candidates,
    generate_dataset,
    top_n_candidates,
)
from spheredet.cli import main
from helpers import FOUR_SCAN_EXPECTED, four_scan_fixture, write_grid_with_stride
from spheredet import write_annotations, write_candidates, write_grid
from spheredet.decode import PredictionGrid


SMALL = SyntheticSpec(
    grid=GridSpec(dims=(12, 12, 12), stride=4),
    nodules=(2, 4),
    radius_range=(4.0, 6.0),
)


# --------------------------------------------------------------------------
# generator


def test_generate_dataset_rejects_bad_scan_counts():
    for n_scans, message in [
        (0, "n_scans must be >= 1, got 0"),
        (2.5, "n_scans must be an integer, got 2.5"),
        (True, "n_scans must be a number, got True"),
    ]:
        with pytest.raises(ValueError) as error:
            generate_dataset(SMALL, n_scans=n_scans, seed=11)
        assert str(error.value) == message


def test_generate_dataset_is_deterministic():
    a = generate_dataset(SMALL, n_scans=3, seed=11)
    b = generate_dataset(SMALL, n_scans=3, seed=11)
    for ra, rb in zip(a, b):
        assert ra.scan_id == rb.scan_id
        assert ra.annotations == rb.annotations
        np.testing.assert_array_equal(ra.grid.center_prob, rb.grid.center_prob)
        np.testing.assert_array_equal(ra.grid.radius, rb.grid.radius)
        np.testing.assert_array_equal(ra.grid.offset, rb.grid.offset)


def test_different_seed_changes_dataset():
    a = generate_dataset(SMALL, n_scans=1, seed=11)[0]
    b = generate_dataset(SMALL, n_scans=1, seed=12)[0]
    assert a.annotations != b.annotations


def test_scan_ids_and_nodule_counts():
    records = generate_dataset(SMALL, n_scans=4, seed=3)
    assert [r.scan_id for r in records] == [f"synth-{i:04d}" for i in range(4)]
    for record in records:
        assert 2 <= len(record.annotations) <= 4
        for index, annotation in enumerate(record.annotations):
            assert annotation.id == f"{record.scan_id}:{index}"


def test_placement_respects_margins_and_separation():
    spec = SMALL
    extent = 12 * 4
    for record in generate_dataset(spec, n_scans=6, seed=21):
        spheres = [(a.center, a.radius) for a in record.annotations]
        for center, radius in spheres:
            for c in center:
                assert radius + 4 <= c <= extent - radius - 4
        for i, (ca, ra) in enumerate(spheres):
            for cb, rb in spheres[i + 1 :]:
                dist = math.dist(ca, cb)
                assert dist >= ra + rb + 2 * 4


def test_home_cells_carry_exact_targets():
    record = generate_dataset(SMALL, n_scans=1, seed=5)[0]
    grid = record.grid
    for annotation in record.annotations:
        cell = tuple(int(c // 4) for c in annotation.center)
        candidate = decode_cell(grid, cell)
        assert candidate.sphere.center == pytest.approx(annotation.center, abs=1e-12)
        assert candidate.sphere.radius == pytest.approx(annotation.radius, abs=1e-12)


def test_clean_scan_detects_exactly_the_nodules():
    record = generate_dataset(SMALL, n_scans=1, seed=9)[0]
    kept = detect_candidates([record.grid], top_n=100, params=NmsParams())
    assert len(kept) == len(record.annotations)
    assert all(c.score == 1.0 for c in kept)
    got = sorted(c.sphere.center for c in kept)
    expected = sorted(a.center for a in record.annotations)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-9)


def test_clutter_adds_exactly_counted_false_positives():
    spec = SyntheticSpec(
        grid=GridSpec(dims=(16, 16, 16), stride=4),
        nodules=(2, 2),
        radius_range=(4.0, 6.0),
        clutter=5,
    )
    for record in generate_dataset(spec, n_scans=3, seed=31):
        stats = DecodeStats()
        raw = top_n_candidates(record.grid, n=4096, stats=stats)
        assert len(raw) == 2 + 5
        # the nodules carry probability 1, clutter sits in [0.2, 0.95]
        scores = sorted(c.score for c in raw)
        assert scores[-2:] == [1.0, 1.0]
        assert all(0.2 <= s <= 0.95 for s in scores[:5])
        # separation keeps every sphere clear of suppression
        kept = detect_candidates([record.grid], top_n=4096, params=NmsParams())
        assert len(kept) == 7


def test_noise_only_touches_the_probability_map():
    spec = SyntheticSpec(
        grid=GridSpec(dims=(12, 12, 12), stride=4),
        nodules=(1, 1),
        radius_range=(4.0, 5.0),
        noise=0.3,
    )
    record = generate_dataset(spec, n_scans=1, seed=41)[0]
    home = tuple(int(c // 4) for c in record.annotations[0].center)
    background = record.grid.radius.copy()
    background[home[2], home[1], home[0]] = 0.0
    assert np.all(background == 0.0)  # only the nodule cell has a radius
    assert record.grid.center_prob.max() > 0.7
    # background cells all decode to nonpositive radii and are dropped
    kept = detect_candidates([record.grid], top_n=4096, params=NmsParams())
    assert len(kept) == 1


def test_invalid_specs_raise():
    grid = GridSpec(dims=(12, 12, 12), stride=4)
    with pytest.raises(ValueError, match="nodule count"):
        SyntheticSpec(grid=grid, nodules=(4, 2))
    with pytest.raises(ValueError, match="radius range"):
        SyntheticSpec(grid=grid, radius_range=(0.0, 4.0))
    with pytest.raises(ValueError, match="noise"):
        SyntheticSpec(grid=grid, noise=0.5)
    with pytest.raises(ValueError, match="clutter"):
        SyntheticSpec(grid=grid, clutter=-1)
    with pytest.raises(ValueError, match="too small"):
        SyntheticSpec(grid=GridSpec(dims=(4, 4, 4), stride=2), radius_range=(4.0, 12.0))
    with pytest.raises(ValueError):
        generate_dataset(SMALL, n_scans=0, seed=1)


# --------------------------------------------------------------------------
# CLI: synth


def test_cli_synth_writes_deterministic_dataset(tmp_path):
    argv = [
        "synth",
        "--scans", "2",
        "--nodules", "2:3",
        "--radius", "4:6",
        "--seed", "17",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out-dir", str(dir_a)]) == 0
    assert main(argv + ["--out-dir", str(dir_b)]) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == [
        "annotations.csv", "metadata.json", "synth-0000.grid", "synth-0001.grid"
    ]
    for name in ("synth-0000.grid", "synth-0001.grid", "annotations.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    meta = json.loads((dir_a / "metadata.json").read_text())
    assert meta["scan_ids"] == ["synth-0000", "synth-0001"]
    assert meta["config"]["seed"] == 17


def test_cli_synth_rejects_bad_range(tmp_path, capsys):
    rc = main(
        ["synth", "--out-dir", str(tmp_path), "--scans", "1", "--nodules", "6:3"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# CLI: gradsim


def test_cli_gradsim_curve_endpoint_values(tmp_path):
    rc = main(
        [
            "gradsim",
            "--out-dir", str(tmp_path),
            "--points", "2",
            "--start", "8.0",
            "--iters", "1",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "gradient_curve.csv").read_text().splitlines()
    assert lines[0] == "kind,d_ab,loss,dloss_dz"
    rows = {}
    for line in lines[1:]:
        kind, d_ab, loss, grad = line.split(",")
        rows[(kind, float(d_ab))] = (float(loss), float(grad))
    # separated pair (d=8, radii 1.5): no overlap gradient, flat loss
    assert rows[("siou", 8.0)] == (1.0, 0.0)
    assert rows[("box_iou", 8.0)] == (1.0, 0.0)
    # the distance-ratio term keeps pulling: R_DR = 8/11, slope 3/121
    assert rows[("siou_pp", 8.0)] == (8.0 / 11.0, 3.0 / 121.0)
    assert rows[("sdiou", 8.0)] == (1.0 + 8.0 / 11.0, 3.0 / 121.0)
    # coincident endpoint: every loss and every gradient vanishes
    for kind in ("siou", "sdiou", "siou_pp", "box_iou"):
        assert rows[(kind, 0.0)] == (0.0, 0.0)


def test_cli_gradsim_descent_outputs(tmp_path):
    rc = main(
        [
            "gradsim",
            "--out-dir", str(tmp_path),
            "--kinds", "siou,siou_pp",
            "--points", "2",
        ]
    )
    assert rc == 0
    initial_loss = {"siou": 1.0, "siou_pp": 8.0 / 11.0}
    for kind in ("siou", "siou_pp"):
        lines = (tmp_path / f"descent_{kind}.csv").read_text().splitlines()
        assert lines[0] == "iter,d_ab,loss"
        assert len(lines) == 1 + 5000 + 1  # header + initial state + 5000 steps
        # every data cell must be a parseable plain float (no stray reprs)
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert [int(first[0]), float(first[1])] == [0, 8.0]
        assert float(first[2]) == pytest.approx(initial_loss[kind], abs=1e-12)
        assert int(last[0]) == 5000
        float(last[1]), float(last[2])
    meta = json.loads((tmp_path / "metadata.json").read_text())
    # flat loss leaves the separated pair stuck; the augmented loss closes in
    assert meta["final_distances"]["siou"] == 8.0
    assert meta["final_distances"]["siou_pp"] < 0.01


def test_cli_gradsim_rejects_unknown_kind(tmp_path, capsys):
    rc = main(["gradsim", "--out-dir", str(tmp_path / "out"), "--kinds", "bogus"])
    assert rc == 2 and not (tmp_path / "out").exists()
    _assert_one_line_error(capsys, "error: argument --kinds: unknown loss kind 'bogus'; ")


# --------------------------------------------------------------------------
# CLI: assign


def _write_assign_fixture(tmp_path):
    annotations = tmp_path / "annotations.csv"
    annotations.write_text(
        "seriesuid,coordX,coordY,coordZ,diameter_mm\nt1,10.0,10.0,10.0,8.0\n"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"dims": [6, 6, 6], "stride": 4}}))
    return annotations, config


def test_cli_assign_summary(tmp_path):
    annotations, config = _write_assign_fixture(tmp_path)
    out = tmp_path / "assign.json"
    rc = main(
        [
            "assign",
            "--annotations", str(annotations),
            "--scan-id", "t1",
            "--out", str(out),
            "--config", str(config),
            "--k", "2",
            "--n", "3",
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["cells"] == 216
    assert payload["positives"] == 2
    assert payload["negatives_kept"] == 6  # n * positives
    total = (
        payload["positives"]
        + payload["ignored"]
        + payload["negatives_kept"]
        + payload["negatives_demoted"]
    )
    assert total == 216
    assert payload["nodules"] == [{"id": "t1:0", "cells": [50, 86]}]


def test_cli_assign_without_annotations_keeps_flat_negative_budget(tmp_path):
    annotations, config = _write_assign_fixture(tmp_path)
    out = tmp_path / "assign.json"
    rc = main(
        [
            "assign",
            "--annotations", str(annotations),
            "--scan-id", "ghost",
            "--out", str(out),
            "--config", str(config),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["positives"] == 0
    assert payload["negatives_kept"] == 100
    assert payload["negatives_demoted"] == 216 - 100
    assert payload["nodules"] == []


def test_cli_config_precedence(tmp_path):
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"k": 3, "grid": {"dims": [6, 6, 6], "stride": 4}, "nms": {"tau_dr": 0.4}}
        )
    )
    out = tmp_path / "assign.json"
    rc = main(
        [
            "assign",
            "--annotations", str(annotations),
            "--scan-id", "t1",
            "--out", str(out),
            "--config", str(config),
            "--k", "5",
        ]
    )
    assert rc == 0
    echo = json.loads(out.read_text())["config"]
    assert echo["k"] == 5  # flag beats file
    assert echo["nms"]["tau_dr"] == 0.4  # file beats default
    assert echo["nms"]["tau_siou"] == 0.05
    assert echo["grid"]["dims"] == [6, 6, 6]


def test_cli_unknown_config_key_fails(tmp_path, capsys):
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    rc = main(
        [
            "assign",
            "--annotations", str(annotations),
            "--scan-id", "t1",
            "--out", str(tmp_path / "assign.json"),
            "--config", str(config),
        ]
    )
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def _assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "raw",
    [
        {"k": [1]},
        {"seed": "x"},
        {"n": float("inf")},
        {"nms": {"tau_dr": None}},
        {"grid": {"stride": "x"}},
        {"grid": {"stride": float("inf")}},
        {"grid": {"dims": [6, [6], 6]}},
        {"k": "7"},
        {"grid": {"dims": ["6", 6, 6]}},
        {"grid": {"dims": "666"}},
        {"grid": {"stride": "2"}},
        {"nms": {"tau_siou": "0.1"}},
    ],
)
def test_cli_wrongly_typed_config_value_fails_cleanly(tmp_path, capsys, raw):
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    rc = main(
        [
            "assign",
            "--annotations", str(annotations),
            "--scan-id", "t1",
            "--out", str(tmp_path / "assign.json"),
            "--config", str(config),
        ]
    )
    assert rc == 2
    _assert_one_line_error(capsys, f"error: {config}: ")


def test_cli_config_stride_beyond_the_world_bound_fails_cleanly(tmp_path, capsys):
    # Cell centers near 2^520 would overflow when distance_map squares them.
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid": {"dims": [1, 1, 2], "stride": 2**520}}))
    out = tmp_path / "labels.json"
    argv = ["assign", "--annotations", str(annotations), "--scan-id", "t1", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + ["--config", str(config), "--k", "1", "--n", "1"])
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {config}: stride {2**520} could decode world values")
    assert caught == []


@pytest.mark.parametrize(
    "raw",
    [
        {"k": 2.7},
        {"seed": 1.9},
        {"top_n": "3.5"},
        {"grid": {"dims": [6.5, 6, 6]}},
        {"grid": {"stride": 4.5}},
        {"nms": {"tau_dr": 1.5}},
        {"nms": {"tau_siou": -0.1}},
    ],
)
def test_cli_out_of_range_config_value_fails_cleanly(tmp_path, capsys, raw):
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    rc = main(
        [
            "assign",
            "--annotations", str(annotations),
            "--scan-id", "t1",
            "--out", str(tmp_path / "assign.json"),
            "--config", str(config),
        ]
    )
    assert rc == 2
    _assert_one_line_error(capsys, f"error: {config}: ")


def test_cli_config_grid_too_large_to_allocate_fails_cleanly(tmp_path, capsys):
    # 2^61 one-byte labels: far beyond any address space, so the allocation
    # is refused at once and no memory is touched.
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"grid": {"dims": [1048576, 1048576, 2097152], "stride": 1}}))
    rc, out = _run_assign(tmp_path, annotations, "--config", str(config))
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, "error: ")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k": 0}, "k must be >= 1, got 0"),
        ({"n": -3.0}, "n must be >= 1, got -3"),
        ({"top_n": 2.5}, "top_n must be an integer, got 2.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"k": "x"}, "k must be a number, got 'x'"),
        ({"k": True}, "k must be a number, got True"),
        ({"seed": float("nan")}, "seed must be an integer, got nan"),
        ({"nms": {"tau_dr": 0.4}}, "nms must be an NmsParams, got {'tau_dr': 0.4}"),
        ({"grid": (6, 6, 6)}, "grid must be a GridSpec, got (6, 6, 6)"),
    ],
)
def test_harness_config_checks_its_own_values(kwargs, message):
    from spheredet import HarnessConfig

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HarnessConfig(**kwargs)


def test_harness_config_stores_integer_settings_as_ints():
    from spheredet import HarnessConfig

    config = HarnessConfig(k=np.int64(3), n=4.0, top_n=np.float32(5.0), seed=0.0)
    assert (config.k, config.n, config.top_n, config.seed) == (3, 4, 5, 0)
    assert {type(v) for v in (config.k, config.n, config.top_n, config.seed)} == {int}


def test_config_accepts_integral_floats_for_integer_keys(tmp_path):
    from spheredet import load_config

    config = tmp_path / "ints.json"
    raw = {"k": 3.0, "seed": 2.0, "grid": {"dims": [6, 6.0, 6], "stride": 2.0}}
    config.write_text(json.dumps(raw))
    loaded = load_config(config)
    assert (loaded.k, loaded.seed, loaded.grid) == (3, 2, GridSpec(dims=(6, 6, 6), stride=2))
    assert type(loaded.k) is int and type(loaded.grid.stride) is int


def _run_assign(tmp_path, annotations, *extra):
    out = tmp_path / "assign.json"
    rc = main(
        ["assign", "--annotations", str(annotations), "--scan-id", "t1", "--out", str(out)]
        + list(extra)
    )
    return rc, out


@pytest.mark.parametrize(
    "body",
    [b'{"k": \xff}', b'{"k": }', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "malformed", "too-deep"],
)
def test_cli_unreadable_config_file_is_named(tmp_path, capsys, body):
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "bad.json"
    config.write_bytes(body)
    rc, out = _run_assign(tmp_path, annotations, "--config", str(config))
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {config}: ")


def test_cli_removed_loss_knobs_are_rejected(tmp_path, capsys):
    # loss weights and focal parameters are not config keys or flags
    annotations, config = _write_assign_fixture(tmp_path)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"alpha": 0.375}))
    rc, out = _run_assign(tmp_path, annotations, "--config", str(legacy))
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {legacy}: unknown config key 'alpha'")
    rc, out = _run_assign(tmp_path, annotations, "--config", str(config), "--lambda-s", "2.0")
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, "error: unrecognized arguments: --lambda-s 2.0")


@pytest.mark.parametrize("name", ["loss.npz", "empty.npy"])
def test_cli_assign_unreadable_loss_map_fails_cleanly(tmp_path, capsys, name):
    annotations, config = _write_assign_fixture(tmp_path)
    loss_map = tmp_path / name
    if name.endswith(".npz"):
        np.savez(loss_map, loss=np.zeros((6, 6, 6)))
    else:
        loss_map.write_bytes(b"")
    rc, out = _run_assign(
        tmp_path, annotations, "--config", str(config), "--loss-map", str(loss_map)
    )
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {loss_map}: not a .npy array (")


def test_cli_assign_loss_map_shape_mismatch_names_file(tmp_path, capsys):
    annotations, config = _write_assign_fixture(tmp_path)
    loss_map = tmp_path / "loss.npy"
    np.save(loss_map, np.zeros((6, 6, 5)))
    rc, out = _run_assign(
        tmp_path, annotations, "--config", str(config), "--loss-map", str(loss_map)
    )
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {loss_map}: loss map shape (6, 6, 5) ")


def test_cli_assign_reads_npy_loss_map(tmp_path):
    annotations, config = _write_assign_fixture(tmp_path)
    loss_map = tmp_path / "loss.npy"
    np.save(loss_map, np.random.default_rng(0).random((6, 6, 6)).astype(np.float32))
    rc, out = _run_assign(
        tmp_path, annotations, "--config", str(config), "--loss-map", str(loss_map),
        "--k", "2", "--n", "3",
    )
    assert rc == 0
    assert json.loads(out.read_text())["negatives_kept"] == 6


def test_cli_detect_rejects_tau_dr_flag_out_of_range(tmp_path, capsys):
    rc = main(
        [
            "detect",
            "--grids", str(tmp_path / "missing.grid"),
            "--out", str(tmp_path / "out.csv"),
            "--tau-dr", "1.5",
        ]
    )
    assert rc == 2
    _assert_one_line_error(capsys, "error: command line: tau_dr")


# --------------------------------------------------------------------------
# CLI: detect and froc


def test_cli_detect_merges_levels(tmp_path):
    coarse = PredictionGrid(
        spec=GridSpec(dims=(2, 2, 2), stride=8),
        center_prob=np.zeros((2, 2, 2)),
        radius=np.zeros((2, 2, 2)),
        offset=np.zeros((2, 2, 2, 3)),
        level=0,
        scan_id="s",
    )
    # dyadic values survive the container's float32 payload exactly
    coarse.center_prob[0, 0, 0] = 0.875
    coarse.radius[0, 0, 0] = 0.5
    fine = PredictionGrid(
        spec=GridSpec(dims=(4, 4, 4), stride=4),
        center_prob=np.zeros((4, 4, 4)),
        radius=np.zeros((4, 4, 4)),
        offset=np.zeros((4, 4, 4, 3)),
        level=1,
        scan_id="s",
    )
    fine.center_prob[0, 0, 0] = 0.75
    fine.radius[0, 0, 0] = 1.0
    g1, g2 = tmp_path / "level0.grid", tmp_path / "level1.grid"
    write_grid(g1, coarse)
    write_grid(g2, fine)
    out = tmp_path / "candidates.csv"
    rc = main(["detect", "--grids", str(g1), str(g2), "--out", str(out)])
    assert rc == 0
    from spheredet import read_candidates

    loaded = read_candidates(out)
    assert list(loaded) == ["s"]
    assert len(loaded["s"]) == 1
    assert loaded["s"][0].score == 0.875
    meta = json.loads((tmp_path / "candidates.csv.meta.json").read_text())
    assert meta["scans"]["s"]["kept"] == 1
    assert meta["scans"]["s"]["dropped_nonpositive_radius"] == 7 + 63


@pytest.mark.parametrize(
    "header",
    [
        b"5",
        b'["dims"]',
        b'{"dims":[1,1,1],"stride":[4],"level":0,"dtype":"f32le"}',
        b'{"dims":[1,1,1],"stride":"4","level":0,"dtype":"f32le"}',
        b'{"dims":[1,1,1],"stride":Infinity,"level":0,"dtype":"f32le"}',
        b'{"dims":[1,1,1],"stride":4,"level":[0],"dtype":"f32le"}',
        b'{"dims":[1,1,1],"stride":4,"level":"0","dtype":"f32le"}',
    ],
)
def test_cli_detect_wrongly_typed_grid_header_fails_cleanly(tmp_path, capsys, header):
    grid = tmp_path / "bad.grid"
    grid.write_bytes(b"SCPMGRID1\n" + header + b"\n" + b"\0" * 20)
    rc = main(["detect", "--grids", str(grid), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    _assert_one_line_error(capsys, f"error: {grid}: ")


def test_cli_detect_missing_grid_fails(tmp_path, capsys):
    rc = main(
        [
            "detect",
            "--grids", str(tmp_path / "missing.grid"),
            "--out", str(tmp_path / "out.csv"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_froc_reproduces_scripted_curve(tmp_path):
    results = four_scan_fixture()
    annotation_rows = []
    candidate_rows = []
    for result in results:
        annotation_rows += [(result.scan_id, a) for a in result.annotations]
        candidate_rows += [(result.scan_id, c) for c in result.candidates]
    annotations = tmp_path / "annotations.csv"
    candidates = tmp_path / "candidates.csv"
    write_annotations(annotations, annotation_rows)
    write_candidates(candidates, candidate_rows)
    out = tmp_path / "froc.json"
    csv_out = tmp_path / "froc.csv"
    rc = main(
        [
            "froc",
            "--annotations", str(annotations),
            "--candidates", str(candidates),
            "--out", str(out),
            "--csv", str(csv_out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n_scans"] == 4
    assert payload["n_annotations"] == 5
    assert payload["n_candidates"] == 10
    got = [(p["fps_per_scan"], p["sensitivity"]) for p in payload["points"]]
    assert tuple(got) == FOUR_SCAN_EXPECTED
    assert payload["average"] == sum(s for _, s in FOUR_SCAN_EXPECTED) / 7.0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "fps_per_scan,sensitivity"
    assert lines[1] == "0.125,0.4"
    assert len(lines) == 8


def test_cli_synth_detect_froc_round_trip(tmp_path):
    data_dir = tmp_path / "data"
    rc = main(
        [
            "synth",
            "--out-dir", str(data_dir),
            "--scans", "3",
            "--nodules", "2:4",
            "--radius", "4:8",
            "--seed", "23",
        ]
    )
    assert rc == 0
    grids = sorted(str(p) for p in data_dir.glob("*.grid"))
    assert len(grids) == 3
    candidates = tmp_path / "candidates.csv"
    rc = main(["detect", "--grids", *grids, "--out", str(candidates)])
    assert rc == 0
    out = tmp_path / "froc.json"
    rc = main(
        [
            "froc",
            "--annotations", str(data_dir / "annotations.csv"),
            "--candidates", str(candidates),
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["average"] == 1.0
    assert all(p["sensitivity"] == 1.0 for p in payload["points"])


def _synth_detect(tmp_path, *synth_args):
    data_dir = tmp_path / "data"
    rc = main(["synth", "--out-dir", str(data_dir), *synth_args])
    assert rc == 0
    candidates = tmp_path / "candidates.csv"
    grids = sorted(str(p) for p in data_dir.glob("*.grid"))
    assert main(["detect", "--grids", *grids, "--out", str(candidates)]) == 0
    scan_ids = json.loads((data_dir / "metadata.json").read_text())["scan_ids"]
    return data_dir / "annotations.csv", candidates, scan_ids


def test_cli_froc_scan_list_counts_scans_without_findings(tmp_path):
    annotations, candidates, scan_ids = _synth_detect(
        tmp_path, "--scans", "8", "--nodules", "0:1", "--seed", "5"
    )
    scans = tmp_path / "scans.txt"
    scans.write_text("\n" + "\n\n".join(scan_ids) + "\n\n")
    out = tmp_path / "froc.json"
    base = ["froc", "--annotations", str(annotations), "--candidates", str(candidates)]
    assert main(base + ["--out", str(out), "--scans", str(scans)]) == 0
    listed = json.loads(out.read_text())
    assert listed["n_scans"] == 8
    # without the list only scans with a nodule or a candidate count
    assert main(base + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["n_scans"] < 8


def test_cli_froc_rejects_scan_missing_from_list(tmp_path, capsys):
    annotations, candidates, scan_ids = _synth_detect(
        tmp_path, "--scans", "3", "--nodules", "1:1", "--seed", "9"
    )
    scans = tmp_path / "scans.txt"
    scans.write_text("\n".join(scan_ids[1:]) + "\n")
    rc = main(
        [
            "froc",
            "--annotations", str(annotations),
            "--candidates", str(candidates),
            "--out", str(tmp_path / "froc.json"),
            "--scans", str(scans),
        ]
    )
    assert rc == 2
    _assert_one_line_error(capsys, f"error: {annotations}: scan {scan_ids[0]!r} is not in ")


def test_cli_froc_overflowing_coordinate_fails_cleanly(tmp_path, capsys):
    annotations = tmp_path / "annotations.csv"
    candidates = tmp_path / "candidates.csv"
    write_annotations(annotations, [("s", NoduleAnnotation("s:0", (1.0, 2.0, 3.0), 4.0))])
    write_candidates(candidates, [("s", Candidate(Sphere((1e200, 2.0, 3.0), 4.0), 0.5))])
    out = tmp_path / "froc.json"
    rc = main(
        [
            "froc",
            "--annotations", str(annotations),
            "--candidates", str(candidates),
            "--out", str(out),
        ]
    )
    assert rc == 2
    _assert_one_line_error(capsys, f"error: {candidates}:2: coordX value ")
    assert not out.exists()


def test_cli_detect_stride_overflowing_world_values_fails_cleanly(tmp_path, capsys):
    # Decoded centers near 2^520 overflow when NMS squares their distances.
    grid = PredictionGrid(
        spec=GridSpec(dims=(1, 1, 2), stride=1),
        center_prob=np.full((1, 1, 2), 0.5),
        radius=np.ones((1, 1, 2)),
        offset=np.zeros((1, 1, 2, 3)),
        level=0,
        scan_id="s",
    )
    path = tmp_path / "huge.grid"
    write_grid_with_stride(path, grid, 2**520)
    out = tmp_path / "candidates.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["detect", "--grids", str(path), "--out", str(out)])
    assert rc == 2
    _assert_one_line_error(capsys, f"error: {path}: stride ")
    assert caught == []
    assert not out.exists()


@pytest.mark.parametrize("scan_id", ["a,b", "a\nb", "a\rb"])
def test_cli_detect_rejects_scan_id_unsafe_for_csv(tmp_path, capsys, scan_id):
    grid = PredictionGrid(
        spec=GridSpec(dims=(2, 2, 2), stride=4),
        center_prob=np.full((2, 2, 2), 0.5),
        radius=np.ones((2, 2, 2)),
        offset=np.zeros((2, 2, 2, 3)),
        level=0,
        scan_id=scan_id,
    )
    path = tmp_path / "unsafe.grid"
    write_grid(path, grid)
    out = tmp_path / "candidates.csv"
    rc = main(["detect", "--grids", str(path), "--out", str(out)])
    assert rc == 2
    _assert_one_line_error(capsys, f"error: {path}: scan id ")
    assert not out.exists()


# --------------------------------------------------------------------------
# CLI: one exit path for usage errors, per-command flags, project config


def _write_froc_inputs(tmp_path):
    annotations = tmp_path / "annotations.csv"
    candidates = tmp_path / "candidates.csv"
    write_annotations(annotations, [("s", NoduleAnnotation("s:0", (1.0, 2.0, 3.0), 4.0))])
    write_candidates(candidates, [("s", Candidate(Sphere((1.0, 2.0, 3.0), 4.0), 0.5))])
    return ["--annotations", str(annotations), "--candidates", str(candidates)]


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--out-dir", "{out}", "--scans", "two"],
        ["assign", "--annotations", "a.csv", "--scan-id", "s", "--out", "{out}", "--k", "2.5"],
        ["detect", "--grids", "a.grid", "--out", "{out}", "--top-n", "x"],
        ["gradsim", "--out-dir", "{out}", "--kinds", "bogus"],
        ["detect", "--grids", "a.grid"],
        ["assign", "--annotations", "a.csv", "--out", "{out}"],
        ["froc", "{froc_inputs}", "--out", "{out}", "--k", "2"],
        ["froc", "{froc_inputs}", "--out", "{out}", "--seed", "1"],
        ["synth", "--out-dir", "{out}", "--scans", "1", "--top-n", "5"],
        ["gradsim", "--out-dir", "{out}", "--tau-dr", "0.3"],
        ["assign", "--annotations", "a.csv", "--scan-id", "s", "--out", "{out}", "--seed", "1"],
        ["detect", "--grids", "a.grid", "--out", "{out}", "--k", "2"],
        ["--seed", "1", "synth", "--out-dir", "{out}", "--scans", "1"],
        ["bogus"],
        [],
    ],
    ids=[
        "bad-int-synth", "bad-int-assign", "bad-int-detect", "unknown-kind", "missing-out",
        "missing-scan-id", "froc-k", "froc-seed", "synth-top-n", "gradsim-tau-dr",
        "assign-seed", "detect-k", "flag-before-command", "unknown-command", "no-command",
    ],
)
def test_cli_usage_error_is_one_line(tmp_path, capsys, argv):
    froc_inputs = _write_froc_inputs(tmp_path)
    before = sorted(tmp_path.iterdir())
    expanded = []
    for arg in argv:
        if arg == "{froc_inputs}":
            expanded += froc_inputs
        else:
            expanded.append(arg.format(out=tmp_path / "out"))
    assert main(expanded) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.iterdir()) == before


def test_cli_detect_and_froc_accept_a_full_project_config(tmp_path):
    config = tmp_path / "project.json"
    config.write_text(
        json.dumps(
            {
                "grid": {"dims": [12, 12, 12], "stride": 4},
                "seed": 7,
                "nms": {"tau_siou": 0.1, "tau_dr": 0.4},
                "k": 3,
                "n": 20,
                "top_n": 50,
            }
        )
    )
    data = tmp_path / "data"
    argv = ["synth", "--out-dir", str(data), "--scans", "2", "--radius", "4:6"]
    assert main(argv + ["--config", str(config)]) == 0
    grids = sorted(str(p) for p in data.glob("*.grid"))
    candidates = tmp_path / "candidates.csv"
    argv = ["detect", "--grids", *grids, "--out", str(candidates), "--config", str(config)]
    assert main(argv) == 0
    out = tmp_path / "froc.json"
    argv = ["froc", "--annotations", str(data / "annotations.csv"), "--candidates", str(candidates)]
    assert main(argv + ["--out", str(out), "--config", str(config)]) == 0
    echo = json.loads(out.read_text())["config"]
    assert echo == json.loads((tmp_path / "candidates.csv.meta.json").read_text())["config"]
    assert (echo["seed"], echo["top_n"], echo["nms"]["tau_dr"]) == (7, 50, 0.4)
    assert json.loads(out.read_text())["average"] == 1.0


def test_config_echo_keys_and_defaults_are_unchanged():
    from spheredet import HarnessConfig

    assert HarnessConfig().to_dict() == {
        "k": 7,
        "n": 100,
        "top_n": 100,
        "nms": {"tau_siou": 0.05, "tau_dr": 0.5},
        "grid": {"dims": [24, 24, 24], "stride": 4},
        "seed": 0,
    }


@pytest.mark.parametrize(
    "raw",
    [
        {"k": True},
        {"seed": False},
        {"top_n": True},
        {"nms": {"tau_siou": True}},
        {"grid": {"stride": True}},
        {"grid": {"dims": [True, 6, 6]}},
    ],
)
def test_cli_json_boolean_config_value_fails_cleanly(tmp_path, capsys, raw):
    annotations, _ = _write_assign_fixture(tmp_path)
    config = tmp_path / "bool.json"
    config.write_text(json.dumps(raw))
    rc, out = _run_assign(tmp_path, annotations, "--config", str(config))
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {config}: ")


@pytest.mark.parametrize("kind", ["nan", "text", "complex"])
def test_cli_assign_loss_map_value_errors_name_file(tmp_path, capsys, kind):
    annotations, config = _write_assign_fixture(tmp_path)
    loss_map = tmp_path / "loss.npy"
    values = np.zeros((6, 6, 6))
    values[5, 5, 5] = np.nan  # a negative cell, far from the nodule
    if kind == "complex":
        values = np.zeros((6, 6, 6), dtype=complex)
        values[5, 5, 5] = 1j
    np.save(loss_map, values.astype(str) if kind == "text" else values)
    rc, out = _run_assign(
        tmp_path, annotations, "--config", str(config), "--loss-map", str(loss_map)
    )
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {loss_map}: ")


def test_cli_assign_bad_n_is_not_blamed_on_the_loss_map(tmp_path, capsys):
    annotations, config = _write_assign_fixture(tmp_path)
    loss_map = tmp_path / "loss.npy"
    np.save(loss_map, np.zeros((6, 6, 6)))
    rc, out = _run_assign(
        tmp_path, annotations, "--config", str(config), "--loss-map", str(loss_map), "--n", "0"
    )
    assert rc == 2 and not out.exists()
    _assert_one_line_error(capsys, "error: command line: n must be >= 1, got 0")


@pytest.mark.parametrize("origin", ["flag", "file"])
@pytest.mark.parametrize(
    "command,key,low",
    [
        (["assign", "--annotations", "a.csv", "--scan-id", "s", "--out", "{out}"], "k", 1),
        (["assign", "--annotations", "a.csv", "--scan-id", "s", "--out", "{out}"], "n", 1),
        (["detect", "--grids", "a.grid", "--out", "{out}"], "top_n", 1),
        (["synth", "--out-dir", "{out}", "--scans", "1"], "seed", 0),
    ],
    ids=["k", "n", "top_n", "seed"],
)
def test_cli_count_below_range_names_key_and_origin(tmp_path, capsys, command, key, low, origin):
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in command]
    if origin == "flag":
        argv += ["--" + key.replace("_", "-"), str(low - 1)]
        where = "command line"
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: low - 1}))
        argv += ["--config", str(config)]
        where = str(config)
    assert main(argv) == 2 and not out.exists()
    _assert_one_line_error(capsys, f"error: {where}: {key} must be >= {low}, got {low - 1}\n")


def _level_zero_grid(stride):
    grid = PredictionGrid(
        spec=GridSpec(dims=(2, 2, 2), stride=stride),
        center_prob=np.zeros((2, 2, 2)),
        radius=np.zeros((2, 2, 2)),
        offset=np.zeros((2, 2, 2, 3)),
        level=0,
        scan_id="s1",
    )
    grid.center_prob[0, 0, 0] = 0.5
    grid.radius[0, 0, 0] = 1.0
    return grid


@pytest.mark.parametrize("order", ["a-first", "b-first"])
def test_cli_detect_rejects_two_grids_with_one_level_tag(tmp_path, capsys, order):
    a, b = tmp_path / "a.grid", tmp_path / "b.grid"
    write_grid(a, _level_zero_grid(4))
    write_grid(b, _level_zero_grid(5))
    first, second = (a, b) if order == "a-first" else (b, a)
    out = tmp_path / "candidates.csv"
    rc = main(["detect", "--grids", str(first), str(second), "--out", str(out)])
    assert rc == 2 and not out.exists()
    _assert_one_line_error(
        capsys, f"error: {second}: scan 's1' already has a level 0 grid ({first})\n"
    )
