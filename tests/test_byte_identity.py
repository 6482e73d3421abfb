"""Byte-for-byte pins on what the CLI writes.

Two runs: ``synth -> detect -> froc`` on two 16^3 scans (noise 0.1,
clutter 2), and ``detect -> froc`` on one dense float32 grid.  Every file
each run writes is pinned by its SHA-256, so a change that moves any output
by one byte fails here, and the writers' byte-determinism holds from one
change to the next, not only within one run.  A change that moves a digest
on purpose re-pins it and says why in CHANGES.md; so does a NumPy upgrade
that moves one (a changed random stream, or float32 rounding).
"""

import hashlib
import json

import numpy as np

from spheredet import GridSpec, NoduleAnnotation, PredictionGrid, write_annotations, write_grid
from spheredet.cli import main

SYNTH_DIGESTS = {
    "annotations.csv": "be4ec0de0a8174562da9dce9b0897508fb211e62ce3ded285c0ff7a6cb6513d9",
    "candidates.csv": "23240adb753440cd2cff728a7d82892a5555bfe18790ee3a8add9be80c633e7f",
    "candidates.csv.meta.json": "f2547847ae80f07d9a9f3352e317af929b6116dac8b0811ebc25e625ad57a453",
    "froc.csv": "5dca6f5441bbe25b88bbfd3d53c7c83656ab3984b15a423c109f0cc400eeeade",
    "froc.json": "760ddfa80f910a6311c502df56463cf99285de4edb76bb4b652f0e70d05777e6",
    "metadata.json": "813c2ed0e0be8d87f82854fb616aa7045d748491f607d28ae785b303204e81c1",
    "synth-0000.grid": "820ce887085add19598d3eba07247fedef7596c42022427c127a665db41c381b",
    "synth-0001.grid": "46c6f16b1b6de25a632fafa2a6db22cc58dbc139e1488fe3ae2e47c925af668a",
}

DENSE_DIGESTS = {
    "candidates.csv": "86f9e16d7a6acaf71da6e8be292ec358483074e9cf9c0a3df7a0bfc59b3f22c3",
    "candidates.csv.meta.json": "718dbc966d8a20cddc9c12bbd61d53746c571c90d02bfad47d3d7c4c9403f722",
    "froc.csv": "4a5ac8eec88b0c82f69e49d1f5aaae97466e15a8a8a46810678970cf36e904c0",
    "froc.json": "7a75c73bb646a52569217543cb51fcee1e818f37540c86cc1c9ee4f742aaf864",
}


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def _detect_and_score(directory, grids, annotations, *flags):
    candidates = directory / "candidates.csv"
    assert main(["detect", "--grids", *map(str, grids), "--out", str(candidates), *flags]) == 0
    assert main([
        "froc", "--annotations", str(annotations), "--candidates", str(candidates),
        "--out", str(directory / "froc.json"), "--csv", str(directory / "froc.csv"),
    ]) == 0


def test_synth_detect_froc_outputs_are_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"dims": [16, 16, 16], "stride": 4}}))
    out = tmp_path / "run"
    assert main([
        "synth", "--out-dir", str(out), "--scans", "2", "--nodules", "1:2", "--radius", "4:8",
        "--noise", "0.1", "--clutter", "2", "--seed", "5", "--config", str(config),
    ]) == 0
    grids = sorted(out.glob("*.grid"))
    _detect_and_score(out, grids, out / "annotations.csv", "--top-n", "50")
    assert _digests(out) == SYNTH_DIGESTS


def test_dense_float32_detect_froc_outputs_are_pinned(tmp_path):
    rng = np.random.default_rng(13)
    dims = (20, 20, 20)
    grid = PredictionGrid(
        spec=GridSpec(dims=dims, stride=4),
        center_prob=rng.uniform(0.0, 1.0, dims).astype(np.float32),
        radius=rng.uniform(0.2, 1.5, dims).astype(np.float32),
        offset=rng.uniform(-0.5, 0.5, dims + (3,)).astype(np.float32),
        scan_id="dense",
    )
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_grid(inputs / "dense.grid", grid)
    nodules = [((20.0, 20.0, 20.0), 6.0), ((50.0, 40.0, 30.0), 8.0), ((70.0, 70.0, 70.0), 5.0)]
    rows = [
        ("dense", NoduleAnnotation(f"dense:{i}", center, radius))
        for i, (center, radius) in enumerate(nodules)
    ]
    write_annotations(inputs / "annotations.csv", rows)
    out = tmp_path / "run"
    out.mkdir()
    _detect_and_score(out, [inputs / "dense.grid"], inputs / "annotations.csv", "--top-n", "300")
    assert _digests(out) == DENSE_DIGESTS
