"""The four workloads: their inputs, one op, the captured outputs, the checks.

Each workload makes its inputs from the benchmark seed alone and hands the
program only files written through the program's own writers (or, for the
volume oracle, plain sphere pairs).  An op goes through spheredet's public
functions or its CLI entry point, looked up on the module at call time so
that the tracer's wrappers see it.  Checks run after the timed loop against
the computations in ``reference``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import reference as ref
from spheredet import (
    FocalParams,
    GridSpec,
    NoduleAnnotation,
    PredictionGrid,
    Sphere,
    cli,
    geometry,
    gridio,
    losses,
    matching,
    montecarlo,
    synth,
)

STRIDE = 4


class Workload:
    """One workload; ``round_size`` ops make a round, the unit a run repeats."""

    name = ""
    round_size = 1

    def __init__(self, workdir: Path, seed: int) -> None:
        self.dir = Path(workdir)
        self.seed = seed
        self.rng = np.random.default_rng([seed, WORKLOAD_TAGS[self.name]])
        self._program_s = 0.0

    def _call(self, fn, *args, **kwargs):
        """Calls into the program, adding the time to the set-up total."""
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._program_s += time.perf_counter() - started

    def write_inputs(self) -> float:
        """Writes the inputs; returns the seconds spent in program calls."""
        return 0.0

    def load(self) -> None:
        """Prepares the worker process for ops (not timed)."""

    def op(self, index: int) -> Any:
        raise NotImplementedError

    def capture(self, index: int, result: Any, tamper: bool = False) -> Any:
        """Keeps what the checks need from one op's outputs."""
        raise NotImplementedError

    def check(self, index: int, captured: Any) -> Optional[str]:
        """What is wrong with one op's captured outputs, or None.

        References are computed on the first call and kept for the rest.
        """
        raise NotImplementedError

    def counts(self, captured: Any) -> Dict[str, float]:
        """Per-layer counts read from one op's outputs."""
        return {}

    def pairs(self, result: Any, spans) -> List[Tuple[Sphere, Sphere]]:
        """Sphere pairs of one op, on which the geometry rates are timed."""
        return []


def _run_cli(argv: Sequence[Any]) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"spheredet {argv[0]} exited with status {code}")


def _scan_froc_errors(
    texts: Dict[str, str], scans: Sequence[str], candidates: Sequence[tuple]
) -> List[str]:
    """FROC output against the threshold sweep over the written CSVs."""
    annotations = ref.parse_annotations(texts["annotations"])
    report = json.loads(texts["froc"])
    points = [(p["fps_per_scan"], p["sensitivity"]) for p in report["points"]]
    errors = []
    expected = ref.froc_sweep(scans, annotations, candidates)
    if points != expected:
        errors.append(f"FROC points {points} != reference sweep {expected}")
    if report["n_scans"] != len(scans):
        errors.append(f"n_scans {report['n_scans']} != {len(scans)}")
    if report["n_candidates"] != len(candidates):
        errors.append(f"n_candidates {report['n_candidates']} != {len(candidates)}")
    return errors


def _nms_pairs(spans, firsts: int) -> List[Tuple[Sphere, Sphere]]:
    """Pairs (i, j > i) among each NMS call's inputs, i below ``firsts``."""
    pairs = []
    for span in spans:
        spheres = [c.sphere for c in span.attrs["in"]]
        for i, a in enumerate(spheres[:firsts]):
            pairs += [(a, b) for b in spheres[i + 1:]]
    return pairs


# --------------------------------------------------------------------------


class ScanPipeline(Workload):
    """synth -> detect -> froc through the CLI over a batch of 64^3 scans."""

    name = "scan_pipeline"
    SCANS = 8
    DIMS = (64, 64, 64)
    NODULES = (0, 3)
    RADIUS = (4.0, 12.0)
    NOISE = 0.1
    CLUTTER = 3
    TOP_N = 100

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.config = self.dir / "config.json"
        self.data = self.dir / "data"
        self.candidates = self.dir / "candidates.csv"
        self.meta = self.dir / "candidates.csv.meta.json"
        self.froc = self.dir / "froc.json"
        self.scan_ids = [f"synth-{i:04d}" for i in range(self.SCANS)]

    def write_inputs(self) -> float:
        # FROC needs one annotation in the batch; take the first synth seed
        # from this seed on whose batch has one (0-3 nodules per scan).
        spec = synth.SyntheticSpec(
            grid=GridSpec(self.DIMS, STRIDE),
            nodules=self.NODULES,
            radius_range=self.RADIUS,
            noise=self.NOISE,
            clutter=self.CLUTTER,
        )
        synth_seed = self.seed
        while not any(r.annotations for r in synth.generate_dataset(spec, self.SCANS, synth_seed)):
            synth_seed += 1
        config = {"grid": {"dims": list(self.DIMS), "stride": STRIDE}, "seed": synth_seed}
        self._call(gridio.atomic_write_text, self.config, json.dumps(config) + "\n")
        return self._program_s

    def op(self, index: int) -> Any:
        lo, hi = self.NODULES
        r_lo, r_hi = self.RADIUS
        _run_cli([
            "synth", "--out-dir", self.data, "--scans", self.SCANS,
            "--nodules", f"{lo}:{hi}", "--radius", f"{r_lo}:{r_hi}",
            "--noise", self.NOISE, "--clutter", self.CLUTTER, "--config", self.config,
        ])
        grids = [self.data / f"{scan}.grid" for scan in self.scan_ids]
        _run_cli([
            "detect", "--grids", *grids, "--out", self.candidates, "--top-n", self.TOP_N,
            "--config", self.config,
        ])
        _run_cli([
            "froc", "--annotations", self.data / "annotations.csv",
            "--candidates", self.candidates, "--out", self.froc, "--config", self.config,
        ])

    def capture(self, index: int, result: Any, tamper: bool = False) -> Dict[str, str]:
        texts = {
            "annotations": (self.data / "annotations.csv").read_text(),
            "candidates": self.candidates.read_text(),
            "meta": self.meta.read_text(),
            "froc": self.froc.read_text(),
        }
        if tamper:  # lose the last candidate row
            texts["candidates"] = "\n".join(texts["candidates"].splitlines()[:-1]) + "\n"
        return texts

    def check(self, index: int, texts: Dict[str, str]) -> Optional[str]:
        annotations = ref.parse_annotations(texts["annotations"])
        candidates = ref.parse_candidates(texts["candidates"])
        scans = json.loads(texts["meta"])["scans"]
        errors = _scan_froc_errors(texts, self.scan_ids, candidates)
        report = json.loads(texts["froc"])
        if report["points"][-1]["sensitivity"] != 1.0:
            errors.append("sensitivity at 8 FPs/scan is below 1.0")
        for scan in self.scan_ids:
            rows = [c for c in candidates if c[0] == scan]
            nodules = annotations.get(scan, [])
            if len(rows) != len(nodules) + self.CLUTTER:
                errors.append(f"{scan}: {len(rows)} candidates for {len(nodules)} nodules")
            meta = scans.get(scan, {})
            if meta.get("kept") != len(rows) or meta.get("kept", 0) + meta.get(
                "dropped_nonpositive_radius", 0
            ) != self.TOP_N:
                errors.append(f"{scan}: detect metadata {meta} disagrees with the CSV")
            for center, radius in nodules:
                if not any(
                    ref.distance(c[1:4], center) < 1e-3 and abs(c[4] - radius) < 1e-3
                    for c in rows
                ):
                    errors.append(f"{scan}: no candidate decodes to nodule at {center}")
        return "; ".join(errors) or None

    def counts(self, captured):
        scans = json.loads(captured["meta"])["scans"].values()
        return {
            "decode.dropped_nonpositive_radius": sum(
                s["dropped_nonpositive_radius"] for s in scans
            ),
            "froc.candidates_scored": json.loads(captured["froc"])["n_candidates"],
        }

    def pairs(self, result, spans):
        return _nms_pairs(spans, firsts=self.TOP_N)


# --------------------------------------------------------------------------


class DenseDetect(Workload):
    """detect -> froc through the CLI on one scan of two dense 64^3 levels.

    Every cell has a positive radius.  Per level, the BLOB cells nearest to
    each planted nodule score in [0.75, 1) and decode close to it; all other
    cells score in [0, 0.7) at random places, so the top-n of each level is
    NODULES * BLOB clustered cells plus random background ones.
    """

    name = "dense_detect"
    DIMS = (64, 64, 64)
    LEVELS = 2
    NODULES = 8
    BLOB = 16
    TOP_N = 500
    TAU_SIOU = 0.05
    TAU_DR = 0.5
    SCAN = "dense-0000"

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.config = self.dir / "config.json"
        self.grids = [self.dir / f"level{level}.grid" for level in range(self.LEVELS)]
        self.annotations = self.dir / "annotations.csv"
        self.candidates = self.dir / "candidates.csv"
        self.meta = self.dir / "candidates.csv.meta.json"
        self.froc = self.dir / "froc.json"
        self._expected: Optional[List[tuple]] = None

    def _nodules(self) -> List[Tuple[np.ndarray, float]]:
        extent = self.DIMS[0] * STRIDE
        nodules: List[Tuple[np.ndarray, float]] = []
        while len(nodules) < self.NODULES:
            r = float(self.rng.uniform(4.0, 12.0))
            c = self.rng.uniform(r + 8.0, extent - r - 8.0, size=3)
            if all(np.linalg.norm(c - c2) >= r + r2 + 32.0 for c2, r2 in nodules):
                nodules.append((c, r))
        return nodules

    def _level(self, nodules) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        dims = self.DIMS
        prob = self.rng.uniform(0.0, 0.7, size=dims)
        radius = self.rng.uniform(0.5, 1.0, size=dims)
        offset = self.rng.uniform(-0.5, 0.5, size=dims + (3,))
        axis = (np.arange(dims[0]) + 0.5) * STRIDE
        for center, r in nodules:
            d2 = (
                (axis - center[0])[None, None, :] ** 2
                + (axis - center[1])[None, :, None] ** 2
                + (axis - center[2])[:, None, None] ** 2
            )
            near = np.argsort(d2.ravel(), kind="stable")[: self.BLOB]
            iz, iy, ix = np.unravel_index(near, dims)
            prob[iz, iy, ix] = self.rng.uniform(0.75, 1.0, size=self.BLOB)
            radius[iz, iy, ix] = r / STRIDE * self.rng.uniform(0.9, 1.1, size=self.BLOB)
            for channel, cell in enumerate((ix, iy, iz)):
                offset[iz, iy, ix, channel] = (
                    center[channel] / STRIDE - (cell + 0.5)
                    + self.rng.uniform(-0.2, 0.2, size=self.BLOB)
                )
        return prob, radius, offset

    def write_inputs(self) -> float:
        nodules = self._nodules()
        spec = GridSpec(self.DIMS, STRIDE)
        for level, path in enumerate(self.grids):
            prob, radius, offset = self._level(nodules)
            grid = PredictionGrid(spec, prob, radius, offset, level=level, scan_id=self.SCAN)
            self._call(gridio.write_grid, path, grid)
        rows = [
            (self.SCAN, NoduleAnnotation(f"{self.SCAN}:{i}", tuple(float(v) for v in c), r))
            for i, (c, r) in enumerate(nodules)
        ]
        self._call(gridio.write_annotations, self.annotations, rows)
        config = {"grid": {"dims": list(self.DIMS), "stride": STRIDE}}
        self._call(gridio.atomic_write_text, self.config, json.dumps(config) + "\n")
        return self._program_s

    def op(self, index: int) -> Any:
        _run_cli([
            "detect", "--grids", *self.grids, "--out", self.candidates,
            "--top-n", self.TOP_N, "--tau-siou", self.TAU_SIOU, "--tau-dr", self.TAU_DR,
            "--config", self.config,
        ])
        _run_cli([
            "froc", "--annotations", self.annotations, "--candidates", self.candidates,
            "--out", self.froc, "--config", self.config,
        ])

    def capture(self, index: int, result: Any, tamper: bool = False) -> Dict[str, str]:
        texts = {
            "annotations": self.annotations.read_text(),
            "candidates": self.candidates.read_text(),
            "meta": self.meta.read_text(),
            "froc": self.froc.read_text(),
        }
        if tamper:  # move the first candidate by a quarter voxel
            lines = texts["candidates"].splitlines()
            fields = lines[1].split(",")
            fields[1] = repr(float(fields[1]) + 0.25)
            lines[1] = ",".join(fields)
            texts["candidates"] = "\n".join(lines) + "\n"
        return texts

    def expected_rows(self) -> List[tuple]:
        """Plain-loop decode of every level, then greedy NMS."""
        if self._expected is None:
            merged = []
            for path in self.grids:
                header, maps = ref.parse_grid(path)
                merged += ref.decode_top_n(header, maps, self.TOP_N)
            kept = ref.greedy_nms(merged, self.TAU_SIOU, self.TAU_DR)
            self._expected = [(self.SCAN, *center, r, score) for score, _, _, center, r in kept]
        return self._expected

    def check(self, index: int, texts: Dict[str, str]) -> Optional[str]:
        rows = ref.parse_candidates(texts["candidates"])
        expected = self.expected_rows()
        errors = []
        if rows != expected:
            first = next(
                (i for i, (a, b) in enumerate(zip(rows, expected)) if a != b),
                min(len(rows), len(expected)),
            )
            errors.append(
                f"candidate CSV differs from the reference decode + NMS at row {first + 1} "
                f"({len(rows)} rows, reference {len(expected)})"
            )
        errors += _scan_froc_errors(texts, [self.SCAN], rows)
        return "; ".join(errors) or None

    counts = ScanPipeline.counts

    def pairs(self, result, spans):
        return _nms_pairs(spans, firsts=20)


# --------------------------------------------------------------------------


class TrainTargets(Workload):
    """assign_labels -> regression_targets -> total_loss -> ohem_refine over a
    batch of 24^3 crops, each with 1-3 nodules.

    The per-crop nodule counts are a shuffle of a fixed multiset, so every
    batch holds the same number of nodules.  OHEM ranks negatives by the
    predicted probability, which orders them as their focal loss does.
    """

    name = "train_targets"
    DIMS = (24, 24, 24)
    COUNTS = (1, 2, 3) * 5 + (2,)
    K = 7
    N = 100
    FOCAL = FocalParams(alpha=0.375, gamma=2.0, t=0.9, w=4.0)
    LAMBDA_S = 2.0
    BETA = 1.0 / 9.0
    TOLERANCE = 1e-9

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.spec = GridSpec(self.DIMS, STRIDE)
        self.scan_ids = [f"crop-{i:04d}" for i in range(len(self.COUNTS))]
        self.annotations = self.dir / "annotations.csv"
        self.grids = [self.dir / f"{scan}.grid" for scan in self.scan_ids]
        self.crops: List[tuple] = []
        self._expected: Optional[List[dict]] = None

    def write_inputs(self) -> float:
        extent = self.DIMS[0] * STRIDE
        rows = []
        for scan, count, path in zip(self.scan_ids, self.rng.permutation(self.COUNTS), self.grids):
            for i in range(int(count)):
                r = float(self.rng.uniform(3.0, 10.0))
                c = tuple(float(v) for v in self.rng.uniform(r + 4.0, extent - r - 4.0, size=3))
                rows.append((scan, NoduleAnnotation(f"{scan}:{i}", c, r)))
            grid = PredictionGrid(
                self.spec,
                center_prob=self.rng.uniform(0.0, 1.0, size=self.DIMS),
                radius=self.rng.uniform(0.5, 3.0, size=self.DIMS),
                offset=self.rng.uniform(-0.5, 0.5, size=self.DIMS + (3,)),
                scan_id=scan,
            )
            self._call(gridio.write_grid, path, grid)
        self._call(gridio.write_annotations, self.annotations, rows)
        return self._program_s

    def load(self) -> None:
        by_scan = gridio.read_annotations(self.annotations)
        for scan, path in zip(self.scan_ids, self.grids):
            grid = gridio.read_grid(path)
            nodules = by_scan[scan]
            gts = [Sphere(n.center, n.radius) for n in nodules]
            self.crops.append((nodules, gts, grid.center_prob, grid.radius, grid.offset))

    def op(self, index: int) -> Any:
        out = []
        for nodules, gts, prob, radius, offset in self.crops:
            assignment = matching.assign_labels(self.spec, nodules, self.K)
            assignment = matching.regression_targets(self.spec, assignment, nodules)
            breakdown = losses.total_loss(
                prob, radius, offset, assignment, gts, self.FOCAL, self.LAMBDA_S, self.BETA
            )
            refined = matching.ohem_refine(assignment, prob, self.N)
            out.append((assignment, breakdown, refined))
        return out

    def capture(self, index: int, result: Any, tamper: bool = False) -> List[dict]:
        crops = []
        for crop, (assignment, breakdown, refined) in enumerate(result):
            labels = assignment.labels
            if tamper and crop == 0:  # relabel one cell
                labels = labels.copy()
                labels.flat[0] = (labels.flat[0] + 1) % 3
            positives = np.flatnonzero(labels.ravel() == ref.POSITIVE)
            radius_t = assignment.radius_target.ravel()[positives]
            offset_t = assignment.offset_target.reshape(-1, 3)[positives]
            crops.append({
                "labels": _digest(labels),
                "matched": _digest(assignment.matched_nodule),
                "refined": _digest(refined.labels),
                "positives": positives,
                "matched_at_positives": assignment.matched_nodule.ravel()[positives],
                "radius_target": radius_t,
                "offset_target": offset_t,
                "stray_targets": (
                    np.count_nonzero(assignment.radius_target) - np.count_nonzero(radius_t)
                    + np.count_nonzero(assignment.offset_target) - np.count_nonzero(offset_t)
                ),
                "loss": (breakdown.cls, breakdown.radius, breakdown.offset,
                         breakdown.siou_pp, breakdown.total),
            })
        return crops

    def expected(self) -> List[dict]:
        """Brute-force labels, hard negatives and loss terms per crop."""
        if self._expected is None:
            self._expected = self._reference()
        return self._expected

    def _reference(self) -> List[dict]:
        by_scan = ref.parse_annotations(self.annotations.read_text())
        expected = []
        for scan, path in zip(self.scan_ids, self.grids):
            _, maps = ref.parse_grid(path)
            prob, radius, ox, oy, oz = maps
            nodules = by_scan[scan]
            labels, matched = ref.assign(self.DIMS, STRIDE, nodules, self.K)
            refined = ref.hard_negatives(labels, prob.ravel().tolist(), self.N)
            labels_arr = np.array(labels, dtype=np.int8).reshape(self.DIMS)
            d, h, w = self.DIMS
            radius_sum = offset_sum = siou_sum = 0.0
            for lin, label in enumerate(labels):
                if label != ref.POSITIVE:
                    continue
                iz, rest = divmod(lin, h * w)
                iy, ix = divmod(rest, w)
                center, r = nodules[matched[lin]]
                v = (ox[iz, iy, ix], oy[iz, iy, ix], oz[iz, iy, ix])
                target = [center[a] / STRIDE - (i + 0.5) for a, i in enumerate((ix, iy, iz))]
                pred_r = radius[iz, iy, ix]
                radius_sum += ref.radius_term(pred_r, r / STRIDE, self.BETA)
                offset_sum += math.sqrt(sum((p - t) ** 2 for p, t in zip(v, target)))
                pred_center = tuple((i + 0.5 + o) * STRIDE for i, o in zip((ix, iy, iz), v))
                siou_sum += ref.siou_pp((pred_center, pred_r * STRIDE), (center, r))
            f = self.FOCAL
            cls = ref.focal_terms(prob, labels_arr, f.alpha, f.gamma, f.t, f.w)
            expected.append({
                "nodules": nodules,
                "labels": _digest(labels_arr),
                "matched": _digest(np.array(matched, dtype=np.int32).reshape(self.DIMS)),
                "refined": _digest(np.array(refined, dtype=np.int8).reshape(self.DIMS)),
                "loss": (cls, radius_sum, offset_sum, siou_sum,
                         cls + radius_sum + offset_sum + self.LAMBDA_S * siou_sum),
            })
        return expected

    def check(self, index: int, crops: List[dict]) -> Optional[str]:
        errors = []
        for scan, got, want in zip(self.scan_ids, crops, self.expected()):
            for key in ("labels", "matched", "refined"):
                if got[key] != want[key]:
                    errors.append(f"{scan}: {key} differ from the brute-force reference")
            if got["stray_targets"]:
                errors.append(f"{scan}: targets set outside positive cells")
            if not self._targets_decode(got, want["nodules"]):
                errors.append(f"{scan}: targets do not decode to the annotations")
            for term, a, b in zip(("cls", "radius", "offset", "siou_pp", "total"),
                                  got["loss"], want["loss"]):
                if abs(a - b) > self.TOLERANCE * max(1.0, abs(b)):
                    errors.append(f"{scan}: {term} loss {a!r} != reference {b!r}")
        return "; ".join(errors) or None

    def _targets_decode(self, got: dict, nodules) -> bool:
        """Every positive's targets decode to its matched annotation within 1e-9."""
        d, h, w = self.DIMS
        for lin, match, r_t, o_t in zip(
            got["positives"], got["matched_at_positives"], got["radius_target"], got["offset_target"]
        ):
            iz, rest = divmod(int(lin), h * w)
            iy, ix = divmod(rest, w)
            center = [(i + 0.5 + o) * STRIDE for i, o in zip((ix, iy, iz), o_t)]
            c, r = nodules[match]
            if ref.distance(center, c) > self.TOLERANCE or abs(r_t * STRIDE - r) > self.TOLERANCE:
                return False
        return True

    def counts(self, captured):
        return {"matching.positive_cells": sum(len(c["positives"]) for c in captured)}

    def pairs(self, result, spans):
        """(decoded prediction, matched annotation) at every positive cell."""
        pairs = []
        for (_, gts, _, radius, offset), (assignment, _, _) in zip(self.crops, result):
            for iz, iy, ix in np.argwhere(assignment.labels == ref.POSITIVE):
                v = offset[iz, iy, ix]
                center = tuple((i + 0.5 + float(o)) * STRIDE for i, o in zip((ix, iy, iz), v))
                pred = Sphere(center, float(radius[iz, iy, ix]) * STRIDE)
                pairs.append((pred, gts[assignment.matched_nodule[iz, iy, ix]]))
        return pairs


# --------------------------------------------------------------------------


class VolumeOracle(Workload):
    """One mc_intersection_volume call at 10^7 samples per op, cycling over
    PAIRS overlapping sphere pairs drawn as the C1 acceptance test draws
    them: radii uniform in [0.5, 10), distance uniform in
    [0, 1.5 (r_a + r_b)), random direction."""

    name = "volume_oracle"
    PAIRS = 2
    round_size = PAIRS
    SAMPLES = 10_000_000
    TOLERANCE = 5e-3

    def load(self) -> None:
        self._expected: Optional[List[Tuple[float, float]]] = None
        self.spheres = []
        while len(self.spheres) < self.PAIRS:
            r_a, r_b = (float(r) for r in self.rng.uniform(0.5, 10.0, size=2))
            d = float(self.rng.uniform(0.0, 1.5 * (r_a + r_b)))
            direction = self.rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            if d >= r_a + r_b:
                continue
            a = Sphere((0.0, 0.0, 0.0), r_a)
            b = Sphere(tuple(float(v) for v in d * direction), r_b)
            self.spheres.append((a, b, int(self.rng.integers(2**32))))

    def op(self, index: int) -> float:
        a, b, seed = self.spheres[index]
        return montecarlo.mc_intersection_volume(a, b, self.SAMPLES, seed=seed)

    def capture(self, index: int, result: float, tamper: bool = False) -> float:
        return result * (1.0 + 1e-12) if tamper else result

    def check(self, index: int, estimate: float) -> Optional[str]:
        if self._expected is None:  # closed form, and a second call per pair
            self._expected = [
                (geometry.intersection_volume(a, b), self.op(i))
                for i, (a, b, _) in enumerate(self.spheres)
            ]
        exact, repeat = self._expected[index]
        if estimate != repeat:
            return f"pair {index}: estimate {estimate!r} != repeat {repeat!r}"
        if abs(estimate - exact) > self.TOLERANCE * exact:
            return f"pair {index}: estimate {estimate!r} vs exact {exact!r}"
        return None

    def pairs(self, result, spans):
        return [(a, b) for a, b, _ in self.spheres]


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


WORKLOAD_TAGS = {"scan_pipeline": 1, "dense_detect": 2, "train_targets": 3, "volume_oracle": 4}
WORKLOADS = {cls.name: cls for cls in (ScanPipeline, DenseDetect, TrainTargets, VolumeOracle)}
