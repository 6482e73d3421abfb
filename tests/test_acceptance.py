"""Release gate: one test per shipping criterion.

Each test here is the binding pass/fail check for one numbered criterion;
the terminal summary prints a PASS/FAIL line per criterion (see conftest).
Everything uses fixed seeds, so a green run is reproducible bit for bit.
The volume-oracle test sweeps 10^10 Monte-Carlo samples and dominates the
suite's runtime; it needs the compiled sampling backend to stay inside its
five-minute budget, in wall time and in CPU time summed over the threads.
"""

import json
import time

import numpy as np

from spheredet import (
    Candidate,
    GridSpec,
    Label,
    NmsParams,
    NoduleAnnotation,
    OPERATING_POINTS,
    PredictionGrid,
    Sphere,
    SphereLossKind,
    assign_labels,
    decode_cell,
    descend,
    froc,
    intersection_volume,
    mc_intersection_volume,
    nms_siou,
    ohem_refine,
    regression_targets,
    siou,
    sphere_loss,
    sphere_loss_gradient,
)
from spheredet.cli import main

from helpers import (
    FOUR_SCAN_EXPECTED,
    assert_gradient_close,
    brute_force_assign,
    brute_force_ohem,
    fd_gradient,
    four_scan_fixture,
    froc_threshold_oracle,
    nms_oracle,
    random_box_pair,
    random_overlap_pair,
    random_separated_pair,
)


def test_c1_sphere_volume_oracle():
    """1000 random pairs: closed form vs 10^7-sample Monte Carlo, 5e-3
    relative, inside five minutes of wall time and five minutes of process
    CPU time: the compiled kernel spreads each estimate over the usable CPUs,
    so the CPU-time bound keeps the budget of one CPU."""
    rng = np.random.default_rng(20_001)
    started, cpu_started = time.perf_counter(), time.process_time()
    worst = 0.0
    for index in range(1000):
        r_a, r_b = (float(r) for r in rng.uniform(0.5, 10.0, size=2))
        d = float(rng.uniform(0.0, 1.5 * (r_a + r_b)))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        a = Sphere((0.0, 0.0, 0.0), r_a)
        b = Sphere(tuple(d * direction), r_b)
        exact = intersection_volume(a, b)
        estimate = mc_intersection_volume(a, b, 10_000_000, seed=30_000 + index)
        if exact == 0.0:
            assert estimate == 0.0
        else:
            rel = abs(exact - estimate) / exact
            worst = max(worst, rel)
            assert rel <= 5e-3, (
                f"pair {index}: exact {exact!r} vs estimate {estimate!r} (rel {rel:g})"
            )
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    assert elapsed <= 300.0, f"volume oracle took {elapsed:.1f}s (budget 300s)"
    assert cpu <= 300.0, f"volume oracle used {cpu:.1f}s of CPU (budget 300s)"
    assert worst > 0.0  # the sweep exercised overlapping pairs


def test_c2_closed_form_spot_values():
    """Pinned closed-form values: unit pair overlap ratio and the separated
    regression-loss configuration."""
    unit = siou(Sphere((0.0, 0.0, 0.0), 1.0), Sphere((1.0, 0.0, 0.0), 1.0))
    assert abs(unit - 5.0 / 27.0) <= 1e-12
    separated = sphere_loss(
        SphereLossKind.SIOU_PP,
        Sphere((0.0, 0.0, 8.0), 1.5),
        Sphere((0.0, 0.0, 0.0), 1.5),
    )
    assert abs(separated - 8.0 / 11.0) <= 1e-12


def test_c3_gradient_suite():
    """500 finite-difference checks per loss kind, then 100 separated pairs
    where only the augmented loss keeps a nonzero center gradient."""
    for kind_index, kind in enumerate(SphereLossKind):
        rng = np.random.default_rng(40_000 + kind_index)
        draw = random_box_pair if kind is SphereLossKind.BOX_IOU else random_overlap_pair
        for index in range(500):
            pred, gt = draw(rng)
            assert_gradient_close(
                sphere_loss_gradient(kind, pred, gt),
                fd_gradient(kind, pred, gt),
                rel=1e-4,
                floor=1e-6,
                context=f"{kind.value} pair {index}",
            )
    rng = np.random.default_rng(41_000)
    for index in range(100):
        pred, gt = random_separated_pair(rng)
        for flat_kind in (SphereLossKind.SIOU, SphereLossKind.BOX_IOU):
            g = sphere_loss_gradient(flat_kind, pred, gt)
            assert (g.d_cx, g.d_cy, g.d_cz, g.d_r) == (0.0, 0.0, 0.0, 0.0)
        g = sphere_loss_gradient(SphereLossKind.SIOU_PP, pred, gt)
        assert (g.d_cx**2 + g.d_cy**2 + g.d_cz**2) > 0.0, f"pair {index}"


def test_c4_convergence_simulation():
    """Descent from 8 voxels out: the augmented loss closes to < 0.01 within
    5000 steps at rate 0.5 while the plain overlap loss never moves."""
    started = time.perf_counter()
    augmented = descend(SphereLossKind.SIOU_PP, start=8.0, rate=0.5, iters=5000)
    plain = descend(SphereLossKind.SIOU, start=8.0, rate=0.5, iters=5000)
    elapsed = time.perf_counter() - started
    assert augmented.final_distance < 0.01
    assert np.max(np.abs(plain.d_history - 8.0)) <= 1e-9
    assert elapsed < 1.0, f"descent took {elapsed:.2f}s (budget 1s)"


def test_c5_matching_oracle():
    """50 random grid/annotation configurations: label assignment plus
    hard-negative refinement equals the brute-force full-sort oracle,
    including the flat 100-cell budget when a scan has no annotations."""
    rng = np.random.default_rng(50_005)
    k, n = 7, 100
    for index in range(50):
        if index == 0:
            dims = (24, 24, 24)
        else:
            dims = tuple(int(v) for v in rng.integers(4, 13, size=3))
        stride = int(rng.integers(2, 5))
        grid = GridSpec(dims=dims, stride=stride)
        extent = (dims[2] * stride, dims[1] * stride, dims[0] * stride)
        n_nodules = 0 if index % 10 == 1 else int(rng.integers(1, 5))
        nodules = [
            NoduleAnnotation(
                id=f"n{j}",
                center=tuple(float(rng.uniform(0.0, extent[axis])) for axis in range(3)),
                radius=float(rng.uniform(1.0, 6.0)),
            )
            for j in range(n_nodules)
        ]
        assignment = assign_labels(grid, nodules, k)
        loss_map = rng.random(dims)
        refined = ohem_refine(assignment, loss_map, n)
        oracle_labels, oracle_matched = brute_force_assign(grid, nodules, k)
        oracle_labels = brute_force_ohem(oracle_labels, loss_map.ravel(), n)
        assert np.array_equal(refined.labels.ravel(), oracle_labels), f"config {index}"
        assert np.array_equal(
            refined.matched_nodule.ravel(), oracle_matched
        ), f"config {index}"


def test_c6_target_decode_round_trip():
    """Regression targets followed by cell decoding reproduce 100 random
    nodules' centers and radii to 1e-9 world voxels."""
    rng = np.random.default_rng(60_006)
    for index in range(100):
        dims = tuple(int(v) for v in rng.integers(4, 11, size=3))
        stride = int(rng.integers(1, 5))
        grid = GridSpec(dims=dims, stride=stride)
        extent = (dims[2] * stride, dims[1] * stride, dims[0] * stride)
        nodule = NoduleAnnotation(
            id="n0",
            center=tuple(float(rng.uniform(0.0, extent[axis])) for axis in range(3)),
            radius=float(rng.uniform(0.5, 3.0 * stride)),
        )
        assignment = assign_labels(grid, [nodule], k=4)
        assignment = regression_targets(grid, assignment, [nodule])
        decoded_grid = PredictionGrid(
            spec=grid,
            center_prob=np.zeros(dims),
            radius=assignment.radius_target,
            offset=assignment.offset_target,
        )
        cells = np.argwhere(assignment.labels == Label.POSITIVE)
        assert len(cells) == 4
        for iz, iy, ix in cells:
            candidate = decode_cell(decoded_grid, (int(ix), int(iy), int(iz)))
            err = max(
                abs(candidate.sphere.center[axis] - nodule.center[axis])
                for axis in range(3)
            )
            assert err <= 1e-9, f"nodule {index}: center error {err:g}"
            assert abs(candidate.sphere.radius - nodule.radius) <= 1e-9


def test_c7_nms_properties():
    """100 random candidate sets of size <= 50: suppression equals the
    quadratic oracle, is idempotent, and is permutation invariant."""
    rng = np.random.default_rng(70_007)
    params = NmsParams()
    for index in range(100):
        size = int(rng.integers(0, 51))
        candidates = [
            Candidate(
                sphere=Sphere(
                    tuple(float(x) for x in rng.uniform(0.0, 60.0, size=3)),
                    float(rng.uniform(0.5, 6.0)),
                ),
                score=float(rng.uniform(0.0, 1.0)),
                cell_index=j,
            )
            for j in range(size)
        ]
        kept = nms_siou(candidates, params)
        assert kept == nms_oracle(candidates, params), f"set {index}"
        assert nms_siou(kept, params) == kept, f"set {index} (idempotence)"
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        assert nms_siou(shuffled, params) == kept, f"set {index} (permutation)"


def test_c8_end_to_end_synthetic(tmp_path):
    """Synthetic pipeline through the command line: a clean dataset scores
    sensitivity 1.000 at all seven operating points; with clutter and noise
    the curve stays monotone and ends at or above its start."""
    started = time.perf_counter()

    def run_pipeline(name, extra_synth_args):
        data_dir = tmp_path / name
        assert (
            main(
                [
                    "synth",
                    "--out-dir", str(data_dir),
                    "--scans", "20",
                    "--radius", "4:8",
                    "--seed", "801",
                    *extra_synth_args,
                ]
            )
            == 0
        )
        candidates = tmp_path / f"{name}-candidates.csv"
        grids = sorted(str(p) for p in data_dir.glob("*.grid"))
        assert len(grids) == 20
        assert main(["detect", "--grids", *grids, "--out", str(candidates)]) == 0
        out = tmp_path / f"{name}-froc.json"
        assert (
            main(
                [
                    "froc",
                    "--annotations", str(data_dir / "annotations.csv"),
                    "--candidates", str(candidates),
                    "--out", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        return [(p["fps_per_scan"], p["sensitivity"]) for p in payload["points"]]

    clean = run_pipeline("clean", [])
    assert [fps for fps, _ in clean] == list(OPERATING_POINTS)
    assert all(s == 1.0 for _, s in clean)

    noisy = run_pipeline("noisy", ["--clutter", "5", "--noise", "0.1"])
    sensitivities = [s for _, s in noisy]
    assert sensitivities == sorted(sensitivities)
    assert sensitivities[-1] >= sensitivities[0]

    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0, f"synthetic pipeline took {elapsed:.1f}s (budget 120s)"


def test_c9_froc_oracle():
    """The scripted four-scan fixture matches the exhaustive threshold-sweep
    oracle at every operating point."""
    results = four_scan_fixture()
    curve = froc(results)
    assert curve.points == tuple(froc_threshold_oracle(results, OPERATING_POINTS))
    assert curve.points == FOUR_SCAN_EXPECTED
    assert curve.average == sum(s for _, s in FOUR_SCAN_EXPECTED) / 7.0
