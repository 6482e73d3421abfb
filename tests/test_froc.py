"""Hit matching and the sensitivity / false-positives-per-scan curve."""

import numpy as np
import pytest

from spheredet import (
    OPERATING_POINTS,
    Candidate,
    FrocCurve,
    HitLabel,
    NoduleAnnotation,
    ScanResult,
    Sphere,
    froc,
    match_hits,
)
from helpers import FOUR_SCAN_EXPECTED, four_scan_fixture, froc_threshold_oracle


def cand(center, score, radius=4.0, cell_index=-1):
    return Candidate(sphere=Sphere(center, radius), score=score, cell_index=cell_index)


def anno(name, center, radius):
    return NoduleAnnotation(id=name, center=center, radius=radius)


def scan(scan_id, candidates, annotations):
    return ScanResult(
        scan_id=scan_id, candidates=tuple(candidates), annotations=tuple(annotations)
    )


# --------------------------------------------------------------------------
# hit matching


def test_hit_boundary_counts():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    on_edge = scan("s", [cand((5.0, 0.0, 0.0), 0.9)], [a])
    outside = scan("s", [cand((5.0 + 1e-9, 0.0, 0.0), 0.9)], [a])
    assert match_hits(on_edge).labels == (HitLabel.TP,)
    assert match_hits(outside).labels == (HitLabel.FP,)


def test_credit_goes_to_highest_scorer():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    weak = cand((1.0, 0.0, 0.0), 0.3, cell_index=0)
    strong = cand((2.0, 0.0, 0.0), 0.8, cell_index=1)
    assignment = match_hits(scan("s", [weak, strong], [a]))
    # processed in descending-score order: strong credits, weak is ignored
    assert assignment.candidates == (strong, weak)
    assert assignment.labels == (HitLabel.TP, HitLabel.IGNORED)
    assert assignment.trigger_score == (0.8,)


def test_duplicate_hits_are_neither_tp_nor_fp():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    hits = [cand((float(i), 0.0, 0.0), 0.9 - 0.1 * i, cell_index=i) for i in range(3)]
    assignment = match_hits(scan("s", hits, [a]))
    assert assignment.labels == (HitLabel.TP, HitLabel.IGNORED, HitLabel.IGNORED)


def test_one_candidate_can_credit_two_annotations():
    close_a = anno("a", (0.0, 0.0, 0.0), 5.0)
    close_b = anno("b", (4.0, 0.0, 0.0), 5.0)
    assignment = match_hits(scan("s", [cand((2.0, 0.0, 0.0), 0.7)], [close_a, close_b]))
    assert assignment.labels == (HitLabel.TP,)
    assert assignment.trigger_score == (0.7, 0.7)


def test_candidate_radius_is_irrelevant_to_hits():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    big = scan("s", [cand((10.0, 0.0, 0.0), 0.9, radius=50.0)], [a])
    assert match_hits(big).labels == (HitLabel.FP,)


def test_missed_annotation_has_no_trigger():
    a = anno("a", (0.0, 0.0, 0.0), 2.0)
    assignment = match_hits(scan("s", [cand((10.0, 0.0, 0.0), 0.9)], [a]))
    assert assignment.trigger_score == (None,)


# --------------------------------------------------------------------------
# curve


def test_four_scan_curve_matches_hand_computation():
    curve = froc(four_scan_fixture())
    assert curve.points == FOUR_SCAN_EXPECTED
    assert curve.average == sum(s for _, s in FOUR_SCAN_EXPECTED) / 7.0


def test_four_scan_curve_matches_threshold_oracle():
    results = four_scan_fixture()
    curve = froc(results)
    oracle = froc_threshold_oracle(results, OPERATING_POINTS)
    assert curve.points == tuple(oracle)


def test_curve_is_monotone_in_budget():
    curve = froc(four_scan_fixture())
    sens = [s for _, s in curve.points]
    assert sens == sorted(sens)


def test_perfect_detector_is_flat_one():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    curve = froc([scan("s", [cand((0.0, 0.0, 0.0), 1.0)], [a])])
    assert all(s == 1.0 for _, s in curve.points)
    assert curve.average == 1.0


def test_empty_candidates_give_zero_sensitivity():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    curve = froc([scan("s", [], [a])])
    assert all(s == 0.0 for _, s in curve.points)
    assert curve.average == 0.0


def test_scans_without_annotations_contribute_false_positives():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    detected = scan("s1", [cand((0.0, 0.0, 0.0), 0.6)], [a])
    # nine FPs on an annotation-free scan, every score above the trigger
    noisy = scan(
        "s2",
        [cand((100.0 + 20.0 * i, 0.0, 0.0), 0.99 - 0.01 * i, cell_index=i) for i in range(9)],
        [],
    )
    curve = froc([detected, noisy])
    # detecting the one annotation costs 9 FPs / 2 scans = 4.5 FPs per scan
    assert dict(curve.points)[4.0] == 0.0
    assert dict(curve.points)[8.0] == 1.0


def test_froc_requires_scans_and_annotations():
    with pytest.raises(ValueError):
        froc([])
    with pytest.raises(ValueError):
        froc([scan("s", [cand((0.0, 0.0, 0.0), 0.5)], [])])


def test_custom_operating_points():
    a = anno("a", (0.0, 0.0, 0.0), 5.0)
    curve = froc([scan("s", [cand((0.0, 0.0, 0.0), 0.9)], [a])], operating_points=(1.0,))
    assert curve.points == ((1.0, 1.0),)
    assert curve.average == 1.0


def test_random_curves_match_threshold_oracle():
    # Distinct scores on 1-4 scans at the standard budgets; then scores tied
    # at three values, on 3 and 7 scans, at budgets that are not dyadic.
    rng = np.random.default_rng(909)
    cases = [(None, lambda: float(rng.uniform(0.05, 0.95)), OPERATING_POINTS)] * 20
    cases += [
        (n_scans, lambda: float(rng.choice([0.25, 0.5, 0.75])), (0.1, 1 / 3, 2.5))
        for n_scans in (3, 7)
        for _ in range(10)
    ]
    for n_scans, draw_score, budgets in cases:
        results = []
        for s in range(n_scans or int(rng.integers(1, 5))):
            annotations = [
                anno(f"g{j}", tuple(float(x) for x in rng.uniform(0, 200, 3)), float(rng.uniform(3, 8)))
                for j in range(int(rng.integers(0, 4)))
            ]
            candidates = []
            for j in range(int(rng.integers(0, 8))):
                if annotations and rng.random() < 0.5:
                    target = annotations[int(rng.integers(0, len(annotations)))]
                    jitter = rng.uniform(-1.0, 1.0, 3)
                    center = tuple(float(c + d) for c, d in zip(target.center, jitter))
                else:
                    center = tuple(float(x) for x in rng.uniform(300, 600, 3))
                candidates.append(cand(center, draw_score(), cell_index=j))
            results.append(scan(f"s{s}", candidates, annotations))
        if sum(len(r.annotations) for r in results) == 0:
            continue
        curve = froc(results, operating_points=budgets)
        assert curve.points == tuple(froc_threshold_oracle(results, budgets))
