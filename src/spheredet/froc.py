"""FROC evaluation: hit matching and the sensitivity/FP-rate curve.

A candidate hits an annotation when its center lies within the annotation
radius of the annotation center (the boundary counts as a hit).  Each
annotation is credited to its highest-scoring hitting candidate; further
candidates hitting an already-credited annotation are neither true nor
false positives; candidates hitting nothing are false positives.

The curve reports, at each false-positives-per-scan budget, the maximum
sensitivity over score thresholds whose FP rate stays within the budget
(both sensitivity and FP rate grow as the threshold drops, so this is the
most permissive feasible threshold).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .decode import Candidate, _sort_key
from .geometry import _distance
from .matching import NoduleAnnotation

OPERATING_POINTS: Tuple[float, ...] = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


class HitLabel(enum.Enum):
    TP = "TP"
    FP = "FP"
    IGNORED = "ignored"


@dataclass(frozen=True)
class ScanResult:
    """Candidates and ground-truth annotations for one scan."""

    scan_id: str
    candidates: Tuple[Candidate, ...]
    annotations: Tuple[NoduleAnnotation, ...]


@dataclass(frozen=True)
class HitAssignment:
    """Outcome of hit matching for one scan.

    ``candidates``/``labels`` are parallel, in descending-score order;
    ``trigger_score`` holds the credited candidate's score per annotation
    (None when missed).
    """

    candidates: Tuple[Candidate, ...]
    labels: Tuple[HitLabel, ...]
    trigger_score: Tuple[Optional[float], ...]


@dataclass(frozen=True)
class FrocCurve:
    """(FPs-per-scan, sensitivity) operating points and their mean."""

    points: Tuple[Tuple[float, float], ...]
    average: float


def _hits(candidate: Candidate, annotation: NoduleAnnotation) -> bool:
    return _distance(candidate.sphere.center, annotation.center) <= annotation.radius


def match_hits(result: ScanResult) -> HitAssignment:
    """Labels each candidate TP/FP/ignored and credits annotations.

    Candidates are processed in descending-score order (ties by producing
    cell index, then level), so the first hitter of an annotation is its
    highest-scoring one.
    """
    ordered = sorted(result.candidates, key=_sort_key)
    trigger: List[Optional[float]] = [None] * len(result.annotations)
    labels: List[HitLabel] = []
    for candidate in ordered:
        hit_any = False
        credited = False
        for gi, annotation in enumerate(result.annotations):
            if _hits(candidate, annotation):
                hit_any = True
                if trigger[gi] is None:
                    trigger[gi] = candidate.score
                    credited = True
        if credited:
            labels.append(HitLabel.TP)
        elif hit_any:
            labels.append(HitLabel.IGNORED)
        else:
            labels.append(HitLabel.FP)
    return HitAssignment(
        candidates=tuple(ordered),
        labels=tuple(labels),
        trigger_score=tuple(trigger),
    )


def froc(
    results: Sequence[ScanResult],
    operating_points: Sequence[float] = OPERATING_POINTS,
) -> FrocCurve:
    """Computes the FROC curve over a set of scans.

    Raises:
        ValueError: if there are no scans or no annotations at all
            (sensitivity would be undefined).
    """
    if not results:
        raise ValueError("froc requires at least one scan")
    total_annotations = sum(len(r.annotations) for r in results)
    if total_annotations == 0:
        raise ValueError("froc requires at least one annotation across all scans")
    n_scans = len(results)
    fp_scores: List[float] = []
    trigger_scores: List[float] = []
    for result in results:
        assignment = match_hits(result)
        for candidate, label in zip(assignment.candidates, assignment.labels):
            if label is HitLabel.FP:
                fp_scores.append(candidate.score)
        trigger_scores.extend(s for s in assignment.trigger_score if s is not None)

    # Sweep thresholds over the distinct event scores, descending; counts are
    # "score >= threshold".  Both counters are nondecreasing along the walk,
    # so for each budget the last feasible prefix carries the answer.
    breakpoints = sorted(set(fp_scores) | set(trigger_scores), reverse=True)
    fp_sorted = sorted(fp_scores, reverse=True)
    trig_sorted = sorted(trigger_scores, reverse=True)
    sweep: List[Tuple[float, float]] = []  # (fps_per_scan, sensitivity)
    fp_i = 0
    trig_i = 0
    for theta in breakpoints:
        while fp_i < len(fp_sorted) and fp_sorted[fp_i] >= theta:
            fp_i += 1
        while trig_i < len(trig_sorted) and trig_sorted[trig_i] >= theta:
            trig_i += 1
        sweep.append((fp_i / n_scans, trig_i / total_annotations))

    points: List[Tuple[float, float]] = []
    for budget in operating_points:
        best = 0.0  # the empty threshold (+inf) is always feasible
        for fps, sensitivity in sweep:
            if fps > budget:
                break
            best = sensitivity
        points.append((float(budget), best))
    average = sum(s for _, s in points) / len(points)
    return FrocCurve(points=tuple(points), average=average)
