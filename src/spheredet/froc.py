"""FROC evaluation: hit matching and the sensitivity/FP-rate curve.

A candidate hits an annotation when its center lies within the annotation
radius of the annotation center (the boundary counts as a hit).  Each
annotation is credited to its highest-scoring hitting candidate; further
candidates hitting an already-credited annotation are neither true nor
false positives; candidates hitting nothing are false positives.

The curve reports, at each false-positives-per-scan budget, the maximum
sensitivity over score thresholds whose FP rate stays within the budget.
Both grow as the threshold drops, so one cutoff decides each budget: the
budget admits the top ``allowed`` FP scores (every k >= 1 with k / n_scans
<= budget), the cutoff is the next FP score (-inf if none is left, and FPs
tied with it drop together), and the sensitivity counts the triggers
strictly above it.  A negative budget admits no threshold and reads 0.
"""

from __future__ import annotations

import enum
import math
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
        labelled = zip(assignment.candidates, assignment.labels)
        fp_scores += [c.score for c, label in labelled if label is HitLabel.FP]
        trigger_scores.extend(s for s in assignment.trigger_score if s is not None)

    fp_scores.sort(reverse=True)
    points: List[Tuple[float, float]] = []
    for budget in operating_points:
        allowed = 0  # FPs the budget admits: k / n_scans <= budget for k = 1..allowed
        while allowed < len(fp_scores) and (allowed + 1) / n_scans <= budget:
            allowed += 1
        # Every FP tied with the first one past the budget drops with it.
        cutoff = fp_scores[allowed] if allowed < len(fp_scores) else -math.inf
        detected = sum(score > cutoff for score in trigger_scores) if budget >= 0.0 else 0
        points.append((float(budget), detected / total_annotations))
    average = sum(s for _, s in points) / len(points)
    return FrocCurve(points=tuple(points), average=average)
