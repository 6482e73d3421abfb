"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each function named in ``PATCH_POINTS`` with a
timing wrapper on the module through which the program calls it, and
``uninstall`` puts the originals back.  A span records its name, its parent
span, start and end; a layer's self time is its span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from spheredet import cli, decode, losses, matching, montecarlo

_GRID_BLOCKS = 5
_F32_BYTES = 4


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    start: float = 0.0
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_bytes(grid) -> int:
    return _GRID_BLOCKS * _F32_BYTES * grid.spec.n_cells


def _count_write_grid(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = _grid_bytes(args[1])


def _count_read_grid(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = _grid_bytes(result)


def _count_nms(span: Span, args, kwargs, result) -> None:
    span.attrs["in"] = list(args[0])
    span.attrs["kept"] = len(result)


# (module the program calls through, attribute, span name, counter)
PATCH_POINTS = [
    (cli, "main", "cli.main", None),
    (cli, "generate_dataset", "synth.generate_dataset", None),
    (cli, "write_grid", "gridio.write_grid", _count_write_grid),
    (cli, "read_grid", "gridio.read_grid", _count_read_grid),
    (cli, "write_candidates", "gridio.write_candidates", None),
    (cli, "read_candidates", "gridio.read_candidates", None),
    (cli, "read_annotations", "gridio.read_annotations", None),
    (cli, "froc", "froc.froc", None),
    (decode, "top_n_candidates", "decode.top_n_candidates", None),
    (decode, "merge_levels", "decode.merge_levels", None),
    (decode, "nms_siou", "decode.nms_siou", _count_nms),
    (matching, "assign_labels", "matching.assign_labels", None),
    (matching, "regression_targets", "matching.regression_targets", None),
    (matching, "ohem_refine", "matching.ohem_refine", None),
    (losses, "total_loss", "losses.total_loss", None),
    (losses, "refocal_loss", "losses.refocal_loss", None),
    (montecarlo, "mc_intersection_volume", "montecarlo.mc_intersection_volume", None),
]


class Tracer:
    """Collects the spans of one op at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._originals: List[tuple] = []

    def install(self) -> None:
        for module, attr, name, count in PATCH_POINTS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(span, args, kwargs, result)
            return result

        return wrapper

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name over the recorded spans."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration - covered[id(span)]
        return totals

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


# Every per-layer metric a traced run reports, with its unit.  Times are
# self time per op in milliseconds; counts are per op.
PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "synth.generate_dataset_ms": "ms",
    "gridio.write_grid_ms": "ms",
    "gridio.write_grid_mb_per_s": "MB/s",
    "gridio.read_grid_ms": "ms",
    "gridio.read_grid_mb_per_s": "MB/s",
    "gridio.write_candidates_ms": "ms",
    "gridio.read_candidates_ms": "ms",
    "gridio.read_annotations_ms": "ms",
    "decode.top_n_candidates_ms": "ms",
    "decode.dropped_nonpositive_radius": "count",
    "decode.merge_levels_ms": "ms",
    "decode.nms_siou_ms": "ms",
    "decode.nms_candidates_in": "count",
    "decode.nms_candidates_kept": "count",
    "decode.nms_candidates_per_s": "1/s",
    "geometry.siou_pairs_per_s": "pairs/s",
    "geometry.distance_radius_ratio_pairs_per_s": "pairs/s",
    "froc.froc_ms": "ms",
    "froc.candidates_scored": "count",
    "matching.assign_labels_ms": "ms",
    "matching.regression_targets_ms": "ms",
    "matching.ohem_refine_ms": "ms",
    "matching.positive_cells": "count",
    "losses.total_loss_ms": "ms",
    "losses.refocal_loss_ms": "ms",
    "losses.sphere_loss_pairs_per_s": "pairs/s",
    "montecarlo.mc_intersection_volume_ms": "ms",
    "montecarlo.msamples_per_s": "Msamples/s",
    "montecarlo.stream_msamples_per_s": "Msamples/s",
    "montecarlo.share_of_stream": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}
