"""One workload process: a set-up round, or a timed run with its checks.

    worker.py setup --workload NAME --seed N --dir DIR
        Imports spheredet and writes the workload's inputs into DIR; prints
        {"program_s": ...}, the seconds spent importing the package and in
        its writers.

    worker.py run --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
        Runs ops one at a time in a closed loop, in whole rounds, until S
        seconds have passed, then checks every op's outputs and prints the
        result object.  With --trace 1 every other op runs under the tracer.

Only the standard library is imported at module level, so that the set-up
round times the package import from a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple, Optional

MIN_RATE_S = 0.02  # pair loops repeat until they run this long


class Record(NamedTuple):
    """One attempted op."""

    index: int
    seconds: float
    traced: bool
    captured: Any  # None when the op raised
    error: Optional[str]
    layers: Optional[dict]  # per-layer metrics of a traced op


def setup_round(args) -> dict:
    started = time.perf_counter()
    import spheredet  # noqa: F401

    import_s = time.perf_counter() - started
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path(args.dir), args.seed)
    return {"program_s": import_s + workload.write_inputs()}


def _rate(fn, pairs) -> float:
    """Calls per second of fn over the pairs, repeated for MIN_RATE_S."""
    calls = 0
    started = time.perf_counter()
    while True:
        for a, b in pairs:
            fn(a, b)
        calls += len(pairs)
        elapsed = time.perf_counter() - started
        if elapsed >= MIN_RATE_S:
            return calls / elapsed


def _stream_msamples_per_s(samples: int) -> float:
    """Raw PCG64 fill rate of Generator.random in (samples, 3) chunks."""
    import numpy as np

    chunk = 1 << 20
    generator = np.random.Generator(np.random.PCG64(0))
    buffer = np.empty((chunk, 3))
    started = time.perf_counter()
    for _ in range(-(-samples // chunk)):
        generator.random(out=buffer)
    return samples / 1e6 / (time.perf_counter() - started)


def layer_metrics(workload, tracer, result, captured) -> dict:
    """Per-layer metrics of one traced op."""
    from spheredet import SphereLossKind, geometry, losses

    self_s = tracer.self_seconds()

    def ms(name):
        return self_s.get(name, 0.0) * 1e3

    def mb_per_s(name):
        spans = tracer.named(name)
        busy = sum(span.duration for span in spans)
        return sum(span.attrs["bytes"] for span in spans) / 1e6 / busy if busy else 0.0

    nms = tracer.named("decode.nms_siou")
    nms_in = sum(len(span.attrs["in"]) for span in nms)
    nms_s = sum(span.duration for span in nms)
    mc_s = sum(span.duration for span in tracer.named("montecarlo.mc_intersection_volume"))
    mc_calls = len(tracer.named("montecarlo.mc_intersection_volume"))
    m = {
        "cli.self_ms": ms("cli.main"),
        "synth.generate_dataset_ms": ms("synth.generate_dataset"),
        "gridio.write_grid_ms": ms("gridio.write_grid"),
        "gridio.write_grid_mb_per_s": mb_per_s("gridio.write_grid"),
        "gridio.read_grid_ms": ms("gridio.read_grid"),
        "gridio.read_grid_mb_per_s": mb_per_s("gridio.read_grid"),
        "gridio.write_candidates_ms": ms("gridio.write_candidates"),
        "gridio.read_candidates_ms": ms("gridio.read_candidates"),
        "gridio.read_annotations_ms": ms("gridio.read_annotations"),
        "decode.top_n_candidates_ms": ms("decode.top_n_candidates"),
        "decode.dropped_nonpositive_radius": 0,
        "decode.merge_levels_ms": ms("decode.merge_levels"),
        "decode.nms_siou_ms": ms("decode.nms_siou"),
        "decode.nms_candidates_in": nms_in,
        "decode.nms_candidates_kept": sum(span.attrs["kept"] for span in nms),
        "decode.nms_candidates_per_s": nms_in / nms_s if nms_s else 0.0,
        "geometry.siou_pairs_per_s": 0.0,
        "geometry.distance_radius_ratio_pairs_per_s": 0.0,
        "froc.froc_ms": ms("froc.froc"),
        "froc.candidates_scored": 0,
        "matching.assign_labels_ms": ms("matching.assign_labels"),
        "matching.regression_targets_ms": ms("matching.regression_targets"),
        "matching.ohem_refine_ms": ms("matching.ohem_refine"),
        "matching.positive_cells": 0,
        "losses.total_loss_ms": ms("losses.total_loss"),
        "losses.refocal_loss_ms": ms("losses.refocal_loss"),
        "losses.sphere_loss_pairs_per_s": 0.0,
        "montecarlo.mc_intersection_volume_ms": ms("montecarlo.mc_intersection_volume"),
        "montecarlo.msamples_per_s": 0.0,
        "montecarlo.stream_msamples_per_s": 0.0,
        "montecarlo.share_of_stream": 0.0,
    }
    m.update(workload.counts(captured))
    pairs = workload.pairs(result, nms)
    if pairs:
        m["geometry.siou_pairs_per_s"] = _rate(geometry.siou, pairs)
        m["geometry.distance_radius_ratio_pairs_per_s"] = _rate(
            geometry.distance_radius_ratio, pairs
        )
    if tracer.named("losses.total_loss"):
        m["losses.sphere_loss_pairs_per_s"] = _rate(
            lambda a, b: losses.sphere_loss(SphereLossKind.SIOU_PP, a, b), pairs
        )
    if mc_calls:
        samples = workload.SAMPLES
        m["montecarlo.msamples_per_s"] = mc_calls * samples / 1e6 / mc_s
        m["montecarlo.stream_msamples_per_s"] = _stream_msamples_per_s(samples)
        m["montecarlo.share_of_stream"] = (
            m["montecarlo.msamples_per_s"] / m["montecarlo.stream_msamples_per_s"]
        )
    return m


def _check(workload, index: int, captured) -> Optional[str]:
    try:
        return workload.check(index, captured)
    except Exception as exc:  # unreadable output fails the op, not the run
        return f"check raised {type(exc).__name__}: {exc}"


def timed_run(args) -> dict:
    import resource

    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path(args.dir), args.seed)
    workload.load()
    for index in range(workload.round_size):  # warm-up round, not counted
        try:
            workload.op(index)
        except Exception:  # the timed rounds record the failure
            pass

    tracer = Tracer()
    records = []
    started = time.perf_counter()
    while not records or time.perf_counter() - started < args.seconds:
        for index in range(workload.round_size):
            traced = args.trace == 1 and len(records) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            op_started = time.perf_counter()
            try:
                result, error = workload.op(index), None
            except Exception as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - op_started
            if traced:
                tracer.uninstall()
            captured = layers = None
            if error is None:
                captured = workload.capture(index, result, tamper=args.tamper and not records)
                if traced:
                    layers = layer_metrics(workload, tracer, result, captured)
            records.append(Record(index, seconds, traced, captured, error, layers))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.reset()

    errors = [r.error or _check(workload, r.index, r.captured) for r in records]
    wrong = sum(1 for r, e in zip(records, errors) if r.error is None and e is not None)
    for message in sorted({e for e in errors if e})[:5]:
        print(f"{args.workload}: op failed: {message}", file=sys.stderr)

    durations = [r.seconds for r in records]
    if args.trace == 0:
        # The host's speed shifts in phases of seconds; a whole-run rate
        # follows the share of time spent in each, where a median jumps.
        metrics = {
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = traced_metrics(records)
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(1 for e in errors if e is not None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_metrics(records) -> dict:
    from tracing import PER_LAYER_UNITS

    layers = [r.layers for r in records if r.layers is not None]
    metrics = {
        name: (statistics.median(m[name] for m in layers) if layers else 0.0, unit)
        for name, unit in PER_LAYER_UNITS.items()
        if not name.startswith("trace.")
    }
    traced = [r.seconds for r in records if r.traced]
    plain = [r.seconds for r in records if not r.traced]
    traced_rate = len(traced) / sum(traced) if traced else 0.0
    plain_rate = len(plain) / sum(plain)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_pct"] = (
        (plain_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0,
        "%",
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true", help="corrupt the first op's outputs")
    args = parser.parse_args()
    result = setup_round(args) if args.mode == "setup" else timed_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
