"""Command-line harness: gradsim, synth, assign, detect, froc."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .config import HarnessConfig, load_config
from .decode import DecodeStats, detect_candidates
from .froc import ScanResult, froc
from .gridio import (
    atomic_write_text,
    froc_json_payload,
    read_annotations,
    read_candidates,
    read_grid,
    read_grid_header,
    read_scan_list,
    write_annotations,
    write_candidates,
    write_froc_csv,
    write_grid,
)
from .gradsim import descend, gradient_curve
from .losses import SphereLossKind
from .matching import Label, assign_labels, ohem_refine
from .synth import SyntheticSpec, generate_dataset

_KIND_NAMES = ", ".join(kind.value for kind in SphereLossKind)


# Override flags by dest: (type, help).  The two tau flags set keys of "nms".
_OVERRIDES = {
    "k": (int, "positive cells per nodule"),
    "n": (int, "negatives kept per positive"),
    "top_n": (int, "candidates kept per grid"),
    "tau_siou": (float, "overlap suppression threshold"),
    "tau_dr": (float, "separation suppression threshold"),
    "seed": (int, "master random seed"),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so ``main`` reports them in one line."""

    def error(self, message: str):
        raise ValueError(message)


def _add_config_flags(parser: argparse.ArgumentParser, *dests: str) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", type=Path, default=None, help="JSON config file")
    for dest in dests:
        kind, text = _OVERRIDES[dest]
        group.add_argument("--" + dest.replace("_", "-"), type=kind, default=None, help=text)


def _config_from_args(args: argparse.Namespace) -> HarnessConfig:
    """The config file, then whichever override flags the command defined."""
    flags = {dest: getattr(args, dest, None) for dest in _OVERRIDES}
    nms = {dest: flags.pop(dest) for dest in ("tau_siou", "tau_dr") if flags[dest] is not None}
    return load_config(args.config, nms=nms or None, **flags)


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_range(text: str, kind: type) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        return (kind(parts[0]), kind(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_kinds(text: str) -> List[SphereLossKind]:
    kinds = []
    for token in text.split(","):
        token = token.strip()
        try:
            kinds.append(SphereLossKind(token))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"unknown loss kind {token!r}; expected one of: {_KIND_NAMES}"
            ) from exc
    if not kinds:
        raise argparse.ArgumentTypeError("no loss kinds given")
    return kinds


def _cmd_gradsim(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = gradient_curve(args.kinds, start=args.start, n_points=args.points)
    lines = ["kind,d_ab,loss,dloss_dz"]
    lines += [
        f"{r.kind},{float(r.d_ab)!r},{float(r.loss)!r},{float(r.dloss_dz)!r}"
        for r in rows
    ]
    atomic_write_text(out_dir / "gradient_curve.csv", "\n".join(lines) + "\n")

    final_distances = {}
    for kind in args.kinds:
        result = descend(
            kind, start=args.start, rate=args.rate, iters=args.iters, decay=args.decay
        )
        lines = ["iter,d_ab,loss"]
        lines += [
            f"{i},{float(d)!r},{float(l)!r}"
            for i, (d, l) in enumerate(zip(result.d_history, result.loss_history))
        ]
        atomic_write_text(out_dir / f"descent_{kind.value}.csv", "\n".join(lines) + "\n")
        final_distances[kind.value] = result.final_distance

    _write_json(
        out_dir / "metadata.json",
        {
            "command": "gradsim",
            "config": config.to_dict(),
            "kinds": [kind.value for kind in args.kinds],
            "start": args.start,
            "points": args.points,
            "rate": args.rate,
            "iters": args.iters,
            "decay": args.decay,
            "final_distances": final_distances,
        },
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(
        grid=config.grid,
        nodules=args.nodules,
        radius_range=args.radius,
        noise=args.noise,
        clutter=args.clutter,
    )
    records = generate_dataset(spec, args.scans, config.seed)
    annotation_rows = []
    for record in records:
        write_grid(out_dir / f"{record.scan_id}.grid", record.grid)
        annotation_rows += [(record.scan_id, a) for a in record.annotations]
    write_annotations(out_dir / "annotations.csv", annotation_rows)
    _write_json(
        out_dir / "metadata.json",
        {
            "command": "synth",
            "config": config.to_dict(),
            "scans": args.scans,
            "nodules": list(args.nodules),
            "radius_range": list(args.radius),
            "noise": args.noise,
            "clutter": args.clutter,
            "scan_ids": [record.scan_id for record in records],
            "annotations": len(annotation_rows),
        },
    )
    return 0


def _cmd_assign(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    by_scan = read_annotations(args.annotations)
    nodules = by_scan.get(args.scan_id, [])
    assignment = assign_labels(config.grid, nodules, config.k)
    positives = int(np.sum(assignment.labels == Label.POSITIVE))
    ignored_before = int(np.sum(assignment.labels == Label.IGNORED))
    if args.loss_map is not None:
        with open(args.loss_map, "rb") as handle:
            try:
                loss_map = np.lib.format.read_array(handle)
            except ValueError as exc:  # not a .npy file (an .npz archive, empty, cut short)
                raise ValueError(f"{args.loss_map}: not a .npy array ({exc})") from None
    else:
        loss_map = np.zeros(config.grid.dims, dtype=np.float64)
    try:
        refined = ohem_refine(assignment, loss_map, config.n)
    except ValueError as exc:  # the map's shape, dtype or NaN
        if args.loss_map is None:
            raise
        raise ValueError(f"{args.loss_map}: {exc}") from None
    ignored_after = int(np.sum(refined.labels == Label.IGNORED))
    matched = refined.matched_nodule.reshape(-1)
    payload = {
        "command": "assign",
        "config": config.to_dict(),
        "scan_id": args.scan_id,
        "cells": config.grid.n_cells,
        "positives": positives,
        "ignored": ignored_before,
        "negatives_kept": int(np.sum(refined.labels == Label.NEGATIVE)),
        "negatives_demoted": ignored_after - ignored_before,
        "nodules": [
            {
                "id": nodule.id,
                "cells": [int(c) for c in np.flatnonzero(matched == index)],
            }
            for index, nodule in enumerate(nodules)
        ],
    }
    _write_json(Path(args.out), payload)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    by_scan: Dict[str, Dict[int, Path]] = {}  # scan id -> level tag -> grid
    for path in args.grids:
        header = read_grid_header(path)
        levels = by_scan.setdefault(header.scan_id, {})
        if header.level in levels:  # would tie with it on every sort key
            raise ValueError(
                f"{path}: scan {header.scan_id!r} already has a level {header.level} grid "
                f"({levels[header.level]})"
            )
        levels[header.level] = path
    rows = []
    per_scan_meta = {}
    for scan_id in sorted(by_scan):
        stats = DecodeStats()
        grids = (read_grid(path) for path in by_scan[scan_id].values())
        kept = detect_candidates(grids, top_n=config.top_n, params=config.nms, stats=stats)
        rows += [(scan_id, candidate) for candidate in kept]
        per_scan_meta[scan_id] = {
            "kept": len(kept),
            "dropped_nonpositive_radius": stats.dropped_nonpositive_radius,
        }
    out = Path(args.out)
    write_candidates(out, rows)
    _write_json(
        out.with_name(out.name + ".meta.json"),
        {"command": "detect", "config": config.to_dict(), "scans": per_scan_meta},
    )
    return 0


def _cmd_froc(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    annotations = read_annotations(args.annotations)
    candidates = read_candidates(args.candidates)
    if args.scans is None:
        scan_ids = sorted(set(annotations) | set(candidates))
    else:
        listed = set(read_scan_list(args.scans))
        for source, by_scan in ((args.annotations, annotations), (args.candidates, candidates)):
            unlisted = sorted(set(by_scan) - listed)
            if unlisted:
                raise ValueError(f"{source}: scan {unlisted[0]!r} is not in {args.scans}")
        scan_ids = sorted(listed)
    results = [
        ScanResult(
            scan_id=scan_id,
            candidates=tuple(candidates.get(scan_id, ())),
            annotations=tuple(annotations.get(scan_id, ())),
        )
        for scan_id in scan_ids
    ]
    curve = froc(results)
    payload = {
        "command": "froc",
        "config": config.to_dict(),
        "n_scans": len(results),
        "n_annotations": sum(len(r.annotations) for r in results),
        "n_candidates": sum(len(r.candidates) for r in results),
    }
    payload.update(froc_json_payload(curve))
    _write_json(Path(args.out), payload)
    if args.csv is not None:
        write_froc_csv(Path(args.csv), curve)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spheredet",
        description="Sphere-parameterized detection harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradsim", help="sample loss curves and run descent")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument(
        "--kinds",
        type=_parse_kinds,
        default=list(SphereLossKind),
        help=f"comma-separated loss kinds ({_KIND_NAMES})",
    )
    p.add_argument("--start", type=float, default=8.0, help="initial center separation")
    p.add_argument("--points", type=int, default=161, help="curve sample count")
    p.add_argument("--rate", type=float, default=0.5, help="descent learning rate")
    p.add_argument("--iters", type=int, default=5000, help="descent iterations")
    p.add_argument("--decay", type=float, default=0.998, help="per-step rate decay")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_gradsim)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--scans", type=int, required=True)
    p.add_argument(
        "--nodules",
        type=functools.partial(_parse_range, kind=int),
        default=(3, 6),
        help="inclusive nodule count range LO:HI",
    )
    p.add_argument(
        "--radius",
        type=functools.partial(_parse_range, kind=float),
        default=(4.0, 12.0),
        help="radius range LO:HI",
    )
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--clutter", type=int, default=0)
    _add_config_flags(p, "seed")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("assign", help="label grid cells for one scan")
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--scan-id", required=True)
    p.add_argument("--loss-map", type=Path, default=None, help=".npy per-cell loss")
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p, "k", "n")
    p.set_defaults(handler=_cmd_assign)

    p = sub.add_parser("detect", help="decode grids into candidates")
    p.add_argument("--grids", type=Path, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p, "top_n", "tau_siou", "tau_dr")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("froc", help="score candidates against annotations")
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--candidates", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--csv", type=Path, default=None)
    p.add_argument(
        "--scans",
        type=Path,
        default=None,
        help="seriesuid list, one per line; every listed scan counts toward FPs/scan",
    )
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_froc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, RuntimeError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
