"""File formats: prediction-grid container, annotation and candidate CSVs.

Grid container layout::

    b"SCPMGRID1\\n"
    <one-line JSON header>\\n
    <raw little-endian float32 payload>

The header carries {"dims": [D, H, W], "stride": R, "level": int,
"dtype": "f32le"} plus an optional "scan_id"; the payload is five (D, H, W)
blocks in z-major order: probability map, radius map, then the three offset
channels (x, y, z).  Readers fall back to the file stem when the header has
no scan id.  The payload stays float32 in memory: ``read_grid`` returns views
of one float32 buffer, and ``PredictionGrid`` takes float32 or float64 maps,
which decode alike because widening float32 is exact and keeps order.  The
``detect`` command reads every header first (``read_grid_header``), then
holds one grid at a time.

All writers are atomic (temp file + rename) and byte-deterministic for
identical inputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .decode import Candidate, PredictionGrid
from .froc import FrocCurve
from .geometry import Sphere
from .matching import _WORLD_LIMIT, GridSpec, NoduleAnnotation, _integer

GRID_MAGIC = b"SCPMGRID1"

ANNOTATION_HEADER = "seriesuid,coordX,coordY,coordZ,diameter_mm"
CANDIDATE_HEADER = "seriesuid,coordX,coordY,coordZ,radius,probability"
FROC_HEADER = "fps_per_scan,sensitivity"


def atomic_write_bytes(path: Path, *chunks) -> None:
    """Writes the chunks in order via a same-directory temp file and atomic
    rename; a chunk is ``bytes`` or a C-contiguous array."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_grid(path: Path, grid: PredictionGrid) -> None:
    """Serializes a PredictionGrid to the binary container."""
    header: Dict[str, object] = {
        "dims": list(grid.spec.dims),
        "stride": grid.spec.stride,
        "level": grid.level,
        "dtype": "f32le",
    }
    if grid.scan_id:
        header["scan_id"] = grid.scan_id
    payload = np.empty((5,) + grid.spec.dims, dtype="<f4")
    payload[0] = grid.center_prob
    payload[1] = grid.radius
    payload[2:] = np.moveaxis(grid.offset, -1, 0)
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    atomic_write_bytes(Path(path), GRID_MAGIC + b"\n" + line + b"\n", payload)


class GridHeader(NamedTuple):
    """The fields of a grid container's header line."""

    spec: GridSpec
    level: int
    scan_id: str


def _parse_grid_header(handle: BinaryIO, path: Path) -> GridHeader:
    prefix = GRID_MAGIC + b"\n"
    if handle.read(len(prefix)) != prefix:
        raise ValueError(f"{path}: not a grid container (bad magic)")
    line = handle.readline()
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: missing header line")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, malformed, too deep or long
        raise ValueError(f"{path}: malformed header JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for key in ("dims", "stride", "level", "dtype"):
        if key not in header:
            raise ValueError(f"{path}: header missing {key!r}")
    if header["dtype"] != "f32le":
        raise ValueError(f"{path}: unsupported dtype {header['dtype']!r}")
    try:  # GridSpec checks dims and stride, including the stride's world bound
        spec = GridSpec(dims=header["dims"], stride=header["stride"])
        level = _integer(header["level"], "level", low=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    scan_id = str(header.get("scan_id") or path.stem)
    if "," in scan_id or scan_id.splitlines() != [scan_id]:  # would break the CSVs
        raise ValueError(f"{path}: scan id {scan_id!r} holds a comma or line break")
    return GridHeader(spec, level, scan_id)


def read_grid_header(path: Path) -> GridHeader:
    """Parses a grid container's header as ``read_grid`` does, without the payload."""
    path = Path(path)
    with path.open("rb") as handle:
        return _parse_grid_header(handle, path)


def read_grid(path: Path) -> PredictionGrid:
    """Parses the binary container back into a PredictionGrid.

    The payload is read into one writable float32 (5, D, H, W) array and
    stays float32; the maps are views of it.  ``offset`` is a (D, H, W, 3)
    view of the three offset blocks, not a copy, so it is not C-contiguous.

    Raises:
        ValueError: on a bad magic prefix, malformed or incomplete header,
            wrongly typed header value, unsupported dtype, payload size
            mismatch, or maps that ``PredictionGrid`` rejects.
    """
    path = Path(path)
    with path.open("rb") as handle:
        header = _parse_grid_header(handle, path)
        d, h, w = header.spec.dims
        expected = 5 * d * h * w * 4
        payload = os.fstat(handle.fileno()).st_size - handle.tell()
        if payload == expected:
            maps = np.empty((5, d, h, w), dtype="<f4")
            payload = handle.readinto(maps)  # short if the file shrank meanwhile
        if payload != expected:
            raise ValueError(f"{path}: payload is {payload} bytes, expected {expected}")
    try:
        return PredictionGrid(
            spec=header.spec,
            center_prob=maps[0],
            radius=maps[1],
            offset=np.moveaxis(maps[2:], 0, -1),
            level=header.level,
            scan_id=header.scan_id,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_float(token: str, path: Path, lineno: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ValueError(
            f"{path}:{lineno}: malformed {column} value {token!r}"
        ) from exc
    if not np.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite {column} value {token!r}")
    if abs(value) > _WORLD_LIMIT:
        raise ValueError(f"{path}:{lineno}: {column} value {token!r} exceeds {_WORLD_LIMIT:g}")
    return value


def _read_lines(path: Path) -> List[str]:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_csv_rows(path: Path, header: str) -> List[Tuple[int, List[str]]]:
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0].strip() != header:
        found = lines[0].strip() if lines else "<empty file>"
        raise ValueError(f"{path}:1: expected header {header!r}, found {found!r}")
    rows = []
    n_columns = len(header.split(","))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n_columns:
            raise ValueError(
                f"{path}:{lineno}: expected {n_columns} columns, found {len(fields)}"
            )
        rows.append((lineno, fields))
    return rows


def _read_sphere_rows(path: Path, header: str, size: str) -> Iterator[tuple]:
    """Yields (lineno, scan id, the float columns) per row of a sphere CSV:
    seriesuid, coordX, coordY, coordZ, the sphere's ``size`` (> 0), and more."""
    columns = header.split(",")[1:]
    for lineno, fields in _read_csv_rows(path, header):
        if not fields[0]:
            raise ValueError(f"{path}:{lineno}: empty seriesuid")
        values = [_parse_float(t, path, lineno, c) for t, c in zip(fields[1:], columns)]
        if values[3] <= 0.0:
            raise ValueError(f"{path}:{lineno}: {size} must be > 0, got {values[3]}")
        yield lineno, fields[0], values


def read_annotations(path: Path) -> Dict[str, List[NoduleAnnotation]]:
    """Reads an annotation CSV, converting diameters to radii.

    Returns scan id -> annotations in file order.  Annotation ids are
    "<seriesuid>:<per-scan ordinal>".
    """
    by_scan: Dict[str, List[NoduleAnnotation]] = {}
    rows = _read_sphere_rows(path, ANNOTATION_HEADER, "diameter")
    for lineno, scan_id, (x, y, z, diameter) in rows:
        items = by_scan.setdefault(scan_id, [])
        try:  # a subnormal diameter halves to a zero radius
            annotation = NoduleAnnotation(f"{scan_id}:{len(items)}", (x, y, z), diameter / 2.0)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        items.append(annotation)
    return by_scan


def write_annotations(
    path: Path, rows: Sequence[Tuple[str, NoduleAnnotation]]
) -> None:
    """Writes (scan id, annotation) pairs as an annotation CSV (diameters)."""
    lines = [ANNOTATION_HEADER]
    for scan_id, annotation in rows:
        x, y, z = annotation.center
        lines.append(
            f"{scan_id},{x!r},{y!r},{z!r},{2.0 * annotation.radius!r}"
        )
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_candidates(path: Path) -> Dict[str, List[Candidate]]:
    """Reads a candidate CSV; returns scan id -> candidates in file order."""
    by_scan: Dict[str, List[Candidate]] = {}
    rows = _read_sphere_rows(path, CANDIDATE_HEADER, "radius")
    for lineno, scan_id, (x, y, z, radius, probability) in rows:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"{path}:{lineno}: probability must lie in [0, 1], got {probability}")
        by_scan.setdefault(scan_id, []).append(
            Candidate(sphere=Sphere((x, y, z), radius), score=probability)
        )
    return by_scan


def read_scan_list(path: Path) -> List[str]:
    """Reads a scan list: one seriesuid per line, blank lines ignored."""
    return [line.strip() for line in _read_lines(Path(path)) if line.strip()]


def write_candidates(path: Path, rows: Sequence[Tuple[str, Candidate]]) -> None:
    lines = [CANDIDATE_HEADER]
    for scan_id, candidate in rows:
        x, y, z = candidate.sphere.center
        lines.append(
            f"{scan_id},{x!r},{y!r},{z!r},{candidate.sphere.radius!r},{candidate.score!r}"
        )
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_froc_csv(path: Path, curve: FrocCurve) -> None:
    lines = [FROC_HEADER]
    for fps, sensitivity in curve.points:
        lines.append(f"{fps!r},{sensitivity!r}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def froc_json_payload(curve: FrocCurve) -> Dict[str, object]:
    return {
        "points": [
            {"fps_per_scan": fps, "sensitivity": sensitivity}
            for fps, sensitivity in curve.points
        ],
        "average": curve.average,
    }
