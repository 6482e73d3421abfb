"""Fuzzing of every file reader: the only exception that escapes is a
ValueError whose one-line message starts with the file's ``path:`` (or
``path:line:``), and a CLI run on a rejected file exits with status 2 and one
line on stderr."""

import contextlib
import io
import json
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spheredet import (
    ANNOTATION_HEADER,
    CANDIDATE_HEADER,
    Candidate,
    NoduleAnnotation,
    Sphere,
    read_annotations,
    read_candidates,
    read_grid,
    write_annotations,
    write_candidates,
)
from spheredet.cli import main
from spheredet.gridio import read_grid_header, read_scan_list


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _rejection(reader, path):
    """The reader's error message, or None when it accepts the file."""
    try:
        reader(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:") and "\n" not in message, message
        return message
    return None


def _assert_cli_fails_with(argv, message):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main([str(a) for a in argv])
    assert rc == 2
    assert stderr.getvalue() == f"error: {message}\n"


# --------------------------------------------------------------------------
# grid containers

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.integers(), st.floats(), st.text(max_size=4)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def grid_files(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    dims = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3) | _json_values)
    header = {
        "dims": dims,
        "stride": draw(st.integers(1, 8) | _json_values),
        "level": draw(st.integers(-2, 2) | _json_values),
        "dtype": draw(st.just("f32le") | _json_values),
        "scan_id": draw(st.text(max_size=6) | _json_values),
    }
    for key in draw(st.lists(st.sampled_from(sorted(header)), max_size=2)):
        header.pop(key, None)
    line = draw(st.just(json.dumps(header).encode()) | st.binary(max_size=24))
    if isinstance(dims, list) and len(dims) == 3 and all(type(v) is int and v >= 1 for v in dims):
        n = 5 * dims[0] * dims[1] * dims[2]
        values = draw(st.lists(st.floats(width=32), min_size=n, max_size=n))
        payload = struct.pack(f"<{n}f", *values)
        cut = draw(st.integers(-5, 5))
        payload = payload[:cut] if cut < 0 else payload + bytes(cut)
    else:
        payload = draw(st.binary(max_size=40))
    prefix = draw(st.sampled_from([b"SCPMGRID1\n", b"SCPMGRID1", b"SCPMGRID2\n", b""]))
    newline = draw(st.sampled_from([b"\n", b"\n", b""]))
    return prefix + line + newline + payload


def _grid_file(header: bytes) -> bytes:
    return b"SCPMGRID1\n" + header + b"\n" + bytes(20)


@given(data=grid_files())
@example(data=_grid_file(b'{"dims":[1,1,1],"stride":1%s,"level":0,"dtype":"f32le"}' % (b"0" * 400)))
@example(data=_grid_file(b'{"dims":[1,1,1%s],"stride":4,"level":0,"dtype":"f32le"}' % (b"0" * 400)))
@example(data=_grid_file(b"[" * 100_000))
@example(data=_grid_file(b'{"dims":[1,1,1],"stride":4,"level":%s,"dtype":"f32le"}' % (b"1" * 5000)))
@example(data=_grid_file(b'{"dims":[1,1,1],"stride":4,"level":0,"dtype":"f32le","scan_id":"a,b"}'))
@example(data=_grid_file(b'{"dims":[1,1,1],"stride":4,"level":0,"dtype":"f32le","scan_id":"a\\nb"}'))
@example(data=_grid_file(b'{"dims":[1,1,1],"stride":4,"level":0,"dtype":"f32le","scan_id":"a\\rb"}'))
def test_fuzz_grid_readers_raise_only_prefixed_value_errors(fuzz_dir, data):
    path = fuzz_dir / "fuzz.grid"
    path.write_bytes(data)
    header_error = _rejection(read_grid_header, path)
    grid_error = _rejection(read_grid, path)
    if header_error is not None:
        assert grid_error == header_error
    if grid_error is None:
        header = read_grid_header(path)
        grid = read_grid(path)
        assert (header.spec, header.level, header.scan_id) == (grid.spec, grid.level, grid.scan_id)
    else:
        _assert_cli_fails_with(["detect", "--grids", path, "--out", fuzz_dir / "c.csv"], grid_error)


@pytest.mark.parametrize(
    "name,scan_id",
    [
        ("plain.grid", "a,b"),
        ("plain.grid", "a\nb"),
        ("plain.grid", "a\rb"),
        ("plain.grid", "a\u2028b"),  # str.splitlines, which the CSV readers use, breaks here
        ("plain.grid", "ab\n"),
        ("a,b.grid", None),  # the file-stem fallback
    ],
)
def test_grid_readers_reject_a_scan_id_the_csvs_cannot_hold(fuzz_dir, name, scan_id):
    header = {"dims": [1, 1, 1], "stride": 4, "level": 0, "dtype": "f32le"}
    if scan_id is not None:
        header["scan_id"] = scan_id
    path = fuzz_dir / name
    path.write_bytes(_grid_file(json.dumps(header).encode()))
    message = _rejection(read_grid_header, path)
    assert message is not None and message.startswith(f"{path}: scan id ")
    assert _rejection(read_grid, path) == message


@pytest.mark.parametrize(
    "field,value",
    [("stride", True), ("level", True), ("level", False), ("dims", [True, 1, 1])],
)
def test_grid_readers_reject_json_booleans_as_numbers(fuzz_dir, field, value):
    header = {"dims": [1, 1, 1], "stride": 4, "level": 0, "dtype": "f32le", field: value}
    path = fuzz_dir / "bool.grid"
    path.write_bytes(_grid_file(json.dumps(header).encode()))
    message = _rejection(read_grid_header, path)
    assert message is not None
    assert _rejection(read_grid, path) == message
    _assert_cli_fails_with(["detect", "--grids", path, "--out", fuzz_dir / "c.csv"], message)


# --------------------------------------------------------------------------
# CSV files and scan lists

_tokens = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "5e-324", "-0.0", "0", "1.5", " 2 ", "0x10"]),
    st.text(max_size=6),
)


@st.composite
def csv_files(draw, header):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    n_columns = len(header.split(","))
    lines = [draw(st.sampled_from([header, header, header, "", header.upper(), header + ",x"]))]
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.integers(n_columns - 1, n_columns + 1))
        scan = draw(st.sampled_from(["s1", "s2", "", " "]))
        lines.append(",".join([scan] + [draw(_tokens) for _ in range(width - 1)]))
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def good_annotations(fuzz_dir):
    path = fuzz_dir / "good_annotations.csv"
    write_annotations(path, [("s1", NoduleAnnotation("s1:0", (1.0, 2.0, 3.0), 4.0))])
    return path


@pytest.fixture(scope="module")
def good_candidates(fuzz_dir):
    path = fuzz_dir / "good_candidates.csv"
    write_candidates(path, [("s1", Candidate(Sphere((1.0, 2.0, 3.0), 4.0), 0.5))])
    return path


@given(data=csv_files(ANNOTATION_HEADER))
@example(data=f"{ANNOTATION_HEADER}\ns1,1,2,3,5e-324\n".encode())  # radius 0.0
def test_fuzz_read_annotations(fuzz_dir, data):
    path = fuzz_dir / "annotations.csv"
    path.write_bytes(data)
    error = _rejection(read_annotations, path)
    if error is not None:
        argv = ["assign", "--annotations", path, "--scan-id", "s1", "--out", fuzz_dir / "a.json"]
        _assert_cli_fails_with(argv, error)


@given(data=csv_files(CANDIDATE_HEADER))
def test_fuzz_read_candidates(fuzz_dir, good_annotations, data):
    path = fuzz_dir / "candidates.csv"
    path.write_bytes(data)
    error = _rejection(read_candidates, path)
    if error is not None:
        argv = [
            "froc", "--annotations", good_annotations, "--candidates", path,
            "--out", fuzz_dir / "froc.json",
        ]
        _assert_cli_fails_with(argv, error)


@given(data=st.binary(max_size=48) | st.text(max_size=24).map(str.encode))
def test_fuzz_read_scan_list(fuzz_dir, good_annotations, good_candidates, data):
    path = fuzz_dir / "scans.txt"
    path.write_bytes(data)
    error = _rejection(read_scan_list, path)
    if error is not None:
        argv = [
            "froc", "--annotations", good_annotations, "--candidates", good_candidates,
            "--scans", path, "--out", fuzz_dir / "froc.json",
        ]
        _assert_cli_fails_with(argv, error)
