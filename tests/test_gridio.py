"""Round trips and malformed-input handling for the on-disk formats."""

import warnings

import numpy as np
import pytest

from spheredet import (
    Candidate,
    FrocCurve,
    GridSpec,
    NmsParams,
    NoduleAnnotation,
    PredictionGrid,
    Sphere,
    froc_json_payload,
    read_annotations,
    read_candidates,
    detect_candidates,
    read_grid,
    write_annotations,
    write_candidates,
    write_froc_csv,
    write_grid,
)
from helpers import write_grid_with_stride


def sample_grid(scan_id="scan-7"):
    dims = (2, 3, 4)
    rng = np.random.default_rng(42)
    # float32-representable values so the round trip is exact
    prob = rng.random(dims).astype(np.float32).astype(np.float64)
    radius = (rng.random(dims) * 3).astype(np.float32).astype(np.float64)
    offset = (rng.random(dims + (3,)) - 0.5).astype(np.float32).astype(np.float64)
    return PredictionGrid(
        spec=GridSpec(dims=dims, stride=4),
        center_prob=prob,
        radius=radius,
        offset=offset,
        level=1,
        scan_id=scan_id,
    )


# --------------------------------------------------------------------------
# grid container


def test_grid_round_trip(tmp_path):
    grid = sample_grid()
    path = tmp_path / "scan-7.grid"
    write_grid(path, grid)
    loaded = read_grid(path)
    assert loaded.spec == grid.spec
    assert loaded.level == 1
    assert loaded.scan_id == "scan-7"
    np.testing.assert_array_equal(loaded.center_prob, grid.center_prob)
    np.testing.assert_array_equal(loaded.radius, grid.radius)
    np.testing.assert_array_equal(loaded.offset, grid.offset)


def test_grid_write_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.grid", tmp_path / "b.grid"
    write_grid(a, sample_grid())
    write_grid(b, sample_grid())
    assert a.read_bytes() == b.read_bytes()


def test_grid_rewrite_of_read_grid_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.grid", tmp_path / "b.grid"
    write_grid(a, sample_grid())
    loaded = read_grid(a)
    # offset is a view of the one float32 payload array, not a copy
    assert np.shares_memory(loaded.offset, loaded.center_prob.base)
    write_grid(b, loaded)
    assert b.read_bytes() == a.read_bytes()


def test_read_grid_returns_writable_float32_views(tmp_path):
    path = tmp_path / "f32.grid"
    write_grid(path, sample_grid())
    loaded = read_grid(path)
    for arr in (loaded.center_prob, loaded.radius, loaded.offset):
        assert arr.dtype == np.float32 and arr.flags.writeable
    assert loaded.center_prob.base is loaded.offset.base
    loaded.offset[0, 0, 0, 2] = 0.25
    assert loaded.offset.base[4, 0, 0, 0] == 0.25


def test_write_grid_bytes_equal_per_block_layout(tmp_path):
    dims = (3, 4, 5)
    rng = np.random.default_rng(3)
    f32_max = float(np.finfo(np.float32).max)
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    # -0.0, values halfway between two float32 values (ties to even), and
    # float32 subnormals, including halfway ones
    subnormals = [tiny, tiny / 2, 3 * tiny / 2, float(np.finfo(np.float32).tiny) * 0.75]
    prob = rng.random(dims)
    prob.flat[:7] = [-0.0, 1.0 - 2.0**-25, 0.5 + 2.0**-25, 0.5 + 3 * 2.0**-25] + subnormals[1:]
    radius = rng.normal(0.0, 1e3, dims)
    radius.flat[:9] = [-0.0, 1.0 + 2.0**-24, -1.0 - 3 * 2.0**-24, 1.0 / 3.0] + subnormals + [-tiny]
    radius.flat[-2:] = [f32_max, -f32_max]
    # a (D, H, W, 3) view that is not C-contiguous
    offset = np.moveaxis(rng.normal(0.0, 1.0, (3,) + dims), 0, -1)
    offset[0, 0, 0] = (-f32_max, f32_max, -0.0)
    assert not offset.flags.c_contiguous
    grid = PredictionGrid(
        spec=GridSpec(dims=dims, stride=2),
        center_prob=prob,
        radius=radius,
        offset=offset,
        level=2,
        scan_id="pins",
    )
    path = tmp_path / "pins.grid"
    write_grid(path, grid)
    # the payload as five separately cast and joined blocks
    blocks = [prob, radius] + [offset[..., c] for c in range(3)]
    payload = b"".join(np.ascontiguousarray(b, dtype="<f4").tobytes() for b in blocks)
    header = b'{"dims":[3,4,5],"dtype":"f32le","level":2,"scan_id":"pins","stride":2}'
    assert path.read_bytes() == b"SCPMGRID1\n" + header + b"\n" + payload


@pytest.mark.parametrize("change", ["short", "long"])
def test_grid_rejects_payload_off_by_one_byte(tmp_path, change):
    path = tmp_path / "size.grid"
    write_grid(path, sample_grid())
    data = path.read_bytes()
    path.write_bytes(data[:-1] if change == "short" else data + b"\0")
    with pytest.raises(ValueError, match=r"size\.grid: payload is \d+ bytes"):
        read_grid(path)


def test_grid_scan_id_falls_back_to_stem(tmp_path):
    path = tmp_path / "series-0012.grid"
    write_grid(path, sample_grid(scan_id=""))
    assert read_grid(path).scan_id == "series-0012"


def test_grid_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(b"NOTAGRID\n{}\n")
    with pytest.raises(ValueError, match="bad.grid"):
        read_grid(path)


def test_grid_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.grid"
    write_grid(path, sample_grid())
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(ValueError, match="payload"):
        read_grid(path)


def test_grid_rejects_missing_header_key(tmp_path):
    path = tmp_path / "nokey.grid"
    path.write_bytes(b'SCPMGRID1\n{"dims":[1,1,1],"stride":4,"level":0}\n' + b"\0" * 20)
    with pytest.raises(ValueError, match="dtype"):
        read_grid(path)


def test_grid_rejects_unknown_dtype(tmp_path):
    path = tmp_path / "dtype.grid"
    header = b'{"dims":[1,1,1],"stride":4,"level":0,"dtype":"f64le"}'
    path.write_bytes(b"SCPMGRID1\n" + header + b"\n" + b"\0" * 20)
    with pytest.raises(ValueError, match="dtype"):
        read_grid(path)


def test_grid_rejects_garbage_header(tmp_path):
    path = tmp_path / "garbage.grid"
    path.write_bytes(b"SCPMGRID1\n{not json\n" + b"\0" * 20)
    with pytest.raises(ValueError, match="header"):
        read_grid(path)


def test_grid_rejects_bad_dims(tmp_path):
    path = tmp_path / "dims.grid"
    header = b'{"dims":[0,1],"stride":4,"level":0,"dtype":"f32le"}'
    path.write_bytes(b"SCPMGRID1\n" + header + b"\n")
    with pytest.raises(ValueError, match="dims"):
        read_grid(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"5", "not a JSON object"),
        (b'{"dims":[1,1,1],"stride":[4],"level":0,"dtype":"f32le"}', "stride"),
        (b'{"dims":[1,1,1],"stride":0.5,"level":0,"dtype":"f32le"}', "stride"),
        (b'{"dims":[1,1,1],"stride":4,"level":1.5,"dtype":"f32le"}', "level"),
        (b'{"dims":[1,1,1],"stride":"4","level":0,"dtype":"f32le"}', "stride must be a number"),
        (b'{"dims":[1,1,1],"stride":4,"level":"0","dtype":"f32le"}', "level must be a number"),
        (b'{"dims":["1",1,1],"stride":4,"level":0,"dtype":"f32le"}', "dims must be a number"),
        (b'{"dims":"111","stride":4,"level":0,"dtype":"f32le"}', "dims must have 3 entries"),
    ],
)
def test_grid_rejects_wrongly_typed_header(tmp_path, header, message):
    path = tmp_path / "typed.grid"
    path.write_bytes(b"SCPMGRID1\n" + header + b"\n" + b"\0" * 20)
    with pytest.raises(ValueError, match=f"typed.grid: .*{message}"):
        read_grid(path)


def test_grid_header_takes_integral_floats(tmp_path):
    # The same integer rule as a config file: 2.0 is the integer 2.
    path = tmp_path / "floats.grid"
    header = b'{"dims":[1.0,1,2],"stride":4.0,"level":-1.0,"dtype":"f32le"}'
    path.write_bytes(b"SCPMGRID1\n" + header + b"\n" + bytes(5 * 2 * 4))
    grid = read_grid(path)
    assert (grid.spec, grid.level) == (GridSpec(dims=(1, 1, 2), stride=4), -1)
    assert type(grid.level) is int and all(type(d) is int for d in grid.spec.dims)


def test_grid_stride_bound_keeps_decoded_squares_finite(tmp_path):
    # The largest stride read_grid takes for dims (1, 1, 2): every float32
    # offset and radius decodes to world values whose squares and cubes stay
    # finite, so NMS runs without an overflow warning.  One more is refused.
    f32max = float(np.finfo(np.float32).max)
    stride = int(1e100 / (2 + 0.5 + f32max))
    dims = (1, 1, 2)
    grid = PredictionGrid(
        spec=GridSpec(dims=dims, stride=stride),
        center_prob=np.full(dims, 0.5),
        radius=np.full(dims, f32max),
        offset=np.full(dims + (3,), f32max),
        scan_id="edge",
    )
    path = tmp_path / "edge.grid"
    write_grid(path, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = detect_candidates([read_grid(path)], 2, NmsParams())
    assert len(kept) == 1
    with pytest.raises(ValueError, match=r"^stride .* above 1e\+100"):
        GridSpec(dims=dims, stride=stride + 1)
    write_grid_with_stride(path, grid, stride + 1)
    with pytest.raises(ValueError, match=r"edge\.grid: stride .* above 1e\+100"):
        read_grid(path)


def test_grid_rejects_missing_header_line(tmp_path):
    path = tmp_path / "noheader.grid"
    path.write_bytes(b"SCPMGRID1\n")
    with pytest.raises(ValueError, match="header"):
        read_grid(path)


# --------------------------------------------------------------------------
# annotation CSV


def test_annotations_round_trip(tmp_path):
    path = tmp_path / "annotations.csv"
    rows = [
        ("s1", NoduleAnnotation(id="s1:0", center=(1.5, -2.25, 3.0), radius=4.5)),
        ("s1", NoduleAnnotation(id="s1:1", center=(10.0, 0.0, 0.0), radius=3.0)),
        ("s2", NoduleAnnotation(id="s2:0", center=(0.1, 0.2, 0.3), radius=6.0)),
    ]
    write_annotations(path, rows)
    loaded = read_annotations(path)
    assert set(loaded) == {"s1", "s2"}
    assert [a.id for a in loaded["s1"]] == ["s1:0", "s1:1"]
    assert loaded["s1"][0].center == (1.5, -2.25, 3.0)
    assert loaded["s1"][0].radius == 4.5  # diameter 9.0 halved
    assert loaded["s2"][0].radius == 6.0


def test_annotations_diameter_to_radius():
    pass  # covered by the round trip above; the file stores diameters


def test_annotations_header_line(tmp_path):
    path = tmp_path / "annotations.csv"
    write_annotations(path, [])
    assert path.read_text().splitlines()[0] == "seriesuid,coordX,coordY,coordZ,diameter_mm"


def test_annotations_malformed_float_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "seriesuid,coordX,coordY,coordZ,diameter_mm\n"
        "s1,1.0,2.0,3.0,8.0\n"
        "s1,1.0,oops,3.0,8.0\n"
    )
    with pytest.raises(ValueError, match=r"bad\.csv:3: malformed coordY"):
        read_annotations(path)


def test_annotations_wrong_column_count(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("seriesuid,coordX,coordY,coordZ,diameter_mm\ns1,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=r"cols\.csv:2: expected 5 columns"):
        read_annotations(path)


def test_annotations_reject_bad_header(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("uid,x,y,z,d\n")
    with pytest.raises(ValueError, match=r"header\.csv:1"):
        read_annotations(path)


def test_annotations_reject_empty_seriesuid(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("seriesuid,coordX,coordY,coordZ,diameter_mm\n,1.0,2.0,3.0,8.0\n")
    with pytest.raises(ValueError, match=r"empty\.csv:2: empty seriesuid"):
        read_annotations(path)


def test_annotations_reject_nonpositive_diameter(tmp_path):
    path = tmp_path / "diam.csv"
    path.write_text("seriesuid,coordX,coordY,coordZ,diameter_mm\ns1,1.0,2.0,3.0,0.0\n")
    with pytest.raises(ValueError, match=r"diam\.csv:2: diameter"):
        read_annotations(path)


def test_annotations_reject_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("seriesuid,coordX,coordY,coordZ,diameter_mm\ns1,inf,2.0,3.0,8.0\n")
    with pytest.raises(ValueError, match=r"inf\.csv:2: non-finite coordX"):
        read_annotations(path)


@pytest.mark.parametrize(
    "row, column",
    [("1e101,2.0,3.0,8.0", "coordX"), ("1.0,2.0,-1e101,8.0", "coordZ"),
     ("1.0,2.0,3.0,1e101", "diameter_mm")],
)
def test_annotations_reject_values_beyond_the_world_limit(tmp_path, row, column):
    path = tmp_path / "far.csv"
    path.write_text(f"seriesuid,coordX,coordY,coordZ,diameter_mm\ns1,{row}\n")
    with pytest.raises(ValueError, match=rf"far\.csv:2: {column} value .* exceeds 1e\+100"):
        read_annotations(path)
    path.write_text("seriesuid,coordX,coordY,coordZ,diameter_mm\ns1,1e100,-1e100,0,1e100\n")
    assert read_annotations(path)["s1"][0].radius == 5e99


def test_annotations_skip_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(
        "seriesuid,coordX,coordY,coordZ,diameter_mm\n\ns1,1.0,2.0,3.0,8.0\n\n"
    )
    loaded = read_annotations(path)
    assert [a.radius for a in loaded["s1"]] == [4.0]


# --------------------------------------------------------------------------
# candidate CSV


def test_candidates_round_trip(tmp_path):
    path = tmp_path / "candidates.csv"
    rows = [
        ("s1", Candidate(sphere=Sphere((1.25, 2.5, -3.75), 4.0), score=0.875)),
        ("s2", Candidate(sphere=Sphere((0.0, 0.0, 0.0), 1.0), score=0.0)),
    ]
    write_candidates(path, rows)
    loaded = read_candidates(path)
    assert loaded["s1"][0].sphere.center == (1.25, 2.5, -3.75)
    assert loaded["s1"][0].sphere.radius == 4.0
    assert loaded["s1"][0].score == 0.875
    assert loaded["s2"][0].score == 0.0


def test_candidates_reject_nonpositive_radius(tmp_path):
    path = tmp_path / "radius.csv"
    path.write_text(
        "seriesuid,coordX,coordY,coordZ,radius,probability\ns1,0,0,0,-1.0,0.5\n"
    )
    with pytest.raises(ValueError, match=r"radius\.csv:2: radius"):
        read_candidates(path)


def test_candidates_reject_out_of_range_probability(tmp_path):
    path = tmp_path / "prob.csv"
    path.write_text(
        "seriesuid,coordX,coordY,coordZ,radius,probability\ns1,0,0,0,2.0,1.5\n"
    )
    with pytest.raises(ValueError, match=r"prob\.csv:2: probability"):
        read_candidates(path)


def test_candidates_malformed_line_number(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text(
        "seriesuid,coordX,coordY,coordZ,radius,probability\n"
        "s1,0,0,0,2.0,0.5\n"
        "s1,0,0,0,2.0,0.5\n"
        "s1,0,0,zzz,2.0,0.5\n"
    )
    with pytest.raises(ValueError, match=r"line\.csv:4: malformed coordZ"):
        read_candidates(path)


# --------------------------------------------------------------------------
# curve outputs


def test_froc_csv_format(tmp_path):
    curve = FrocCurve(points=((0.125, 0.4), (0.25, 0.6)), average=0.5)
    path = tmp_path / "froc.csv"
    write_froc_csv(path, curve)
    assert path.read_text() == "fps_per_scan,sensitivity\n0.125,0.4\n0.25,0.6\n"


def test_froc_json_payload_shape():
    curve = FrocCurve(points=((0.125, 0.4), (8.0, 1.0)), average=0.7)
    payload = froc_json_payload(curve)
    assert payload == {
        "points": [
            {"fps_per_scan": 0.125, "sensitivity": 0.4},
            {"fps_per_scan": 8.0, "sensitivity": 1.0},
        ],
        "average": 0.7,
    }


def test_writes_replace_atomically(tmp_path):
    path = tmp_path / "annotations.csv"
    write_annotations(path, [("s1", NoduleAnnotation(id="a", center=(0, 0, 0), radius=1.0))])
    first = path.read_text()
    write_annotations(path, [("s2", NoduleAnnotation(id="b", center=(1, 1, 1), radius=2.0))])
    second = path.read_text()
    assert first != second
    assert "s2" in second and "s1" not in second
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind
