"""File formats: round trips, byte layouts, version guards."""

import errno
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pidg.io as pio
from pidg.camera import camera_from_fov
from pidg.flow import FlowField
from pidg.io import (
    CKPT_MAGIC,
    CKPT_VERSION,
    read_cameras,
    read_checkpoint,
    read_depth,
    read_flow,
    read_pgm,
    read_ppm,
    write_cameras,
    write_checkpoint,
    write_depth,
    write_flow,
    write_pgm,
    write_ppm,
)


def test_ppm_round_trip_exact_on_quantized_values(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (6, 7, 3)).astype(np.float64) / 255.0
    p = tmp_path / "img.ppm"
    write_ppm(p, img)
    back = read_ppm(p)
    assert np.array_equal(back, img)


def test_ppm_quantization_bound(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(5, 5, 3))
    p = tmp_path / "img.ppm"
    write_ppm(p, img)
    assert np.max(np.abs(read_ppm(p) - img)) <= 0.5 / 255.0 + 1e-15


def test_ppm_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


def test_ppm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        read_ppm(p)


def test_ppm_header_with_comment(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 1 255\n" + bytes(6))
    img = read_ppm(p)
    assert img.shape == (1, 2, 3)


def test_pgm_round_trip(tmp_path):
    mask = np.array([[True, False], [False, True], [True, True]])
    p = tmp_path / "m.pgm"
    write_pgm(p, mask)
    back = read_pgm(p)
    assert np.array_equal(back > 0, mask)
    assert set(np.unique(back)) <= {0, 255}


def test_flow_round_trip_and_byte_layout(tmp_path):
    rng = np.random.default_rng(2)
    vec = rng.normal(scale=3.0, size=(4, 5, 2))
    ok = rng.uniform(size=(4, 5)) > 0.3
    field = FlowField(vec, ok)
    p = tmp_path / "f.flo"
    write_flow(p, field)

    back = read_flow(p)
    assert np.array_equal(back.valid, ok)
    assert np.max(np.abs(back.vectors - field.vectors)) < 1e-5  # f32 storage
    # f32 is exact for values that fit
    assert np.array_equal(back.vectors, field.vectors.astype("<f4").astype(np.float64))

    # independent decode of the documented layout
    raw = p.read_bytes()
    assert raw[:8] == b"PIDGFLO1"
    w, h = struct.unpack("<II", raw[8:16])
    assert (w, h) == (5, 4)
    n = w * h
    vecs = np.frombuffer(raw[16:16 + n * 8], dtype="<f4").reshape(h, w, 2)
    valid = np.frombuffer(raw[16 + n * 8:16 + n * 9], dtype=np.uint8).reshape(h, w)
    assert len(raw) == 16 + n * 9
    assert np.array_equal(vecs.astype(np.float64), back.vectors)
    assert np.array_equal(valid > 0, ok)


def test_depth_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    d = rng.normal(size=(6, 4)) ** 2
    p = tmp_path / "d.dep"
    write_depth(p, d)
    assert np.array_equal(read_depth(p), d)
    raw = p.read_bytes()
    assert raw[:8] == b"PIDGDEP1"
    assert struct.unpack("<II", raw[8:16]) == (4, 6)
    assert len(raw) == 16 + 24 * 8


def test_depth_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_depth(tmp_path / "x.dep", np.zeros((2, 2, 2)))
    p = tmp_path / "junk.dep"
    p.write_bytes(b"NOTDEPTH" + bytes(16))
    with pytest.raises(ValueError):
        read_depth(p)


def test_cameras_round_trip(tmp_path):
    cams = [camera_from_fov((np.cos(a), 0.5, np.sin(a)), (0, 0, 0), 50.0, 32, 24)
            for a in (0.0, 1.0, 2.5)]
    p = tmp_path / "cameras.json"
    write_cameras(p, cams)
    back = read_cameras(p)
    assert len(back) == 3
    for a, b in zip(cams, back):
        assert np.array_equal(a.rot, b.rot)
        assert np.array_equal(a.trans, b.trans)
        assert (a.fx, a.fy, a.cx, a.cy, a.width, a.height) == (b.fx, b.fy, b.cx, b.cy, b.width, b.height)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {
        "weights": rng.normal(size=(3, 4)),
        "ids": np.arange(5, dtype=np.int64),
        "flags": np.array([True, False, True]),
    }
    scalars = {"rng_state": "12345", "note": [1, 2]}
    config = {"lr": 0.01, "nested": {"a": 1}}
    p = tmp_path / "state.pidg"
    write_checkpoint(p, config, 42, arrays, scalars)

    cfg, it, arrs, sc = read_checkpoint(p)
    assert cfg == config and it == 42 and sc == scalars
    assert np.array_equal(arrs["weights"], arrays["weights"])
    assert arrs["weights"].dtype == np.float64
    assert np.array_equal(arrs["ids"], arrays["ids"])
    assert arrs["ids"].dtype == np.int64
    assert np.array_equal(arrs["flags"], arrays["flags"])
    assert arrs["flags"].dtype == np.bool_


def test_checkpoint_bytes_deterministic(tmp_path):
    arrays = {"b": np.ones((2, 2)), "a": np.zeros(3, dtype=np.int64)}
    p1, p2 = tmp_path / "a.pidg", tmp_path / "b.pidg"
    write_checkpoint(p1, {"x": 1}, 7, arrays, {"s": 1})
    write_checkpoint(p2, {"x": 1}, 7, dict(reversed(list(arrays.items()))), {"s": 1})
    assert p1.read_bytes() == p2.read_bytes()  # sorted array order


def test_checkpoint_version_guard(tmp_path):
    p = tmp_path / "v.pidg"
    write_checkpoint(p, {}, 0, {}, {})
    raw = bytearray(p.read_bytes())
    assert raw[:8] == CKPT_MAGIC
    raw[8:12] = struct.pack("<I", CKPT_VERSION + 1)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_checkpoint(p)
    p.write_bytes(b"NOTACKPT" + bytes(12))
    with pytest.raises(ValueError):
        read_checkpoint(p)


def test_checkpoint_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError):
        write_checkpoint(tmp_path / "x.pidg", {}, 0, {"bad": np.zeros(2, dtype=np.float32)}, {})
    # u1 stores bool; uint8 would read back as bool, so it is refused too
    with pytest.raises(ValueError, match="unsupported checkpoint dtype uint8"):
        write_checkpoint(tmp_path / "x.pidg", {}, 0, {"bad": np.array([7, 200], dtype=np.uint8)}, {})
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t.pidg"
    write_checkpoint(p, {}, 0, {"a": np.zeros(2)}, {})
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_checkpoint(p)


def test_checkpoint_truncation_names_file_and_part(tmp_path):
    p = tmp_path / "c.pidg"
    write_checkpoint(p, {}, 0, {"a": np.zeros(2), "b": np.arange(3)}, {})
    raw = p.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[12:20])
    for cut, part in ((10, "the header"), (20 + mlen // 2, "the manifest"),
                      (20 + mlen + 4, "array 'a'"), (len(raw) - 1, "array 'b'")):
        p.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=f"{p.name}: checkpoint truncated in {part}"):
            read_checkpoint(p)



def test_flow_and_depth_truncation_names_file_and_part(tmp_path):
    flow, depth = tmp_path / "f.flo", tmp_path / "d.dep"
    write_flow(flow, FlowField(np.ones((3, 4, 2)), np.ones((3, 4), dtype=bool)))
    write_depth(depth, np.ones((3, 4)))
    cases = ((flow, read_flow, "flow file", ((12, "the header"), (16 + 40, "the vectors"),
                                              (16 + 96 + 5, "the valid mask"))),
             (depth, read_depth, "depth file", ((0, "the header"), (20, "the depth"),
                                                (16 + 95, "the depth"))))
    for p, read, kind, cuts in cases:
        raw = p.read_bytes()
        for cut, part in cuts:
            p.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=f"{p.name}: {kind} truncated in {part}"):
                read(p)
        p.write_bytes(raw + b"\0\0\0")
        with pytest.raises(ValueError, match=f"{p.name}: trailing bytes"):
            read(p)


def test_ppm_and_pgm_reject_corrupt_input_naming_file_and_part(tmp_path):
    ppm, pgm = tmp_path / "i.ppm", tmp_path / "m.pgm"
    write_ppm(ppm, np.full((4, 5, 3), 0.5))
    write_pgm(pgm, np.eye(4, 5, dtype=bool))
    for p, read, kind, pixels in ((ppm, read_ppm, "P6 file", 60), (pgm, read_pgm, "P5 file", 20)):
        raw = p.read_bytes()
        header = raw[: len(raw) - pixels]
        for cut, part in ((len(raw) - 7, "the pixels"), (len(header) - 4, "the header"), (1, "the header")):
            p.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=f"{p.name}: {kind} truncated in {part}"):
                read(p)
        p.write_bytes(raw + b"\0\0\0")
        with pytest.raises(ValueError, match=f"{p.name}: trailing bytes after the pixels"):
            read(p)
        p.write_bytes(header.replace(b"5 4", b"5 x") + raw[len(header):])
        with pytest.raises(ValueError, match=f"{p.name}: {kind} has a malformed .* in the header"):
            read(p)
        p.write_bytes(header.replace(b"255", b"511") + raw[len(header):])
        with pytest.raises(ValueError, match=f"{p.name}: only 8-bit {kind}s"):
            read(p)


class _DiskFull:
    """A file that accepts ``budget`` bytes, then fails as a full disk does."""

    def __init__(self, f, budget):
        self.f, self.budget = f, budget

    def write(self, data):
        if len(data) > self.budget:
            self.f.write(data[: self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "state.pidg"
    write_checkpoint(p, {"v": 1}, 1, {"a": np.zeros(100)}, {})
    before = p.read_bytes()
    monkeypatch.setattr(pio, "open", lambda path, mode: _DiskFull(open(path, mode), 400), raising=False)
    with pytest.raises(OSError):
        write_checkpoint(p, {"v": 2}, 2, {"a": np.ones(100)}, {})
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]  # no temporary file left behind


_checkpoint_arrays = st.dictionaries(
    st.text("abcxyz._", min_size=1, max_size=6),
    st.one_of(*(hnp.arrays(dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
                for dt in (np.float64, np.int64, np.bool_))),
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(arrays=_checkpoint_arrays)
def test_checkpoint_round_trip_and_prefixes_property(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "p.pidg"
        write_checkpoint(p, {"k": 1}, 5, arrays, {"s": [1, 2]})
        raw = p.read_bytes()
        _, iteration, back, _ = read_checkpoint(p)
        assert iteration == 5 and set(back) == set(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                read_checkpoint(p)


def test_checkpoint_manifest_is_compact_json(tmp_path):
    p = tmp_path / "m.pidg"
    write_checkpoint(p, {"k": 1}, 3, {"a": np.zeros(2)}, {})
    raw = p.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[12:20])
    manifest = json.loads(raw[20:20 + mlen].decode())
    assert manifest["iteration"] == 3
    assert manifest["arrays"][0] == {"name": "a", "dtype": "f8", "shape": [2]}
