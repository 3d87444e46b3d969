"""On-disk formats. Everything is little-endian and round-trips bit-exactly.

* Color frames: binary PPM (P6), 8-bit RGB.
* Masks: binary PGM (P5), 0/255.
* Flow: magic ``PIDGFLO1``, u32 width, u32 height, then row-major f32
  (du, dv) pairs, then row-major u8 validity (1 = valid).
* Depth: 16-byte header — magic ``PIDGDEP1``, u32 width, u32 height — then
  the row-major f64 grid.
* Checkpoint: magic ``PIDGCKPT``, u32 format version, u64 JSON-manifest
  length, the manifest (config, iteration, scalar state, array directory),
  then the arrays' raw bytes in directory order, and nothing after them.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .flow import FlowField

FLOW_MAGIC = b"PIDGFLO1"
DEPTH_MAGIC = b"PIDGDEP1"
CKPT_MAGIC = b"PIDGCKPT"
CKPT_VERSION = 1

_DTYPES = {"f8": "<f8", "i8": "<i8", "u1": "|u1"}


def write_ppm(path, image: np.ndarray) -> None:
    """Float image (H, W, 3) in [0, 1] -> binary P6 file."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected (H, W, 3) image")
    u8 = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(u8.tobytes())


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """The (H, W, channels) u8 pixels of a binary PPM/PGM file. Raises
    ``ValueError`` naming the file, and the part that is bad, when the file
    has another magic, a malformed or truncated header, too few pixels or
    bytes after them."""
    kind = f"{magic.decode()} file"
    with open(path, "rb") as f:
        _read_header(f, magic, 2, path, kind)
        fields = []
        while len(fields) < 3:
            line = f.readline()
            if not line:
                raise ValueError(f"{path}: {kind} truncated in the header")
            fields += line.split(b"#")[0].split()
        if not all(x.isdigit() for x in fields[:3]):
            head = b" ".join(fields[:3]).decode(errors="replace")
            raise ValueError(f"{path}: {kind} has a malformed width, height or maxval in the header ({head!r})")
        w, h, maxval = (int(x) for x in fields[:3])
        if maxval != 255:
            raise ValueError(f"{path}: only 8-bit {kind}s are supported (maxval {maxval})")
        data = np.frombuffer(_read_exact(f, h * w * channels, path, kind, "the pixels"), dtype=np.uint8)
        _reject_trailing(f, path, "the pixels")
    return data.reshape(h, w, channels)


def read_ppm(path) -> np.ndarray:
    """Binary P6 file -> float image (H, W, 3) in [0, 1]."""
    return _read_pnm(path, b"P6", 3).astype(np.float64) / 255.0


def write_pgm(path, mask: np.ndarray) -> None:
    """Binary mask (bool or 0/255 u8) -> binary P5 file."""
    m = np.asarray(mask)
    u8 = (m.astype(bool).astype(np.uint8) * 255) if m.dtype != np.uint8 else m
    with open(path, "wb") as f:
        f.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode())
        f.write(u8.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary P5 file -> u8 mask (H, W)."""
    return _read_pnm(path, b"P5", 1)[:, :, 0]


def write_flow(path, field: FlowField) -> None:
    with open(path, "wb") as f:
        f.write(FLOW_MAGIC)
        f.write(struct.pack("<II", field.width, field.height))
        f.write(field.vectors.astype("<f4").tobytes())
        f.write(field.valid.astype(np.uint8).tobytes())


def read_flow(path) -> FlowField:
    """Raises ``ValueError`` naming the file, and the part that is short, when
    the file is not a flow file, is truncated or has bytes after the mask."""
    with open(path, "rb") as f:
        w, h = struct.unpack("<II", _read_header(f, FLOW_MAGIC, 16, path, "flow file")[8:])
        vec = np.frombuffer(_read_exact(f, w * h * 8, path, "flow file", "the vectors"), dtype="<f4")
        valid = np.frombuffer(_read_exact(f, w * h, path, "flow file", "the valid mask"), dtype=np.uint8)
        _reject_trailing(f, path, "the valid mask")
    return FlowField(vec.reshape(h, w, 2).astype(np.float64), valid.reshape(h, w) > 0)


def write_depth(path, depth: np.ndarray) -> None:
    d = np.asarray(depth, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError("expected (H, W) depth map")
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC)
        f.write(struct.pack("<II", d.shape[1], d.shape[0]))
        f.write(d.astype("<f8").tobytes())


def read_depth(path) -> np.ndarray:
    """Raises ``ValueError`` naming the file, and the part that is short, when
    the file is not a depth file, is truncated or has bytes after the grid."""
    with open(path, "rb") as f:
        w, h = struct.unpack("<II", _read_header(f, DEPTH_MAGIC, 16, path, "depth file")[8:])
        depth = np.frombuffer(_read_exact(f, w * h * 8, path, "depth file", "the depth"), dtype="<f8")
        _reject_trailing(f, path, "the depth")
    return depth.reshape(h, w).copy()


def write_cameras(path, cameras) -> None:
    with open(path, "w") as f:
        json.dump([c.to_dict() for c in cameras], f, indent=1, sort_keys=True)


def read_cameras(path):
    from .camera import Camera

    with open(path) as f:
        return [Camera.from_dict(d) for d in json.load(f)]


def _dtype_code(arr: np.ndarray) -> str:
    if arr.dtype == np.float64:
        return "f8"
    if arr.dtype == np.int64:
        return "i8"
    if arr.dtype == np.bool_:
        return "u1"
    raise ValueError(f"unsupported checkpoint dtype {arr.dtype}")


def write_checkpoint(path, config: dict, iteration: int, arrays: dict, scalars: dict) -> None:
    """Serialize named arrays + scalar state behind a JSON manifest.

    ``arrays`` maps name -> ndarray (f8/i8/bool); ``scalars`` must be
    JSON-representable. Byte output is a pure function of the inputs. The
    bytes go to a temporary file next to ``path`` that then replaces it, so
    a failed write leaves the previous file as it was.
    """
    items = [(name, np.asarray(arrays[name])) for name in sorted(arrays)]
    directory = [{"name": name, "dtype": _dtype_code(arr), "shape": list(arr.shape)} for name, arr in items]
    manifest = json.dumps(
        {"config": config, "iteration": int(iteration), "scalars": scalars, "arrays": directory},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<I", CKPT_VERSION))
            f.write(struct.pack("<Q", len(manifest)))
            f.write(manifest)
            for (_, arr), entry in zip(items, directory):
                f.write(arr.astype(_DTYPES[entry["dtype"]], copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(f, magic: bytes, size: int, path, kind: str) -> bytes:
    """The first ``size`` bytes of a file that must start with ``magic``."""
    header = f.read(size)
    if not (header.startswith(magic) or magic.startswith(header)):
        raise ValueError(f"{path}: not a {kind}")
    if len(header) < size:
        raise ValueError(f"{path}: {kind} truncated in the header ({len(header)} of {size} bytes)")
    return header


def _read_exact(f, size: int, path, kind: str, part: str) -> bytes:
    left = os.fstat(f.fileno()).st_size - f.tell()  # checked first: a corrupt size can be huge
    if size > left:
        raise ValueError(f"{path}: {kind} truncated in {part} ({left} of {size} bytes)")
    return f.read(size)


def _reject_trailing(f, path, last: str) -> None:
    if f.read(1):
        raise ValueError(f"{path}: trailing bytes after {last}")


def read_checkpoint(path):
    """Returns (config, iteration, arrays, scalars).

    Raises ``ValueError`` naming the file, and the part that is short, when
    the file is not a checkpoint, is truncated or has bytes after the last
    array.
    """
    with open(path, "rb") as f:
        header = _read_header(f, CKPT_MAGIC, 20, path, "checkpoint")
        version, mlen = struct.unpack("<IQ", header[8:])
        if version != CKPT_VERSION:
            raise ValueError(f"{path}: checkpoint format version {version} not supported "
                             f"(expected {CKPT_VERSION})")
        try:
            manifest = json.loads(_read_exact(f, mlen, path, "checkpoint", "the manifest").decode())
            entries = [(e["name"], e["dtype"], tuple(e["shape"])) for e in manifest["arrays"]]
            config, iteration, scalars = manifest["config"], manifest["iteration"], manifest["scalars"]
        except (KeyError, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: unreadable checkpoint manifest ({exc})") from exc
        arrays = {}
        for name, code, shape in entries:
            if code not in _DTYPES or not all(isinstance(n, int) and n >= 0 for n in shape):
                raise ValueError(f"{path}: array {name!r} has dtype {code!r} and shape {list(shape)}")
            dt = np.dtype(_DTYPES[code])
            raw = _read_exact(f, math.prod(shape) * dt.itemsize, path, "checkpoint", f"array {name!r}")
            arr = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
            arrays[name] = arr.astype(bool) if code == "u1" else arr
        _reject_trailing(f, path, "the last checkpoint array")
    return config, iteration, arrays, scalars


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
