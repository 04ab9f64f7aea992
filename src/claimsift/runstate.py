"""The run-state file: a JSON manifest followed by raw little-endian arrays.

Layout: magic (8 bytes), u32 version, u64 body length, body, u32 crc32 of
everything before it. The body is a u64 manifest length, the UTF-8 JSON
manifest, then each array's bytes in manifest order, every array starting at
an 8-byte file offset (zero padding between). The manifest is
``{"arrays": [[name, dtype, shape], ...], "state": {...}}``.

Loading parses JSON and builds arrays of the dtypes in ``_DTYPES`` only
(float64, the one dtype written), so a crafted file can at worst fail to
load; it never runs code. The file is written through one handle with a
running checksum, to a temporary file in the same directory that is
flushed, fsynced and then renamed over the target, so a crash mid-write
leaves the previous file in place.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import CheckpointError

MAGIC = b"CSFTRUN\x01"
VERSION = 3
_HEAD = struct.Struct("<8sIQ")
_U64 = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_DTYPES = {"<f8": np.dtype("<f8")}
_ZEROS = bytes(8)


def _pad(offset: int) -> int:
    return -offset % 8


def write_run_state(path: str | Path, state: dict, arrays: dict) -> None:
    """Atomically write `state` (JSON-able) and `arrays` (name -> float64
    array) to `path`."""
    arrays = {name: np.ascontiguousarray(value, dtype="<f8")
              for name, value in arrays.items()}
    table = [[name, "<f8", list(value.shape)] for name, value in arrays.items()]
    manifest = json.dumps(
        {"arrays": table, "state": state}, ensure_ascii=False, separators=(",", ":"),
    ).encode("utf-8")
    offset = _HEAD.size + _U64.size + len(manifest)
    layout = []  # (padding before, array)
    for value in arrays.values():
        layout.append((_pad(offset), value))
        offset += _pad(offset) + value.nbytes
    body_len = offset - _HEAD.size
    write_checksummed(path, (
        _HEAD.pack(MAGIC, VERSION, body_len), _U64.pack(len(manifest)), manifest,
        *(chunk for padding, value in layout for chunk in (_ZEROS[:padding], value.data)),
    ))


def write_checksummed(path: str | Path, chunks: Iterable) -> None:
    """Atomically write `chunks` (bytes-like) to `path`, then the u32
    little-endian crc32 of everything written before it.

    The bytes go through one handle to a temporary file in the target's
    directory, which is flushed, fsynced and renamed over `path`; any error
    removes the temporary file and leaves the previous `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for chunk in chunks:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(_CRC.pack(crc & 0xFFFFFFFF))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_run_state(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a run-state file: (state, name -> array).

    The arrays are writable views into the one buffer the file was read
    into; nothing is copied after the read.
    """
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        got = fh.readinto(blob)
    if got != len(blob) or len(blob) < _HEAD.size + _U64.size + _CRC.size:
        raise CheckpointError("truncated run-state file")
    magic, version, body_len = _HEAD.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError("not a run-state file (bad magic)")
    if version != VERSION:
        raise CheckpointError(f"unsupported run-state version {version}")
    end = _HEAD.size + body_len
    if len(blob) != end + _CRC.size:
        raise CheckpointError("truncated run-state file")
    (stored_crc,) = _CRC.unpack_from(blob, end)
    if zlib.crc32(memoryview(blob)[:end]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError("run-state checksum mismatch")
    try:
        return _parse_body(blob, end)
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise CheckpointError(f"malformed run-state manifest: {exc}") from None


def _parse_body(blob: bytearray, end: int) -> tuple[dict, dict[str, np.ndarray]]:
    (manifest_len,) = _U64.unpack_from(blob, _HEAD.size)
    offset = _HEAD.size + _U64.size + manifest_len
    if offset > end:
        raise ValueError("manifest runs past the body")
    manifest = json.loads(blob[_HEAD.size + _U64.size:offset])
    arrays = {}
    for name, dtype, shape in manifest["arrays"]:
        dtype = _DTYPES[dtype]
        if not isinstance(name, str) or name in arrays or not all(
                type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"bad array entry {name!r}")
        offset += _pad(offset)
        count = int(np.prod(shape, dtype=object))
        if offset + count * dtype.itemsize > end:
            raise ValueError(f"array {name!r} runs past the body")
        arrays[name] = np.frombuffer(blob, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
    if offset + _pad(offset) != end:
        raise ValueError("body length does not match the arrays")
    return manifest["state"], arrays
