"""The run-state file: a JSON manifest followed by raw little-endian arrays.

Layout: magic (8 bytes), u32 version, u64 body length, body, u32 crc32 of
everything before it. The body is a u64 manifest length, the UTF-8 JSON
manifest, then each array's bytes in manifest order, every array starting at
an 8-byte file offset (zero padding between). The manifest is
``{"arrays": [[name, dtype, shape], ...], "state": {...}}``.

Loading parses JSON and builds arrays of the dtypes in ``_DTYPES`` only
(float64, the one dtype written), so a crafted file can at worst fail to
load; it never runs code. The file is written through one handle to a
temporary file in the same directory that is flushed, fsynced and then
renamed over the target, so a crash mid-write leaves the previous file in
place.

The one crc32 is computed as the bytes pass. For a file of at least
`THREAD_CUTOVER` bytes a worker thread computes it while the caller does
the I/O: a write hands each buffer to the worker as it writes it, and a
read fills each array in slices of `READ_SLICE` bytes and hands each slice
on as it lands (`zlib.crc32` releases the GIL on large buffers, so the two
run on two cores). A smaller file keeps an inline running checksum, where
starting a thread costs more than it hides. Either way the bytes and the
crc are the same.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading
import zlib
from collections import deque
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import CheckpointError

MAGIC = b"CSFTRUN\x01"
VERSION = 6
_HEAD = struct.Struct("<8sIQ")
_U64 = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_DTYPES = {"<f8": np.dtype("<f8")}
_ZEROS = bytes(8)
# Files from this size up are checksummed on a worker thread. On a 2-core
# x86-64 machine the thread made 1 MiB reads and writes slower, broke even
# about 2 MiB and saved 15-20% from 3 MiB up.
THREAD_CUTOVER = 2 << 20
READ_SLICE = 2 << 20


def _pad(offset: int) -> int:
    return -offset % 8


def write_run_state(path: str | Path, state: dict, arrays: dict) -> None:
    """Atomically write `state` (JSON-able) and `arrays` (name -> float64
    array) to `path`.

    The bytes go through one handle of `atomic_write`, checksummed as they
    pass (see the module docstring).
    """
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
    chunks = (
        _HEAD.pack(MAGIC, VERSION, offset - _HEAD.size), _U64.pack(len(manifest)),
        manifest,
        *(chunk for padding, value in layout for chunk in (_ZEROS[:padding], value.data)),
    )
    with atomic_write(path) as fh, _Crc32(offset + _CRC.size) as crc:
        for chunk in chunks:
            crc.add(chunk)
            fh.write(chunk)
        fh.write(_CRC.pack(crc.value()))


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle on a temporary file in `path`'s directory. When the
    block ends, the file is flushed, fsynced, closed and renamed over
    `path`; an error in the block or in those steps removes the temporary
    file and leaves the previous `path` as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_run_state(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a run-state file: (state, name -> array).

    The file is read front to back, checksummed as it lands (see the module
    docstring). Each array is read into an allocation of its own, made only
    once every shape in the manifest has been checked against the file
    size. A body that does not hold together is still read to its end, so
    that damage is reported as a checksum mismatch and only an intact file
    as malformed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEAD.size + _U64.size + _CRC.size:
            raise CheckpointError("truncated run-state file")
        with _Crc32(size) as crc:
            reader = _Reader(fh, crc)
            magic, version, body_len = _HEAD.unpack(reader.read(_HEAD.size))
            if magic != MAGIC:
                raise CheckpointError("not a run-state file (bad magic)")
            if version != VERSION:
                raise CheckpointError(f"unsupported run-state version {version}")
            end = _HEAD.size + body_len
            if size != end + _CRC.size:
                raise CheckpointError("truncated run-state file")
            try:
                result, problem = _read_body(reader, end), None
            except (ValueError, TypeError, KeyError, RecursionError) as exc:
                result, problem = None, exc
            while reader.offset < end:
                reader.read(min(end - reader.offset, READ_SLICE))
            stored = fh.read(_CRC.size)
            checksum = crc.value()
    if len(stored) != _CRC.size:
        raise CheckpointError("truncated run-state file")
    if checksum != _CRC.unpack(stored)[0]:
        raise CheckpointError("run-state checksum mismatch")
    if problem is not None:
        raise CheckpointError(f"malformed run-state manifest: {problem}") from None
    return result


class _Crc32:
    """The crc32 of the buffers passed to `add`, in order, for a stream of
    `size` bytes. From `THREAD_CUTOVER` bytes up a worker thread computes
    it, and a buffer must then stay unchanged until `value` returns.
    Leaving the `with` block stops the worker, on success or on error."""

    def __init__(self, size: int):
        self._crc = 0
        self._error: BaseException | None = None
        self._thread = None
        if size >= THREAD_CUTOVER:
            self._pending: deque = deque()
            self._ready = threading.Semaphore(0)
            self._thread = threading.Thread(target=self._work, daemon=True,
                                            name="run-state crc32")
            self._thread.start()

    def __enter__(self) -> "_Crc32":
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def add(self, data) -> None:
        if self._thread is None:
            self._crc = zlib.crc32(data, self._crc)
            return
        self._pending.append(data)
        self._ready.release()

    def value(self) -> int:
        """The crc32 of all that was added; raises what the worker raised."""
        self._stop()
        if self._error is not None:
            raise self._error
        return self._crc

    def _stop(self) -> None:
        if self._thread is not None:
            self._pending.append(None)
            self._ready.release()
            self._thread.join()
            self._thread = None

    def _work(self) -> None:
        while True:
            self._ready.acquire()
            data = self._pending.popleft()
            if data is None:
                return
            if self._error is None:
                try:
                    self._crc = zlib.crc32(data, self._crc)
                except BaseException as exc:  # raised again in the caller
                    self._error = exc


class _Reader:
    """Reads a file front to back, keeping the offset and passing every
    byte read to a `_Crc32`."""

    def __init__(self, fh, crc: _Crc32):
        self._fh = fh
        self._crc = crc
        self.offset = 0

    def read(self, n: int) -> bytes:
        data = self._fh.read(n)
        self._add(data, n)
        return data

    def read_into(self, array: np.ndarray) -> None:
        """Fill `array` in slices of `READ_SLICE` bytes, each checksummed
        as it lands while the next one is read."""
        flat = array.reshape(-1).view(np.uint8)
        for start in range(0, flat.size, READ_SLICE):
            part = flat[start:start + READ_SLICE]
            self._add(part, self._fh.readinto(part))

    def _add(self, data, n: int) -> None:
        """Count `data`, which the read made `n` bytes long unless the file
        ended early."""
        if n != memoryview(data).nbytes:
            raise CheckpointError("truncated run-state file")
        self._crc.add(data)
        self.offset += n


def _read_body(reader: _Reader, end: int) -> tuple[dict, dict[str, np.ndarray]]:
    (manifest_len,) = _U64.unpack(reader.read(_U64.size))
    offset = reader.offset + manifest_len
    if offset > end:
        raise ValueError("manifest runs past the body")
    manifest = json.loads(reader.read(manifest_len))
    layout = {}  # name -> (padding before, dtype, shape), all checked first
    for name, dtype, shape in manifest["arrays"]:
        dtype = _DTYPES[dtype]
        if not isinstance(name, str) or name in layout or not all(
                type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"bad array entry {name!r}")
        padding = _pad(offset)
        offset += padding + math.prod(shape) * dtype.itemsize
        if offset > end:
            raise ValueError(f"array {name!r} runs past the body")
        layout[name] = (padding, dtype, shape)
    if offset + _pad(offset) != end:
        raise ValueError("body length does not match the arrays")
    arrays = {}
    for name, (padding, dtype, shape) in layout.items():
        reader.read(padding)
        arrays[name] = np.empty(shape, dtype)
        reader.read_into(arrays[name])
    return manifest["state"], arrays
