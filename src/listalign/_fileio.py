"""Small file helpers shared by the persistence code.

Every text artifact is written through one of three writers here: write_json
(sorted keys, two-space indent, a trailing newline; json_text is the same text
without the newline), write_jsonl (one sorted-key object per line) and
write_csv (a header of the first row's keys, then floats as repr and anything
else as str). The binary containers use the pack and Reader helpers.

All multi-byte fields are little-endian. Writes are atomic: the payload goes to a
temporary file in the destination directory which is then renamed over the target,
so a crash never leaves a half-written artifact behind. Float arrays are float32 on
disk and float64 in memory, with one exception: an encoded gallery (``gallery.py``)
stores float64, because it must reproduce a fresh encode bit for bit.

Reads are zero-copy where they can be: a Reader holds the file in one buffer,
float64 and int64 arrays are read-only views of it, and float32 arrays are
widened into new float64 arrays in one pass.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import CorruptFile


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write data to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_text(obj) -> str:
    """obj as JSON with sorted keys and a two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2)


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json_text(obj) + "\n")


def write_jsonl(path: str, objects) -> None:
    """One sorted-key JSON object per line; no objects gives an empty file."""
    atomic_write_text(path, "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects))


def write_csv(path: str, rows: list) -> None:
    """A header of the first row's keys, then one line per row dict with floats
    as repr and anything else as str; no rows gives an empty file."""
    text = ""
    if rows:
        cols = list(rows[0])
        lines = [cols] + [[repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols] for row in rows]
        text = "".join(",".join(cells) + "\n" for cells in lines)
    atomic_write_text(path, text)


def pack_u8(value: int) -> bytes:
    return struct.pack("<B", value)


def pack_u32(value: int) -> bytes:
    return struct.pack("<I", value)


def pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def with_crc32(data: bytes) -> bytes:
    """data followed by its u32 zlib.crc32, the trailer a checksum Reader checks."""
    return data + pack_u32(zlib.crc32(data))


def pack_f32(a) -> bytes:
    """Little-endian float32 bytes of a's float64 values, in C order."""
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64), dtype="<f4").tobytes()


class Reader:
    """Cursor over a container file, positioned after its 8-byte magic.

    A wrong magic, a read past the end of the file or bytes left over after
    the payload (see end) raise CorruptFile. With checksum, the file ends in a
    u32 zlib.crc32 of every byte before it (see with_crc32); a mismatch raises
    CorruptFile and the payload excludes the trailer. The file is read once
    into one buffer: float64 and int64 arrays are read-only views of it, and
    float32 arrays widen straight out of it.
    """

    def __init__(self, path: str, magic: bytes, checksum: bool = False):
        with open(path, "rb") as fh:
            self.buf = fh.read()
        if self.buf[:8] != magic:
            raise CorruptFile(f"{path}: bad magic, expected {magic!r}")
        self.size = len(self.buf)
        if checksum:  # the magic matched, so the file holds at least 8 bytes
            self.size -= 4
            if zlib.crc32(memoryview(self.buf)[: self.size]) != int.from_bytes(self.buf[-4:], "little"):
                raise CorruptFile(f"{path}: checksum mismatch")
        self.path = path
        self.off = 8

    def _take(self, n: int) -> int:
        """Offset of the next n payload bytes, which the cursor then passes."""
        if not 0 <= n <= self.size - self.off:
            raise CorruptFile(f"{self.path}: truncated file")
        off = self.off
        self.off += n
        return off

    def u8(self) -> int:
        return self.buf[self._take(1)]

    def u32(self) -> int:
        return int.from_bytes(self.raw(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self.raw(8), "little")

    def raw(self, n: int) -> bytes:
        off = self._take(n)
        return self.buf[off : off + n]

    def view(self, dtype: str, shape) -> np.ndarray:
        """A read-only view of the next array of the given dtype and shape."""
        count = math.prod(shape)
        off = self._take(np.dtype(dtype).itemsize * count)
        try:
            return np.frombuffer(self.buf, dtype, count, off).reshape(shape)
        except (ValueError, OverflowError):  # an empty array with a dimension numpy cannot index
            raise CorruptFile(f"{self.path}: impossible array shape {tuple(shape)}") from None

    def f32(self, shape) -> np.ndarray:
        """A float32 array of the given shape, widened to a new float64 array."""
        return self.view("<f4", shape).astype(np.float64)

    def i64(self, n: int) -> np.ndarray:
        """n int64 values, a read-only view of the file buffer."""
        return self.view("<i8", (n,))

    def f64(self, shape) -> np.ndarray:
        """A float64 array of the given shape, a read-only view of the file buffer."""
        return self.view("<f8", shape)

    def end(self) -> None:
        """Check that the payload has been read to the last byte."""
        left = self.size - self.off
        if left:
            raise CorruptFile(f"{self.path}: {left} trailing bytes after the payload")
