"""Bit-exact binary state snapshots.

Format: one ASCII header line

    MMPS 3 <nx> <ny> <mode> <t-as-hex-float>\n

followed by the six field arrays ``ux, uy, w, bx, by, p`` as raw
little-endian 64-bit floats in row-major order, then the CRC-32
(``zlib.crc32``) of the header line and that payload as 4 little-endian
bytes.  Write followed by read restores the state bit for bit; the checksum
catches accidental corruption of the header or the payload, every burst of
up to 32 bits among it.  Format 2 (a BLAKE2b trailer) is refused by name,
so a run written before format 3 no longer audits.  Files are written through :func:`atomic_open`, so
a reader sees the old file or the whole new one, never a partial write.
"""

from __future__ import annotations

import os
import sys
import zlib
from contextlib import contextmanager
from typing import IO, Iterator

import numpy as np

from .fields import FieldError, GridSpec, State

__all__ = [
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotChecksumError",
    "SnapshotTruncatedError",
    "write_snapshot",
    "read_snapshot",
    "atomic_open",
]

_MAGIC = "MMPS"
_VERSION = "3"
_DIGEST_SIZE = 4


class SnapshotError(ValueError):
    """Base class for snapshot format problems."""


class SnapshotFormatError(SnapshotError):
    """Header is not a valid snapshot header (magic/version/shape)."""


class SnapshotChecksumError(SnapshotError):
    """Header or payload bytes do not match the stored checksum."""


class SnapshotTruncatedError(SnapshotError):
    """File ends before the declared payload and checksum."""


def _field_arrays(state: State) -> tuple[np.ndarray, ...]:
    """The six payload arrays in file order."""
    return (state.u.ux, state.u.uy, state.w.data, state.b.ux, state.b.uy, state.p.data)


@contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path`` for writing; a clean exit moves it
    onto ``path`` with ``os.replace``, an exception removes it.  The temporary
    name starts with a dot, so no ``snap_*.mmps`` glob ever matches it."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(state: State, path: str | os.PathLike) -> None:
    """Serialize a state; atomically replaces ``path``.  The header and each
    array go to the checksum and to the file in turn, with no joined copy."""
    g = state.grid
    header = f"{_MAGIC} {_VERSION} {g.nx} {g.ny} {g.mode} {float(state.t).hex()}\n"
    crc = 0
    chunks = (header.encode("ascii"),
              *(np.ascontiguousarray(arr, dtype="<f8") for arr in _field_arrays(state)))
    with atomic_open(path) as fh:
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(crc.to_bytes(_DIGEST_SIZE, "little"))


def read_snapshot(path: str | os.PathLike) -> State:
    """Deserialize a state, verifying header, size and checksum.  Each array
    is read straight into its buffer and hashed there, with no copy of the
    file in memory."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise SnapshotFormatError(f"{path}: missing header line")
        try:
            header = line[:-1].decode("ascii")
        except UnicodeDecodeError as exc:
            raise SnapshotFormatError(f"{path}: header is not ASCII") from exc
        parts = header.split(" ")
        if len(parts) != 6 or parts[0] != _MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic/header {header!r}")
        if parts[1] != _VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {parts[1]!r}, expected {_VERSION!r}")
        try:
            grid = GridSpec(int(parts[2]), int(parts[3]), parts[4])
            t = float.fromhex(parts[5])
        except (ValueError, FieldError) as exc:
            raise SnapshotFormatError(f"{path}: malformed header fields: {exc}") from exc
        # each of the six lattices holds at least nx * ny floats; checked before
        # allocating, so a header cannot demand memory the file does not back
        if size < 48 * grid.nx * grid.ny:
            raise SnapshotTruncatedError(f"{path}: too short for a {grid.nx}x{grid.ny} grid")

        state = State.zeros(grid, t)
        arrays = _field_arrays(state)
        end = len(line) + sum(arr.nbytes for arr in arrays) + _DIGEST_SIZE
        if size < end:
            raise SnapshotTruncatedError(f"{path}: needs {end} bytes for its header, payload "
                                         f"and checksum, found {size}")
        if size > end:
            raise SnapshotFormatError(f"{path}: {size - end} bytes after the checksum")
        crc = zlib.crc32(line)
        for arr in arrays:
            buf = memoryview(arr).cast("B")
            fh.readinto(buf)
            crc = zlib.crc32(buf, crc)
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)  # the file is little-endian
        stored, actual = fh.read(), crc.to_bytes(_DIGEST_SIZE, "little")
    if stored != actual:
        raise SnapshotChecksumError(
            f"{path}: checksum mismatch (stored {stored.hex()}, computed {actual.hex()})"
        )
    return state
