"""Bit-exact binary state snapshots.

Format: one ASCII header line

    MMPS 2 <nx> <ny> <mode> <t-as-hex-float>\n

followed by the six field arrays ``ux, uy, w, bx, by, p`` as raw
little-endian 64-bit floats in row-major order, then the 8-byte BLAKE2b
digest of the header line and that payload.  Write followed by read
restores the state bit for bit; any corruption of the header or the payload
is caught by the checksum.  Files are written through :func:`atomic_open`, so
a reader sees the old file or the whole new one, never a partial write.
"""

from __future__ import annotations

import hashlib
import os
import sys
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
_VERSION = "2"
_DIGEST_SIZE = 8


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
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    chunks = (header.encode("ascii"),
              *(np.ascontiguousarray(arr, dtype="<f8") for arr in _field_arrays(state)))
    with atomic_open(path) as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
        fh.write(digest.digest())


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
            raise SnapshotFormatError(f"{path}: unsupported version {parts[1]!r}")
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
        end = len(line) + sum(arr.nbytes for arr in arrays)
        if size < end + _DIGEST_SIZE:
            raise SnapshotTruncatedError(
                f"{path}: needs {end + _DIGEST_SIZE} bytes for its header, payload and "
                f"checksum, found {size}"
            )
        if size > end + _DIGEST_SIZE:
            raise SnapshotFormatError(
                f"{path}: {size - end - _DIGEST_SIZE} bytes after the checksum"
            )
        digest = hashlib.blake2b(line, digest_size=_DIGEST_SIZE)
        for arr in arrays:
            buf = memoryview(arr).cast("B")
            fh.readinto(buf)
            digest.update(buf)
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)  # the file is little-endian
        stored, actual = fh.read(), digest.digest()
    if stored != actual:
        raise SnapshotChecksumError(
            f"{path}: checksum mismatch (stored {stored.hex()}, computed {actual.hex()})"
        )
    return state
