"""Snapshot persistence: a small binary container plus a CSV path.

The binary layout is self-describing and fixed: magic bytes ``APND``,
then version, sensor count M and snapshot count N as little-endian u32,
then the M x N matrix as row-major complex64 (real, imag float32 pairs,
little-endian).  Storage is single precision; reading a file and
writing it back reproduces it byte for byte, which is what the
regression tests rely on.

The CSV path trades compactness for editability: one sensor row per
line, cells alternating real and imaginary parts.
"""

from __future__ import annotations

import struct
from contextlib import nullcontext
from pathlib import Path

import numpy as np

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "write_snapshots",
    "read_snapshots",
    "write_snapshots_csv",
    "read_snapshots_csv",
]

SNAPSHOT_MAGIC = b"APND"
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("<4sIII")


def _opened(f, mode: str):
    """A context manager giving the file object ``f`` as it is, or the
    path ``f`` opened in ``mode`` (a text mode without newline
    translation) and closed on exit."""
    if not isinstance(f, (str, Path)):
        return nullcontext(f)
    return open(f, mode) if "b" in mode else open(f, mode, newline="")


def _as_matrix(z) -> np.ndarray:
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
        raise ValueError("snapshots must form a non-empty M x N matrix")
    return z


def write_snapshots(z, f) -> None:
    """Store a snapshot matrix in the binary container.

    Input of higher precision is narrowed to complex64; complex64 input
    round-trips bit-exactly.
    """
    z = _as_matrix(z)
    m, n = z.shape
    payload = np.ascontiguousarray(z.astype("<c8", copy=False)).tobytes()
    with _opened(f, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, m, n))
        fh.write(payload)


def read_snapshots(f) -> np.ndarray:
    """Load a container written by :func:`write_snapshots`.

    Returns the matrix widened to complex128 (exact, float32 embeds in
    float64).  Truncated or oversized payloads are rejected.
    """
    with _opened(f, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("snapshot container is truncated")
    magic, version, m, n = _HEADER.unpack_from(raw, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a snapshot container (bad magic bytes)")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported container version {version}")
    if m < 1 or n < 1:
        raise ValueError("container declares an empty matrix")
    expected = _HEADER.size + 8 * m * n
    if len(raw) != expected:
        raise ValueError(f"container holds {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<c8", offset=_HEADER.size, count=m * n)
    return data.reshape(m, n).astype(np.complex128)


def write_snapshots_csv(z, f) -> None:
    """Text form: one sensor row per line, cells alternating re, im.

    Cells use %.17g, so float64 values survive a round trip exactly.
    """
    z = _as_matrix(np.asarray(z, dtype=complex))
    inter = np.empty((z.shape[0], 2 * z.shape[1]), dtype=float)
    inter[:, 0::2] = z.real
    inter[:, 1::2] = z.imag
    np.savetxt(f, inter, delimiter=",", fmt="%.17g")


def read_snapshots_csv(f) -> np.ndarray:
    """Parse the interleaved real/imag text form back to a complex matrix."""
    rows = np.loadtxt(f, delimiter=",", dtype=float, ndmin=2)
    if rows.size == 0:
        raise ValueError("snapshot CSV is empty")
    if rows.shape[1] % 2:
        raise ValueError("snapshot CSV needs an even cell count (re, im pairs)")
    return rows[:, 0::2] + 1j * rows[:, 1::2]
