"""Memory-mapped columnar trace store.

The native NPZ format decompresses every byte it serves; at fleet scale
the replay hot path spends more time inflating zip entries than scoring.
This module adds a second on-disk format built for that path: a single
file holding the raw column bytes at 64-byte-aligned offsets behind a
small JSON header.  Reading is ``np.memmap`` + pointer arithmetic — no
decompression, no copies — and a chunked consumer touches only the pages
it slices, so peak memory stays ``O(chunk)`` like the streaming NPZ
reader but without the per-chunk ``frombuffer`` inflation.

Columns are persisted at the *storage* dtype the field registry declares
(:data:`repro.data.fields.STORAGE_DTYPES`): narrow candidates such as
``int32`` error counters or ``uint32`` workload counters are used only
when every value of the column round-trips losslessly, otherwise the
writer falls back to the column's wide in-memory dtype.  The header
records both dtypes, so loaders can always widen back to the logical
schema bit-for-bit.  Computation stays float64 end to end — storage
width is invisible to every result.

Layout::

    offset 0   8-byte magic  b"RPROCST1"
    offset 8   uint64 little-endian header length H
    offset 16  H bytes of ASCII JSON (schema below)
    ...        zero padding to the first 64-byte boundary
    ...        raw little-endian column sections, each 64-byte aligned

Header schema::

    {"version": 1, "n_rows": N,
     "columns": [{"name": ..., "dtype": "<i4", "logical_dtype": "<i8",
                  "offset": ..., "nbytes": ...}, ...]}

Writes are atomic (tmp + fsync + rename) like every other artifact.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from ..durable import atomic_write
from .dataset import DriveDayDataset
from .fields import STORAGE_DTYPES

__all__ = [
    "STORE_MAGIC",
    "STORE_SUFFIX",
    "is_store_file",
    "save_dataset_store",
    "open_store_columns",
    "load_dataset_store",
]

#: First 8 bytes of every columnar store file.
STORE_MAGIC = b"RPROCST1"

#: Conventional file suffix (``records.cst`` next to ``records.npz``).
STORE_SUFFIX = ".cst"

#: Column sections start on multiples of this (any numeric itemsize
#: divides it, so every memmap view is element-aligned).
_ALIGNMENT = 64

_HEADER_VERSION = 1


def _integrity_error(msg: str) -> Exception:
    # Lazy import: repro.data.io imports this module at load time.
    from .io import TraceIntegrityError

    return TraceIntegrityError(msg)


def is_store_file(path: str | Path) -> bool:
    """True when ``path`` exists and starts with the store magic."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return fh.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False


def _storage_form(name: str, arr: np.ndarray) -> np.ndarray:
    """The array as it will be persisted: narrowed when exactly lossless.

    The registry's candidate dtype is used only if every value survives
    the round trip ``wide -> narrow -> wide`` bit-for-bit; otherwise the
    column keeps its in-memory dtype.  The check makes narrowing safe by
    construction — a counter that overflows its candidate (or a float
    that turns out fractional) is simply stored wide.
    """
    candidate = STORAGE_DTYPES.get(name)
    if candidate is None or candidate == arr.dtype:
        return arr
    with np.errstate(invalid="ignore"):
        narrowed = arr.astype(candidate)
    if np.array_equal(narrowed.astype(arr.dtype), arr):
        return narrowed
    return arr


def save_dataset_store(
    dataset: DriveDayDataset | Mapping[str, np.ndarray], path: str | Path
) -> None:
    """Atomically write columns to a single mmap-friendly store file."""
    items = list(
        dataset.items() if isinstance(dataset, DriveDayDataset) else dataset.items()
    )
    n_rows = int(items[0][1].shape[0]) if items else 0
    stored: list[tuple[str, np.ndarray, str]] = []
    for name, arr in items:
        a = np.ascontiguousarray(arr)
        if a.ndim != 1:
            raise ValueError(f"column {name!r} must be 1-D, got shape {a.shape}")
        if a.shape[0] != n_rows:
            raise ValueError(
                f"column {name!r} has length {a.shape[0]}, expected {n_rows}"
            )
        if a.dtype.hasobject:
            raise ValueError(f"column {name!r} has object dtype")
        stored.append((name, _storage_form(name, a), str(arr.dtype.str)))

    # Lay out sections after a provisional header; the header length
    # depends on the offsets, so compute with a fixed-point pass (offsets
    # only grow the header by a bounded number of digits).
    def _build_header(start: int) -> tuple[bytes, list[int]]:
        offsets = []
        pos = start
        cols = []
        for name, a, logical in stored:
            pos = (pos + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
            offsets.append(pos)
            cols.append(
                {
                    "name": name,
                    "dtype": str(a.dtype.str),
                    "logical_dtype": logical,
                    "offset": pos,
                    "nbytes": int(a.nbytes),
                }
            )
            pos += a.nbytes
        body = json.dumps(
            {"version": _HEADER_VERSION, "n_rows": n_rows, "columns": cols},
            separators=(",", ":"),
        ).encode("ascii")
        return body, offsets

    start = len(STORE_MAGIC) + 8
    body, offsets = _build_header(start + 4096)
    while True:
        new_body, new_offsets = _build_header(start + len(body))
        if len(new_body) == len(body):
            body, offsets = new_body, new_offsets
            break
        body = new_body

    with atomic_write(Path(path), "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(struct.pack("<Q", len(body)))
        fh.write(body)
        pos = start + len(body)
        for (name, a, _), off in zip(stored, offsets):
            fh.write(b"\x00" * (off - pos))
            fh.write(memoryview(a).cast("B"))
            pos = off + a.nbytes


def _read_header(path: Path) -> tuple[dict, int]:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(STORE_MAGIC))
            if magic != STORE_MAGIC:
                raise _integrity_error(
                    f"{path} is not a columnar store file (bad magic)"
                )
            (hlen,) = struct.unpack("<Q", fh.read(8))
            body = fh.read(hlen)
            if len(body) != hlen:
                raise _integrity_error(f"store file {path} has a truncated header")
            header = json.loads(body)
    except OSError as exc:
        raise _integrity_error(f"store file {path} is unreadable ({exc})") from None
    except (ValueError, struct.error) as exc:
        raise _integrity_error(
            f"store file {path} has a corrupt header ({exc})"
        ) from None
    if header.get("version") != _HEADER_VERSION:
        raise _integrity_error(
            f"store file {path} uses unsupported version {header.get('version')!r}"
        )
    return header, len(STORE_MAGIC) + 8 + hlen


def open_store_columns(
    path: str | Path, widen: bool = True
) -> dict[str, np.ndarray]:
    """Zero-copy read-only views over a store file's columns.

    With ``widen=True`` (default) columns persisted at a narrowed storage
    dtype are cast back to their logical dtype — an exact copy for those
    columns only; full-width columns stay memory-mapped views.  With
    ``widen=False`` every column is the raw mapped section at its storage
    dtype — the replay streaming path, where the fused feature kernel
    upcasts to float64 during assembly anyway.
    """
    path = Path(path)
    if not path.exists():
        raise _integrity_error(
            f"trace file {path} does not exist (run `repro-ssd simulate` "
            "or check the --trace path)"
        )
    header, _ = _read_header(path)
    n_rows = int(header["n_rows"])
    size = path.stat().st_size
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    out: dict[str, np.ndarray] = {}
    for col in header["columns"]:
        name = col["name"]
        dtype = np.dtype(col["dtype"])
        off, nbytes = int(col["offset"]), int(col["nbytes"])
        if off + nbytes > size:
            raise _integrity_error(
                f"store file {path} is truncated: column {name!r} ends at "
                f"{off + nbytes} but the file has {size} bytes"
            )
        if nbytes != n_rows * dtype.itemsize:
            raise _integrity_error(
                f"store file {path} column {name!r} has {nbytes} bytes, "
                f"expected {n_rows} x {dtype.itemsize}"
            )
        view = mm[off : off + nbytes].view(dtype)
        logical = np.dtype(col.get("logical_dtype", col["dtype"]))
        if widen and logical != dtype:
            out[name] = view.astype(logical)
            out[name].flags.writeable = False
        else:
            out[name] = view
    return out


def load_dataset_store(path: str | Path) -> DriveDayDataset:
    """Load a store file as a :class:`DriveDayDataset` (logical dtypes).

    Full-width columns stay zero-copy memory-mapped views; narrowed
    columns are widened exactly.  The result is bit-identical to loading
    the NPZ the store was packed from.
    """
    return DriveDayDataset(open_store_columns(path, widen=True))
