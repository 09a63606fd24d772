"""Serialization of the tiled structures (``.npz`` and mmap on disk).

Preprocessing is the expensive step of the pipeline (Figure 11), so a
downstream user tiling a large matrix once wants to keep the result.
:func:`save_tiled` / :func:`load_tiled` round-trip :class:`TiledMatrix`,
:class:`TiledVector`, :class:`BitTiledMatrix` and
:class:`HybridTiledMatrix` through NumPy's ``.npz`` container with a
format tag and version check.  Every array round-trips with its exact
dtype — integer algebras (``or_and`` uint64 bitmask payloads) must come
back bit-identical, not through a float64 detour — and the writer
records each payload dtype in the file so a load that would silently
change one fails loudly instead.

:func:`save_tiled_mmap` / :func:`load_tiled_mmap` are the out-of-core
variant the sharded execution engine streams from: a *directory* with
one raw ``.npy`` per format array plus a JSON manifest, loaded with
``np.load(mmap_mode="r")`` so a shard's payload pages in lazily on
first kernel touch instead of at load time.  Beside the format arrays
the directory holds the tiling's column entry index
(:meth:`TiledMatrix.column_entries`), so a load — a shard fault — maps
the index the kernels match against instead of sorting and gathering
it.  It is an execution index, not payload: the manifest's ``nbytes``
does not count it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import IOFormatError
from ..formats.coo import COOMatrix
from .bitmask import BitTiledMatrix
from .extraction import HybridTiledMatrix
from .tiled_matrix import EntryIndex, TiledMatrix, tile_slot_base
from .tiled_vector import TiledVector

__all__ = ["save_tiled", "load_tiled", "save_tiled_mmap",
           "load_tiled_mmap", "read_mmap_manifest"]

_VERSION = 1
#: Version of the mmap directory format.
_MMAP_VERSION = 1
#: The format arrays of a TiledMatrix, in constructor order.
_TILED_ARRAYS = ("tile_ptr", "tile_colidx", "tile_nnz_ptr",
                 "local_row", "local_col", "values")
#: The stored column order of the entries (optional on load).
_COLUMN_ORDER = "column_order"
#: The other stored arrays of the column entry index, file name by
#: :class:`EntryIndex` field (optional on load; the slot bases are
#: recomputed from ``tile_colidx``).
_COLUMN_INDEX = {"slot_ptr": "column_slot_ptr", "out": "column_out",
                 "vals": "column_vals"}
PathLike = Union[str, Path]


def save_tiled(obj, path: PathLike) -> None:
    """Write a tiled structure to ``path`` (``.npz``)."""
    if isinstance(obj, TiledMatrix):
        np.savez_compressed(
            path, kind="tiled_matrix", version=_VERSION,
            shape=np.array(obj.shape), nt=obj.nt,
            tile_ptr=obj.tile_ptr, tile_colidx=obj.tile_colidx,
            tile_nnz_ptr=obj.tile_nnz_ptr, local_row=obj.local_row,
            local_col=obj.local_col, values=obj.values,
            values_dtype=str(obj.values.dtype))
    elif isinstance(obj, TiledVector):
        np.savez_compressed(
            path, kind="tiled_vector", version=_VERSION,
            n=obj.n, nt=obj.nt, fill=obj.fill,
            x_ptr=obj.x_ptr, x_tile=obj.x_tile,
            x_tile_dtype=str(obj.x_tile.dtype))
    elif isinstance(obj, BitTiledMatrix):
        np.savez_compressed(
            path, kind="bit_tiled_matrix", version=_VERSION,
            shape=np.array(obj.shape), nt=obj.nt,
            orientation=obj.orientation, tile_ptr=obj.tile_ptr,
            tile_otheridx=obj.tile_otheridx, words=obj.words)
    elif isinstance(obj, HybridTiledMatrix):
        np.savez_compressed(
            path, kind="hybrid_tiled_matrix", version=_VERSION,
            shape=np.array(obj.tiled.shape), nt=obj.tiled.nt,
            threshold=obj.threshold,
            tile_ptr=obj.tiled.tile_ptr,
            tile_colidx=obj.tiled.tile_colidx,
            tile_nnz_ptr=obj.tiled.tile_nnz_ptr,
            local_row=obj.tiled.local_row,
            local_col=obj.tiled.local_col,
            values=obj.tiled.values,
            values_dtype=str(obj.tiled.values.dtype),
            side_row=obj.side.row, side_col=obj.side.col,
            side_val=obj.side.val,
            side_val_dtype=str(obj.side.val.dtype))
    else:
        raise IOFormatError(
            f"save_tiled does not support {type(obj).__name__}"
        )


def load_tiled(path: PathLike):
    """Load a structure written by :func:`save_tiled`."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise IOFormatError(f"cannot read tiled file {path}: {exc}") \
            from exc
    if "kind" not in data or "version" not in data:
        raise IOFormatError(f"{path} is not a repro tiled file")
    version = int(data["version"])
    if version > _VERSION:
        raise IOFormatError(
            f"{path} has version {version}; this library reads up to "
            f"{_VERSION}"
        )
    kind = str(data["kind"])

    def payload(name: str, dtype_key: str) -> np.ndarray:
        """A payload array, checked against its recorded dtype.

        Older files carry no dtype tag; for tagged files a mismatch is
        a hard error — a payload silently coerced on load (the
        ``TiledVector.from_sparse`` float64-default bug class) corrupts
        ``or_and`` uint64 bit patterns without any exception.
        """
        arr = data[name]
        if dtype_key in data:
            want = np.dtype(str(data[dtype_key]))
            if arr.dtype != want:
                raise IOFormatError(
                    f"{path}: {name} loaded as {arr.dtype}, file "
                    f"records {want}"
                )
        return arr

    if kind == "tiled_matrix":
        return TiledMatrix(tuple(data["shape"]), int(data["nt"]),
                           data["tile_ptr"], data["tile_colidx"],
                           data["tile_nnz_ptr"], data["local_row"],
                           data["local_col"],
                           payload("values", "values_dtype"))
    if kind == "tiled_vector":
        return TiledVector(int(data["n"]), int(data["nt"]),
                           data["x_ptr"],
                           payload("x_tile", "x_tile_dtype"),
                           fill=float(data["fill"]))
    if kind == "bit_tiled_matrix":
        return BitTiledMatrix(tuple(data["shape"]), int(data["nt"]),
                              str(data["orientation"]),
                              data["tile_ptr"], data["tile_otheridx"],
                              data["words"])
    if kind == "hybrid_tiled_matrix":
        shape = tuple(data["shape"])
        tiled = TiledMatrix(shape, int(data["nt"]), data["tile_ptr"],
                            data["tile_colidx"], data["tile_nnz_ptr"],
                            data["local_row"], data["local_col"],
                            payload("values", "values_dtype"))
        side = COOMatrix(shape, data["side_row"], data["side_col"],
                         payload("side_val", "side_val_dtype"))
        return HybridTiledMatrix(tiled=tiled, side=side,
                                 threshold=int(data["threshold"]))
    raise IOFormatError(f"unknown tiled kind {kind!r} in {path}")


# ----------------------------------------------------------------------
# mmap directory format (out-of-core shards)
# ----------------------------------------------------------------------
def save_tiled_mmap(obj: TiledMatrix, path: PathLike) -> Path:
    """Write a :class:`TiledMatrix` as an mmap-loadable directory.

    Layout: one raw (uncompressed) ``.npy`` per format array; the
    column entry index (:class:`EntryIndex`) as ``column_order``
    (its ``order``), ``column_slot_ptr``, ``column_out`` and
    ``column_vals``; and a ``manifest.json`` recording shape, tile
    size, per-array dtypes and the total payload bytes (the format
    arrays only).  Compression is deliberately absent —
    ``np.load(mmap_mode="r")`` needs the on-disk bytes to *be* the
    array so the OS page cache, not a decompressor, is the read path.

    The index is built here and dropped with the call: ``obj`` caches
    none, so writing a matrix shard by shard holds one strip's index
    at a time.
    """
    if not isinstance(obj, TiledMatrix):
        raise IOFormatError(
            f"save_tiled_mmap supports TiledMatrix, "
            f"got {type(obj).__name__}"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays = {name: getattr(obj, name) for name in _TILED_ARRAYS}
    for name, arr in arrays.items():
        np.save(path / f"{name}.npy", arr)
    index = EntryIndex.stack([obj.column_part()], obj.nt)
    np.save(path / f"{_COLUMN_ORDER}.npy", index.order)
    for field, name in _COLUMN_INDEX.items():
        np.save(path / f"{name}.npy", getattr(index, field))
    manifest = {
        "kind": "tiled_matrix",
        "version": _MMAP_VERSION,
        "shape": list(obj.shape),
        "nt": obj.nt,
        "nnz": obj.nnz,
        "nbytes": obj.nbytes(),
        "arrays": {name: {"dtype": str(arr.dtype),
                          "shape": list(arr.shape)}
                   for name, arr in arrays.items()},
    }
    (path / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return path


def read_mmap_manifest(path: PathLike) -> dict:
    """The manifest of an mmap tile directory (cheap: no array I/O)."""
    manifest_path = Path(path) / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise IOFormatError(
            f"cannot read tile manifest {manifest_path}: {exc}"
        ) from exc
    if manifest.get("kind") != "tiled_matrix":
        raise IOFormatError(
            f"{path} is not a tiled mmap directory"
        )
    if int(manifest.get("version", 0)) > _MMAP_VERSION:
        raise IOFormatError(
            f"{path} has mmap version {manifest.get('version')}; this "
            f"library reads up to {_MMAP_VERSION}"
        )
    return manifest


def load_tiled_mmap(path: PathLike, mmap: bool = True,
                    validate: bool = False) -> TiledMatrix:
    """Load a directory written by :func:`save_tiled_mmap`.

    With ``mmap=True`` (default) every array is an ``np.memmap`` view:
    nothing is paged in until a kernel touches it, which is what lets a
    sharded matrix hold a working set far smaller than the file set.
    ``validate`` defaults to ``False`` for the same reason — the full
    structural validation reads every array end to end.

    The stored column entry index is mapped the same way and handed to
    the tiling (:meth:`TiledMatrix.share_column_entries`), so the load
    neither sorts nor gathers; an index array of the wrong length or
    dtype raises :class:`IOFormatError`.
    """
    path = Path(path)
    manifest = read_mmap_manifest(path)
    mode = "r" if mmap else None
    arrays = {}
    for name in _TILED_ARRAYS:
        arr = np.load(path / f"{name}.npy", mmap_mode=mode,
                      allow_pickle=False)
        want = np.dtype(manifest["arrays"][name]["dtype"])
        if arr.dtype != want:
            raise IOFormatError(
                f"{path}: {name} loaded as {arr.dtype}, manifest "
                f"records {want}"
            )
        arrays[name] = arr
    # a directory written without the order (or the index) still
    # loads; its index is built on first use
    order = _load_index_array(path, _COLUMN_ORDER, mode, np.intp,
                              len(arrays["values"]))
    tiled = TiledMatrix(tuple(manifest["shape"]), int(manifest["nt"]),
                        validate=validate, column_order=order, **arrays)
    if order is not None and all((path / f"{name}.npy").exists()
                                 for name in _COLUMN_INDEX.values()):
        tiled.share_column_entries(_stored_index(path, tiled, order, mode))
    return tiled


def _load_index_array(path: Path, name: str, mode, dtype,
                      length: int):
    """One stored index array, checked for dtype and ``length`` —
    ``None`` when the directory does not hold it."""
    file = path / f"{name}.npy"
    if not file.exists():
        return None
    try:
        arr = np.load(file, mmap_mode=mode, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise IOFormatError(f"{path}: cannot read {name}: {exc}") from exc
    if arr.shape != (length,):
        raise IOFormatError(
            f"{path}: {name} has shape {arr.shape}, the index needs "
            f"({length},)"
        )
    if arr.dtype != dtype:
        raise IOFormatError(
            f"{path}: {name} loaded as {arr.dtype}, the index needs "
            f"{np.dtype(dtype)}"
        )
    # a plain view of the mapping, as the format arrays are
    return np.asarray(arr)


def _stored_index(path: Path, tiled: TiledMatrix, order: np.ndarray,
                  mode) -> EntryIndex:
    """The column entry index stored beside ``tiled``'s arrays; only
    its slot bases are recomputed (from ``tile_colidx``)."""
    occupied = np.zeros(tiled.n_tile_cols, dtype=bool)
    occupied[tiled.tile_colidx] = True
    nnz = tiled.nnz
    lengths = {"slot_ptr": int(occupied.sum()) * tiled.nt + 1,
               "out": nnz, "vals": nnz}
    dtypes = {"slot_ptr": np.int64, "out": np.int64,
              "vals": tiled.values.dtype}
    fields = {field: _load_index_array(path, name, mode, dtypes[field],
                                       lengths[field])
              for field, name in _COLUMN_INDEX.items()}
    return EntryIndex(tiled.nt, tile_slot_base(occupied, tiled.nt),
                      order=order, **fields)
