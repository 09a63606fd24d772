"""Row-strip sharding of a tiled matrix (ROADMAP open item 3).

The paper's cost argument — work proportional to *active* tiles — stops
at RAM as long as an operator holds one in-memory
:class:`~repro.tiles.TiledMatrix`.  :class:`ShardedTiledMatrix` lifts
the argument one level: the matrix is partitioned into horizontal
row strips, each strip is an independent ``TiledMatrix`` of shape
``(strip_rows, n)`` stored through a shard store
(:mod:`repro.shards.store`), and a per-shard tile-*column* occupancy
bitmap lets the scheduler skip whole shards the way the tiled kernel
skips inactive tiles.

Strips are aligned to tile-row boundaries (``rows_per_shard`` is a
multiple of ``nt``).  That alignment is what makes shard-count
invariance *bit-exact*: every output row is computed entirely inside
one shard, the per-tile-row entry order of
:meth:`~repro.tiles.TiledMatrix.from_canonical` is a function of the
strip's own rows only, and the combiner merges disjoint row ranges — so
1-shard and N-shard execution run the identical sequence of
floating-point operations per row.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .._util import sorted_distinct
from ..errors import IOFormatError, ShapeError, TileError
from ..formats.convert import to_coo
from ..formats.coo import COOMatrix
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import check_tile_size
from .store import DirectoryShardStore, InMemoryShardStore, \
    ResidentSetManager

__all__ = ["ShardedTiledMatrix"]

PathLike = Union[str, Path]

#: Per-shard strip descriptor charge: (r0, r1, nnz, nbytes) as int64.
STRIP_RECORD_BYTES = 32


class ShardedTiledMatrix:
    """A matrix partitioned into row-strip shards of tiled storage.

    Construct with :meth:`from_coo` (builds and stores every shard) or
    :meth:`open` (attaches to a shard directory written earlier).  The
    instance holds only metadata — strips, occupancy bitmaps, byte
    sizes; tile payloads live in the store and enter RAM through the
    :class:`~repro.shards.store.ResidentSetManager` (``self.resident``).
    """

    def __init__(self, shape: Tuple[int, int], nt: int,
                 strips: List[Tuple[int, int]],
                 store, occupancy: np.ndarray,
                 shard_nnz: List[int],
                 dtype: np.dtype,
                 budget_bytes: Optional[int] = None):
        self.shape = (int(shape[0]), int(shape[1]))
        self.nt = int(nt)
        self.strips = [(int(r0), int(r1)) for r0, r1 in strips]
        self.store = store
        self.occupancy = np.ascontiguousarray(occupancy, dtype=np.uint64)
        self.shard_nnz = [int(v) for v in shard_nnz]
        self.dtype = np.dtype(dtype)
        self.resident = ResidentSetManager(store,
                                           budget_bytes=budget_bytes)
        if self.occupancy.shape[0] != len(self.strips):
            raise ShapeError(
                f"occupancy has {self.occupancy.shape[0]} rows for "
                f"{len(self.strips)} strips"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, matrix, nt: int = 16,
                 n_shards: Optional[int] = None,
                 rows_per_shard: Optional[int] = None,
                 store_dir: Optional[PathLike] = None,
                 budget_bytes: Optional[int] = None
                 ) -> "ShardedTiledMatrix":
        """Partition ``matrix`` into row-strip shards and store them.

        Parameters
        ----------
        matrix:
            Any library sparse matrix or a dense ndarray.
        nt:
            Tile size of every shard.
        n_shards:
            Number of strips (clamped to the matrix's tile-row count —
            a strip cannot be thinner than one tile row).  Default 2
            when neither ``n_shards`` nor ``rows_per_shard`` is given.
        rows_per_shard:
            Explicit strip height; must be a positive multiple of
            ``nt`` (tile-row alignment is what keeps shard-count
            invariance bit-exact).  Mutually exclusive with
            ``n_shards``.
        store_dir:
            When given, shards are written as mmap tile directories
            under it (:class:`~repro.shards.store.DirectoryShardStore`)
            plus a ``sharded_manifest.json`` so :meth:`open` can
            re-attach; otherwise shards stay in RAM.
        budget_bytes:
            Resident-set ceiling handed to the
            :class:`~repro.shards.store.ResidentSetManager`.
        """
        check_tile_size(nt)
        if n_shards is not None and rows_per_shard is not None:
            raise TileError(
                "pass n_shards or rows_per_shard, not both"
            )
        # Canonicalize once, before splitting: per-strip retiling then
        # sees already-summed entries, so every shard's value stream is
        # the canonical one regardless of how many strips there are.
        # The canonical entries are row-major, so each strip is one
        # contiguous run of them, tiled without a second check.
        coo = to_coo(matrix).sum_duplicates()
        m, n = coo.shape
        tile_rows = max(1, -(-m // nt))
        if rows_per_shard is not None:
            if rows_per_shard <= 0 or rows_per_shard % nt:
                raise TileError(
                    f"rows_per_shard must be a positive multiple of "
                    f"nt={nt}, got {rows_per_shard}"
                )
            strip_rows = int(rows_per_shard)
        else:
            want = 2 if n_shards is None else int(n_shards)
            if want < 1:
                raise TileError(f"n_shards must be >= 1, got {n_shards}")
            want = min(want, tile_rows)
            strip_rows = -(-tile_rows // want) * nt
        strips = []
        r0 = 0
        while r0 < m or not strips:
            r1 = min(m, r0 + strip_rows)
            strips.append((r0, r1))
            r0 = r1
            if r1 == m:
                break

        store = (DirectoryShardStore(store_dir) if store_dir is not None
                 else InMemoryShardStore())
        tile_cols = max(1, -(-n // nt))
        occ_words = -(-tile_cols // 64)
        occupancy = np.zeros((len(strips), occ_words), dtype=np.uint64)
        shard_nnz = []
        dtype = None
        bounds = np.searchsorted(coo.row, [lo for lo, _ in strips] + [m])
        for sid, (lo, hi) in enumerate(strips):
            run = slice(bounds[sid], bounds[sid + 1])
            tiled = TiledMatrix.from_canonical(
                (hi - lo, n), coo.row[run] - lo, coo.col[run],
                coo.val[run], nt)
            dtype = tiled.values.dtype if dtype is None else dtype
            cols = sorted_distinct(tiled.tile_colidx).astype(np.int64)
            np.bitwise_or.at(occupancy[sid], cols // 64,
                             np.uint64(1) << (cols % 64).astype(np.uint64))
            shard_nnz.append(tiled.nnz)
            store.put(sid, tiled)
        if dtype is None:  # pragma: no cover - strips is never empty
            dtype = coo.val.dtype

        sharded = cls(coo.shape, nt, strips, store, occupancy,
                      shard_nnz, dtype, budget_bytes=budget_bytes)
        if store_dir is not None:
            sharded._write_manifest(Path(store_dir))
        return sharded

    def _write_manifest(self, root: Path) -> None:
        manifest = {
            "kind": "sharded_tiled_matrix",
            "version": 1,
            "shape": list(self.shape),
            "nt": self.nt,
            "strips": [list(s) for s in self.strips],
            "shard_nnz": self.shard_nnz,
            "dtype": str(self.dtype),
        }
        (root / "sharded_manifest.json").write_text(
            json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
        np.save(root / "occupancy.npy", self.occupancy)

    @classmethod
    def open(cls, store_dir: PathLike,
             budget_bytes: Optional[int] = None) -> "ShardedTiledMatrix":
        """Attach to a shard directory written by :meth:`from_coo`.

        Reads only the manifest and the occupancy bitmaps — no tile
        payload is touched until a shard is scheduled.
        """
        root = Path(store_dir)
        try:
            manifest = json.loads(
                (root / "sharded_manifest.json").read_text(
                    encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise IOFormatError(
                f"cannot read sharded manifest under {root}: {exc}"
            ) from exc
        if manifest.get("kind") != "sharded_tiled_matrix":
            raise IOFormatError(
                f"{root} is not a sharded matrix directory"
            )
        occupancy = np.load(root / "occupancy.npy", allow_pickle=False)
        return cls(tuple(manifest["shape"]), int(manifest["nt"]),
                   [tuple(s) for s in manifest["strips"]],
                   DirectoryShardStore(root), occupancy,
                   manifest["shard_nnz"],
                   np.dtype(manifest["dtype"]),
                   budget_bytes=budget_bytes)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.strips)

    @property
    def nnz(self) -> int:
        return sum(self.shard_nnz)

    def shard(self, sid: int) -> Tuple[TiledMatrix, int, int]:
        """The shard's tiling via the resident set; see
        :meth:`~repro.shards.store.ResidentSetManager.get`."""
        return self.resident.get(sid)

    def strip_rows(self, sid: int) -> int:
        lo, hi = self.strips[sid]
        return hi - lo

    @property
    def total_tile_bytes(self) -> int:
        """Bytes of tiled storage across every shard (what a budget is
        compared against)."""
        return sum(self.store.nbytes(sid)
                   for sid in range(self.n_shards))

    def metadata_nbytes_per_shard(self) -> int:
        """Resident metadata charge per shard: one occupancy bitmap row
        plus the strip descriptor."""
        return int(self.occupancy.shape[1] * 8 + STRIP_RECORD_BYTES)

    def to_coo(self) -> COOMatrix:
        """Reassemble the full matrix (loads every shard; tests and
        small-scale conversions only)."""
        rows, cols, vals = [], [], []
        for sid, (lo, _hi) in enumerate(self.strips):
            coo = self.store.get(sid).to_coo()
            rows.append(coo.row + lo)
            cols.append(coo.col)
            vals.append(coo.val)
        return COOMatrix(self.shape, np.concatenate(rows),
                         np.concatenate(cols), np.concatenate(vals))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ShardedTiledMatrix {self.shape} nt={self.nt} "
                f"shards={self.n_shards} nnz={self.nnz}>")
