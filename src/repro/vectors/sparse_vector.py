"""Plain sparse vector: sorted ``(indices, values)`` pairs.

This is the format-neutral sparse vector the baselines (Algorithms 1-2,
CombBLAS bucket) consume and that all SpMSpV entry points return;
:class:`~repro.tiles.tiled_vector.TiledVector` is its tiled counterpart
and the two convert both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..tiles.tiled_vector import TiledVector

__all__ = ["SparseVector"]


@dataclass
class SparseVector:
    """A length-``n`` sparse vector with sorted unique indices.

    Attributes
    ----------
    n:
        Logical length.
    indices:
        ``int64`` sorted, unique positions of the stored entries.
    values:
        values parallel to ``indices``.
    """

    n: int
    indices: np.ndarray
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if self.values is None:
            self.values = np.ones(len(self.indices), dtype=np.float64)
        self.values = np.ascontiguousarray(self.values)
        if len(self.indices) != len(self.values):
            raise ShapeError("indices/values length mismatch")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise ShapeError(
                    f"vector index out of range for length {self.n}"
                )
            if np.any(np.diff(self.indices) <= 0):
                order = np.argsort(self.indices)
                self.indices = self.indices[order]
                self.values = self.values[order]
                if np.any(np.diff(self.indices) == 0):
                    raise ShapeError("duplicate indices in SparseVector")

    @classmethod
    def trusted(cls, n: int, indices: np.ndarray,
                values: np.ndarray) -> "SparseVector":
        """A vector from arrays its producer guarantees: ``int64``
        strictly ascending indices in ``[0, n)`` and equally many
        values, both contiguous.  Skips :meth:`__post_init__`'s checks
        — for results the library just built, not for user input."""
        sv = cls.__new__(cls)
        sv.n, sv.indices, sv.values = n, indices, values
        return sv

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.indices)

    def support(self, semiring) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(indices, values)`` of the entries holding a value other
        than ``semiring``'s additive identity, ascending — exactly
        ``TiledVector.from_sparse(...).support(semiring)`` with the
        semiring's dtype, without building the tiles: the values are
        cast to ``semiring.dtype`` and added to zero, as the tiled
        scatter does (so ``-0.0`` reads ``+0.0``).

        Raises :class:`~repro.errors.ShapeError` on the input errors
        ``from_sparse`` raises.  Returns ``None`` when the indices are
        no longer a strictly ascending ``int64`` array (the vector was
        changed after construction): the caller then tiles it.
        """
        idx = self.indices
        if not (isinstance(idx, np.ndarray) and idx.dtype == np.int64
                and idx.ndim == 1 and (idx[1:] > idx[:-1]).all()):
            return None
        values = np.asarray(self.values)
        if len(idx) != len(values):
            raise ShapeError("indices/values length mismatch")
        if len(idx) and (idx[0] < 0 or idx[-1] >= self.n):
            raise ShapeError(f"vector index out of range for length {self.n}")
        dtype = np.dtype(semiring.dtype)
        vals = values.astype(dtype, copy=False) + dtype.type(0)
        keep = ~semiring.is_identity(vals)
        if keep.all():
            return idx, vals
        return idx[keep], vals[keep]

    @property
    def sparsity(self) -> float:
        """``nnz / n`` — the paper's vector-sparsity parameter."""
        return self.nnz / self.n if self.n else 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, x: np.ndarray) -> "SparseVector":
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(f"expected 1-D vector, got ndim={x.ndim}")
        idx = np.flatnonzero(x)
        return cls(len(x), idx, x[idx])

    @classmethod
    def empty(cls, n: int) -> "SparseVector":
        return cls(n, np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.float64))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=self.values.dtype
                       if len(self.values) else np.float64)
        out[self.indices] = self.values
        return out

    def to_tiled(self, nt: int) -> TiledVector:
        """Convert to the paper's tiled layout."""
        return TiledVector.from_sparse(self.indices, self.values, self.n, nt)

    @classmethod
    def from_tiled(cls, tv: TiledVector) -> "SparseVector":
        idx, vals = tv.to_sparse()
        return cls(tv.n, idx, vals)

    def drop_zeros(self) -> "SparseVector":
        """Remove stored entries whose value is exactly zero."""
        keep = self.values != 0
        return SparseVector(self.n, self.indices[keep], self.values[keep])

    def as_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.indices, self.values

    # ------------------------------------------------------------------
    # Element-wise algebra (GraphBLAS eWiseAdd / eWiseMult)
    # ------------------------------------------------------------------
    def ewise_add(self, other: "SparseVector", op=np.add) -> "SparseVector":
        """Union combine: positions present in either vector survive;
        overlapping positions are merged with ``op`` (default ``+``).
        This is GraphBLAS ``eWiseAdd`` — the frontier-merge primitive.
        """
        self._check_same_length(other)
        if self.nnz == 0:
            return SparseVector(self.n, other.indices.copy(),
                                other.values.copy())
        if other.nnz == 0:
            return SparseVector(self.n, self.indices.copy(),
                                self.values.copy())
        idx = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.values, other.values])
        order = np.argsort(idx, kind="stable")
        idx, vals = idx[order], vals[order]
        from .._util import group_starts

        starts = group_starts(idx)
        counts = np.diff(np.concatenate([starts, [len(idx)]]))
        out_vals = vals[starts].copy()
        dup = counts == 2
        if dup.any():
            out_vals[dup] = op(vals[starts[dup]], vals[starts[dup] + 1])
        return SparseVector(self.n, idx[starts], out_vals)

    def ewise_mult(self, other: "SparseVector",
                   op=np.multiply) -> "SparseVector":
        """Intersection combine: only positions present in *both*
        vectors survive, merged with ``op`` (default ``*``).  This is
        GraphBLAS ``eWiseMult`` — the masking/filter primitive.
        """
        self._check_same_length(other)
        common, ia, ib = np.intersect1d(self.indices, other.indices,
                                        assume_unique=True,
                                        return_indices=True)
        return SparseVector(self.n, common,
                            op(self.values[ia], other.values[ib]))

    def select(self, keep_mask: np.ndarray) -> "SparseVector":
        """Filter stored entries by a boolean mask over *positions*
        (length ``n``): entries at positions where the mask is False
        are dropped."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n,):
            raise ShapeError(
                f"select mask shape {keep_mask.shape} != ({self.n},)"
            )
        sel = keep_mask[self.indices]
        return SparseVector(self.n, self.indices[sel], self.values[sel])

    def _check_same_length(self, other: "SparseVector") -> None:
        if self.n != other.n:
            raise ShapeError(
                f"vector length mismatch: {self.n} vs {other.n}"
            )

    def __len__(self) -> int:
        return self.n
