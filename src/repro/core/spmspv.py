"""TileSpMSpV — the paper's primary contribution (§3.3).

Usage mirrors the paper's pipeline: *preprocess once* (tile the matrix,
optionally extracting very sparse tiles into a COO side matrix), then
*multiply many times* against sparse vectors of any sparsity::

    op = TileSpMSpV(matrix, nt=16)        # preprocessing (Fig. 11 cost)
    y  = op.multiply(x)                   # y = A @ x, sparse in sparse out

Every multiply is modeled as the row-tile warp kernel of Algorithm 4
over the tiled part plus the per-entry kernel over the extracted COO
part: when a :class:`~repro.gpusim.Device` is attached it submits their
priced launch records so benchmarks can read simulated GPU time.  The
host computes ``y`` with one product over both parts (see
:mod:`repro.core.spmspv_kernels`, "Matched-entry execution").

The preparation itself lives in :class:`TiledOperator`, the base the
whole tiled multiply family shares (single vector here, batched union
in :mod:`repro.core.batched`, dense block in :mod:`repro.core.spmm`);
each launch is accounted through the operator's
:class:`~repro.runtime.ExecutionContext`, which prices it inline,
skips it, or defers its counters for production replay.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ShapeError, TileError
from ..formats.convert import to_coo
from ..formats.coo import COOMatrix
from ..gpusim import Device, KernelCounters
from ..runtime import (ExecutionContext, OperatorPlan, PlanCache,
                       ScopedOperator, default_plan_cache, matrix_token)
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.extraction import (HybridTiledMatrix, IndexedSideMatrix,
                                 split_very_sparse_tiles)
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import SUPPORTED_TILE_SIZES, TiledVector
from ..vectors.sparse_vector import SparseVector
# the repository benchmark's per-layer timers patch these by this path
from .spmspv_kernels import coo_side_kernel, csc_tiled_kernel  # noqa: F401
from .spmspv_kernels import (coo_side_counters, csc_tiled_counters,
                             matched_product, reduce_dense, reduce_sparse,
                             sparsify, tiled_counters, tiled_kernel)

__all__ = ["VectorInput", "TiledOperator", "TileSpMSpV", "tile_spmspv",
           "as_tiled_vector", "apply_output_mask", "spmspv_plan_key",
           "sparsify", "shape_output"]

VectorLike = Union[SparseVector, TiledVector, np.ndarray]

# launch names precomputed per kernel form — the multiply path must not
# build format strings per call (cheap-when-off tracing)
_MULTIPLY_LAUNCH_NAMES = {"csr": "tile_spmspv_csr",
                          "csc": "tile_spmspv_csc"}


def as_tiled_vector(x: VectorLike, nt: int, fill: float,
                    dtype=None) -> TiledVector:
    """Coerce any accepted vector form into a :class:`TiledVector`.

    ``fill`` is the semiring's additive identity (the "no entry"
    sentinel of unoccupied tile slots) and ``dtype`` the semiring's
    computation dtype — integer algebras (``or_and`` bitmasks) must
    not round-trip through float64.  Shared by every operator that
    feeds the tiled kernels — :class:`TileSpMSpV` and the batched
    engine in :mod:`repro.core.batched`.
    """
    if isinstance(x, TiledVector):
        if x.nt != nt:
            raise ShapeError(
                f"vector tile size {x.nt} != matrix tile size {nt}"
            )
        return x
    if isinstance(x, SparseVector):
        return TiledVector.from_sparse(x.indices, x.values, x.n, nt,
                                       fill=fill, dtype=dtype)
    return TiledVector.from_dense(np.asarray(x), nt, fill=fill,
                                  dtype=dtype)


def spmspv_plan_key(matrix, nt: int, extract_threshold: int,
                    semiring: Semiring, mode: str = "csr") -> tuple:
    """The plan-cache key of a TileSpMSpV-family preparation.

    Every operator built with the same arguments — and the serving
    layer pinning that operator's plan — asks the cache with this key,
    so one matrix is tiled once for all of them.
    """
    return ("tilespmspv", matrix_token(matrix), nt, extract_threshold,
            semiring, mode)


def shape_output(y: Union[SparseVector, np.ndarray], output: str,
                 semiring: Semiring, nt: int
                 ) -> Union[SparseVector, TiledVector, np.ndarray]:
    """A result in the form ``output`` names: a dense one as is for
    ``"dense"``; ``"sparse"`` or ``"tiled"`` with the identity slots
    dropped (a :class:`SparseVector` result has none)."""
    if output == "dense":
        return y
    sv = y if isinstance(y, SparseVector) else sparsify(y, semiring)
    if output == "sparse":
        return sv
    return TiledVector.from_sparse(sv.indices, sv.values, sv.n, nt,
                                   fill=float(semiring.add_identity),
                                   dtype=semiring.dtype)


class VectorInput:
    """The input side of every SpMSpV operator: a vector's
    :class:`TiledVector` and the support the host product matches.
    Needs ``shape``, ``nt`` and ``semiring`` on the operator — the
    tiled family here and the sharded engine in
    :mod:`repro.shards.engine` share it."""

    def _as_tiled_vector(self, x: VectorLike) -> TiledVector:
        """:func:`as_tiled_vector` with this operator's tile size and
        semiring."""
        return as_tiled_vector(x, self.nt,
                               float(self.semiring.add_identity),
                               dtype=self.semiring.dtype)

    def _input(self, x: VectorLike, tiled: bool
               ) -> Tuple[Optional[TiledVector], Tuple[np.ndarray,
                                                        np.ndarray]]:
        """``(xt, support)`` of one input vector: its
        :class:`TiledVector` — built only when ``tiled`` asks for it or
        the input is not a :class:`SparseVector` (else ``None``) — and
        its support, the ``(indices, values)`` the host product
        matches.  Both routes run the same input checks."""
        support = (x.support(self.semiring)
                   if isinstance(x, SparseVector) and not tiled else None)
        xt = None
        if support is None:
            xt = self._as_tiled_vector(x)
        n = x.n if xt is None else xt.n
        if n != self.shape[1]:
            raise ShapeError(
                f"SpMSpV shape mismatch: A is {self.shape}, "
                f"x has length {n}"
            )
        return xt, support if xt is None else xt.support(self.semiring)


class TiledOperator(VectorInput, ScopedOperator):
    """The prepared operator the tiled multiply family shares.

    Everything but the kernels: the tile-size check, the launch context
    (the :class:`~repro.runtime.ScopedOperator` base, tagged with the
    subclass's :attr:`operator`), the preprocessing
    plan — the hybrid tiling plus the indexed COO side matrix, looked
    up in the plan cache or built from a prebuilt tiling — and, for a
    :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`,
    delegation to :class:`~repro.shards.engine.ShardedSpMSpV`.
    :class:`TileSpMSpV`, :class:`~repro.core.batched.BatchedSpMSpV` and
    :class:`~repro.core.spmm.TileSpMM` add only their kernel methods,
    so every operator over one matrix shares one tiling.
    """

    def __init__(self, matrix, nt: int, extract_threshold: int,
                 semiring: Semiring, device, plan_cache: Optional[PlanCache],
                 parallel, mode: str = "csr"):
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        super().__init__(device)
        self.semiring = semiring
        self._plan = None
        self.hybrid = None
        self._side_index = None
        self._entries = None
        # deferred import: repro.shards imports this module for the
        # shared vector coercion / mask helpers
        from ..shards.sharded_matrix import ShardedTiledMatrix
        if isinstance(matrix, ShardedTiledMatrix):
            from ..shards.engine import ShardedSpMSpV
            # out-of-core path: the engine owns scheduling, streaming
            # and per-shard plans; this operator is a thin front.  The
            # sharded matrix's own tiling parameters win over the
            # constructor defaults, as with a prebuilt TiledMatrix.
            self._sharded = ShardedSpMSpV(
                matrix, semiring=semiring, device=self.ctx,
                plan_cache=plan_cache, parallel=parallel)
            return
        if isinstance(matrix, TiledMatrix):
            matrix = HybridTiledMatrix(tiled=matrix,
                                       side=COOMatrix.empty(matrix.shape),
                                       threshold=0)
        if isinstance(matrix, HybridTiledMatrix):
            # preprocessing already done by the caller: private plan
            self._plan = _spmspv_plan(matrix)
        else:
            cache = plan_cache if plan_cache is not None \
                else default_plan_cache()
            key = spmspv_plan_key(matrix, nt, extract_threshold, semiring,
                                  mode)
            self._plan = cache.get_or_build(
                key,
                lambda: _build_spmspv_plan(matrix, nt, extract_threshold,
                                           key),
                pin=matrix)
        self.hybrid = self._plan.data["hybrid"]
        self._side_index = self._plan.data["side_index"]
        self._entries = self.hybrid.entry_index()

    # ------------------------------------------------------------------
    @property
    def _prepared(self):
        """What the operator multiplies: the sharded engine or the
        hybrid tiling."""
        return self.hybrid if self._sharded is None else self._sharded

    @property
    def shape(self):
        return self._prepared.shape

    @property
    def nt(self) -> int:
        return self._prepared.nt

    @property
    def nnz(self) -> int:
        return self._prepared.nnz

    # ------------------------------------------------------------------
    def _account_side(self, name: str, xt: TiledVector,
                      cols: np.ndarray, tag: Optional[str],
                      phase: str) -> None:
        """Price the COO side launch of one vector, if the plan has a
        side part."""
        side = self._side_index
        if side is not None:
            self.ctx.account(name, lambda: coo_side_counters(
                side, xt, side.entries.n_matched(cols)),
                tag=tag, phase=phase)

    def sparsify(self, y_dense: np.ndarray) -> SparseVector:
        """Extract one dense accumulator row or column into a
        :class:`SparseVector` (drops the additive-identity slots)."""
        return sparsify(y_dense, self.semiring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = type(self).__name__
        if self._sharded is not None:
            return (f"<{name} {self.shape} nt={self.nt} "
                    f"shards={self._sharded.matrix.n_shards} "
                    f"semiring={self.semiring.name}>")
        return (f"<{name} {self.shape} nt={self.nt} "
                f"tiles={self.hybrid.tiled.n_nonempty_tiles} "
                f"side_nnz={self.hybrid.side.nnz} "
                f"semiring={self.semiring.name}>")


class TileSpMSpV(TiledOperator):
    """Prepared TileSpMSpV operator for one sparse matrix.

    Parameters
    ----------
    matrix:
        Any library sparse matrix (or an already-built
        :class:`~repro.tiles.extraction.HybridTiledMatrix` /
        :class:`~repro.tiles.tiled_matrix.TiledMatrix`, or a
        :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`).
    nt:
        Tile size (16/32/64 per the paper; small powers of two are also
        accepted for testing).  Default 16, the paper's SpMSpV choice.
    extract_threshold:
        Tiles with at most this many nonzeros are extracted into the
        COO side matrix (0 disables extraction).  Paper §3.2.1.
    semiring:
        The ``(add, mul)`` algebra; default ordinary ``(+, *)``.
    device:
        Optional simulated GPU receiving priced launch records.
    mode:
        Which tiled kernel executes a multiply (paper §3.2.3 defines
        both forms):

        * ``"csr"`` (default) — the row-tile kernel of Alg. 4
          (matrix-driven, scans tile metadata, no atomics);
        * ``"csc"`` — the vector-driven column form (touches only
          active tile columns, merges with atomics);
        * ``"adaptive"`` — pick per multiply by the input's non-empty
          tile fraction (below ``adaptive_threshold`` → csc), the
          strategy of Li et al. the paper's related work discusses.
    adaptive_threshold:
        Active-tile-column fraction below which adaptive mode selects
        the CSC form.
    """

    operator = "tilespmspv"

    def __init__(self, matrix, nt: int = 16, extract_threshold: int = 2,
                 semiring: Semiring = PLUS_TIMES,
                 device: Optional[Device] = None,
                 mode: str = "csr",
                 adaptive_threshold: float = 0.02,
                 plan_cache: Optional[PlanCache] = None,
                 parallel=None):
        if mode not in ("csr", "csc", "adaptive"):
            raise TileError(f"unknown SpMSpV mode {mode!r}; "
                            "expected csr / csc / adaptive")
        if not (0.0 <= adaptive_threshold <= 1.0):
            raise TileError("adaptive_threshold must be in [0, 1]")
        self.mode = mode
        self.adaptive_threshold = float(adaptive_threshold)
        super().__init__(matrix, nt, extract_threshold, semiring, device,
                         plan_cache, parallel, mode=mode)

    # ------------------------------------------------------------------
    def _transposed(self) -> TiledMatrix:
        """The CSC-of-tiles view: the tiling of A^T (built lazily,
        cached on the plan — a second preprocessing pass, like the
        paper's A1/A2 pair for BFS — so every operator sharing the plan
        reuses it).  The CSC form's counters read it; its host product
        is the CSR form's."""
        def build() -> TiledMatrix:
            At = TiledMatrix.from_coo(
                self.hybrid.tiled.to_coo().transpose(), self.nt)
            At.tile_nnz()          # the CSC form's counters read it
            return At

        return self._plan.lazy_get("transposed", build)

    @property
    def _transposed_tiled(self) -> Optional[TiledMatrix]:
        """The transposed tiling if already built (None before the
        first CSC-form multiply)."""
        return self._plan.lazy.get("transposed")

    @property
    def _transposed_full_tiled(self) -> Optional[TiledMatrix]:
        """The full-A^T tiling if already built (None before the first
        transpose multiply)."""
        return self._plan.lazy.get("transposed_full")

    def _pick_kernel(self, xt: TiledVector) -> str:
        if self.mode != "adaptive":
            return self.mode
        active_fraction = (xt.n_nonempty_tiles / max(1, xt.n_tiles))
        return "csc" if active_fraction < self.adaptive_threshold \
            else "csr"

    def multiply(self, x: VectorLike,
                 output: str = "sparse",
                 mask: Optional[VectorLike] = None,
                 mask_complement: bool = False,
                 ) -> Union[SparseVector, TiledVector, np.ndarray]:
        """Compute ``y = A x`` (optionally masked).

        Parameters
        ----------
        x:
            Sparse, tiled, or dense input vector of length
            ``A.shape[1]``.
        output:
            ``"sparse"`` (default) → :class:`SparseVector`;
            ``"tiled"`` → :class:`TiledVector`;
            ``"dense"`` → dense ndarray with the semiring's additive
            identity in empty positions.
        mask:
            Optional GraphBLAS-style output mask (any vector form of
            length ``A.shape[0]``): positions where the mask holds no
            entry are forced to the additive identity.  With
            ``mask_complement=True`` the kept positions are inverted —
            exactly the ``y & ~visited`` filter of the paper's BFS.
        mask_complement:
            Invert the mask's keep-set.
        """
        if output not in ("sparse", "tiled", "dense"):
            raise ShapeError(f"unknown output mode {output!r}")
        if self._sharded is not None:
            return self._sharded.multiply(x, output=output, mask=mask,
                                          mask_complement=mask_complement)
        sr = self.semiring
        accounting = self.ctx.accounting
        xt, (cols, xvals) = self._input(x, accounting)
        if accounting:
            self._account(self._pick_kernel(xt), xt, cols)
        # the host product: one match over both parts, the same bits
        # whichever form the counters model
        rows, products = matched_product(self._entries, cols, xvals, sr)
        m = self.shape[0]
        if mask is None and output != "dense":
            return shape_output(reduce_sparse(rows, products, sr, m),
                                output, sr, self.nt)
        y_dense = reduce_dense(rows, products, sr, m)
        if mask is not None:
            y_dense = apply_output_mask(y_dense, mask, mask_complement,
                                        sr, self.ctx)
        return shape_output(y_dense, output, sr, self.nt)

    def _account(self, kernel: str, xt: TiledVector,
                 cols: np.ndarray) -> None:
        """Price one multiply's launches — the tiled form ``kernel``,
        then the COO side — inline or deferred, as the context asks."""
        name = _MULTIPLY_LAUNCH_NAMES[kernel]
        if kernel == "csc":
            At = self._transposed()
            part = self.hybrid.tiled.column_entries()
            self.ctx.account(name, lambda: csc_tiled_counters(
                At, xt, part.n_matched(cols)), phase="multiply")
        else:
            self.ctx.account(name, lambda: tiled_counters(
                self.hybrid.tiled, xt), phase="multiply")
        self._account_side("tile_spmspv_coo_side", xt, cols, None,
                           "multiply")

    def multiply_transpose(self, x: VectorLike,
                           output: str = "sparse"
                           ) -> Union[SparseVector, TiledVector,
                                      np.ndarray]:
        """Compute ``y = A^T x`` without building a second operator.

        Reuses the lazily built transposed tiling (the same structure
        the CSC-form kernel works on) with the row-tile kernel.  Note
        the extraction side matrix is folded into the transposed tiling
        here, so the whole matrix participates.  Needed by directed
        Brandes sweeps and adjoint iterations.
        """
        if output not in ("sparse", "tiled", "dense"):
            raise ShapeError(f"unknown output mode {output!r}")
        if self._sharded is not None:
            raise TileError(
                "transpose multiply is not supported over a sharded "
                "matrix (row strips do not partition A^T by rows)"
            )
        At = self._transposed_full()
        xt = self._as_tiled_vector(x)
        if xt.n != self.shape[0]:
            raise ShapeError(
                f"transpose SpMSpV shape mismatch: A^T is "
                f"{(self.shape[1], self.shape[0])}, x has length {xt.n}"
            )
        y_dense = self.ctx.run("tile_spmspv_transpose", tiled_kernel, At,
                               xt, semiring=self.semiring, phase="multiply")
        return shape_output(y_dense, output, self.semiring, self.nt)

    def _transposed_full(self) -> TiledMatrix:
        """Tiling of the full A^T (tiled part + side matrix), cached on
        the plan."""
        return self._plan.lazy_get(
            "transposed_full",
            lambda: _warm_active_set(TiledMatrix.from_coo(
                self.hybrid.to_coo().transpose(), self.nt)))

    def multiply_batch(self, xs, output: str = "sparse"):
        """Multiply against a batch of vectors in one coalesced launch.

        Runs the union kernel of
        :class:`~repro.core.batched.BatchedSpMSpV` under this
        operator's launch names (``tile_spmspv_batch``) — the
        multi-source pattern of batched BFS / Brandes BC.

        Parameters
        ----------
        xs:
            Sequence of vectors (any form :meth:`multiply` accepts).
        output:
            ``"sparse"`` → list of :class:`SparseVector`;
            ``"dense"`` → one ``(k, m)`` ndarray.
        """
        from .batched import coalesced_multiply
        return coalesced_multiply(self, xs, output, None,
                                  "tile_spmspv_batch",
                                  "tile_spmspv_coo_side")

    def flops_useful(self, x: VectorLike) -> int:
        """Number of useful multiply-adds for this input (2 * matched
        nonzeros) — the numerator of the paper's GFlops metric."""
        xt = self._as_tiled_vector(x)
        dense_x = xt.to_dense()
        if np.isinf(self.semiring.add_identity):
            mask = ~np.isinf(dense_x)
        else:
            mask = dense_x != self.semiring.add_identity
        coo = (self._sharded.matrix.to_coo() if self._sharded is not None
               else self.hybrid.to_coo())
        return int(2 * np.count_nonzero(mask[coo.col]))


def apply_output_mask(y_dense: np.ndarray, mask: VectorLike,
                      complement: bool, semiring: Semiring,
                      ctx: ExecutionContext) -> np.ndarray:
    """Force non-kept positions of a dense result to the additive
    identity (the GraphBLAS output mask).  Shared by every operator
    with dense accumulators — :class:`TileSpMSpV` and the sharded
    engine in :mod:`repro.shards.engine` — so masked semantics cannot
    drift between the in-core and out-of-core paths."""
    n_out = y_dense.shape[0]
    if isinstance(mask, SparseVector):
        if mask.n != n_out:
            raise ShapeError(
                f"mask length {mask.n} != output length {n_out}"
            )
        keep = np.zeros(n_out, dtype=bool)
        keep[mask.indices] = True
    elif isinstance(mask, TiledVector):
        if mask.n != n_out:
            raise ShapeError(
                f"mask length {mask.n} != output length {n_out}"
            )
        dense = mask.to_dense()
        if np.isnan(mask.fill):  # pragma: no cover - defensive
            keep = ~np.isnan(dense)
        else:
            keep = dense != mask.fill
    else:
        m = np.asarray(mask)
        if m.shape != (n_out,):
            raise ShapeError(
                f"mask shape {m.shape} != ({n_out},)"
            )
        keep = m.astype(bool)
    if complement:
        keep = ~keep
    y_dense = y_dense.copy()
    y_dense[~keep] = semiring.add_identity
    if ctx.accounting:
        # counters are analytic in n_out, so building them eagerly is
        # fine even in production (launch auto-defers the record)
        c = KernelCounters(launches=1)
        c.coalesced_read_bytes += n_out / 8.0   # mask bits
        c.coalesced_write_bytes += n_out * 8.0
        c.warps = max(1.0, n_out / (32.0 * 32.0))
        ctx.launch("tile_spmspv_mask", c, phase="mask")
    return y_dense


def _warm_active_set(tiled: TiledMatrix) -> TiledMatrix:
    """Build the matched-entry execution caches of a tiling eagerly.

    Everything here is cached on the matrix and only depends on its
    immutable structure; building it at plan time keeps the first
    multiply as cheap as the steady state (and, via the plan cache,
    amortises the cost across every operator sharing the plan).
    """
    tiled.column_entries()
    tiled.tile_nnz()
    tiled.n_occupied_tile_rows()
    return tiled


def _spmspv_plan(hybrid: HybridTiledMatrix, key=()) -> OperatorPlan:
    """A TileSpMSpV plan from a built hybrid tiling: both parts are
    indexed by column once, in one stacked
    :meth:`~repro.tiles.extraction.HybridTiledMatrix.entry_index` that
    every multiply matches once; the side index is its second part,
    and the counters keep the per-column-tile pointers, so the side
    launch skips inactive side columns just like the tiled one."""
    entries = hybrid.entry_index()
    side_index = (IndexedSideMatrix.from_coo(hybrid.side, hybrid.nt,
                                             entries=entries.part(1))
                  if hybrid.side.nnz else None)
    if side_index is not None:
        side_index.nonempty_coltiles()
        side_index.n_index_tiles()
    plan = OperatorPlan(kind="tilespmspv", key=tuple(key),
                        data={"hybrid": hybrid,
                              "side_index": side_index})
    plan.warm(col_gather=lambda: _warm_active_set(hybrid.tiled)
              .column_gather())
    return plan


def _build_spmspv_plan(matrix, nt: int, extract_threshold: int,
                       key) -> OperatorPlan:
    """Full Fig. 11 preprocessing: COO conversion, tiling, and
    very-sparse-tile extraction (the cache-miss path)."""
    hybrid = split_very_sparse_tiles(to_coo(matrix), nt,
                                     threshold=extract_threshold)
    return _spmspv_plan(hybrid, key=key)


def tile_spmspv(matrix, x: VectorLike, nt: int = 16,
                extract_threshold: int = 2,
                semiring: Semiring = PLUS_TIMES,
                device: Optional[Device] = None,
                output: str = "sparse"):
    """One-shot convenience wrapper: prepare + multiply.

    For repeated multiplies against the same matrix, build a
    :class:`TileSpMSpV` once instead (preprocessing is the expensive
    part; see the Figure-11 benchmark).
    """
    op = TileSpMSpV(matrix, nt=nt, extract_threshold=extract_threshold,
                    semiring=semiring, device=device)
    return op.multiply(x, output=output)
