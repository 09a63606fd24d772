"""Directional-optimization kernel selection (paper §3.4).

The paper's switching rule, quoted:

1. "When the sparsity of the input vector x is less than 0.01 and the
   number of unvisited vertices is large, we will use ... Push-CSC."
2. "When the sparsity ... is greater than or equal to 0.01 and the
   number of unvisited vertices is large, we will use ... Push-CSR."
3. "When the number of unvisited vertices is small, we will use ...
   Pull-CSC."

:class:`KernelSelector` implements that rule with configurable
thresholds and a configurable set of *enabled* kernels, which is what
the Figure-9 ablation stacks: K1, K1+K2, K1+K2+K3.

It also implements the nt rule of §3.4: order > 10,000 → 64x64 tiles,
otherwise 32x32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from ..errors import TileError

__all__ = ["KernelSelector", "select_tile_size",
           "PUSH_CSC", "PUSH_CSR", "PULL_CSC",
           "SPMM_ROW_WARP", "SPMM_MERGE_PATH"]

PUSH_CSC = "push_csc"
PUSH_CSR = "push_csr"
PULL_CSC = "pull_csc"

_ALL = frozenset({PUSH_CSC, PUSH_CSR, PULL_CSC})

SPMM_ROW_WARP = "spmm_row_warp"
SPMM_MERGE_PATH = "spmm_merge_path"

_SPMM = frozenset({SPMM_ROW_WARP, SPMM_MERGE_PATH})


def select_tile_size(order: int) -> int:
    """The paper's nt rule: matrices of order > 10,000 use 64x64 tiles,
    smaller ones 32x32 (§3.4)."""
    return 64 if order > 10_000 else 32


@dataclass(frozen=True)
class KernelSelector:
    """Chooses which BFS kernel runs an iteration.

    Parameters
    ----------
    enabled:
        Subset of {push_csc, push_csr, pull_csc}; must contain
        ``push_csc`` (K1 is the fallback the ablation always keeps).
    sparsity_threshold:
        The 0.01 frontier-sparsity switch between Push-CSC and
        Push-CSR (paper rule 1/2).
    pull_threshold:
        "The number of unvisited vertices is small" — Pull-CSC engages
        when ``unvisited / n`` drops below this fraction.
    """

    enabled: FrozenSet[str] = field(default_factory=lambda: _ALL)
    sparsity_threshold: float = 0.01
    pull_threshold: float = 0.05
    #: SpMM load-balance switch: the merge-path kernel engages when the
    #: occupied-row-tile nonzero imbalance (``max / mean``) reaches
    #: this factor — balanced matrices keep the cheaper row-per-warp
    #: mapping, skewed ones split work evenly across warps.
    spmm_imbalance_threshold: float = 4.0
    #: When set, every iteration runs this kernel regardless of the
    #: rule — the forcing hook behind per-kernel benchmarks and the
    #: kernel-equivalence / correctness grids.  BFS kernels steer
    #: :meth:`choose`, SpMM kernels steer :meth:`choose_spmm`.
    forced: Optional[str] = None

    def __post_init__(self) -> None:
        bad = set(self.enabled) - _ALL
        if bad:
            raise TileError(f"unknown kernels in selector: {sorted(bad)}")
        if PUSH_CSC not in self.enabled:
            raise TileError("push_csc (K1) must always be enabled")
        if not (0.0 < self.sparsity_threshold < 1.0):
            raise TileError("sparsity_threshold must be in (0, 1)")
        if not (0.0 <= self.pull_threshold <= 1.0):
            raise TileError("pull_threshold must be in [0, 1]")
        if self.spmm_imbalance_threshold < 1.0:
            raise TileError("spmm_imbalance_threshold must be >= 1")
        if self.forced is not None and self.forced not in (_ALL | _SPMM):
            raise TileError(f"unknown forced kernel {self.forced!r}")

    # ------------------------------------------------------------------
    @classmethod
    def k1(cls) -> "KernelSelector":
        """Figure-9 ablation point 'K1': Push-CSC only."""
        return cls(enabled=frozenset({PUSH_CSC}))

    @classmethod
    def k1_k2(cls) -> "KernelSelector":
        """Figure-9 ablation point 'K1+K2': both push kernels."""
        return cls(enabled=frozenset({PUSH_CSC, PUSH_CSR}))

    @classmethod
    def k1_k2_k3(cls) -> "KernelSelector":
        """Figure-9 ablation point 'K1+K2+K3': the full rule."""
        return cls(enabled=_ALL)

    @classmethod
    def fixed(cls, kernel: str) -> "KernelSelector":
        """A selector that always picks ``kernel`` — used to drive one
        kernel across a whole traversal (per-kernel wall-clock rows,
        the BFS correctness grid)."""
        return cls(forced=kernel)

    # ------------------------------------------------------------------
    def choose(self, frontier_sparsity: float, unvisited_fraction: float
               ) -> str:
        """Apply the paper's rule given the current iteration's state.

        Parameters
        ----------
        frontier_sparsity:
            ``nnz(x) / n`` of the current frontier.
        unvisited_fraction:
            ``(n - |visited|) / n``.
        """
        if self.forced is not None and self.forced in _ALL:
            return self.forced
        unvisited_small = unvisited_fraction < self.pull_threshold
        frontier_dense = frontier_sparsity >= self.sparsity_threshold
        # Pull scans every unvisited vertex, so it only pays while the
        # frontier is still dense; a thin tail frontier (long-diameter
        # matrices) stays with the cheap vector-driven push.  This is
        # the push/pull guard of directional optimization (Beamer et
        # al.), which the paper's rule 3 builds on.
        if unvisited_small and frontier_dense and PULL_CSC in self.enabled:
            return PULL_CSC
        if frontier_dense and PUSH_CSR in self.enabled:
            return PUSH_CSR
        return PUSH_CSC

    def choose_spmm(self, row_imbalance: float) -> str:
        """Pick the SpMM kernel for a matrix with the given
        occupied-row-tile nonzero imbalance (``max / mean``; see
        :func:`~repro.core.spmm_kernels.row_tile_imbalance`).

        Balanced matrices keep the naive row-per-warp mapping (no
        partition search, no staging overhead); once one row tile
        holds :attr:`spmm_imbalance_threshold` times the mean work,
        the merge-path kernel's even nonzero split wins.
        """
        if self.forced is not None and self.forced in _SPMM:
            return self.forced
        if row_imbalance >= self.spmm_imbalance_threshold:
            return SPMM_MERGE_PATH
        return SPMM_ROW_WARP
