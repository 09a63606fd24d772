"""The paper's algorithms: TileSpMSpV (§3.3) and TileBFS (§3.4).

Public entry points:

* :class:`TileSpMSpV` / :func:`tile_spmspv` — numeric sparse
  matrix-sparse vector multiply over tiled storage;
* :class:`TileBFS` / :func:`tile_bfs` — directional-optimization BFS
  over bitmask tiles;
* :class:`BatchedSpMSpV` — one matrix against many sparse vectors in a
  single coalesced launch (the MS-BFS amortisation as an operator);
* :class:`KernelSelector` — the K1/K2/K3 switching policy (ablation
  hooks for Figure 9).
"""

from .bfs_kernels import (expand_vertex_tiles, pull_csc_counters,
                          push_csc_counters, push_csr_counters)
from .selection import (PULL_CSC, PUSH_CSC, PUSH_CSR, SPMM_MERGE_PATH,
                        SPMM_ROW_WARP, KernelSelector, select_tile_size)
from .reference_bfs_kernels import (reference_msbfs_expand,
                                    reference_pull_csc_kernel,
                                    reference_push_csc_kernel,
                                    reference_push_csr_kernel)
from .reference_kernels import (reference_coo_side_kernel,
                                reference_csc_tiled_kernel,
                                reference_tiled_kernel)
from .batched import BatchedSpMSpV
from .spmspv import (TiledOperator, TileSpMSpV, as_tiled_vector,
                     spmspv_plan_key, tile_spmspv)
from .spmspv_kernels import (batched_union_kernel, coo_side_kernel,
                             csc_tiled_kernel, tiled_kernel)
from .spmm import TileSpMM, as_dense_block
from .spmm_kernels import (row_tile_imbalance, spmm_coo_side_kernel,
                           spmm_merge_path_kernel, spmm_row_warp_kernel)
from .msbfs import MSBFSResult, MultiSourceBFS, msbfs_expand
from .tilebfs import BFSResult, IterationRecord, TileBFS, tile_bfs

__all__ = [
    "TiledOperator", "TileSpMSpV", "tile_spmspv", "as_tiled_vector",
    "spmspv_plan_key", "tiled_kernel", "csc_tiled_kernel",
    "coo_side_kernel",
    "BatchedSpMSpV", "batched_union_kernel",
    "TileSpMM", "as_dense_block",
    "spmm_row_warp_kernel", "spmm_merge_path_kernel",
    "spmm_coo_side_kernel", "row_tile_imbalance",
    "reference_tiled_kernel", "reference_csc_tiled_kernel",
    "reference_coo_side_kernel",
    "TileBFS", "tile_bfs", "BFSResult", "IterationRecord",
    "MultiSourceBFS", "MSBFSResult",
    "KernelSelector", "select_tile_size",
    "PUSH_CSC", "PUSH_CSR", "PULL_CSC",
    "SPMM_ROW_WARP", "SPMM_MERGE_PATH",
    "push_csc_counters", "push_csr_counters", "pull_csc_counters",
    "expand_vertex_tiles", "msbfs_expand",
    "reference_push_csc_kernel", "reference_push_csr_kernel",
    "reference_pull_csc_kernel", "reference_msbfs_expand",
]
