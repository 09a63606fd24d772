"""Reference builders of every plan format: one comparison sort per
format, as the plans were built before they shared one tile order.

Each format here sorts its own key with ``np.argsort(kind="stable")``
and ORs bitmask words in with ``np.bitwise_or.at``.  The production
builders derive all of them from one tile-order permutation; the
byte-identity tests compare the two array by array.
"""

from __future__ import annotations

import numpy as np

from repro._util import ceil_div, group_starts, sorted_distinct
from repro.formats.coo import COOMatrix
from repro.formats.csr import compress_indptr, expand_indptr
from repro.tiles.bitmask import bit_positions, bit_weight_vector


def tiling(coo: COOMatrix, nt: int) -> dict:
    """The CSR-of-tiles arrays of a canonical COO."""
    m, n = coo.shape
    nc = ceil_div(n, nt)
    tile_key = (coo.row // nt) * nc + coo.col // nt
    order = np.argsort(tile_key, kind="stable")
    tile_key = tile_key[order]
    starts = group_starts(tile_key)
    return {
        "tile_ptr": compress_indptr(tile_key[starts] // nc,
                                    ceil_div(m, nt)),
        "tile_colidx": tile_key[starts] % nc,
        "tile_nnz_ptr": np.append(starts, len(tile_key)).astype(np.int64),
        "local_row": (coo.row % nt).astype(np.uint8)[order],
        "local_col": (coo.col % nt).astype(np.uint8)[order],
        "values": coo.val[order],
    }


def split(coo: COOMatrix, nt: int, threshold: int):
    """``(dense, side)``: canonical COO parts of the very-sparse-tile
    split, the tile nnz counted through a tile-key argsort."""
    coo = coo.sum_duplicates()
    if coo.nnz == 0 or threshold == 0:
        return coo, COOMatrix.empty(coo.shape, dtype=coo.val.dtype)
    nc = ceil_div(coo.shape[1], nt)
    tile_key = (coo.row // nt) * nc + coo.col // nt
    order = np.argsort(tile_key, kind="stable")
    starts = group_starts(tile_key[order])
    counts = np.diff(np.append(starts, coo.nnz))
    sparse = np.empty(coo.nnz, dtype=bool)
    sparse[order] = np.repeat(counts <= threshold, counts)

    def part(mask):
        return COOMatrix(coo.shape, coo.row[mask], coo.col[mask],
                         coo.val[mask])
    return part(~sparse), part(sparse)


def bit_tiling(coo: COOMatrix, nt: int, orientation: str) -> dict:
    """A pattern's bitmask tiling: a tile-key argsort, then every bit
    ORed into its word with ``np.bitwise_or.at``."""
    m, n = coo.shape
    trow, tcol = coo.row // nt, coo.col // nt
    lrow, lcol = coo.row % nt, coo.col % nt
    if orientation == "csc":
        major, minor, word_of, bit_of = tcol, trow, lcol, lrow
        n_major, n_minor = ceil_div(n, nt), ceil_div(m, nt)
    else:
        major, minor, word_of, bit_of = trow, tcol, lrow, lcol
        n_major, n_minor = ceil_div(m, nt), ceil_div(n, nt)
    order = np.argsort(major * n_minor + minor, kind="stable")
    starts = group_starts((major * n_minor + minor)[order])
    counts = np.diff(np.append(starts, len(order)))
    words = np.zeros((len(starts), nt), dtype=np.uint64)
    tile_of_entry = np.repeat(np.arange(len(starts)), counts)
    np.bitwise_or.at(words.reshape(-1),
                     tile_of_entry * nt + word_of[order],
                     bit_positions(bit_of[order], nt))
    return {"tile_ptr": compress_indptr(major[order][starts], n_major),
            "tile_otheridx": minor[order][starts], "words": words}


def is_symmetric(coo: COOMatrix) -> bool:
    """Pattern symmetry by sorting both key orders."""
    if coo.shape[0] != coo.shape[1]:
        return False
    n = coo.shape[1]
    fwd = sorted_distinct(coo.row * n + coo.col)
    bwd = sorted_distinct(coo.col * n + coo.row)
    return len(fwd) == len(bwd) and bool(np.array_equal(fwd, bwd))


def entry_index(dense: COOMatrix, side: COOMatrix, nt: int) -> dict:
    """The stacked column index of the tiled part (in tiled storage
    order) then the side part (row-major), each part ordered by an
    argsort of its slots."""
    t = tiling(dense, nt)
    tile = expand_indptr(t["tile_nnz_ptr"])
    rows = (expand_indptr(t["tile_ptr"]) * nt)[tile] + t["local_row"]
    cols = (t["tile_colidx"] * nt)[tile] + t["local_col"]
    parts = [(rows, cols, t["values"])]
    if side.nnz:
        parts.append((side.row, side.col, side.val))
    n_tiles = ceil_div(dense.shape[1], nt)
    bases, ptrs, outs, vals, orders = [], [np.zeros(1, np.int64)], [], [], []
    n_slots = lo = 0
    for p_rows, p_cols, p_vals in parts:
        occupied = np.zeros(n_tiles, dtype=bool)
        occupied[p_cols // nt] = True
        base = np.where(occupied, (np.cumsum(occupied) - 1) * nt, -1)
        slot = base[p_cols // nt] + p_cols % nt
        order = np.argsort(slot, kind="stable")
        bases.append(np.where(base >= 0, base + n_slots, -1))
        ptrs.append(np.cumsum(np.bincount(
            slot, minlength=int(occupied.sum()) * nt)) + lo)
        outs.append(p_rows[order])
        vals.append(p_vals[order])
        orders.append(order)
        n_slots += int(occupied.sum()) * nt
        lo += len(slot)
    return {"slot_base": np.stack(bases) if len(parts) > 1 else bases[0],
            "slot_ptr": np.concatenate(ptrs),
            "out": np.concatenate(outs), "vals": np.concatenate(vals),
            "order": np.concatenate(orders)}


def bfs_plan(coo: COOMatrix, nt: int, threshold: int) -> dict:
    """A1, A2, the side edges and the symmetry flag of a BFS plan: the
    dense part's csc tiling, its csr tiling (the csc arrays when the
    pattern is symmetric), and the extracted entries."""
    dense, side = split(coo, nt, threshold)
    symmetric = is_symmetric(dense)
    A1 = bit_tiling(dense, nt, "csc")
    A2 = A1 if symmetric else bit_tiling(dense, nt, "csr")
    return {"A1": A1, "A2": A2, "side": side, "symmetric": symmetric,
            "nnz": dense.nnz + side.nnz}


def fused_layout(A2: dict, side: COOMatrix, n: int, nt: int) -> dict:
    """The fused BFS layout's sweep and side arrays: the non-zero A2
    words and the side edges stably argsorted by row tile, and the side
    edges argsorted by column."""
    bw = bit_weight_vector(nt)
    wt, wr = np.nonzero(A2["words"])
    vals = A2["words"][wt, wr]
    ctile = A2["tile_otheridx"][wt]
    bits = bw[wr]
    rtile = expand_indptr(A2["tile_ptr"])[wt]
    if side.nnz:
        vals = np.concatenate((vals, bw[side.col % nt]))
        ctile = np.concatenate((ctile, side.col // nt))
        bits = np.concatenate((bits, bw[side.row % nt]))
        rtile = np.concatenate((rtile, side.row // nt))
        order = np.argsort(rtile, kind="stable")
        vals, ctile, bits, rtile = (vals[order], ctile[order],
                                    bits[order], rtile[order])
    order = np.argsort(side.col, kind="stable")
    rows = side.row[order]
    return {"sweep_words": vals, "sweep_ctile": ctile, "sweep_bit": bits,
            "sweep_rtile": rtile,
            "side_dst_word": (rows // nt).astype(np.int32),
            "side_dst_bit": bit_positions(rows % nt, nt),
            "side_indptr": compress_indptr(side.col[order], n)}
