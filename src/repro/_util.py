"""Small vectorized building blocks shared across kernels.

These are the NumPy idioms that stand in for the per-thread loops a
CUDA kernel would use: range concatenation (a warp iterating a CSR
segment), segment reduction (a warp-level shuffle reduction), and
stable grouping (a bucket sort).
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

__all__ = [
    "cached",
    "concat_ranges",
    "gather_ranges",
    "segment_sum",
    "segment_reduce",
    "group_starts",
    "radix_argsort",
    "sorted_distinct",
    "ceil_div",
]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    return -(-a // b)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges ``[starts[i], starts[i]+lengths[i])``.

    Vectorized equivalent of
    ``np.concatenate([np.arange(s, s+l) for s, l in zip(starts, lengths)])``
    — the gather pattern of a warp walking several CSR segments.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # element k of segment i is starts[i] + (k - seg_start[i]): one
    # arange plus one repeated per-segment offset
    seg_start = np.cumsum(lengths) - lengths
    offset = np.asarray(starts, dtype=np.int64) - seg_start
    return np.arange(total, dtype=np.int64) + np.repeat(offset, lengths)


def gather_ranges(indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Concatenate the CSR segments ``[indptr[i], indptr[i+1])`` for
    each ``i`` in ``ids``.

    The active-set gather: ``ids`` is the (small) list of selected
    segments and the output indexes only their elements, so the cost is
    proportional to the selected payload, never to the whole array.
    """
    ids = np.asarray(ids, dtype=np.int64)
    return concat_ranges(indptr[ids], indptr[ids + 1] - indptr[ids])


def segment_sum(values: np.ndarray, segment_ids: np.ndarray,
                n_segments: int) -> np.ndarray:
    """Sum ``values`` into ``n_segments`` bins keyed by ``segment_ids``.

    ``segment_ids`` need not be sorted.  This is the scatter-add a GPU
    kernel realises with ``atomicAdd`` into global memory.
    """
    out = np.zeros(n_segments, dtype=values.dtype)
    if len(values):
        np.add.at(out, segment_ids, values)
    return out


def segment_reduce(ufunc: np.ufunc, values: np.ndarray,
                   sorted_segment_ids: np.ndarray,
                   n_segments: int, identity) -> np.ndarray:
    """Reduce values grouped by a *sorted* segment-id array with ``ufunc``.

    Faster than ``ufunc.at`` when the ids are presorted (the merge step
    of column-major SpMSpV after a bucket sort).
    """
    out = np.full(n_segments, identity,
                  dtype=np.result_type(values.dtype, type(identity)))
    if len(values) == 0:
        return out
    starts = group_starts(sorted_segment_ids)
    reduced = ufunc.reduceat(values, starts)
    out[sorted_segment_ids[starts]] = reduced
    return out


def cached(method: Callable) -> Callable:
    """Compute a no-argument method once per instance, kept as
    ``_<name>`` (which a producer holding the result may set)."""
    name = "_" + method.__name__

    @functools.wraps(method)
    def get(self):
        value = getattr(self, name, None)
        if value is None:
            value = method(self)
            setattr(self, name, value)
        return value
    return get


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each run of equal keys begins in a sorted array."""
    if len(sorted_keys) == 0:
        return np.zeros(0, dtype=np.int64)
    boundary = np.empty(len(sorted_keys), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending —
    ``np.unique(keys)`` without its hash table.

    Recent NumPy answers a plain ``np.unique`` with a hash table, which
    on large integer arrays is far slower than sorting (1.9 s against
    0.03 s for 1.8 M random int64 keys on NumPy 2.4).
    Integer keys only: ``np.unique`` collapses NaNs, this does not.
    """
    out = np.sort(np.asarray(keys).ravel())
    return out[group_starts(out)]


def radix_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer keys.

    When a key and its position fit one ``int64``, the keys carry their
    positions in the low bits: one value sort of these distinct packed
    keys is stable (twice as fast as one 16-bit radix pass on 1.8 M
    keys).  Wider keys take one NumPy radix pass per 16-bit digit,
    least significant first (an LSD radix sort).
    """
    keys = np.asarray(keys)
    n = len(keys)
    pos_bits = max(n - 1, 1).bit_length()
    if n and int(keys.max()).bit_length() + pos_bits <= 63:
        packed = keys.astype(np.int64)
        packed <<= pos_bits
        packed |= np.arange(n)
        packed.sort()
        packed &= (1 << pos_bits) - 1
        return packed
    # the cast to uint16 keeps the low 16 bits (integer casts wrap)
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if n == 0 or int(keys.max()) < 1 << 16:
        return order
    high = keys[order]
    high >>= 16
    return order[radix_argsort(high)]
