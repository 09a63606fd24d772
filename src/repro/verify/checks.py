"""The differential checks the harness runs on each case.

Three layers of cross-checking (the tentpole of the verification
subsystem):

1. **Oracles** — operator results against the independent SciPy /
   dense-NumPy references in :mod:`repro.verify.oracles`.
2. **Siblings** — every operator against other registered operators of
   the same interface on the identical inputs.
3. **Model invariants & metamorphic relations** — counter sanity from
   the simulated device (non-negative counters, batched-union traffic
   no worse than looped singles, active-set payload no worse than a
   full scan, plan-cache hits leaving counters byte-identical) and
   algebraic relations (row permutations permute results, scaling the
   input scales the output, a batch of one equals a single multiply).

Every check takes a :class:`~repro.verify.cases.Case` and returns
``None`` on success or a human-readable failure message.  The message
(not an exception) is what feeds the shrinker: shrinking needs to
re-evaluate "does this smaller case still fail" cheaply.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..formats import COOMatrix
from ..gpusim import Device
from ..runtime import ExecutionContext, available_operators, \
    create_operator, resolve_operator
from ..semiring import PLUS_TIMES, Semiring
from ..vectors.sparse_vector import SparseVector
from .cases import Case
from .oracles import (bfs_levels_oracle, dense_semiring_multiply,
                      dijkstra_oracle, pagerank_oracle, scipy_matvec,
                      scipy_spmm)

__all__ = ["checks_for", "run_check", "CHECK_NAMES"]

_MULTIPLY_KINDS = ("spmspv", "spmv")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _build(case: Case, name: Optional[str] = None,
           device: Optional[Device] = None):
    entry = resolve_operator(name or case.operator)
    kwargs = {}
    if "nt" in entry.capabilities:
        kwargs["nt"] = case.nt
    if "semiring" in entry.capabilities:
        kwargs["semiring"] = case.sr
    return create_operator(entry.name, case.matrix, device=device,
                           **kwargs)


def _sibling_supports(case: Case, name: str) -> bool:
    entry = resolve_operator(name)
    if case.semiring != "plus_times" \
            and "semiring" not in entry.capabilities:
        return False
    if case.matrix.shape[0] != case.matrix.shape[1] \
            and "rectangular" not in entry.capabilities:
        return False
    return True


def _densify(v: SparseVector, n: int, semiring: Semiring) -> np.ndarray:
    out = np.full(n, semiring.add_identity, dtype=semiring.dtype)
    out[v.indices] = v.values
    return out


def _dense_x(v: SparseVector, semiring: Semiring) -> np.ndarray:
    return _densify(v, v.n, semiring)


def _compare(got: np.ndarray, want: np.ndarray, semiring: Semiring,
             what: str, rtol: float = 1e-9,
             atol: float = 1e-12) -> Optional[str]:
    if semiring.dtype.kind in "ui":
        if np.array_equal(got, want):
            return None
        bad = np.flatnonzero(got != want)
        return (f"{what}: {len(bad)} mismatched slots, first at "
                f"{bad[0]}: got {got[bad[0]]}, want {want[bad[0]]}")
    if np.allclose(got, want, rtol=rtol, atol=atol, equal_nan=True):
        return None
    diff = np.abs(np.where(np.isfinite(got) & np.isfinite(want),
                           got - want, np.where(got == want, 0.0,
                                                np.inf)))
    bad = int(np.argmax(diff))
    return (f"{what}: max |diff| {diff[bad]:.3e} at slot {bad} "
            f"(got {got[bad]!r}, want {want[bad]!r})")


def _multiply_results(case: Case, device: Optional[Device] = None
                      ) -> List[np.ndarray]:
    """Run the case's operator over its vectors, densified results."""
    op = _build(case, device=device)
    n_out = case.matrix.shape[0]
    entry = resolve_operator(case.operator)
    if "batch" in entry.capabilities and len(case.vectors) > 1:
        ys = op.multiply_batch(list(case.vectors))
        return [_densify(y, n_out, case.sr) for y in ys]
    return [_densify(op.multiply(x), n_out, case.sr)
            for x in case.vectors]


# ----------------------------------------------------------------------
# multiply-kind checks
# ----------------------------------------------------------------------
def check_oracle_multiply(case: Case) -> Optional[str]:
    got = _multiply_results(case)
    for b, (x, y) in enumerate(zip(case.vectors, got)):
        want = dense_semiring_multiply(case.matrix,
                                       _dense_x(x, case.sr), case.sr)
        err = _compare(y, want, case.sr,
                       f"vs dense {case.semiring} oracle (vector {b})")
        if err:
            return err
        if case.semiring == "plus_times":
            want2 = scipy_matvec(case.matrix, _dense_x(x, case.sr))
            err = _compare(y, want2, case.sr,
                           f"vs scipy CSR matvec (vector {b})",
                           rtol=1e-9, atol=1e-11)
            if err:
                return err
    return None


def check_siblings_multiply(case: Case) -> Optional[str]:
    got = _multiply_results(case)
    n_out = case.matrix.shape[0]
    pool = [n for k in _MULTIPLY_KINDS for n in available_operators(
        kind=k) if n != case.operator and _sibling_supports(case, n)]
    for name in pool:
        sib = _build(case, name=name)
        for b, (x, y) in enumerate(zip(case.vectors, got)):
            ys = _densify(sib.multiply(x), n_out, case.sr)
            err = _compare(y, ys, case.sr,
                           f"vs sibling {name} (vector {b})")
            if err:
                return err
    return None


def check_counters(case: Case) -> Optional[str]:
    device = Device()
    if case.kind in _MULTIPLY_KINDS:
        _multiply_results(case, device=device)
    elif case.kind == "spmm":
        op = _build(case, device=device)
        op.multiply_block(list(case.vectors))
    else:
        op = _build(case, device=device)
        if case.kind == "msbfs":
            op.run(list(case.sources))
        else:
            for s in case.sources:
                op.run(s)
    if not device.timeline:
        return "operator issued no launches on the attached device"
    for rec in device.timeline:
        try:
            rec.counters.check()
        except Exception as exc:
            return f"launch {rec.name!r}: invalid counters: {exc}"
    return None


def check_batched_union_bytes(case: Case) -> Optional[str]:
    """Batched multi-vector traffic must not exceed looped singles —
    coalescing shared tile reads is the whole point of the batch
    engine."""
    dev_b = Device()
    op_b = _build(case, device=dev_b)
    op_b.multiply_batch(list(case.vectors))
    bytes_b = sum(r.counters.global_bytes for r in dev_b.timeline)
    dev_l = Device()
    op_l = _build(case, name="tilespmspv", device=dev_l)
    for x in case.vectors:
        op_l.multiply(x)
    bytes_l = sum(r.counters.global_bytes for r in dev_l.timeline)
    if bytes_b > bytes_l * (1.0 + 1e-9):
        return (f"batched union traffic {bytes_b:.0f} B exceeds "
                f"looped singles {bytes_l:.0f} B")
    return None


def check_active_set_payload(case: Case) -> Optional[str]:
    """A sparse input must never cost more modeled traffic than the
    same multiply with a fully dense input (the active-set machinery
    can only skip work, not add it)."""
    n = case.matrix.shape[1]
    dev_s = Device()
    _build(case, device=dev_s).multiply(case.vectors[0])
    sparse_bytes = sum(r.counters.global_bytes for r in dev_s.timeline)
    dense_case = Case(case.operator, case.kind, matrix=case.matrix,
                      vectors=(SparseVector(
                          n, np.arange(n),
                          np.ones(n, dtype=case.sr.dtype)),),
                      semiring=case.semiring, nt=case.nt)
    dev_d = Device()
    _build(dense_case, device=dev_d).multiply(dense_case.vectors[0])
    dense_bytes = sum(r.counters.global_bytes for r in dev_d.timeline)
    if sparse_bytes > dense_bytes * (1.0 + 1e-9):
        return (f"sparse-input traffic {sparse_bytes:.0f} B exceeds "
                f"dense-input scan {dense_bytes:.0f} B")
    return None


def check_plan_cache_replay(case: Case) -> Optional[str]:
    """Rebuilding the operator (a plan-cache hit) must reproduce a
    byte-identical launch timeline — cached plans may never change
    what the kernels charge."""
    timelines = []
    for _ in range(2):
        dev = Device()
        op = _build(case, device=dev)
        op.multiply(case.vectors[0])
        timelines.append(dev.timeline)
    t1, t2 = timelines
    if len(t1) != len(t2):
        return (f"plan-cache replay changed launch count: "
                f"{len(t1)} vs {len(t2)}")
    for a, b in zip(t1, t2):
        if a.name != b.name or a.counters != b.counters:
            return (f"plan-cache replay diverged at launch "
                    f"{a.name!r}: counters differ")
    return None


def check_permute_rows(case: Case) -> Optional[str]:
    """Permuting the matrix rows must permute the result the same way
    (plus_times only; a pure structural relation)."""
    coo = case.matrix
    m = coo.shape[0]
    perm = np.random.default_rng(0).permutation(m)
    permuted = COOMatrix(coo.shape, perm[coo.row], coo.col, coo.val)
    pcase = Case(case.operator, case.kind, matrix=permuted,
                 vectors=case.vectors, semiring=case.semiring,
                 nt=case.nt)
    base = _multiply_results(case)
    moved = _multiply_results(pcase)
    for b, (y, yp) in enumerate(zip(base, moved)):
        err = _compare(yp[perm], y, case.sr,
                       f"row permutation not equivariant (vector {b})")
        if err:
            return err
    return None


def check_scale_linearity(case: Case) -> Optional[str]:
    """``A (2x) == 2 (A x)`` bit-exactly under plus_times: doubling is
    exact in IEEE-754 and commutes with every rounding step."""
    base = _multiply_results(case)
    scaled_vecs = tuple(SparseVector(x.n, x.indices, 2.0 * x.values)
                        for x in case.vectors)
    scase = Case(case.operator, case.kind, matrix=case.matrix,
                 vectors=scaled_vecs, semiring=case.semiring,
                 nt=case.nt)
    for b, (y, y2) in enumerate(zip(base, _multiply_results(scase))):
        if not np.array_equal(2.0 * y, y2):
            bad = int(np.argmax(2.0 * y != y2))
            return (f"scaling x by 2 not exactly linear (vector {b}, "
                    f"slot {bad}: {2.0 * y[bad]!r} vs {y2[bad]!r})")
    return None


def check_batch_of_one(case: Case) -> Optional[str]:
    """A batch of one must agree with the single-vector engine."""
    op = _build(case)
    single = _build(case, name="tilespmspv")
    n_out = case.matrix.shape[0]
    x = case.vectors[0]
    yb = _densify(op.multiply_batch([x])[0], n_out, case.sr)
    ys = _densify(single.multiply(x), n_out, case.sr)
    return _compare(yb, ys, case.sr, "batch of one vs single multiply")


# ----------------------------------------------------------------------
# spmm-kind checks
# ----------------------------------------------------------------------
def _bit_equal(got: np.ndarray, want: np.ndarray,
               semiring: Semiring) -> bool:
    if semiring.dtype.kind in "ui":
        return np.array_equal(got, want)
    # same-itemsize views work on strided columns; this catches
    # sign-of-zero and NaN-payload drift an allclose would pass
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def check_oracle_spmm(case: Case) -> Optional[str]:
    """SpMM against the dense semiring fold column by column, and —
    for plus_times — against SciPy's compiled CSR ``A @ X``."""
    op = _build(case)
    Y = op.multiply_block(list(case.vectors), output="dense")
    for j, x in enumerate(case.vectors):
        want = dense_semiring_multiply(case.matrix,
                                       _dense_x(x, case.sr), case.sr)
        err = _compare(np.ascontiguousarray(Y[:, j]), want, case.sr,
                       f"vs dense {case.semiring} oracle (column {j})")
        if err:
            return err
    if case.semiring == "plus_times":
        X = np.column_stack([_dense_x(x, case.sr)
                             for x in case.vectors])
        want2 = scipy_spmm(case.matrix, X)
        err = _compare(Y.ravel(), want2.ravel(), case.sr,
                       "vs scipy CSR A @ X", rtol=1e-9, atol=1e-11)
        if err:
            return err
    return None


def check_spmm_column_slice(case: Case) -> Optional[str]:
    """Column ``j`` of the SpMM result must be **bit-identical** to a
    single-vector TileSpMSpV multiply against column ``j`` of the
    block — the algebra-level contract tying the two operators
    together (zero signs included)."""
    op = _build(case)
    Xb = op.as_block(list(case.vectors))
    Y = op.multiply_block(Xb, output="dense")
    single = _build(case, name="tilespmspv")
    for j in range(Xb.B):
        want = single.multiply(Xb.column_sparse(j), output="dense")
        got = Y[:, j]
        if not _bit_equal(got, want, case.sr):
            if case.sr.dtype.kind in "ui":
                bad = int(np.flatnonzero(got != want)[0])
            else:
                bad = int(np.flatnonzero(
                    got.view(np.uint64) != want.view(np.uint64))[0])
            return (f"SpMM column {j} not bit-identical to the "
                    f"single-vector multiply at slot {bad}: "
                    f"got {got[bad]!r}, want {want[bad]!r}")
    return None


def check_spmm_kernel_parity(case: Case) -> Optional[str]:
    """The two SpMM kernels must agree bit-exactly, and the merge-path
    kernel's modeled traffic (global + L2) must never exceed the
    row-per-warp kernel's — staging each row segment once can only
    remove loads."""
    from ..core.selection import (SPMM_MERGE_PATH, SPMM_ROW_WARP,
                                  KernelSelector)
    from ..core.spmm import TileSpMM
    runs = {}
    for forced in (SPMM_ROW_WARP, SPMM_MERGE_PATH):
        dev = Device()
        op = TileSpMM(case.matrix, nt=case.nt, semiring=case.sr,
                      device=dev,
                      selector=KernelSelector(forced=forced))
        Y = op.multiply_block(list(case.vectors), output="dense")
        traffic = sum(r.counters.global_bytes + r.counters.l2_read_bytes
                      for r in dev.timeline)
        runs[forced] = (Y, traffic)
    y_row, bytes_row = runs[SPMM_ROW_WARP]
    y_merge, bytes_merge = runs[SPMM_MERGE_PATH]
    if not _bit_equal(y_row.ravel(), y_merge.ravel(), case.sr):
        return "row-per-warp and merge-path results are not bit-equal"
    if bytes_merge > bytes_row:
        return (f"merge-path modeled traffic {bytes_merge:.0f} B "
                f"exceeds row-per-warp {bytes_row:.0f} B")
    return None


# ----------------------------------------------------------------------
# graph-kind checks
# ----------------------------------------------------------------------
def check_oracle_bfs(case: Case) -> Optional[str]:
    op = _build(case)
    if case.kind == "msbfs":
        levels = op.run(list(case.sources)).levels
        rows = zip(case.sources, levels)
    else:
        rows = [(s, op.run(s).levels) for s in case.sources]
    for s, got in rows:
        want = bfs_levels_oracle(case.matrix, int(s))
        if not np.array_equal(got, want):
            bad = int(np.argmax(got != want))
            return (f"levels from source {s} disagree with csgraph "
                    f"oracle at vertex {bad}: got {got[bad]}, "
                    f"want {want[bad]}")
    return None


def check_siblings_bfs(case: Case) -> Optional[str]:
    op = _build(case)
    if case.kind == "msbfs":
        mine = dict(zip(case.sources,
                        op.run(list(case.sources)).levels))
        pool = available_operators(kind="bfs")
    else:
        mine = {s: op.run(s).levels for s in case.sources}
        pool = [n for n in available_operators(kind="bfs")
                if n != case.operator]
    for name in pool:
        sib = _build(case, name=name)
        for s, got in mine.items():
            ref = sib.run(int(s)).levels
            if not np.array_equal(got, ref):
                bad = int(np.argmax(np.asarray(got) != ref))
                return (f"levels from source {s} disagree with "
                        f"sibling {name} at vertex {bad}: "
                        f"got {got[bad]}, want {ref[bad]}")
    return None


# ----------------------------------------------------------------------
# primitive checks (injectable impls so tests can demonstrate the
# pre-fix bugs failing and the committed repros passing)
# ----------------------------------------------------------------------
def check_scatter_merge(case: Case,
                        merge: Optional[Callable] = None
                        ) -> Optional[str]:
    """The plus_times scatter-merge must be bit-identical (signed
    zeros included) to the canonical ``np.add.at`` fold."""
    out = case.data["out"]
    idx = case.data["idx"]
    values = case.data["values"]
    got = np.array(out, dtype=np.float64)
    if merge is None:
        got = PLUS_TIMES.scatter_merge(got, idx, values)
    else:
        got = merge(got, idx, values)
    want = np.array(out, dtype=np.float64)
    np.add.at(want, idx, values)
    if np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        return None
    bad = int(np.argmax(got.view(np.uint64) != want.view(np.uint64)))
    return (f"scatter_merge not bit-identical to add.at at slot "
            f"{bad}: got {got[bad]!r}, want {want[bad]!r}")


def check_pagerank(case: Case,
                   impl: Optional[Callable] = None) -> Optional[str]:
    from ..graphs import pagerank
    ranks, _ = (impl or pagerank)(case.matrix, tol=1e-14)
    want = pagerank_oracle(case.matrix)
    if np.allclose(ranks, want, atol=1e-8):
        return None
    bad = int(np.argmax(np.abs(ranks - want)))
    return (f"pagerank disagrees with dense linear-solve oracle at "
            f"vertex {bad}: got {ranks[bad]:.12f}, "
            f"want {want[bad]:.12f}")


def check_sssp(case: Case,
               impl: Optional[Callable] = None) -> Optional[str]:
    from ..graphs import sssp
    src = int(case.sources[0])
    got = (impl or sssp)(case.matrix, src, nt=case.nt)
    want = dijkstra_oracle(case.matrix, src)
    if np.allclose(got, want, rtol=1e-12, atol=0):
        return None
    finite = np.isfinite(want)
    if not np.array_equal(np.isfinite(got), finite):
        bad = int(np.argmax(np.isfinite(got) != finite))
        return (f"sssp reachability from {src} disagrees with "
                f"dijkstra at vertex {bad}")
    bad = int(np.argmax(np.abs(np.where(finite, got - want, 0.0))))
    return (f"sssp distance from {src} at vertex {bad}: "
            f"got {got[bad]!r}, want {want[bad]!r}")


def check_mm_roundtrip(case: Case) -> Optional[str]:
    import io as _io

    from ..formats import read_matrix_market, write_matrix_market
    coo = case.matrix.canonicalize()
    field = "integer" if np.issubdtype(coo.dtype, np.integer) \
        else "real"
    buf = _io.StringIO()
    write_matrix_market(coo, buf, field=field)
    buf.seek(0)
    back = read_matrix_market(buf).canonicalize()
    if back.shape != coo.shape:
        return f"round-trip changed shape {coo.shape} -> {back.shape}"
    for name, a, b in (("row", coo.row, back.row),
                       ("col", coo.col, back.col),
                       ("val", coo.val, back.val)):
        if not np.array_equal(a, b):
            bad = int(np.argmax(a != b))
            return (f"{field} round-trip corrupted {name}[{bad}]: "
                    f"{a[bad]!r} -> {b[bad]!r}")
    return None


# ----------------------------------------------------------------------
# production-mode checks
# ----------------------------------------------------------------------
def check_production_replay(case: Case) -> Optional[str]:
    """Production mode (accounting compiled out, counters deferred)
    must replay into a timeline identical launch-for-launch to a
    counters-on modeled run — names, tags, and counter values."""
    def drive(op) -> None:
        if case.kind in _MULTIPLY_KINDS:
            for x in case.vectors:
                op.multiply(x)
        elif case.kind == "msbfs":
            op.run(list(case.sources))
        else:
            for s in case.sources:
                op.run(int(s))

    dev_ref = Device()
    drive(_build(case, device=dev_ref))

    ctx = ExecutionContext(mode="production")
    op = _build(case, device=ctx)
    drive(op)
    if op.ctx.deferred_launches == 0:
        return "production run recorded no deferred launches"
    dev_got = op.ctx.replay()

    ref, got = dev_ref.timeline, dev_got.timeline
    if len(ref) != len(got):
        return (f"replayed timeline has {len(got)} launches, the "
                f"counters-on run has {len(ref)}")
    for i, (a, b) in enumerate(zip(ref, got)):
        if a.name != b.name or a.tag != b.tag:
            return (f"replay launch {i} is {b.name!r}/{b.tag!r}, "
                    f"counters-on run has {a.name!r}/{a.tag!r}")
        if a.counters != b.counters:
            return (f"replayed counters for launch {i} ({a.name!r}) "
                    f"differ from the counters-on run")
    return None


# ----------------------------------------------------------------------
# sharded execution checks
# ----------------------------------------------------------------------
def _shard_bytes_identity(op, window) -> Optional[str]:
    """Assert one multiply's modeled bytes decompose exactly.

    ``window`` is the timeline slice of a single sharded multiply.  The
    contract: one schedule launch, per-shard launches all tagged
    ``shard=<id>``, one combiner whose bytes equal the exact formula
    ``2 * itemsize * sum(executed strip rows)`` — and nothing else, so
    the device total is per-shard sums plus schedule plus combine.
    """
    sched = [r for r in window if r.name == "sharded_schedule"]
    combine = [r for r in window if r.name == "sharded_combine"]
    if len(sched) != 1 or len(combine) != 1:
        return (f"expected one schedule and one combine launch, got "
                f"{len(sched)} and {len(combine)}")
    tagged = [r for r in window if r.tag and "shard=" in r.tag]
    known = {id(r) for r in sched + combine + tagged}
    stray = [r.name for r in window if id(r) not in known]
    if stray:
        return f"untagged launches inside a sharded multiply: {stray}"
    def shard_of(tag: str) -> int:
        # tags are ;-joined key=value parts, possibly with a caller
        # prefix and device=/worker= suffixes under parallel execution
        for part in tag.split(";"):
            if part.startswith("shard="):
                return int(part[len("shard="):])
        raise ValueError(f"no shard= part in tag {tag!r}")

    executed = sorted({shard_of(r.tag) for r in tagged
                       if r.name == "sharded_spmspv_shard"})
    itemsize = op.semiring.dtype.itemsize
    expect = 2.0 * itemsize * sum(op.matrix.strip_rows(s)
                                  for s in executed)
    got = combine[0].counters.global_bytes
    if got != expect:
        return (f"combiner bytes {got} != exact formula {expect} "
                f"(2*{itemsize}*rows of executed shards {executed})")
    total = sum(r.counters.global_bytes for r in window)
    parts = (sched[0].counters.global_bytes
             + sum(r.counters.global_bytes for r in tagged) + got)
    if total != parts:
        return (f"modeled bytes {total} != per-shard sums + schedule "
                f"+ combine = {parts}")
    return None


def check_shard_invariance(case: Case) -> Optional[str]:
    """1-shard and N-shard execution are bit-identical, and each
    multiply's modeled bytes equal per-shard sums plus the combiner's
    exact merge cost (N ∈ {2, 4, 7}; clamped to the tile-row count on
    small cases)."""
    from ..shards.engine import ShardedSpMSpV
    sr = case.sr

    def run(n_shards):
        dev = Device()
        op = ShardedSpMSpV(case.matrix, nt=case.nt, semiring=sr,
                           device=dev, n_shards=n_shards)
        outs = []
        for x in case.vectors:
            start = len(dev.timeline)
            outs.append(op.multiply(x, output="dense"))
            err = _shard_bytes_identity(op, dev.timeline[start:])
            if err:
                return None, f"{n_shards}-shard: {err}"
        return outs, None

    base, err = run(1)
    if err:
        return err
    for n in (2, 4, 7):
        outs, err = run(n)
        if err:
            return err
        for i, (got, want) in enumerate(zip(outs, base)):
            if sr.dtype.kind in "ui":
                same = np.array_equal(got, want)
            else:
                # bit-level view: catches sign-of-zero / NaN drift an
                # allclose would wave through
                same = np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
            if not same:
                bad = int(np.flatnonzero(
                    got.view(np.uint64) != want.view(np.uint64))[0]) \
                    if sr.dtype.kind not in "ui" else \
                    int(np.flatnonzero(got != want)[0])
                return (f"shard-count variance: N={n} vector {i} "
                        f"differs from 1-shard at slot {bad}: "
                        f"got {got[bad]!r}, want {want[bad]!r}")
    return None


def check_parallel_invariance(case: Case) -> Optional[str]:
    """Multi-worker shard execution is an implementation detail.

    For workers ∈ {1, 2, 4}: results are bit-identical to the
    sequential sharded engine AND to the unsharded operator; the
    launch stream (names, shard tags, every counter field) matches the
    sequential stream exactly once device=/worker= annotations are
    stripped; and the merged multi-device timeline decomposes exactly
    into its per-device lanes, with the critical path never exceeding
    the sum of work.  Engines are rebuilt per vector so both sides run
    cold — warm-residency traffic depends on placement history, which
    is exactly what this check must not let leak into the model.
    """
    from ..core.spmspv import TileSpMSpV
    from ..shards.engine import ShardedSpMSpV
    sr = case.sr
    n_shards = 4

    def norm_tag(tag):
        if tag is None:
            return None
        kept = [p for p in tag.split(";")
                if not p.startswith(("device=", "worker="))]
        return ";".join(kept)

    def stream(dev):
        return [(r.name, norm_tag(r.tag), r.counters)
                for r in dev.timeline]

    for i, x in enumerate(case.vectors):
        dev_seq = Device()
        y_seq = ShardedSpMSpV(case.matrix, nt=case.nt, semiring=sr,
                              device=dev_seq, n_shards=n_shards
                              ).multiply(x, output="dense")
        y_flat = TileSpMSpV(case.matrix, nt=case.nt, semiring=sr
                            ).multiply(x, output="dense")
        if not np.array_equal(y_seq.view(np.uint8),
                              y_flat.view(np.uint8)):
            return (f"vector {i}: sequential sharded result differs "
                    f"from the unsharded operator")
        ref_stream = stream(dev_seq)
        for w in (1, 2, 4):
            dev = Device()
            op = ShardedSpMSpV(case.matrix, nt=case.nt, semiring=sr,
                               device=dev, n_shards=n_shards,
                               parallel=w)
            y = op.multiply(x, output="dense")
            if not np.array_equal(y.view(np.uint8),
                                  y_seq.view(np.uint8)):
                bad = int(np.flatnonzero(
                    y.view(np.uint8) != y_seq.view(np.uint8))[0])
                return (f"vector {i}: workers={w} result differs from "
                        f"sequential near byte {bad}")
            got_stream = stream(dev)
            if len(got_stream) != len(ref_stream):
                return (f"vector {i}: workers={w} launched "
                        f"{len(got_stream)} kernels, sequential "
                        f"launched {len(ref_stream)}")
            for j, (a, b) in enumerate(zip(ref_stream, got_stream)):
                if a[:2] != b[:2]:
                    return (f"vector {i}: workers={w} launch {j} is "
                            f"{b[0]!r}/{b[1]!r}, sequential has "
                            f"{a[0]!r}/{a[1]!r}")
                if a[2] != b[2]:
                    return (f"vector {i}: workers={w} launch {j} "
                            f"({a[0]!r}) counters differ from "
                            f"sequential")
            if w > 1:
                mt = op.multi_timeline(w)
                err = mt.decomposes(dev)
                if err:
                    return (f"vector {i}: workers={w} multi-device "
                            f"timeline does not decompose: {err}")
                if mt.critical_path_ms > mt.sum_of_work_ms + 1e-12:
                    return (f"vector {i}: workers={w} critical path "
                            f"{mt.critical_path_ms} exceeds sum of "
                            f"work {mt.sum_of_work_ms}")
    return None


# ----------------------------------------------------------------------
# serving-layer checks
# ----------------------------------------------------------------------
def check_serving_equivalence(case: Case) -> Optional[str]:
    """Replaying a recorded request schedule through the serving layer
    must be bit-identical to direct engine calls.

    The schedule is deterministic: the case's vectors arrive at fixed
    virtual-time intervals against a coalescing service (batch budget
    2, latency budget 1 ms), so some requests dispatch on the size
    budget and some on the clock — both paths must hand back exactly
    what :class:`~repro.core.spmspv.TileSpMSpV` computes for the same
    vector, and every request must resolve to at least one tagged
    launch in the trace.
    """
    from ..core.spmspv import TileSpMSpV
    from ..runtime import Tracer
    from ..serving import GraphQueryService, MultiplyQuery, VirtualClock

    clock = VirtualClock()
    svc = GraphQueryService(device=Device(), tracer=Tracer(),
                            clock=clock, max_batch=2, max_delay_ms=1.0)
    svc.register_matrix("m", case.matrix, nt=case.nt)
    tickets = []
    for i, x in enumerate(case.vectors):
        clock.advance(0.4e-3)           # recorded arrival spacing
        svc.pump()
        tickets.append(svc.submit_nowait(
            MultiplyQuery("m", x, semiring=case.sr, output="dense")))
    clock.advance(1.1e-3)
    svc.pump()
    svc.drain()

    direct = TileSpMSpV(case.matrix, nt=case.nt, semiring=case.sr)
    for i, (x, t) in enumerate(zip(case.vectors, tickets)):
        if not t.done:
            return f"request {i} never dispatched"
        want = direct.multiply(x, output="dense")
        got = t.value
        if case.sr.dtype.kind in "ui":
            same = np.array_equal(got, want)
        else:
            same = np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64))
        if not same:
            bad = int(np.flatnonzero(np.asarray(got) != want)[0]) \
                if case.sr.dtype.kind in "ui" else \
                int(np.flatnonzero(got.view(np.uint64)
                                   != want.view(np.uint64))[0])
            return (f"served result {i} differs from direct engine "
                    f"at slot {bad}: got {got[bad]!r}, "
                    f"want {want[bad]!r}")
        if not svc.events_for(t.request_id):
            return (f"request {i} resolves to no tagged launches in "
                    f"the trace")
    return None


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
_PRIMITIVE_CHECKS: Dict[str, Callable[[Case], Optional[str]]] = {
    "scatter-merge": check_scatter_merge,
    "pagerank": check_pagerank,
    "sssp": check_sssp,
    "mm-roundtrip": check_mm_roundtrip,
}


def checks_for(case: Case
               ) -> List[Tuple[str, Callable[[Case], Optional[str]]]]:
    """The (name, fn) checks applicable to ``case``."""
    if case.kind == "primitive":
        return [(case.operator, _PRIMITIVE_CHECKS[case.operator])]
    entry = resolve_operator(case.operator)
    if case.kind == "spmm":
        return [("spmm-oracle", check_oracle_spmm),
                ("spmm-column-slice", check_spmm_column_slice),
                ("spmm-kernel-parity", check_spmm_kernel_parity),
                ("counters", check_counters)]
    if case.kind in _MULTIPLY_KINDS:
        out = [("oracle", check_oracle_multiply),
               ("siblings", check_siblings_multiply),
               ("counters", check_counters)]
        if case.semiring == "plus_times":
            out.append(("permute-rows", check_permute_rows))
            out.append(("scale-linearity", check_scale_linearity))
        if entry.name == "tilespmspv":
            out.append(("plan-cache-replay", check_plan_cache_replay))
            out.append(("active-set-payload",
                        check_active_set_payload))
        if entry.name == "sharded-spmspv":
            out.append(("shard-invariance", check_shard_invariance))
            out.append(("parallel-invariance",
                        check_parallel_invariance))
        if entry.name in ("tilespmspv", "sharded-spmspv"):
            out.append(("production-replay", check_production_replay))
        if "batch" in entry.capabilities:
            out.append(("batch-of-one", check_batch_of_one))
            out.append(("serving-equivalence",
                        check_serving_equivalence))
            if len(case.vectors) > 1:
                out.append(("batched-union-bytes",
                            check_batched_union_bytes))
        return out
    out = [("oracle", check_oracle_bfs),
           ("siblings", check_siblings_bfs),
           ("counters", check_counters)]
    if entry.name in ("tilebfs", "msbfs"):
        out.append(("production-replay", check_production_replay))
    return out


CHECK_NAMES = sorted({
    "oracle", "siblings", "counters", "permute-rows",
    "scale-linearity", "plan-cache-replay", "active-set-payload",
    "batch-of-one", "batched-union-bytes", "shard-invariance",
    "parallel-invariance", "production-replay",
    "serving-equivalence", "spmm-oracle", "spmm-column-slice",
    "spmm-kernel-parity",
    *_PRIMITIVE_CHECKS,
})


def run_check(name: str, case: Case) -> Optional[str]:
    """Run one named check on ``case``; exceptions become failures so
    the shrinker can minimize crashing cases too."""
    for check_name, fn in checks_for(case):
        if check_name == name:
            try:
                return fn(case)
            except Exception as exc:
                return f"{type(exc).__name__}: {exc}"
    raise ValueError(
        f"check {name!r} not applicable to {case.describe()}")
