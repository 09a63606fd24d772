"""The operator registry: dispatch by name, not by import.

The bench harness, the CLI, and the benchmark suite used to hard-code
one import + constructor per algorithm.  The registry replaces that
with a single lookup table: every operator — the paper's algorithms
and all eight baselines — registers a factory under a stable name, and
callers build instances with :func:`create_operator`.

Adding a new baseline is one registration::

    from repro.runtime import register_operator

    @register_operator("mybfs", kind="bfs",
                       summary="my shiny traversal")
    def _make_mybfs(matrix, device=None, **kwargs):
        from mypkg import MyBFS
        return MyBFS(matrix, device=device, **kwargs)

Factories import their implementation lazily so this module can be
imported from anywhere (including the packages that define the
operators) without cycles.

``kind`` groups operators by how they are driven: ``"spmspv"`` /
``"spmv"`` expose ``multiply(x)``, ``"spmm"`` exposes
``multiply_block(X)`` (and ``multiply(x)`` as the B = 1 case),
``"bfs"`` exposes ``run(source)``, ``"msbfs"`` exposes
``run(sources)``.

``capabilities`` describes the constructor/algebra surface the
differential verification harness (:mod:`repro.verify`) needs to drive
an operator generically:

* ``"semiring"`` — the factory accepts a ``semiring=`` kwarg (without
  it, the operator is verified under plus-times only);
* ``"nt"`` — the factory accepts a tile-size ``nt=`` kwarg;
* ``"rectangular"`` — non-square matrices are supported;
* ``"batch"`` — the operator exposes ``multiply_batch(xs)``;
* ``"dense-x"`` — ``multiply`` also accepts a dense ndarray input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError

__all__ = ["register_operator", "create_operator", "resolve_operator",
           "available_operators", "operator_aliases", "operator_kind",
           "OperatorEntry"]

#: Operator groupings the drivers understand.
KINDS = ("spmspv", "spmv", "spmm", "bfs", "msbfs")


@dataclass(frozen=True)
class OperatorEntry:
    """One registered operator factory.

    ``name`` is always the canonical registration name, even when the
    entry was resolved through an alias; ``aliases`` lists the other
    names the entry answers to.
    """

    name: str
    kind: str
    summary: str
    factory: Callable
    aliases: Tuple[str, ...] = ()
    capabilities: frozenset = field(default_factory=frozenset)


#: Canonical name -> entry.
_REGISTRY: Dict[str, OperatorEntry] = {}
#: Alias -> canonical name (kept apart so enumeration never
#: double-counts an operator registered under several names).
_ALIASES: Dict[str, str] = {}


def register_operator(name: str, kind: str = "spmspv",
                      summary: str = "",
                      aliases: tuple = (),
                      capabilities=()) -> Callable:
    """Decorator registering ``factory(matrix, device=None, **kwargs)``
    under ``name`` (and ``aliases``)."""
    if kind not in KINDS:
        raise ReproError(f"unknown operator kind {kind!r}; "
                         f"expected one of {KINDS}")

    def _register(factory: Callable) -> Callable:
        for n in (name, *aliases):
            if n in _REGISTRY or n in _ALIASES:
                raise ReproError(
                    f"operator {n!r} is already registered")
        _REGISTRY[name] = OperatorEntry(
            name=name, kind=kind, summary=summary, factory=factory,
            aliases=tuple(aliases),
            capabilities=frozenset(capabilities))
        for alias in aliases:
            _ALIASES[alias] = name
        return factory

    return _register


def resolve_operator(name: str) -> OperatorEntry:
    """The registry entry for ``name`` (canonical or alias; raises with
    the known names).  The returned entry always carries the canonical
    ``name``."""
    entry = _REGISTRY.get(_ALIASES.get(name, name))
    if entry is None:
        raise ReproError(
            f"unknown operator {name!r}; "
            f"available: {sorted([*_REGISTRY, *_ALIASES])}")
    return entry


def create_operator(name: str, matrix, device=None, **kwargs):
    """Build a prepared operator by registry name.

    ``device`` accepts a :class:`~repro.gpusim.Device`, an
    :class:`~repro.runtime.ExecutionContext`, or ``None``, exactly like
    the operator constructors themselves.
    """
    return resolve_operator(name).factory(matrix, device=device, **kwargs)


def available_operators(kind: Optional[str] = None) -> List[str]:
    """Sorted *canonical* registered names, optionally filtered by
    ``kind``.  Aliases are never listed here (each operator appears
    exactly once); see :func:`operator_aliases` for the alias map."""
    return sorted(n for n, e in _REGISTRY.items()
                  if kind is None or e.kind == kind)


def operator_aliases() -> Dict[str, str]:
    """The alias map: alias name -> canonical operator name."""
    return dict(_ALIASES)


def operator_kind(name: str) -> str:
    """The ``kind`` of a registered operator."""
    return resolve_operator(name).kind


# ----------------------------------------------------------------------
# Built-in operators.  Implementations are imported lazily inside each
# factory: the registry stays import-cycle-free and costs nothing until
# an operator is actually built.
# ----------------------------------------------------------------------
@register_operator("tilespmspv", kind="spmspv",
                   summary="TileSpMSpV (paper §3.3) — the primary "
                           "contribution",
                   aliases=("spmspv",),
                   capabilities=("semiring", "nt", "rectangular",
                                 "dense-x"))
def _make_tilespmspv(matrix, device=None, **kwargs):
    from ..core.spmspv import TileSpMSpV
    return TileSpMSpV(matrix, device=device, **kwargs)


@register_operator("batched-spmspv", kind="spmspv",
                   summary="batched multi-vector SpMSpV — one matrix "
                           "against B sparse vectors per launch",
                   capabilities=("semiring", "nt", "rectangular",
                                 "batch", "dense-x"))
def _make_batched_spmspv(matrix, device=None, **kwargs):
    from ..core.batched import BatchedSpMSpV
    return BatchedSpMSpV(matrix, device=device, **kwargs)


@register_operator("sharded-spmspv", kind="spmspv",
                   summary="row-strip sharded out-of-core SpMSpV — "
                           "mmap-backed shards, schedule/skip, "
                           "scatter-gather combine",
                   capabilities=("semiring", "nt", "rectangular",
                                 "dense-x"))
def _make_sharded_spmspv(matrix, device=None, **kwargs):
    from ..shards.engine import ShardedSpMSpV
    return ShardedSpMSpV(matrix, device=device, **kwargs)


@register_operator("tilebfs", kind="bfs",
                   summary="TileBFS (paper §3.4) — directional "
                           "optimization over bitmask tiles",
                   aliases=("bfs",),
                   capabilities=("nt",))
def _make_tilebfs(matrix, device=None, **kwargs):
    from ..core.tilebfs import TileBFS
    return TileBFS(matrix, device=device, **kwargs)


@register_operator("msbfs", kind="msbfs",
                   summary="bit-parallel multi-source BFS extension",
                   capabilities=("nt",))
def _make_msbfs(matrix, device=None, nt=None, **kwargs):
    # MS-BFS packs sources, not vertices, into words and has no tile
    # size; ``nt`` is accepted (and ignored) so every graph operator
    # takes the same grid arguments
    from ..core.msbfs import MultiSourceBFS
    return MultiSourceBFS(matrix, device=device, **kwargs)


@register_operator("tilespmv", kind="spmv",
                   summary="TileSpMV baseline (IPDPS '21) — dense "
                           "input vector",
                   capabilities=("semiring", "nt", "rectangular",
                                 "dense-x"))
def _make_tilespmv(matrix, device=None, **kwargs):
    from ..baselines.tilespmv import TileSpMV
    return TileSpMV(matrix, device=device, **kwargs)


@register_operator("cusparse-bsr", kind="spmv",
                   summary="cuSPARSE bsrmv stand-in — dense blocks",
                   capabilities=("rectangular", "dense-x"))
def _make_cusparse_bsr(matrix, device=None, **kwargs):
    from ..baselines.cusparse_bsr import CuSparseBSRMV
    return CuSparseBSRMV(matrix, device=device, **kwargs)


@register_operator("combblas", kind="spmspv",
                   summary="CombBLAS SpMSpV-bucket (IPDPS '17)",
                   capabilities=("semiring", "rectangular"))
def _make_combblas(matrix, device=None, **kwargs):
    from ..baselines.combblas import CombBLASSpMSpV
    return CombBLASSpMSpV(matrix, device=device, **kwargs)


@register_operator("spmspv-via-spgemm", kind="spmspv",
                   summary="SpMSpV through a general SpGEMM — the §1 "
                           "strawman",
                   capabilities=("rectangular",))
def _make_spmspv_via_spgemm(matrix, device=None, **kwargs):
    from ..baselines.spmspv_via_spgemm import SpMSpVViaSpGEMM
    return SpMSpVViaSpGEMM(matrix, device=device, **kwargs)


@register_operator("gunrock", kind="bfs",
                   summary="Gunrock-style advance/filter BFS "
                           "(PPoPP '16)")
def _make_gunrock(matrix, device=None, **kwargs):
    from ..baselines.gunrock import GunrockBFS
    return GunrockBFS(matrix, device=device, **kwargs)


@register_operator("gswitch", kind="bfs",
                   summary="GSwitch-style adaptive BFS (PPoPP '19)")
def _make_gswitch(matrix, device=None, **kwargs):
    from ..baselines.gswitch import GSwitchBFS
    return GSwitchBFS(matrix, device=device, **kwargs)


@register_operator("tilespmm", kind="spmm",
                   summary="tiled SpMM — sparse matrix × tall dense "
                           "block, row-per-warp / merge-path kernels",
                   aliases=("spmm",),
                   capabilities=("semiring", "nt", "rectangular",
                                 "dense-x"))
def _make_tilespmm(matrix, device=None, **kwargs):
    from ..core.spmm import TileSpMM
    return TileSpMM(matrix, device=device, **kwargs)


@register_operator("enterprise", kind="bfs",
                   summary="Enterprise-style classified-frontier BFS "
                           "(SC '15)")
def _make_enterprise(matrix, device=None, **kwargs):
    from ..baselines.enterprise import EnterpriseBFS
    return EnterpriseBFS(matrix, device=device, **kwargs)
