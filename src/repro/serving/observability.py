"""Per-request observability riding the PR-1 tracer.

Every request the service admits gets a :class:`RequestRecord` —
request id, tenant, query kind, target matrix, submit / completion
times on the injectable clock, and how it was executed (batch id and
size for coalesced multiplies, a tracer sequence window for directly
executed BFS / PageRank queries).  The record is the join key between
the request stream and the kernel-launch trace:

* coalesced multiplies: the :class:`~repro.runtime.BatchQueue` stamps
  every launch of a batch with ``mat=<name>;batch=<id> size=<B>`` (the
  service sets the ``mat=`` prefix so batch ids from different queues
  sharing one tracer stay unambiguous), and the record stores that
  ``launch_tag`` — :meth:`RequestLog.events_for` recovers the
  request's launches from any tracer by matching it, so a request id
  resolves to concrete rows in the Chrome trace;
* direct queries (BFS, PageRank): the service brackets execution with
  the tracer's event count, and the record stores the ``[seq_start,
  seq_end)`` window.

:meth:`RequestLog.rollup` computes the p50/p99 latency summaries the
service exposes in ``stats()``; :meth:`RequestLog.write_jsonl` dumps
the raw request stream for offline analysis next to the launch-level
JSONL the tracer already writes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = ["RequestRecord", "RequestLog"]


@dataclass
class RequestRecord:
    """One request's lifecycle as seen by the service."""

    request_id: int
    tenant: str
    kind: str                    # "multiply" | "bfs" | "pagerank"
    matrix: str
    semiring: Optional[str]
    submit_s: float
    done_s: Optional[float] = None
    status: str = "pending"      # pending | ok | rejected | error
    batch_id: Optional[int] = None
    batch_size: Optional[int] = None
    launch_tag: Optional[str] = None
    seq_start: Optional[int] = None
    seq_end: Optional[int] = None
    modeled_ms: float = 0.0

    @property
    def latency_ms(self) -> Optional[float]:
        """Submit-to-completion latency on the service clock (None
        until completed)."""
        if self.done_s is None:
            return None
        return (self.done_s - self.submit_s) * 1e3


class RequestLog:
    """Append-only request ledger with latency rollups."""

    def __init__(self):
        self.records: List[RequestRecord] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def open(self, tenant: str, kind: str, matrix: str,
             semiring: Optional[str], submit_s: float) -> RequestRecord:
        rec = RequestRecord(request_id=self._next_id, tenant=tenant,
                            kind=kind, matrix=matrix, semiring=semiring,
                            submit_s=submit_s)
        self._next_id += 1
        self.records.append(rec)
        return rec

    def complete(self, rec: RequestRecord, done_s: float,
                 batch_id: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 launch_tag: Optional[str] = None,
                 seq_start: Optional[int] = None,
                 seq_end: Optional[int] = None,
                 modeled_ms: float = 0.0) -> None:
        rec.done_s = done_s
        rec.status = "ok"
        rec.batch_id = batch_id
        rec.batch_size = batch_size
        rec.launch_tag = launch_tag
        rec.seq_start = seq_start
        rec.seq_end = seq_end
        rec.modeled_ms = modeled_ms

    def reject(self, rec: RequestRecord) -> None:
        rec.status = "rejected"

    def fail(self, rec: RequestRecord, done_s: float) -> None:
        """Close a request whose execution raised."""
        rec.done_s = done_s
        rec.status = "error"

    def get(self, request_id: int) -> RequestRecord:
        rec = self.records[request_id]
        if rec.request_id != request_id:  # pragma: no cover - defensive
            raise KeyError(request_id)
        return rec

    # ------------------------------------------------------------------
    def latencies_ms(self, kind: Optional[str] = None) -> np.ndarray:
        """Completed-request latencies in ms (optionally one kind)."""
        return np.asarray([r.latency_ms for r in self.records
                           if r.status == "ok"
                           and (kind is None or r.kind == kind)],
                          dtype=np.float64)

    def rollup(self, kind: Optional[str] = None) -> Dict[str, float]:
        """count / mean / p50 / p99 / max latency summary.

        The tail percentile uses ``method="higher"`` — an observed
        latency, never a value interpolated *below* the slowest
        request.  With the default linear interpolation a 10-sample
        log would report a p99 under its own max, which reads as a
        latency no request actually paid.
        """
        lat = self.latencies_ms(kind)
        if lat.size == 0:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                    "p99_ms": 0.0, "max_ms": 0.0}
        return {
            "count": int(lat.size),
            "mean_ms": float(lat.mean()),
            "p50_ms": float(np.percentile(lat, 50)),
            "p99_ms": float(np.percentile(lat, 99, method="higher")),
            "max_ms": float(lat.max()),
        }

    def rollups(self) -> Dict[str, Dict[str, float]]:
        """Per-kind rollups plus the combined ``all`` row."""
        kinds = sorted({r.kind for r in self.records})
        out = {k: self.rollup(k) for k in kinds}
        out["all"] = self.rollup()
        return out

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if r.status == "rejected")

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def events_for(self, request_id: int, tracer) -> list:
        """The tracer events belonging to one request.

        Coalesced multiplies match by the recorded launch tag (the
        request shares these events with its batchmates — that is
        what coalescing means); direct queries slice the recorded
        ``[seq_start, seq_end)`` window.
        """
        rec = self.get(request_id)
        if rec.launch_tag is not None:
            want = rec.launch_tag + " "
            exact = rec.launch_tag
            return [ev for ev in tracer.events
                    if ev.tag is not None
                    and (ev.tag.startswith(want) or ev.tag == exact)]
        if rec.seq_start is not None:
            return [ev for ev in tracer.events
                    if rec.seq_start <= ev.seq < rec.seq_end]
        return []

    # ------------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        out = []
        for rec in self.records:
            row = asdict(rec)
            row["latency_ms"] = rec.latency_ms
            out.append(row)
        return out

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row) + "\n" for row in self.to_dicts())

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<RequestLog {len(self.records)} requests, "
                f"{self.completed} completed, {self.rejected} rejected>")
