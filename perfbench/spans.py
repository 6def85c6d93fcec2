"""Outside-in layer tracing for the traced benchmark run.

Spans are recorded around calls *into* each layer's public functions,
which are wrapped here for the duration of one traced request and then
restored; nothing inside ``src/`` is changed or asked to trace.  In
particular no tracer or ``trace`` hint reaches ``solve()``: the solver
would then switch PRNA to the thread backend and a different plan would
be measured.

Where a name is looked up decides where it is wrapped:

* ``prna`` binds its stage-one executors by name, so they are wrapped on
  ``repro.parallel.prna``; ``prna_rank`` is wrapped there too (the rank
  closure reads the module global at call time);
* ``srna2`` and ``prna_rank`` read ``ENGINES``/``BATCH_ENGINES`` at call
  time, so the slice engines are replaced inside those dicts;
* the solver's own imports (``from_dotbracket``, ``backtrace``,
  ``srna2``, ``score_pair``) are wrapped on ``repro.runtime.solver``.

PRNA ranks and search pool workers are forked while a request span is
open.  They inherit the wrappers and the open-span stack, so their spans
name the launching span as parent; each one appends its spans to a spool
file before returning its result, and the owner reads the spool after
the request.  All processes share ``time.monotonic`` (CLOCK_MONOTONIC).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro.batch
import repro.runtime.solver
from repro.core import slices
from repro.core.slices import arc_range_in
from repro.mpi.communicator import Communicator
from repro.mpi.process import ProcessCommunicator
from repro.runtime.context import ExecutionContext
from repro.runtime.plan import Planner

#: Layers of the self-time table, in request order.  A layer a workload
#: bypasses reads 0.
LAYERS = (
    "solver",
    "structure",
    "runtime.plan",
    "runtime.context",
    "parallel",
    "mpi",
    "core.srna2",
    "core.slices",
    "core.backtrace",
    "obs",
    "batch",
)


class Recorder:
    """Span store of one process, with a spool for forked children."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._count = 0

    def _adopt(self) -> None:
        """In a forked child, drop the parent's finished spans (keep the stack)."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []

    @contextmanager
    def span(self, layer: str, name: str, **attrs: Any) -> Iterator[dict]:
        """Record one span; the yielded dict takes attributes until it closes."""
        self._adopt()
        self._count += 1
        record = {
            "id": f"{self.pid}:{self._count}",
            "parent": self.stack[-1] if self.stack else None,
            "layer": layer,
            "name": name,
            "pid": self.pid,
            "attrs": attrs,
        }
        self.stack.append(record["id"])
        record["t0"] = time.monotonic()
        try:
            yield record
        finally:
            record["t1"] = time.monotonic()
            self.stack.pop()
            self.spans.append(record)

    def ship(self) -> None:
        """From a forked child: append this process's spans to its spool file."""
        if self.pid == self.owner or not self.spans:
            return
        with open(self.spool / f"{self.pid}.jsonl", "a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """Owner side: this process's spans plus every shipped one; resets."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle)
            path.unlink()
        return spans


def _timed(
    rec: Recorder,
    layer: str,
    name: str | Callable[[tuple], str],
    fn: Callable,
    describe: Callable[[tuple, dict, Any], dict] | None = None,
    ship: bool = False,
) -> Callable:
    """*fn* recorded as a span; *describe* adds attributes from the call."""
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        label = name if isinstance(name, str) else name(args)
        with rec.span(layer, label) as record:
            result = fn(*args, **kwargs)
            if describe is not None:
                record["attrs"].update(describe(args, kwargs, result))
        if ship:
            rec.ship()
        return result

    return wrapper


def _batch_cells(args: tuple, kwargs: dict, result: Any) -> dict:
    _, s1, s2, i1, j1, arcs2 = args[:6]
    lo1, hi1 = kwargs.get("r1") or arc_range_in(s1, i1, j1)
    inner2 = s2.inner_ranges[np.asarray(arcs2, dtype=np.int64)]
    widths = inner2[:, 1] - inner2[:, 0]
    return {"cells": int(hi1 - lo1) * int(widths[widths > 0].sum())}


def _slice_cells(args: tuple, kwargs: dict, result: Any) -> dict:
    _, s1, s2, i1, j1, i2, j2 = args[:7]
    (lo1, hi1), (lo2, hi2) = kwargs.get("ranges") or (
        arc_range_in(s1, i1, j1), arc_range_in(s2, i2, j2)
    )
    parent = i1 == 0 and j1 == s1.length - 1 and i2 == 0 and j2 == s2.length - 1
    return {"cells": int(hi1 - lo1) * int(hi2 - lo2), "parent": parent}


def _memo_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    s1, s2 = (args[1], args[2]) if isinstance(args[0], Communicator) else args[:2]
    return {"memo_bytes": max(s1.length, 1) * max(s2.length, 1) * 8}


def _plan_attrs(args: tuple, kwargs: dict, plan: Any) -> dict:
    return {"estimated_seconds": plan.estimated_seconds, "algorithm": plan.algorithm}


def _rank_stats(args: tuple, kwargs: dict, results: Any) -> dict:
    stats = [getattr(r, "comm_stats", None) for r in results]
    return {"rank_stats": stats} if any(s is not None for s in stats) else {}


def _await_name(args: tuple) -> str:
    """Rank 0 awaiting the ``("final", q)`` blocks is consolidation."""
    keys = args[1]
    final = isinstance(keys, list) and keys and keys[0][0] == "final"
    return "await_final" if final else "await"


def _search_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"n_workers": min(kwargs.get("n_workers", 1), max(len(args[1]), 1))}


@contextmanager
def installed(rec: Recorder) -> Iterator[None]:
    """Wrap every layer entry point for the duration of the block."""
    solver = repro.runtime.solver
    # ``repro.parallel`` re-exports the ``prna`` function under the module's name.
    prna = importlib.import_module("repro.parallel.prna")
    attrs: list[tuple[Any, str, Callable]] = [
        (solver, "from_dotbracket", _timed(rec, "structure", "parse", solver.from_dotbracket)),
        (solver, "backtrace", _timed(rec, "core.backtrace", "backtrace", solver.backtrace)),
        (solver, "srna2", _timed(rec, "core.srna2", "srna2", solver.srna2, _memo_bytes)),
        (solver, "score_pair", _timed(rec, "batch", "pair", solver.score_pair, ship=True)),
        (Planner, "plan", _timed(rec, "runtime.plan", "plan", Planner.plan, _plan_attrs)),
        (Planner, "plan_batch", _timed(rec, "runtime.plan", "plan_batch", Planner.plan_batch, _plan_attrs)),
        (ExecutionContext, "launch", _timed(rec, "runtime.context", "launch", ExecutionContext.launch, _rank_stats)),
        (ExecutionContext, "record", _timed(rec, "obs", "record", ExecutionContext.record)),
        (prna, "prna_rank", _timed(rec, "parallel", "rank", prna.prna_rank, _memo_bytes, ship=True)),
        (prna, "dataflow_stage_one", _timed(rec, "parallel", "stage_one", prna.dataflow_stage_one)),
        (prna, "row_barrier_stage_one", _timed(rec, "parallel", "stage_one", prna.row_barrier_stage_one)),
        (repro.batch, "run_search", _timed(rec, "batch", "run_search", repro.batch.run_search, _search_attrs)),
        (Communicator, "Await", _timed(rec, "mpi", _await_name, Communicator.Await)),
        (Communicator, "Publish", _timed(rec, "mpi", "publish", Communicator.Publish)),
        (Communicator, "bcast", _timed(rec, "mpi", "bcast", Communicator.bcast)),
        (Communicator, "Allreduce", _timed(rec, "mpi", "allreduce", Communicator.Allreduce)),
        (ProcessCommunicator, "Allreduce", _timed(rec, "mpi", "allreduce", ProcessCommunicator.Allreduce)),
    ]
    items: list[tuple[dict, str, Callable]] = [
        (slices.ENGINES, name, _timed(rec, "core.slices", "slice", fn, _slice_cells))
        for name, fn in slices.ENGINES.items()
    ] + [
        (slices.BATCH_ENGINES, name, _timed(rec, "core.slices", "batch", fn, _batch_cells))
        for name, fn in slices.BATCH_ENGINES.items()
    ]
    saved_attrs = [(owner, name, owner.__dict__[name]) for owner, name, _ in attrs]
    saved_items = [(table, name, table[name]) for table, name, _ in items]
    try:
        for owner, name, wrapper in attrs:
            setattr(owner, name, wrapper)
        for table, name, wrapper in items:
            table[name] = wrapper
        yield
    finally:
        for owner, name, original in saved_attrs:
            setattr(owner, name, original)
        for table, name, original in saved_items:
            table[name] = original


# ----------------------------------------------------------------------
# Analysis of one request's spans.
# ----------------------------------------------------------------------
def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer along the request's critical path.

    Children in the span's own process run one after another, so their
    time is subtracted in full.  Children in forked processes run
    concurrently; only the process that covers the most time (the one
    the result waited for) is followed, so the layer totals add up to
    the request's wall time exactly.
    """
    children: dict[str | None, list[dict]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    table = dict.fromkeys(LAYERS, 0.0)

    def visit(span: dict, layer: str) -> None:
        kids = children[span["id"]]
        follow = [k for k in kids if k["pid"] == span["pid"]]
        others: dict[int, list[dict]] = defaultdict(list)
        for kid in kids:
            if kid["pid"] != span["pid"]:
                others[kid["pid"]].append(kid)
        if others:
            follow += max(others.values(), key=lambda ks: sum(map(_dur, ks)))
        table[layer] += _dur(span) - sum(map(_dur, follow))
        for kid in follow:
            visit(kid, kid["layer"])

    for root in children[None]:
        visit(root, "solver")
    return table


def request_layers(spans: list[dict]) -> dict[str, float]:
    """The per-layer figures of one traced request (see BENCHMARK.json)."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    (root,) = by_name["request"]
    wall = _dur(root)
    out: dict[str, float] = {"wall_s": wall}
    out["structure.parse_s"] = sum(map(_dur, by_name["parse"]))
    plans = by_name["plan"] + by_name["plan_batch"]
    out["runtime.plan.s"] = sum(map(_dur, plans))
    out["runtime.plan.estimated_s"] = sum(
        p["attrs"]["estimated_seconds"] for p in plans
    )
    out["runtime.plan.prna_share"] = float(
        any(p["attrs"]["algorithm"] == "prna" for p in plans)
    )

    ranks = by_name["rank"]
    rank_pids = {r["pid"] for r in ranks}
    out["runtime.context.launch_s"] = 0.0
    rank_stats: list[dict] = []
    for launch in by_name["launch"]:
        mine = [r for r in ranks if r["parent"] == launch["id"]]
        slowest = max(map(_dur, mine), default=0.0)
        out["runtime.context.launch_s"] += _dur(launch) - slowest
        rank_stats = [s for s in launch["attrs"].get("rank_stats", []) if s]
    stage_one = [s for s in by_name["stage_one"] if s["pid"] in rank_pids]
    out["parallel.stage_one_s"] = max(map(_dur, stage_one), default=0.0)
    busy = defaultdict(float)
    for span in by_name["batch"]:
        if span["pid"] in rank_pids:
            busy[span["pid"]] += _dur(span)
    out["parallel.rank_imbalance"] = (
        max(busy.values()) / statistics.fmean(busy.values())
        if len(busy) > 1 and sum(busy.values()) > 0 else 0.0
    )
    out["parallel.consolidate_s"] = sum(map(_dur, by_name["await_final"]))
    out["parallel.stage_two_s"] = sum(
        _dur(s) for s in by_name["slice"]
        if s["pid"] in rank_pids and s["attrs"]["parent"]
    )

    first = rank_stats[0] if rank_stats else {}
    out["mpi.sync_points"] = float(
        first.get("allreduces", 0) + first.get("barriers", 0) + first.get("bcasts", 0)
    )
    for key in ("publishes", "awaits", "coalesced_cells", "publish_bytes", "allreduce_bytes"):
        out[f"mpi.{key}"] = float(first.get(key, 0))
    out["mpi.dep_wait_s"] = max(
        (s.get("dependency_wait_ns", 0) / 1e9 for s in rank_stats), default=0.0
    )

    kernel = by_name["slice"] + by_name["batch"]
    out["core.slices.calls"] = float(len(kernel))
    out["core.slices.kernel_s"] = sum(map(_dur, kernel))
    out["core.slices.cells"] = float(sum(s["attrs"]["cells"] for s in kernel))
    out["core.slices.cells_per_s"] = (
        out["core.slices.cells"] / out["core.slices.kernel_s"]
        if out["core.slices.kernel_s"] > 0 else 0.0
    )
    out["core.memo.bytes"] = float(max(
        (s["attrs"]["memo_bytes"] for s in by_name["srna2"] + ranks), default=0
    ))
    out["core.backtrace.s"] = sum(map(_dur, by_name["backtrace"]))
    out["core.backtrace.calls"] = float(len(by_name["backtrace"]))
    out["obs.record_s"] = sum(map(_dur, by_name["record"]))

    out["batch.pool_start_s"] = 0.0
    out["batch.pair_s"] = 0.0
    out["batch.worker_busy_share"] = 0.0
    for search in by_name["run_search"]:
        pairs = [p for p in by_name["pair"] if p["pid"] != search["pid"]]
        if not pairs:
            continue
        pair_s = [_dur(p) for p in pairs]
        out["batch.pool_start_s"] = min(p["t0"] for p in pairs) - search["t0"]
        out["batch.pair_s"] = statistics.median(pair_s)
        out["batch.worker_busy_share"] = sum(pair_s) / (
            search["attrs"]["n_workers"] * _dur(search)
        )
    for layer, seconds in self_times(spans).items():
        out[f"self_share.{layer}"] = seconds / wall
    return out
