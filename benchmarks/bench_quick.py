"""Quick, machine-readable benchmark: batched vs per-slice engines.

Writes ``BENCH_slices.json`` at the repository root (override with
``--out``).  The headline number is the SRNA2 **stage-one** speedup of the
batched engine over the per-slice vectorized engine on the contrived worst
case — the measurement behind making ``"batched"`` the production default
(target: >= 3x at n = m >= 400).  A small SRNA2 sweep rides along so
regressions in either engine show up in one file, and a row-barrier vs
dataflow PRNA schedule comparison records the counter-level cost of each
synchronization strategy (sync points, publication batches,
coalesced cells, dependency-wait time) with a >= 2x sync-point gate.

Run directly (``python benchmarks/bench_quick.py``) or via
``make bench-quick``.  Keep it quick: the default settings finish in well
under a minute on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.instrument import Instrumentation  # noqa: E402
from repro.core.srna2 import srna2  # noqa: E402
from repro.structure.generators import (  # noqa: E402
    contrived_worst_case,
    rna_like_structure,
)


def _stage_one_seconds(structure, engine: str, repeat: int) -> tuple[float, int]:
    """Best-of-*repeat* stage-one seconds for one SRNA2 self-comparison."""
    best = float("inf")
    score = -1
    for _ in range(repeat):
        inst = Instrumentation()
        result = srna2(structure, structure, engine=engine, instrumentation=inst)
        best = min(best, inst.stage_times.stage_one)
        score = result.score
    return best, score


def bench_stage_one(length: int, repeat: int) -> dict:
    """The headline: batched vs vectorized stage one, worst-case data."""
    structure = contrived_worst_case(length)
    rows = {}
    scores = set()
    for engine in ("vectorized", "batched"):
        seconds, score = _stage_one_seconds(structure, engine, repeat)
        rows[engine] = seconds
        scores.add(score)
    assert len(scores) == 1, f"engines disagree on the score: {scores}"
    return {
        "case": "stage_one_worst_case",
        "length": length,
        "score": scores.pop(),
        "seconds": rows,
        "speedup_batched_vs_vectorized": rows["vectorized"] / rows["batched"],
    }


def bench_srna2_sweep(repeat: int) -> list[dict]:
    """End-to-end SRNA2 on rRNA-like data, both engines."""
    sweep = []
    for length, n_arcs, seed in ((200, 45, 11), (300, 70, 12)):
        structure = rna_like_structure(length, n_arcs, seed=seed)
        entry = {
            "case": "srna2_rna_like",
            "length": length,
            "n_arcs": structure.n_arcs,
            "seconds": {},
        }
        for engine in ("vectorized", "batched"):
            best = float("inf")
            for _ in range(repeat):
                start = time.perf_counter()
                srna2(structure, structure, engine=engine)
                best = min(best, time.perf_counter() - start)
            entry["seconds"][engine] = best
        entry["speedup_batched_vs_vectorized"] = (
            entry["seconds"]["vectorized"] / entry["seconds"]["batched"]
        )
        sweep.append(entry)
    return sweep


def bench_schedules(repeat: int) -> list[dict]:
    """Row-barrier vs dataflow stage one: schedule-level counters.

    Wall timings on a contended single-core CI host are noise, so the
    regression signal here is the **deterministic counters**: collective
    synchronization points (allreduces + barriers + bcasts), publication
    batches, coalesced cells/bytes, and time blocked on dependencies.
    The dataflow schedule's entire point is retiring the one-Allreduce-
    per-arc row barrier; the gate in :func:`main` asserts it issues at
    most half the row schedule's sync points.
    """
    from repro.parallel.prna import prna

    structure = contrived_worst_case(160)
    sweep = []
    for mode in ("row", "dataflow"):
        best = float("inf")
        stats = None
        score = None
        for _ in range(repeat):
            start = time.perf_counter()
            result = prna(
                structure, structure, 2, backend="process",
                sync_mode=mode, collect_stats=True,
            )
            best = min(best, time.perf_counter() - start)
            stats = result.comm_stats
            score = result.score
        sweep.append(
            {
                "case": "prna_schedule_2ranks",
                "length": 160,
                "sync_mode": mode,
                "seconds": best,
                "score": score,
                "sync_points": (
                    stats["allreduces"] + stats["barriers"] + stats["bcasts"]
                ),
                "allreduces": stats["allreduces"],
                "publishes": stats["publishes"],
                "awaits": stats["awaits"],
                "coalesced_cells": stats["coalesced_cells"],
                "publish_bytes": stats["publish_bytes"],
                "dependency_wait_ns": stats["dependency_wait_ns"],
            }
        )
    row, dataflow = sweep
    assert row["score"] == dataflow["score"], "schedules disagree on score"
    dataflow["sync_point_reduction_vs_row"] = row["sync_points"] / max(
        dataflow["sync_points"], 1
    )
    return sweep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_slices.json"),
        help="output JSON path (default: BENCH_slices.json at the repo root)",
    )
    parser.add_argument(
        "--length", type=int, default=400,
        help="contrived worst-case size for the headline (default 400)",
    )
    parser.add_argument(
        "--repeat", type=int, default=2,
        help="repetitions per measurement; best is kept (default 2)",
    )
    parser.add_argument(
        "--skip-prna", action="store_true",
        help="skip the process-backend sweep (e.g. on non-POSIX hosts)",
    )
    parser.add_argument(
        "--only-schedules", action="store_true",
        help="run only the row-barrier vs dataflow schedule comparison "
        "(the `make bench-dataflow` entry; POSIX only)",
    )
    args = parser.parse_args(argv)

    headline = None
    results: list[dict] = []
    schedules: list[dict] = []
    if not args.only_schedules:
        headline = bench_stage_one(args.length, args.repeat)
        results = [headline]
        results += bench_srna2_sweep(args.repeat)
    if not args.skip_prna and os.name == "posix":
        schedules = bench_schedules(max(args.repeat - 1, 1))
        results += schedules

    report = {
        "schema": "repro.bench_quick/1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    status = 0
    if headline is not None:
        speedup = headline["speedup_batched_vs_vectorized"]
        print(
            f"stage one, worst case n={args.length}: "
            f"vectorized {headline['seconds']['vectorized']:.3f}s, "
            f"batched {headline['seconds']['batched']:.3f}s "
            f"-> {speedup:.1f}x"
        )
        if speedup < 3.0 and args.length >= 400:
            print(
                "WARNING: batched speedup below the 3x target",
                file=sys.stderr,
            )
            status = 1
    print(f"wrote {args.out}")
    if schedules:
        row, dataflow = schedules
        reduction = dataflow["sync_point_reduction_vs_row"]
        print(
            f"schedules, n=160 x 2 ranks: row barrier "
            f"{row['sync_points']} sync points, dataflow "
            f"{dataflow['sync_points']} ({reduction:.0f}x fewer; "
            f"{dataflow['publishes']} coalesced publication batches, "
            f"{dataflow['coalesced_cells']} cells)"
        )
        if reduction < 2.0:
            print(
                "WARNING: dataflow sync-point reduction below the 2x "
                "target",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
