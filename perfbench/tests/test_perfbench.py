"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import repro  # noqa: E402
import hostspeed  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.structure.generators import contrived_worst_case  # noqa: E402
from workloads import Request  # noqa: E402

PRNA = {"algorithm": "prna", "backend": "process", "n_ranks": 2, "sync_mode": "dataflow"}


@pytest.fixture(autouse=True)
def built_in_planner(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "absent.json"))


def _prna_request(length: int = 160, seed: int = 3) -> Request:
    import numpy as np

    base = contrived_worst_case(length)
    deleted = 7
    mutant = workloads.delete_mutant(base, np.random.default_rng(seed), deleted)
    return Request(
        kind="solve", args=(base, mutant), kwargs=dict(PRNA), pairs=1,
        expect=base.n_arcs - deleted, key=workloads.structure_hash(base, mutant),
    )


def _small_search() -> Request:
    request = workloads.make_requests("search", 5)[0]
    query, items = request.args
    items = items[:6]
    return Request(
        kind="search", args=(query, items), kwargs=request.kwargs,
        pairs=len(items), expect={name: request.expect[name] for name, _ in items},
        key=request.key,
    )


def _traced(request: Request, repeats: int, tmp_path: Path) -> list[dict]:
    """Per-request span lists of *repeats* traced runs of *request*."""
    recorder = spans.Recorder(tmp_path)
    out = []
    for _ in range(repeats):
        with spans.installed(recorder):
            with recorder.span("request", "request"):
                outcome = measure.call(request, collect_stats=True)
        assert workloads.check(request, outcome) is None
        out.append(recorder.collect())
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_generation_is_deterministic(workload):
    first = workloads.make_requests(workload, 11)
    again = workloads.make_requests(workload, 11)
    other = workloads.make_requests(workload, 12)
    assert [r.key for r in first] == [r.key for r in again]
    assert [r.expect for r in first] == [r.expect for r in again]
    assert [r.key for r in first] != [r.key for r in other]


def test_wrong_answers_count_as_errors_and_the_run_goes_on():
    requests = workloads.make_requests("rna_pairs", 2)

    def issue(request, index):
        if index == 2:
            raise RuntimeError("injected")
        (score, pairs), latency = measure.timed_call(request)
        if index == 1:
            score += 1
        return (score, pairs), latency

    samples = measure.closed_loop(requests, 0.5, issue)
    figures = measure.end_to_end(samples)
    errors = [s["error"] for s in samples]
    assert len(samples) > 3
    assert errors[0] is None and errors[3:] == [None] * (len(samples) - 3)
    assert errors[1].startswith("score ")
    assert "injected" in errors[2]
    assert figures["error_rate"] == pytest.approx(2 / len(samples))
    assert figures["success_rate"] == pytest.approx(1 - 2 / len(samples))


def test_timings_are_scaled_by_the_reference_kernel():
    slow = 2 * hostspeed.REFERENCE_S
    samples = [
        {"latency": latency, "reference": slow, "pairs": 1, "error": error}
        for latency, error in [(1.0, None), (3.0, None), (8.0, "wrong")]
    ]
    figures = measure.end_to_end(samples)
    assert figures["latency_p50_s"]["median"] == pytest.approx(1.5)
    assert figures["raw_latency_p50_s"] == pytest.approx(3.0)
    assert figures["pairs_per_s"] == pytest.approx(2 / 6.0)
    assert figures["raw_pairs_per_s"] == pytest.approx(2 / 12.0)
    assert hostspeed.scale(1.0, hostspeed.reference_s()) > 0


@pytest.mark.parametrize("make", [
    lambda: workloads.make_requests("rna_pairs", 4)[0],
    _prna_request,
    _small_search,
], ids=["rna_pairs", "prna", "search"])
def test_traced_spans_nest(make, tmp_path):
    (recorded,) = _traced(make(), 1, tmp_path)
    by_id = {s["id"]: s for s in recorded}
    for span in recorded:
        parent = by_id.get(span["parent"])
        assert span["parent"] is None or parent is not None
        if parent is not None:
            assert parent["t0"] <= span["t0"] <= span["t1"] <= parent["t1"]
    (root,) = [s for s in recorded if s["parent"] is None]
    wall = root["t1"] - root["t0"]
    table = spans.self_times(recorded)
    assert set(table) == set(spans.LAYERS)
    assert min(table.values()) >= -1e-9
    assert sum(table.values()) <= wall + 1e-9
    figures = spans.request_layers(recorded)
    assert figures["wall_s"] == wall
    assert sum(v for k, v in figures.items() if k.startswith("self_share.")) == pytest.approx(1.0)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    recorded = _traced(workloads.make_requests("rna_pairs", 4)[0], 1, tmp_path)
    figures = spans.request_layers(recorded[0])
    figures["untraced_s"] = figures["wall_s"]
    reported = measure.per_layer([figures], regret_value=1.0)
    assert set(reported) == {m["name"] for m in benchmark["per_layer"]}


def test_traced_search_sees_both_workers(tmp_path):
    (recorded,) = _traced(_small_search(), 1, tmp_path)
    figures = spans.request_layers(recorded)
    assert len({s["pid"] for s in recorded if s["name"] == "pair"}) == 2
    assert figures["batch.pool_start_s"] > 0
    assert 0 < figures["batch.worker_busy_share"] <= 1
    assert figures["parallel.stage_one_s"] == 0


def test_mpi_counters_repeat_and_match_comm_stats(tmp_path):
    request = _prna_request()
    runs = [spans.request_layers(s) for s in _traced(request, 2, tmp_path)]
    counters = [
        {k: v for k, v in figures.items() if k.startswith("mpi.") and k != "mpi.dep_wait_s"}
        for figures in runs
    ]
    assert counters[0] == counters[1]
    stats = repro.solve(*request.args, collect_stats=True, **request.kwargs).comm_stats
    assert counters[0] == {
        "mpi.sync_points": stats["allreduces"] + stats["barriers"] + stats["bcasts"],
        "mpi.publishes": stats["publishes"],
        "mpi.awaits": stats["awaits"],
        "mpi.coalesced_cells": stats["coalesced_cells"],
        "mpi.publish_bytes": stats["publish_bytes"],
        "mpi.allreduce_bytes": stats["allreduce_bytes"],
    }
    assert counters[0]["mpi.publishes"] > 0
