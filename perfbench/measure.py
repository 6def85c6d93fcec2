"""One benchmark process: set up, then (``--role measure``) run the loop.

``run.py`` starts this script in a fresh interpreter, so set-up time
covers ``import repro`` and peak RSS covers only this process and the
PRNA ranks and pool workers it reaps.  It prints JSON lines on stdout:
``{"ready": ...}`` once the warm-up request is done and, when measuring,
the run's figures last.  Timings are reported scaled to a fixed host
speed, measured with ``hostspeed`` around each request.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy
import repro
from repro import ResourceHints

import hostspeed
import workloads
from workloads import Request

#: Load is sized for a 2-CPU machine: at most 2 ranks or 2 pool workers,
#: whatever ``os.cpu_count()`` says.
HINTS = ResourceHints(max_ranks=2)

#: A request slower than this counts as failed (timed out).
REQUEST_TIMEOUT_S = 60.0

#: Forced plans the traced run compares the planner's choice against.
REGRET_PLANS = (
    {"algorithm": "srna2"},
    {"algorithm": "prna", "sync_mode": "row"},
    {"algorithm": "prna", "sync_mode": "dataflow"},
)

#: Figures of a traced request that are inputs to others, not reported.
_RAW_FIGURES = ("wall_s", "untraced_s", "runtime.plan.estimated_s")

Issue = Callable[[Request, int], tuple[Any, float]]


def call(request: Request, **extra: Any) -> Any:
    """Issue *request* through the public API; the outcome ``check`` grades."""
    if request.kind == "search":
        query, items = request.args
        return repro.solve_batch(query, items, hints=HINTS, **request.kwargs)
    result = repro.solve(*request.args, hints=HINTS, **request.kwargs, **extra)
    return result.score, result.matched_pairs


def timed_call(request: Request, index: int = 0) -> tuple[Any, float]:
    """``call`` with its wall time."""
    start = time.monotonic()
    outcome = call(request)
    return outcome, time.monotonic() - start


def plan_summary(request: Request) -> dict:
    """The plan the planner resolves for *request* (not timed)."""
    solver = repro.Solver(HINTS)
    if request.kind == "search":
        query, items = request.args
        plan = solver.planner.plan_batch(
            query, dict(items), n_workers=request.kwargs["n_workers"]
        )
    else:
        plan = solver.plan(*request.args, **request.kwargs)
    return {
        "algorithm": plan.algorithm, "engine": plan.engine,
        "backend": plan.backend, "ranks": plan.n_ranks,
        "sync": plan.sync_mode if plan.algorithm == "prna" else None,
        "estimated_seconds": plan.estimated_seconds,
        "rationale": list(plan.rationale),
    }


def closed_loop(
    requests: list[Request], seconds: float, issue: Issue, step: int = 1
) -> list[dict]:
    """One client: request ``i`` is sent only after request ``i - 1`` returned.

    *issue* runs one request and returns ``(outcome, seconds)``.  An
    exception, a timeout or a wrong answer marks the sample failed and
    the loop goes on.  The loop stops at the first multiple of *step*
    requests after *seconds* have passed.

    Each answer is checked as soon as it returns and then dropped: holding
    thousands of results would slow the requests that follow (the
    garbage collector walks them).  Each sample keeps the mean of the
    reference kernel's times just before and just after its request.
    """
    samples = []
    reference = hostspeed.reference_s()
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        request = requests[index % len(requests)]
        start = time.monotonic()
        try:
            outcome, latency = issue(request, index)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            latency = time.monotonic() - start
            error = f"{type(exc).__name__}: {exc}"
        else:
            if latency > REQUEST_TIMEOUT_S:
                error = f"timed out after {latency:.1f} s"
            else:
                error = workloads.check(request, outcome)
        after = hostspeed.reference_s()
        samples.append({
            "latency": latency, "reference": (reference + after) / 2,
            "pairs": request.pairs, "error": error,
        })
        reference = after
        index += 1
        if index % step == 0 and time.monotonic() >= deadline:
            return samples


def quartiles(values: list[float]) -> dict:
    """Sample count, median and quartiles of *values*."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def end_to_end(samples: list[dict]) -> dict:
    """The user-visible figures of one run.

    Latencies are scaled to the reference host speed, and throughput is
    the pairs answered over the requests' summed scaled latencies.  The
    raw median latency and throughput, and the median reference time,
    are kept beside them.
    """
    raw = [s["latency"] for s in samples]
    latencies = [hostspeed.scale(s["latency"], s["reference"]) for s in samples]
    pairs = sum(s["pairs"] for s in samples if s["error"] is None)
    failed = sum(s["error"] is not None for s in samples)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "latencies_s": latencies,
        "latency_p50_s": quartiles(latencies),
        "pairs_per_s": pairs / sum(latencies),
        "raw_latency_p50_s": statistics.median(raw),
        "raw_pairs_per_s": pairs / sum(raw),
        "reference_s": statistics.median(s["reference"] for s in samples),
        "success_rate": 1.0 - failed / len(samples),
        "error_rate": failed / len(samples),
        "peak_rss_mib": (own + reaped) / 1024.0,
    }
    # Only with >= 10 samples beyond it is a p90 worth reporting.
    if len(latencies) >= 100:
        out["latency_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    return out


def regret(request: Request) -> float:
    """The planner's solve time over the best forced plan's, on *request*.

    Backtracing is left out: it rules out PRNA and would hide the choice.
    """
    if request.kind == "search":
        return 0.0

    def median_time(**options: Any) -> float:
        times: list[float] = []
        while len(times) < 3 and sum(times) < 2.0:
            start = time.monotonic()
            repro.solve(*request.args, hints=HINTS, **options)
            times.append(time.monotonic() - start)
        return statistics.median(times)

    auto = median_time()
    return auto / min(median_time(**plan) for plan in REGRET_PLANS)


def traced_loop(
    requests: list[Request], seconds: float, spool: Path
) -> tuple[list[dict], list[dict]]:
    """Each request untraced, then traced; (samples, per-traced-request figures).

    The untraced latency of the same input is the base of the model
    ratio and of the tracing overhead.
    """
    import spans

    spool.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder(spool)
    figures: list[dict] = []
    untraced = [0.0]

    def issue(request: Request, index: int) -> tuple[Any, float]:
        if index % 2 == 0:
            outcome, untraced[0] = timed_call(request)
            return outcome, untraced[0]
        with spans.installed(recorder):
            with recorder.span("request", "request"):
                outcome = call(request, collect_stats=True)
        layers = spans.request_layers(recorder.collect())
        layers["untraced_s"] = untraced[0]
        figures.append(layers)
        return outcome, layers["wall_s"]

    doubled = [r for r in requests for _ in range(2)]
    samples = closed_loop(doubled, seconds, issue, step=2)
    return samples, figures


def per_layer(figures: list[dict], regret_value: float) -> dict:
    """Median over traced requests of each per-layer figure.

    Empty when every traced request failed; the run then reports 0s.
    """
    if not figures:
        return {}
    out = {
        key: float(statistics.median(f[key] for f in figures))
        for key in figures[0] if key not in _RAW_FIGURES
    }
    out["runtime.plan.model_ratio"] = statistics.median(
        f["runtime.plan.estimated_s"] / f["untraced_s"] for f in figures
    )
    out["runtime.plan.regret"] = regret_value
    out["trace.overhead_ratio"] = statistics.median(
        f["wall_s"] for f in figures
    ) / statistics.median(f["untraced_s"] for f in figures)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spool", type=Path)
    args = parser.parse_args(argv)

    start = time.monotonic()
    requests = workloads.make_requests(args.workload, args.seed)
    gen_s = time.monotonic() - start
    call(requests[0])
    ready = time.monotonic()
    print(json.dumps({
        "ready": ready, "gen_s": gen_s, "reference_s": hostspeed.reference_s(repeats=21),
    }), flush=True)
    if args.role == "setup":
        return 0

    report: dict[str, Any] = {
        "plan": plan_summary(requests[0]),
        "inputs": [r.key for r in requests],
        "numpy": numpy.__version__,
    }
    if args.trace:
        regret_value = regret(requests[0])
        samples, figures = traced_loop(requests, args.seconds, args.spool)
    else:
        samples = closed_loop(requests, args.seconds, timed_call)
    report["failures"] = [
        f"request {i}: {s['error']}" for i, s in enumerate(samples) if s["error"]
    ]
    report["attempted"] = len(samples)
    report["failed"] = len(report["failures"])
    if args.trace:
        # The end-to-end figures of the untraced half.
        report["end_to_end"] = end_to_end(samples[0::2])
        report["per_layer"] = per_layer(figures, regret_value)
    else:
        report["end_to_end"] = end_to_end(samples)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
