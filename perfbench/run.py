"""End-to-end benchmark of ``repro.solve`` and ``repro.solve_batch``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the public entry points in a closed loop for S
seconds on inputs made from the seed, and every answer is checked.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it are the same figures for people, with sample counts and
quartiles, and ``perfbench/out/`` receives a manifest per run.

Set-up is measured in fresh interpreters: ``SETUP_SAMPLES`` processes
each import ``repro`` and serve one warm-up request, the last of them
then runs the measured loop.  Every timing is scaled to a fixed host
speed (see ``hostspeed.py``); the raw ones are printed beside them.
The planner is pinned to its built-in defaults: ``REPRO_CALIBRATION``
points at a file that never exists, and at most 2 ranks are allowed
whatever the CPU count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("worst_dense", "rrna_23s", "rna_pairs", "search")
SETUP_SAMPLES = 3
#: Every run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


def source_digest() -> str:
    """sha256 over ``src/repro`` (the checkout may not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CALIBRATION"] = str(OUT / "no-calibration.json")
    return env


def spawn(
    args: argparse.Namespace, role: str, deadline: float
) -> tuple[float, float, list[dict]]:
    """Run one measure.py process.

    Returns its raw set-up seconds, the reference kernel's time measured
    right after set-up, and its JSON lines.
    """
    command = [
        sys.executable, str(HERE / "measure.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spool", str(OUT / f"spool-{os.getpid()}"),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} process exceeded the run budget") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            continue
    ready = next(line for line in lines if "ready" in line)
    return ready["ready"] - started - ready["gen_s"], ready["reference_s"], lines


def unit_of(units: dict[str, str], name: str) -> str:
    """Unit of *name*; figures outside BENCHMARK.json are seconds or ratios."""
    name = name.removeprefix("raw_")
    return units.get(name, "s" if name.endswith("_s") else "ratio")


def print_table(manifest: dict, units: dict[str, str]) -> None:
    """One run's figures: sample count, median and quartiles per metric."""
    e2e = manifest["end_to_end"]
    setups = manifest["setup_s"]
    q1, median, q3 = statistics.quantiles(setups, n=4, method="inclusive")
    rows = [
        ("setup_s", {"n": len(setups), "median": median, "q1": q1, "q3": q3}),
        ("latency_p50_s", e2e["latency_p50_s"]),
    ]
    n = e2e["latency_p50_s"]["n"]
    for name in (
        "latency_p90_s", "pairs_per_s", "success_rate", "error_rate", "peak_rss_mib",
        "raw_latency_p50_s", "raw_pairs_per_s", "reference_s",
    ):
        if name in e2e:
            value = e2e[name]
            rows.append((name, {"n": n, "median": value, "q1": value, "q3": value}))
    print(f"# {manifest['workload']}: {manifest['attempted']} requests, "
          f"{manifest['failed']} failed; plan {manifest['plan']['algorithm']} "
          f"backend={manifest['plan']['backend']} ranks={manifest['plan']['ranks']} "
          f"sync={manifest['plan']['sync']}")
    print(f"{'metric':34s} {'unit':8s} {'n':>5s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for name, row in rows:
        print(f"{name:34s} {unit_of(units, name):8s} {row['n']:5d} {row['median']:12.6g} "
              f"{row['q1']:12.6g} {row['q3']:12.6g}")
    if manifest["per_layer"]:
        print(f"# {manifest['workload']}: traced per-layer figures (median per traced request)")
        for name, value in manifest["per_layer"].items():
            print(f"{name:34s} {unit_of(units, name):8s} {value:12.6g}")
    for failure in manifest["failures"][:10]:
        print(f"FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    try:
        spawned = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        spawned.append(spawn(args, "measure", deadline))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / f"spool-{os.getpid()}", ignore_errors=True)
    setups = [hostspeed.scale(raw, reference) for raw, reference, _ in spawned]
    report = spawned[-1][2][-1]

    values = dict(report.get("per_layer", {}))
    values.update({
        "setup_s": statistics.median(setups),
        "latency_p50_s": report["end_to_end"]["latency_p50_s"]["median"],
        **{k: report["end_to_end"][k] for k in ("pairs_per_s", "success_rate", "peak_rss_mib")},
    })
    manifest = {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": report.get("numpy"),
        "nproc": os.cpu_count(),
        "calibration": "built-in defaults (REPRO_CALIBRATION names an absent file)",
        "plan": report["plan"],
        "input_hashes": report["inputs"],
        "setup_s": setups,
        "raw_setup_s": [raw for raw, _, _ in spawned],
        "end_to_end": report["end_to_end"],
        "per_layer": report.get("per_layer"),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failures": report["failures"],
    }
    path = OUT / f"manifest-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(manifest, indent=1) + "\n")

    units = {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    print_table(manifest, units)
    print(f"# manifest: {path.relative_to(ROOT)}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
