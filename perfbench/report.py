"""One report over every workload: end-to-end figures and the layer table.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads a,b]

Runs ``run.py`` untraced and traced on each workload, then prints

* every end-to-end metric per workload with unit, sample count, median
  and quartiles (setup over its set-up processes, latency over requests;
  run-level figures repeat one value);
* the traced layer table: each layer's self time as a share of request
  wall time, then the per-layer figures, ``trace.overhead_ratio`` among
  them.  A layer a workload bypasses reads 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS, print_table


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{done.stderr}")
    manifest = OUT / f"manifest-{workload}-s{seed}-t{trace}.json"
    return json.loads(manifest.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    seconds = args.seconds or benchmark["run_seconds"]

    plain = {w: run(w, args.seed, seconds, 0) for w in names}
    traced = {w: run(w, args.seed, seconds, 1) for w in names}

    print("## End-to-end (untraced)")
    for manifest in plain.values():
        print_table(manifest, units)
        print()

    print("## Traced layers: self time as a share of request wall time")
    print(f"{'layer':22s}" + "".join(f"{w:>13s}" for w in names))
    layers = [m["name"] for m in benchmark["per_layer"] if m["name"].startswith("self_share.")]
    for name in layers:
        print(f"{name[len('self_share.'):]:22s}" + "".join(
            f"{(traced[w]['per_layer'] or {}).get(name, 0.0):13.4f}" for w in names))
    print("\n## Traced per-layer figures (median per traced request)")
    print(f"{'metric':30s} {'unit':8s}" + "".join(f"{w:>13s}" for w in names))
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        if name in layers:
            continue
        print(f"{name:30s} {metric['unit']:8s}" + "".join(
            f"{(traced[w]['per_layer'] or {}).get(name, 0.0):13.5g}" for w in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
