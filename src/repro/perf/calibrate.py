"""Machine calibration of the work and communication cost models.

Two fits live here:

* :func:`calibrate_work_model` — ``seconds_per_cell`` /
  ``seconds_per_slice`` for *this* host, from timed SRNA2 runs on two
  contrived worst-case instances (cell counts exactly known, stage one
  dominates > 99 %, Table III).
* :func:`calibrate_cluster_spec` — a :class:`~repro.mpi.costmodel
  .ClusterSpec` fitted from **measured on-node microbenchmarks** over the
  real process backend (pipe ping-pong for ``alpha``/``beta``, small
  collectives for ``sync_overhead``).  The planner prices the row-barrier
  vs dataflow schedules with these numbers instead of the paper's Fundy
  constants, and cites the source in ``plan.explain()``.

``python -m repro.perf.calibrate`` (wired as ``make calibrate``) runs both
fits and writes ``CALIBRATION.json``; :func:`load_calibration` is the
planner's lazy loader (path overridable via the ``REPRO_CALIBRATION``
environment variable).  Missing or malformed files load as ``None`` and
the planner falls back to the built-in local-cluster defaults.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.core.srna2 import srna2
from repro.mpi.costmodel import ClusterSpec
from repro.perf.model import WorkModel
from repro.structure.generators import contrived_worst_case

__all__ = [
    "CALIBRATION_ENV",
    "DEFAULT_CALIBRATION_PATH",
    "calibrate_cluster_spec",
    "calibrate_work_model",
    "load_calibrated_work_model",
    "load_calibration",
    "save_calibration",
]

#: Default on-disk location of the calibration record.
DEFAULT_CALIBRATION_PATH = "CALIBRATION.json"

#: Environment variable overriding the calibration path.
CALIBRATION_ENV = "REPRO_CALIBRATION"


def _measure(length: int, repeat: int) -> float:
    structure = contrived_worst_case(length)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        srna2(structure, structure)
        best = min(best, time.perf_counter() - start)
    return best


def calibrate_work_model(
    small: int = 100, large: int = 200, repeat: int = 2
) -> WorkModel:
    """Fit a :class:`WorkModel` from two timed worst-case self-comparisons.

    *small*/*large* are sequence lengths (arcs are half that).  Falls back
    to a cells-only fit if the system is ill-conditioned (which cannot
    happen for distinct sizes, but guards pathological timer noise).
    """
    if not 0 < small < large:
        raise ValueError(f"need 0 < small < large, got {small}, {large}")

    def counts(length: int) -> tuple[float, float]:
        arcs = length // 2
        inside_sum = float(arcs * (arcs - 1) // 2)
        return inside_sum * inside_sum, float(arcs * arcs)

    cells = np.array([counts(small)[0], counts(large)[0]])
    slices = np.array([counts(small)[1], counts(large)[1]])
    times = np.array([_measure(small, repeat), _measure(large, repeat)])

    matrix = np.column_stack([cells, slices])
    try:
        spc, sps = np.linalg.solve(matrix, times)
    except np.linalg.LinAlgError:  # pragma: no cover - degenerate sizes
        spc, sps = float(times[-1] / cells[-1]), 0.0
    # Timer noise can push the tiny per-slice residual negative; clamp.
    spc = max(float(spc), 1e-12)
    sps = max(float(sps), 0.0)
    return WorkModel(seconds_per_cell=spc, seconds_per_slice=sps)


# ----------------------------------------------------------------------
# On-node communication microbenchmarks (the real process backend).
# ----------------------------------------------------------------------

_PINGS = 32
_SYNC_ROUNDS = 32
_BIG_BYTES = 1 << 20


def _probe_rank(comm):
    """Microbenchmark body for one rank of a 2-rank process world.

    Rank 0 returns the raw measurements; rank 1 echoes and participates.
    Minima over repetitions are taken where the quantity is a lower-bound
    latency (ping-pong); the collective loops report per-call means, the
    number the planner actually multiplies by the row count.
    """
    small = np.zeros(1, dtype=np.int64)
    big = np.zeros(_BIG_BYTES // 8, dtype=np.int64)
    out: dict[str, float] = {}

    def pingpong(payload) -> float:
        best = float("inf")
        for _ in range(_PINGS):
            if comm.rank == 0:
                start = time.perf_counter()
                comm.send(payload, 1)
                comm.recv(1)
                best = min(best, time.perf_counter() - start)
            else:
                comm.send(comm.recv(0), 0)
        return best

    comm.barrier()
    out["rtt_small"] = pingpong(small)
    comm.barrier()
    out["rtt_big"] = pingpong(big)

    from repro.mpi.datatypes import ReduceOp

    def allreduce_loop(buffer) -> float:
        comm.barrier()
        start = time.perf_counter()
        for _ in range(_SYNC_ROUNDS):
            comm.Allreduce(buffer, ReduceOp.MAX)
        return (time.perf_counter() - start) / _SYNC_ROUNDS

    out["allreduce_small"] = allreduce_loop(small)
    return out


def calibrate_cluster_spec() -> ClusterSpec:
    """Fit a one-node :class:`ClusterSpec` from measured microbenchmarks.

    Launches a 2-rank **process** world (the backend whose costs the
    planner is pricing) and derives:

    * ``alpha`` — half the best small-payload pipe round trip;
    * ``beta`` — marginal per-byte cost of a 1 MiB pipe transfer (pickle
      included, because the pipe path pays it);
    * ``sync_overhead`` — small-buffer ``Allreduce`` per-call cost beyond
      its one latency round.

    The ``contention`` coefficient is *not* measured: disentangling
    memory-bus contention from scheduler contention needs more cores than
    a CI container has, so the local default is kept.
    """
    from repro.runtime.context import ExecutionContext

    results = ExecutionContext().launch(
        _probe_rank, n_ranks=2, backend="process"
    )
    probe = results[0]
    alpha = max(probe["rtt_small"] / 2, 1e-9)
    beta = max((probe["rtt_big"] / 2 - alpha) / _BIG_BYTES, 1e-12)
    sync_overhead = max(probe["allreduce_small"] - alpha, 1e-9)
    return ClusterSpec(
        cores_per_node=max(os.cpu_count() or 1, 1),
        n_nodes=1,
        alpha=alpha,
        beta=beta,
        sync_overhead=sync_overhead,
        contention=0.05,
    )


# ----------------------------------------------------------------------
# Persistence: CALIBRATION.json, consumed lazily by the planner.
# ----------------------------------------------------------------------


def calibration_path(path: str | None) -> str:
    if path is not None:
        return path
    return os.environ.get(CALIBRATION_ENV) or DEFAULT_CALIBRATION_PATH


def save_calibration(
    cluster: ClusterSpec,
    work_model: WorkModel | None = None,
    path: str | None = None,
) -> str:
    """Write the calibration record; returns the path written."""
    target = calibration_path(path)
    payload: dict = {
        "cluster": {
            f.name: getattr(cluster, f.name)
            for f in dataclass_fields(ClusterSpec)
        },
    }
    if work_model is not None:
        payload["work_model"] = {
            "seconds_per_cell": work_model.seconds_per_cell,
            "seconds_per_slice": work_model.seconds_per_slice,
        }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def _load_payload(path: str | None) -> dict | None:
    target = calibration_path(path)
    try:
        with open(target, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def load_calibration(path: str | None = None) -> ClusterSpec | None:
    """The calibrated :class:`ClusterSpec`, or ``None`` when absent/bad."""
    payload = _load_payload(path)
    if payload is None or not isinstance(payload.get("cluster"), dict):
        return None
    known = {f.name for f in dataclass_fields(ClusterSpec)}
    kwargs = {
        key: value
        for key, value in payload["cluster"].items()
        if key in known and isinstance(value, (int, float))
    }
    try:
        return ClusterSpec(**kwargs)
    except TypeError:  # pragma: no cover - malformed record
        return None


def load_calibrated_work_model(path: str | None = None) -> WorkModel | None:
    """The calibrated :class:`WorkModel`, or ``None`` when absent/bad."""
    payload = _load_payload(path)
    if payload is None or not isinstance(payload.get("work_model"), dict):
        return None
    record = payload["work_model"]
    try:
        spc = float(record["seconds_per_cell"])
        sps = float(record.get("seconds_per_slice", 0.0))
    except (KeyError, TypeError, ValueError):
        return None
    if spc <= 0:
        return None
    return WorkModel(seconds_per_cell=spc, seconds_per_slice=max(sps, 0.0))


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.perf.calibrate`` — fit and persist both models."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.calibrate",
        description="measure on-node communication/compute costs and "
        "write the calibration record the planner prices schedules with",
    )
    parser.add_argument(
        "--output", "-o", default=None,
        help=f"record path (default {DEFAULT_CALIBRATION_PATH}, or "
        f"${CALIBRATION_ENV})",
    )
    parser.add_argument(
        "--skip-work-model", action="store_true",
        help="only calibrate the communication spec (faster)",
    )
    args = parser.parse_args(argv)

    cluster = calibrate_cluster_spec()
    work_model = None if args.skip_work_model else calibrate_work_model()
    target = save_calibration(cluster, work_model, args.output)
    print(f"calibration written to {target}")
    print(
        f"  alpha={cluster.alpha:.3g} s  beta={cluster.beta:.3g} s/B  "
        f"sync_overhead={cluster.sync_overhead:.3g} s"
    )
    if work_model is not None:
        print(
            f"  seconds_per_cell={work_model.seconds_per_cell:.3g}  "
            f"seconds_per_slice={work_model.seconds_per_slice:.3g}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via make calibrate
    raise SystemExit(main())
