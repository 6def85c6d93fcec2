"""repro.runtime — the planner/context/executor solver stack.

Every entry point of the library (``mcos``, ``prna``, ``search``, the CLI,
the experiment harness) routes through three layers defined here:

* **Layer 1 — planning** (:mod:`repro.runtime.plan`): a :class:`Planner`
  turns two structures (or a query + target collection) plus
  :class:`ResourceHints` into an explainable :class:`Plan` — which
  algorithm, slice engine, backend, world size, partition strategy,
  sync schedule and sanitizer setting to run — using the calibrated work
  model (:mod:`repro.perf.model`) and the cluster cost model
  (:mod:`repro.mpi.costmodel`).
* **Layer 2 — execution context** (:mod:`repro.runtime.context`): the
  single place that constructs and owns communicators (including
  sanitizer wrapping), tracers, metrics registries and checkpoint
  stores.  Rule ARCH001 of :mod:`repro.check`
  enforces that nothing else in the tree constructs these directly.
* **Layer 3 — solving** (:mod:`repro.runtime.solver`): the
  :class:`Solver` facade — ``solve(s1, s2)`` and ``solve_batch(query,
  targets)`` with ``algorithm="auto"`` / ``engine="auto"`` as the public
  default path.

Name lists (algorithms, engines, backends, partitioners, sync modes) live
once, in :mod:`repro.runtime.registry`.
"""

from repro.runtime.context import ExecutionContext
from repro.runtime.plan import Plan, Planner, ResourceHints
from repro.runtime.registry import (
    ALGORITHMS,
    AUTO,
    BACKENDS,
    BATCH_ALGORITHMS,
    ENGINE_NAMES,
    PARALLEL_ALGORITHMS,
    PARTITIONER_NAMES,
    SEQUENTIAL_ALGORITHMS,
    SYNC_MODES,
    validate_choice,
)
from repro.runtime.solver import SolveResult, Solver, solve, solve_batch

__all__ = [
    "ALGORITHMS",
    "AUTO",
    "BACKENDS",
    "BATCH_ALGORITHMS",
    "ENGINE_NAMES",
    "PARALLEL_ALGORITHMS",
    "PARTITIONER_NAMES",
    "SEQUENTIAL_ALGORITHMS",
    "SYNC_MODES",
    "validate_choice",
    "Plan",
    "Planner",
    "ResourceHints",
    "ExecutionContext",
    "Solver",
    "SolveResult",
    "solve",
    "solve_batch",
]
