"""``repro.check`` — SPMD static analysis and runtime sanitizers.

PRNA's correctness hangs on an *implicit* SPMD protocol: every rank must
issue the same per-row ``Allreduce(MAX)`` sequence, and each rank may only
write its owned columns of the memo table between synchronizations.
Nothing in the algorithm itself checks any of this — a rank-conditional collective
or an out-of-partition write silently deadlocks or corrupts ``M``.

This package verifies the protocol in four complementary layers:

* **static, per-module** (:mod:`repro.check.static`,
  ``python -m repro.check`` or ``repro-rna check``) — an AST linter
  flagging SPMD hazards with rule IDs ``SPMD001``/``SPMD002``,
  ``ARCH001`` and the lexical ``DTYPE101`` (formerly ``SPMD004``), with
  suppression comments, JSON/SARIF output, and a nonzero exit code on
  findings (MPI-Checker-style collective matching);
* **static, whole-program** (:mod:`repro.check.protocol`, ``--protocol``)
  — a rank-symbolic interprocedural interpreter that extracts each
  abstract rank's communication schedule and proves collective agreement
  (``SPMD1xx``), cross-module tag matching (``SPMD2xx``), and executor
  dependency-schedule legality against the recurrence's ``d1``/``d2``
  structure (``SCHED0xx``), with content-hash incremental caching and a
  baseline ratchet;
* **static, numeric** (:mod:`repro.check.dataflow` +
  :mod:`repro.check.costs`, ``--dataflow``) — interval/shape/dtype
  abstract interpretation of the kernels proving dtype overflows under
  the registry's declared input bounds (``DTYPE1xx``), shape and
  memo-axis incompatibilities (``SHAPE1xx``), and auditing every
  registered :class:`~repro.runtime.registry.CostContract` against the
  statically extracted loop-nest degree (``COST0xx``);
* **dynamic** (:mod:`repro.check.sanitizer`) — a
  :class:`~repro.check.sanitizer.SanitizedCommunicator` that stamps every
  collective with a sequence number, op, dtype, shape, and call site and
  cross-validates the stamps at the rendezvous (diagnostics
  ``SAN101``-``SAN104``), plus a memo-table race detector that diffs the
  guarded table against a per-rank shadow at every row ``Allreduce``
  (``SAN201``-``SAN203``).

See ``docs/static-analysis.md`` for the rule catalog and the sanitizer
protocol.
"""

from repro.check.findings import RULES, Finding
from repro.check.sanitizer import SanitizedCommunicator, SanitizedMemoTable
from repro.check.static import (
    analyze_paths,
    analyze_project,
    analyze_source,
    run_check,
)

__all__ = [
    "Finding",
    "RULES",
    "SanitizedCommunicator",
    "SanitizedMemoTable",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "run_check",
]
