"""ARCH001: the one per-module rule of the static pass.

Every other rule is whole-program and lives in :mod:`repro.check.protocol`
(SPMD1xx/SPMD2xx/SCHED0xx) or :mod:`repro.check.dataflow` and
:mod:`repro.check.costs` (DTYPE1xx/SHAPE1xx/COST0xx).

* **ARCH001** — direct construction of run-scoped machinery
  (communicators, backend launchers, ``Tracer``) outside
  :mod:`repro.runtime.context`, the layer that owns them.  The defining
  substrate modules (``repro/mpi/*``, ``repro/obs/tracer.py``,
  ``repro/check/sanitizer.py``) are exempt; the context module itself
  carries the single sanctioned ``# noqa: ARCH001`` on its factory table.
"""

from __future__ import annotations

import ast
import os

from repro.check.findings import Finding

__all__ = ["check_architecture"]


# ----------------------------------------------------------------------
# ARCH001 — runtime machinery constructed outside repro.runtime.context
# ----------------------------------------------------------------------
#: Factories whose *call* marks a construction the execution context owns.
_ARCH_FACTORIES = frozenset(
    {
        "Tracer",
        "SanitizedCommunicator",
        "SelfCommunicator",
        "ThreadCommunicator",
        "ProcessCommunicator",
        "run_threaded",
        "run_multiprocess",
    }
)

#: Modules allowed to construct freely: the substrate that *defines* the
#: machinery.  ``repro/runtime/context.py`` is deliberately NOT here — it
#: funnels every construction through one ``# noqa: ARCH001`` line.
_ARCH_EXEMPT_SUFFIXES = (
    "repro/obs/tracer.py",
    "repro/check/sanitizer.py",
)


def _arch_exempt(path: str) -> bool:
    norm = path.replace(os.sep, "/")
    if any(norm.endswith(suffix) for suffix in _ARCH_EXEMPT_SUFFIXES):
        return True
    return "/mpi/" in norm


def _arch_flagged_name(call: ast.Call) -> str | None:
    func = call.func
    name = (
        func.attr
        if isinstance(func, ast.Attribute)
        else func.id
        if isinstance(func, ast.Name)
        else None
    )
    return name if name in _ARCH_FACTORIES else None


def check_architecture(tree: ast.Module, path: str) -> list[Finding]:
    """ARCH001 findings for one parsed module."""
    findings: list[Finding] = []
    if _arch_exempt(path):
        return findings
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        flagged = _arch_flagged_name(node)
        if flagged is None:
            continue
        findings.append(
            Finding(
                "ARCH001",
                path,
                node.lineno,
                node.col_offset,
                f"direct construction of runtime machinery ({flagged!r}) "
                "outside repro.runtime.context — route through "
                "ExecutionContext (or its sanitize_communicator helper) "
                "so plans, stats and sanitizers stay consistent",
            )
        )
    return findings
