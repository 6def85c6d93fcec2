"""Static cost extraction: loop-nest/vector-op degree of each kernel.

The COST0xx half of the numeric dataflow pass.  The planner's
:class:`~repro.perf.model.WorkModel` prices stage one as
``seconds_per_cell * rows * cols`` — every per-slice engine is assumed
**degree 2** in the slice dimensions.  :class:`~repro.runtime.registry.
CostContract` pins that assumption to a concrete entry point; this
module extracts each audited kernel's *actual* degree from its AST and
refutes any contract that disagrees (COST001), plus registry-level
inconsistencies (COST002: an engine without a contract, or a contract
whose entry point does not resolve in the analyzed tree).

Degree model
------------
A statement's degree is ``loop_depth + max operand rank``, where

* ``loop_depth`` counts enclosing data-dependent loops — a ``for`` over
  ``range(<non-constant>)`` or over an array, and every ``while``.  A
  loop whose trip count is a literal constant (``range(4)`` row-kernel
  unrolling) contributes nothing: it is a constant factor, not a degree.
* operand rank is the numpy rank of the statement's array operands,
  tracked through a tiny ndim abstraction (constructors, gathers,
  reductions, elementwise ops).  A rank-2 memo gather at top level is
  degree 2; a rank-1 row kernel inside one data-dependent loop is
  ``1 + 1 = 2``.

Calls resolvable through the :class:`~repro.check.callgraph.
ProjectIndex` inline the callee's extracted degree at the caller's
depth (memoized, cycle-guarded), so a driver that loops over a degree-2
kernel extracts as degree 3 — which is exactly why the batched engine's
contract sits on ``_segmented_tabulate`` rather than the chunked batch
driver.

The extractor is deliberately an over-approximation-free *witness*
search: the reported degree is the maximum over statements actually
present, and each extraction records the witness line so a COST001
message points at the statement that proves the disagreement.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.callgraph import FunctionInfo, ProjectIndex, declaration_site
from repro.check.dataflow import _np_func
from repro.check.findings import Finding

__all__ = ["analyze_costs", "extract_degree", "DegreeWitness"]

#: numpy constructors whose result rank follows the shape argument.
_SHAPED_CONSTRUCTORS = frozenset({"zeros", "empty", "ones", "full"})

#: numpy calls that produce a rank-1 array regardless of input rank.
_RANK1_PRODUCERS = frozenset(
    {
        "arange",
        "concatenate",
        "flatnonzero",
        "nonzero",
        "ravel",
        "sort",
        "argsort",
    }
)

#: numpy calls whose result rank equals the first argument's rank.
_RANK_PRESERVING = frozenset(
    {
        "cumsum",
        "clip",
        "asarray",
        "array",
        "copy",
        "ascontiguousarray",
        "where",
        "repeat",
        "searchsorted",
        "take",
        "maximum",
        "minimum",
        "left_shift",
        "right_shift",
    }
)


@dataclass(frozen=True)
class DegreeWitness:
    """An extracted degree plus the statement line that attains it."""

    degree: int
    line: int
    detail: str


def _is_constant_range(call: ast.Call) -> bool:
    """``range(...)`` with every argument a literal int constant."""
    if not (
        isinstance(call.func, ast.Name) and call.func.id == "range"
    ):
        return False
    return all(
        isinstance(arg, ast.Constant) and isinstance(arg.value, int)
        for arg in call.args
    )


class _DegreeExtractor:
    """ndim tracking + loop-depth walk over one function body."""

    def __init__(
        self,
        info: FunctionInfo,
        index: ProjectIndex,
        memo: dict[str, DegreeWitness],
        stack: set[str],
    ):
        self.info = info
        self.index = index
        self.memo = memo
        self.stack = stack
        self.module = index.modules.get(info.path)
        #: variable name -> known numpy rank (absent = not an array /
        #: unknown, treated as rank 0 so unknowns never inflate degree).
        self.ndim: dict[str, int] = {}
        self.best = DegreeWitness(0, info.node.lineno, "function body")

    def run(self) -> DegreeWitness:
        self._walk_block(self.info.node.body, 0)
        return self.best

    # -- bookkeeping ---------------------------------------------------
    def _record(self, degree: int, node: ast.AST, detail: str) -> None:
        if degree > self.best.degree:
            self.best = DegreeWitness(
                degree, getattr(node, "lineno", self.info.node.lineno),
                detail,
            )

    # -- rank abstraction ----------------------------------------------
    def _rank(self, node: ast.expr) -> int:
        if isinstance(node, ast.Name):
            return self.ndim.get(node.id, 0)
        if isinstance(node, ast.BinOp):
            return max(self._rank(node.left), self._rank(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._rank(node.operand)
        if isinstance(node, ast.Compare):
            rank = self._rank(node.left)
            for comparator in node.comparators:
                rank = max(rank, self._rank(comparator))
            return rank
        if isinstance(node, ast.IfExp):
            return max(self._rank(node.body), self._rank(node.orelse))
        if isinstance(node, ast.Call):
            return self._call_rank(node)
        if isinstance(node, ast.Subscript):
            return self._subscript_rank(node)
        if isinstance(node, ast.Attribute):
            # ``arr.T`` and friends preserve rank; anything else unknown.
            if node.attr == "T":
                return self._rank(node.value)
            return 0
        return 0

    def _call_rank(self, call: ast.Call) -> int:
        np_name = _np_func(call)
        if np_name is not None:
            leaf = np_name.split(".")[-1]
            if leaf in _SHAPED_CONSTRUCTORS and call.args:
                shape = call.args[0]
                if isinstance(shape, ast.Tuple):
                    return len(shape.elts)
                return 1
            if np_name.endswith("_like") and call.args:
                return self._rank(call.args[0])
            if leaf in _RANK1_PRODUCERS:
                return 1
            if leaf == "ix_":
                return len(call.args)
            if np_name in ("maximum.accumulate", "minimum.accumulate",
                           "add.accumulate"):
                return self._rank(call.args[0]) if call.args else 1
            if leaf in _RANK_PRESERVING and call.args:
                return max(1, self._rank(call.args[0]))
            return 0
        func = call.func
        if isinstance(func, ast.Attribute):
            # Array methods preserve (or reduce) the receiver's rank.
            receiver = self._rank(func.value)
            if func.attr in ("sum", "max", "min", "argmax", "argmin",
                             "item", "tolist", "any", "all"):
                return 0
            if func.attr in ("astype", "copy", "clip", "cumsum",
                             "reshape", "ravel", "view"):
                return max(receiver, 1) if receiver else 0
            return 0
        return 0

    def _subscript_rank(self, node: ast.Subscript) -> int:
        base = self._rank(node.value)
        sl = node.slice
        if isinstance(sl, ast.Call) and _np_func(sl) == "ix_":
            return len(sl.args)
        if isinstance(sl, ast.Slice):
            return base
        if isinstance(sl, ast.Tuple):
            rank = 0
            for element in sl.elts:
                if isinstance(element, ast.Slice):
                    rank += 1
                else:
                    rank = max(rank, self._rank(element))
            return rank
        idx_rank = self._rank(sl)
        if idx_rank >= 1:
            return idx_rank  # gather takes the index's rank
        return max(base - 1, 0)

    # -- statement walk ------------------------------------------------
    def _walk_block(self, body: list[ast.stmt], depth: int) -> None:
        for stmt in body:
            self._walk(stmt, depth)

    def _walk(self, stmt: ast.stmt, depth: int) -> None:
        if isinstance(stmt, ast.For):
            iter_node = stmt.iter
            data_dependent = True
            if isinstance(iter_node, ast.Call) and _is_constant_range(
                iter_node
            ):
                data_dependent = False
            inner = depth + (1 if data_dependent else 0)
            if data_dependent:
                self._record(
                    inner, stmt,
                    f"loop over {ast.unparse(iter_node)}",
                )
            self._score_expr(iter_node, depth)
            if isinstance(stmt.target, ast.Name):
                self.ndim[stmt.target.id] = max(
                    self._rank(iter_node) - 1, 0
                )
            self._walk_block(stmt.body, inner)
            self._walk_block(stmt.orelse, depth)
            return
        if isinstance(stmt, ast.While):
            self._record(depth + 1, stmt, "while loop")
            self._score_expr(stmt.test, depth + 1)
            self._walk_block(stmt.body, depth + 1)
            self._walk_block(stmt.orelse, depth)
            return
        if isinstance(stmt, ast.If):
            self._score_expr(stmt.test, depth)
            self._walk_block(stmt.body, depth)
            self._walk_block(stmt.orelse, depth)
            return
        if isinstance(stmt, (ast.With, ast.Try)):
            if isinstance(stmt, ast.With):
                self._walk_block(stmt.body, depth)
            else:
                self._walk_block(stmt.body, depth)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, depth)
                self._walk_block(stmt.orelse, depth)
                self._walk_block(stmt.finalbody, depth)
            return
        if isinstance(stmt, ast.Assign):
            self._score_expr(stmt.value, depth)
            rank = self._rank(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.ndim[target.id] = rank
                elif isinstance(target, ast.Subscript):
                    self._score_expr(target, depth)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._score_expr(stmt.value, depth)
            if isinstance(stmt.target, ast.Name):
                self.ndim[stmt.target.id] = self._rank(stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._score_expr(stmt.value, depth)
            self._score_expr(stmt.target, depth)
            return
        if isinstance(stmt, ast.Expr):
            self._score_expr(stmt.value, depth)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._score_expr(stmt.value, depth)
            return

    def _score_expr(self, expr: ast.expr, depth: int) -> None:
        """Score every vector op and resolvable call inside *expr*."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._score_call(node, depth)
            elif isinstance(node, (ast.BinOp, ast.Subscript, ast.Compare)):
                rank = self._rank(node)
                if rank > 0:
                    self._record(
                        depth + rank, node,
                        f"rank-{rank} vector op "
                        f"'{ast.unparse(node)[:60]}'",
                    )

    def _score_call(self, call: ast.Call, depth: int) -> None:
        rank = self._call_rank(call)
        if rank > 0:
            self._record(
                depth + rank, call,
                f"rank-{rank} call '{ast.unparse(call)[:60]}'",
            )
        if self.module is None:
            return
        callee = self.index.resolve_call(
            call, self.module, self.info.class_name
        )
        if callee is None or callee.qualname == self.info.qualname:
            return
        witness = _extract(callee, self.index, self.memo, self.stack)
        if witness is not None and witness.degree > 0:
            self._record(
                depth + witness.degree, call,
                f"calls {callee.node.name}() (degree {witness.degree})",
            )


def _extract(
    info: FunctionInfo,
    index: ProjectIndex,
    memo: dict[str, DegreeWitness],
    stack: set[str],
) -> DegreeWitness | None:
    if info.qualname in memo:
        return memo[info.qualname]
    if info.qualname in stack:
        return None  # recursion: no degree claim either way
    stack.add(info.qualname)
    try:
        witness = _DegreeExtractor(info, index, memo, stack).run()
    finally:
        stack.discard(info.qualname)
    memo[info.qualname] = witness
    return witness


def extract_degree(
    info: FunctionInfo, index: ProjectIndex
) -> DegreeWitness:
    """The extracted loop-nest/vector-op degree of one function."""
    witness = _extract(info, index, {}, set())
    assert witness is not None  # stack is empty at the root
    return witness


# ----------------------------------------------------------------------
# Contract audit (COST001/COST002)
# ----------------------------------------------------------------------
def _resolve_entry(
    index: ProjectIndex, entry: str
) -> FunctionInfo | None:
    """Resolve a contract's dotted entry against the analyzed tree.

    Exact qualname first, then dotted-suffix matching (the tree may be
    indexed under path-derived names in tests and temp dirs); ties break
    toward the longest matching suffix.
    """
    if entry in index.functions:
        return index.functions[entry]
    parts = entry.split(".")
    for start in range(1, len(parts)):
        suffix = ".".join(parts[start:])
        matches = [
            info
            for qualname, info in index.functions.items()
            if qualname == suffix or qualname.endswith("." + suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        if matches:
            return None  # ambiguous: refuse to guess
    return None


def analyze_costs(
    index: ProjectIndex, *, declarations=None
) -> list[Finding]:
    """Audit declared cost contracts against extracted kernel degrees.

    *declarations* overrides the registry's contracts (used by tests and
    fault seeds); by default the contracts are read from
    :mod:`repro.runtime.registry` **only when the registry module itself
    is part of the analyzed tree** — checking an unrelated snippet must
    not drag the shipped contracts in.
    """
    registry_module = index.registry_module()
    engine_names: tuple[str, ...] = ()
    if declarations is None:
        if registry_module is None:
            return []
        try:
            from repro.runtime.registry import ENGINE_NAMES, kernel_costs
        except ImportError:  # pragma: no cover - package not importable
            return []
        declarations = kernel_costs()
        engine_names = ENGINE_NAMES
    findings: list[Finding] = []
    declared_keys = {contract.key for contract in declarations}
    for engine in engine_names:
        if f"engine:{engine}" not in declared_keys:
            path, line = declaration_site(registry_module, "ENGINE_NAMES")
            findings.append(
                Finding(
                    "COST002", path, line, 0,
                    f"engine {engine!r} has no CostContract — the "
                    "planner's WorkModel prices it blind; declare one "
                    "with declare_cost()",
                )
            )
    memo: dict[str, DegreeWitness] = {}
    for contract in declarations:
        info = _resolve_entry(index, contract.entry)
        if info is None:
            path, line = declaration_site(registry_module, contract.key)
            findings.append(
                Finding(
                    "COST002", path, line, 0,
                    f"cost contract {contract.key!r} names entry "
                    f"{contract.entry!r}, which does not resolve to a "
                    "unique function in the analyzed tree",
                )
            )
            continue
        witness = _extract(info, index, memo, set())
        if witness is None or witness.degree == contract.degree:
            continue
        findings.append(
            Finding(
                "COST001", info.path, info.node.lineno, 0,
                f"cost contract {contract.key!r} declares degree "
                f"{contract.degree} ({contract.polynomial}) but the "
                f"extracted degree of {info.node.name}() is "
                f"{witness.degree} — witness at line {witness.line}: "
                f"{witness.detail}",
            )
        )
    return findings
