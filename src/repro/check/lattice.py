"""Abstract domains for the interprocedural SPMD protocol verifier.

The protocol pass (:mod:`repro.check.protocol`) interprets each SPMD entry
point once per *abstract rank* and extracts a **communication schedule** —
an ordered tree of abstract events.  This module owns the two lattices the
interpreter computes over, plus the event/tree vocabulary itself:

* the **rank domain**: a run is summarized by two abstract ranks,
  :data:`RANK_ZERO` (``rank == 0``, the root of every star pattern in the
  tree) and :data:`RANK_OTHER` (a symbolic non-zero rank).  Branch
  conditions are *decided* against an abstract rank where possible
  (``rank == 0``, ``rank != 0``, truthiness, simple and/or/not
  combinations); anything else involving the rank is an undecidable
  rank-dependent branch and both arms are kept;
* the **value lattice** for collective/send/recv metadata (tags, reduce
  ops, roots): ``("const", v)`` for a folded constant, ``("expr", text)``
  for a stable symbolic expression over resolvable names, and
  ``("top", None)`` for anything data-dependent, widened across modules
  by the project constant environment.

Schedules are *trees*, not flat sequences: a uniform (rank-independent)
conditional contributes one :class:`Branch` node to every rank's schedule,
so legitimately configuration-dependent code compares equal across ranks
without path enumeration, while a rank-*decidable* conditional selects the
taken arm per abstract rank and a rank-*undecidable* one keeps both arms
flagged ``rank_dep`` for the in-tree divergence check.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Union

__all__ = [
    "AbstractRank",
    "RANK_ZERO",
    "RANK_OTHER",
    "ABSTRACT_RANKS",
    "Value",
    "CONST",
    "EXPR",
    "TOP",
    "const",
    "top",
    "CollectiveEvent",
    "SendEvent",
    "RecvEvent",
    "PublishEvent",
    "AwaitEvent",
    "Branch",
    "Loop",
    "Schedule",
    "decide_condition",
    "is_rank_name",
    "collective_view",
    "iter_events",
    "first_difference",
]


# ----------------------------------------------------------------------
# Rank domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AbstractRank:
    """One abstract rank of the symbolic SPMD world.

    ``value`` is the concrete rank when known (``0`` for the root),
    ``None`` for the symbolic "some non-zero rank".  The world size is
    symbolic and assumed ``>= 2`` (a single-rank world cannot deadlock).
    """

    name: str
    value: int | None

    def describe(self) -> str:
        """Human-readable name used in divergence diagnostics."""
        if self.value is not None:
            return f"rank {self.value}"
        return "a non-zero rank"


RANK_ZERO = AbstractRank("R0", 0)
RANK_OTHER = AbstractRank("Rk", None)

#: The abstract world every entry point is interpreted against.
ABSTRACT_RANKS = (RANK_ZERO, RANK_OTHER)


# ----------------------------------------------------------------------
# Value lattice (tags, ops, roots, shapes)
# ----------------------------------------------------------------------
CONST = "const"
EXPR = "expr"
TOP = "top"

#: ``("const", value)`` | ``("expr", text)`` | ``("top", None)``.
Value = tuple


def const(value) -> Value:
    """A known-constant lattice value."""
    return (CONST, value)


def top() -> Value:
    """The unknown (dynamic) lattice value."""
    return (TOP, None)


def render_value(value: Value) -> str:
    kind, payload = value
    if kind == CONST:
        return repr(payload)
    if kind == EXPR:
        return str(payload)
    return "<dynamic>"


# ----------------------------------------------------------------------
# Schedule events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Located:
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class CollectiveEvent(_Located):
    """One collective call site: ``barrier``/``bcast``/``Allreduce``/..."""

    name: str
    #: Resolved metadata lattice values (``op``, ``root`` where present).
    meta: tuple = ()

    def describe(self) -> str:
        """Human-readable event label for diagnostics."""
        return f"collective '{self.name}'"


@dataclass(frozen=True)
class SendEvent(_Located):
    tag: Value = (TOP, None)
    peer: Value = (TOP, None)

    def describe(self) -> str:
        """Human-readable event label for diagnostics."""
        return f"send(tag={render_value(self.tag)})"


@dataclass(frozen=True)
class RecvEvent(_Located):
    tag: Value = (TOP, None)
    peer: Value = (TOP, None)

    def describe(self) -> str:
        """Human-readable event label for diagnostics."""
        return f"recv(tag={render_value(self.tag)})"


@dataclass(frozen=True)
class PublishEvent(_Located):
    """A non-blocking coalesced cell publication (``comm.Publish``).

    Publications are one-sided and asynchronous: they never participate
    in :func:`collective_view` (a rank-asymmetric publication pattern is
    legitimate — producers publish, consumers await) and never join the
    SPMD2xx tag pool (the publication transport owns a reserved tag).
    Their legality is judged against the recurrence's dependency
    structure by the SCHED0xx rules instead.
    """

    key: Value = (TOP, None)
    dest: Value = (TOP, None)

    def describe(self) -> str:
        """Human-readable event label for diagnostics."""
        return f"publish(key={render_value(self.key)})"


@dataclass(frozen=True)
class AwaitEvent(_Located):
    """A blocking claim of published cells (``comm.Await``).

    Like :class:`PublishEvent` this is excluded from the collective
    skeleton: only the ranks whose wait-set is non-empty block, by
    design.  Deadlock freedom comes from the substrate's
    flush-before-block rule plus the SCHED0xx publication-order proof,
    not from cross-rank schedule equality.
    """

    keys: Value = (TOP, None)
    source: Value = (TOP, None)

    def describe(self) -> str:
        """Human-readable event label for diagnostics."""
        return f"await(keys={render_value(self.keys)})"


@dataclass(frozen=True)
class Branch(_Located):
    """A conditional kept in the schedule (uniform or rank-undecidable)."""

    cond: str = ""
    rank_dep: bool = False
    then: "Schedule" = field(default_factory=lambda: Schedule())
    orelse: "Schedule" = field(default_factory=lambda: Schedule())


@dataclass(frozen=True)
class Loop(_Located):
    """A loop; ``rank_dep`` when the trip count may differ across ranks."""

    key: str = ""
    rank_dep: bool = False
    body: "Schedule" = field(default_factory=lambda: Schedule())


Node = Union[
    CollectiveEvent, SendEvent, RecvEvent, PublishEvent, AwaitEvent,
    Branch, Loop,
]


@dataclass
class Schedule:
    """An ordered tree of abstract communication events."""

    items: list = field(default_factory=list)

    def append(self, node: Node) -> None:
        """Append one event/branch/loop node in program order."""
        self.items.append(node)

    def extend(self, other: "Schedule") -> None:
        """Splice *other*'s nodes in place (callee inlining)."""
        self.items.extend(other.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __len__(self) -> int:
        return len(self.items)


# ----------------------------------------------------------------------
# Condition decision against an abstract rank
# ----------------------------------------------------------------------
def is_rank_name(name: str) -> bool:
    """Whether *name* names a rank (``rank``, ``_rank``, ``my_rank``)."""
    name = name.lstrip("_")
    return name == "rank" or name.endswith("_rank")


def _is_rankish(node: ast.expr, tainted: frozenset[str]) -> bool:
    """Whether *node* denotes the rank itself (``rank``, ``comm.rank``)."""
    if isinstance(node, ast.Name):
        return is_rank_name(node.id)
    if isinstance(node, ast.Attribute):
        return is_rank_name(node.attr)
    return False


def _const_of(node: ast.expr, env: dict[str, int]) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name) and node.id in env:
        return env[node.id]
    if isinstance(node, ast.Attribute) and node.attr in env:
        return env[node.attr]
    return None


def _compare(op: ast.cmpop, left: int, right: int) -> bool | None:
    if isinstance(op, ast.Eq):
        return left == right
    if isinstance(op, ast.NotEq):
        return left != right
    if isinstance(op, ast.Lt):
        return left < right
    if isinstance(op, ast.LtE):
        return left <= right
    if isinstance(op, ast.Gt):
        return left > right
    if isinstance(op, ast.GtE):
        return left >= right
    return None


def decide_condition(
    test: ast.expr,
    rank: AbstractRank,
    env: dict[str, int] | None = None,
    tainted: frozenset[str] = frozenset(),
) -> bool | None:
    """Evaluate *test* against *rank*; ``None`` when undecidable.

    Decides ``rank <cmp> <const>`` (both orientations), bare-rank
    truthiness, ``not``, and ``and``/``or`` over decidable pieces.  For
    :data:`RANK_OTHER` only comparisons against ``0`` decide (the symbol
    is "some rank that is not 0" — nothing else is known about it).
    """
    env = env or {}
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = decide_condition(test.operand, rank, env, tainted)
        return None if inner is None else not inner
    if isinstance(test, ast.BoolOp):
        parts = [
            decide_condition(value, rank, env, tainted)
            for value in test.values
        ]
        if isinstance(test.op, ast.And):
            if any(part is False for part in parts):
                return False
            if all(part is True for part in parts):
                return True
            return None
        if any(part is True for part in parts):
            return True
        if all(part is False for part in parts):
            return False
        return None
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        # Normalize to rank-on-the-left.
        if _is_rankish(right, tainted) and not _is_rankish(left, tainted):
            flip = {
                ast.Lt: ast.Gt, ast.Gt: ast.Lt,
                ast.LtE: ast.GtE, ast.GtE: ast.LtE,
            }
            left, right = right, left
            op = flip.get(type(op), type(op))()
        if _is_rankish(left, tainted):
            bound = _const_of(right, env)
            if bound is None:
                return None
            if rank.value is not None:
                return _compare(op, rank.value, bound)
            # Symbolic non-zero rank: only its non-zero-ness is known.
            if bound == 0:
                if isinstance(op, ast.Eq):
                    return False
                if isinstance(op, ast.NotEq):
                    return True
                if isinstance(op, (ast.Gt, ast.GtE)):
                    return True
                if isinstance(op, ast.Lt):
                    return False
            if bound == 1 and isinstance(op, ast.GtE):
                return True
            if bound == 1 and isinstance(op, ast.Lt):
                return False
            return None
        return None
    # Bare truthiness of the rank: `if rank:` / `if comm.rank:`.
    if _is_rankish(test, tainted):
        if rank.value is not None:
            return bool(rank.value)
        return True
    return None


# ----------------------------------------------------------------------
# Normalization and comparison
# ----------------------------------------------------------------------
def collective_view(schedule: Schedule) -> Schedule:
    """*schedule* reduced to collectives: p2p dropped, empty nodes pruned.

    Star-patterned send/recv sequences legitimately differ per rank (rank
    0 receives from everyone, peers send to rank 0), so divergence is
    judged on the collective skeleton only; point-to-point safety is the
    tag-matching rules' job (SPMD2xx).
    """
    out = Schedule()
    for node in schedule.items:
        if isinstance(node, CollectiveEvent):
            out.append(node)
        elif isinstance(node, Branch):
            then = collective_view(node.then)
            orelse = collective_view(node.orelse)
            if then or orelse:
                out.append(
                    Branch(
                        node.path, node.line, node.col,
                        cond=node.cond, rank_dep=node.rank_dep,
                        then=then, orelse=orelse,
                    )
                )
        elif isinstance(node, Loop):
            body = collective_view(node.body)
            if body:
                out.append(
                    Loop(
                        node.path, node.line, node.col,
                        key=node.key, rank_dep=node.rank_dep, body=body,
                    )
                )
    return out


def iter_events(schedule: Schedule) -> Iterator[Node]:
    """Every event in *schedule*, depth-first, arms and bodies included."""
    for node in schedule.items:
        yield node
        if isinstance(node, Branch):
            yield from iter_events(node.then)
            yield from iter_events(node.orelse)
        elif isinstance(node, Loop):
            yield from iter_events(node.body)


def _schedules_equal(a: Schedule, b: Schedule) -> bool:
    return first_difference(a, b) is None


def first_difference(a: Schedule, b: Schedule):
    """The first structural difference between two schedules, or ``None``.

    Returns ``(node_a, node_b, why)`` where either node may be ``None``
    (one side ran out of events).  Collective events differ when their
    names differ (``why="collective"``) or their names match but resolved
    metadata does not (``why="meta"``); branch/loop nodes compare arm by
    arm and body by body.
    """
    for node_a, node_b in zip(a.items, b.items):
        kind_a, kind_b = type(node_a), type(node_b)
        if kind_a is not kind_b:
            return node_a, node_b, "kind"
        if isinstance(node_a, CollectiveEvent):
            if node_a.name != node_b.name:
                return node_a, node_b, "collective"
            if node_a.meta != node_b.meta:
                return node_a, node_b, "meta"
        elif isinstance(node_a, Branch):
            for arm_a, arm_b in (
                (node_a.then, node_b.then),
                (node_a.orelse, node_b.orelse),
            ):
                diff = first_difference(arm_a, arm_b)
                if diff is not None:
                    return diff
        elif isinstance(node_a, Loop):
            if node_a.key != node_b.key:
                return node_a, node_b, "loop"
            diff = first_difference(node_a.body, node_b.body)
            if diff is not None:
                return diff
    if len(a.items) != len(b.items):
        longer = a.items if len(a.items) > len(b.items) else b.items
        extra = longer[min(len(a.items), len(b.items))]
        if len(a.items) > len(b.items):
            return extra, None, "extra"
        return None, extra, "extra"
    return None
