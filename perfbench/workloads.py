"""Seeded workload inputs and their correctness oracles.

Each workload is a list of :class:`Request` objects built from the
benchmark's ``--seed`` before any timing starts; a run cycles through the
list in order.  Every request carries the answer it must produce:

* delete-only mutants give an exact score: a mutant is a subset of its
  base, so ``MCOS(base, mutant) = n_arcs(base) - deleted``;
* backtraced matchings must pass ``verify_matching`` and hold exactly
  ``score`` pairs;
* ``search`` hits must equal reference scores computed once with the
  per-slice ``vectorized`` engine (independent of the ``batched`` kernel
  under test) and stored in ``data/search_pool.json`` — the vectorized
  engine needs about a second per pair, far too slow to recompute inside
  a run.  Rebuild that file with ``python3 perfbench/workloads.py``.

Why each workload exists, and what it should and should not move, is in
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.backtrace import verify_matching
from repro.structure.arcs import Structure
from repro.structure.datasets import fungus_23s
from repro.structure.dotbracket import from_dotbracket, to_dotbracket
from repro.structure.generators import (
    contrived_worst_case,
    rna_like_structure,
    rrna_5s,
    trna_cloverleaf,
)

WORKLOADS = ("worst_dense", "rrna_23s", "rna_pairs", "search")

SEARCH_POOL_PATH = Path(__file__).resolve().parent / "data" / "search_pool.json"
#: Search pool shape (see ``build_search_pool``).
SEARCH_QUERIES = 8
SEARCH_CANDIDATES = 32
SEARCH_TARGETS = 64
SEARCH_TARGETS_PER_REQUEST = 60
SEARCH_POOL_SEED = 20120521
RNA_PAIRS_SEED = 2
ARCS_PER_BASE = 0.22


@dataclass
class Request:
    """One closed-loop request and the answer it must produce.

    ``kind`` is ``"solve"`` (``args = (s1, s2)``) or ``"search"``
    (``args = (query, [(name, target), ...])``).  ``expect`` is the exact
    score for a solve, or ``{target name: score}`` for a search.
    ``structures`` holds parsed copies for the oracle when ``args`` are
    dot-bracket strings.
    """

    kind: str
    args: tuple
    kwargs: dict
    pairs: int
    expect: Any
    key: str
    structures: tuple = field(default=(), repr=False)


def structure_hash(*structures: Structure) -> str:
    """Short sha256 over the dot-bracket forms (the input identity)."""
    digest = hashlib.sha256()
    for structure in structures:
        digest.update(to_dotbracket(structure).encode())
        digest.update(b"|")
    return digest.hexdigest()[:16]


def delete_mutant(
    base: Structure, rng: np.random.Generator, deleted: int
) -> Structure:
    """A copy of *base* with *deleted* random arcs removed."""
    victims = rng.choice(base.n_arcs, size=deleted, replace=False)
    return base.without_arcs(victims.tolist())


def deletion_counts(rng: np.random.Generator, count: int, most: int) -> np.ndarray:
    """*count* deletion counts spread evenly over ``0..most``, seeded order.

    Cost falls steeply with each deleted arc, so every seed gets the same
    spread of counts; only which arcs go and the order vary.
    """
    return rng.permutation(np.arange(count) * (most + 1) // count)


def _mutant_requests(
    base: Structure, rng: np.random.Generator, count: int, most: int
) -> list[Request]:
    requests = []
    for deleted in deletion_counts(rng, count, most):
        mutant = delete_mutant(base, rng, int(deleted))
        requests.append(Request(
            kind="solve", args=(base, mutant), kwargs={}, pairs=1,
            expect=base.n_arcs - int(deleted), key=structure_hash(base, mutant),
        ))
    return requests


def _rna_pairs(rng: np.random.Generator) -> list[Request]:
    # The bases are fixed (the seed picks mutants and order): the cost of a
    # random RNA-like base varies severalfold with its shape.  Weights
    # 4:2:2:2 put the median well inside the 5S group instead of on the
    # boundary between two base sizes, where it would jump between runs.
    bases = (
        [rrna_5s()] * 4
        + [trna_cloverleaf()] * 2
        + [rna_like_structure(200, 45, seed=RNA_PAIRS_SEED)] * 2
        + [rna_like_structure(300, 70, seed=RNA_PAIRS_SEED)] * 2
    )
    cycles = 8
    counts = [deletion_counts(rng, cycles, 5) for _ in bases]
    requests = []
    for cycle in range(cycles):
        for index in rng.permutation(len(bases)):
            base, deleted = bases[index], int(counts[index][cycle])
            mutant = delete_mutant(base, rng, deleted)
            requests.append(Request(
                kind="solve",
                args=(to_dotbracket(base), to_dotbracket(mutant)),
                kwargs={"with_backtrace": True},
                pairs=1,
                expect=base.n_arcs - deleted,
                key=structure_hash(base, mutant),
                structures=(base, mutant),
            ))
    return requests


def load_search_pool(path: Path = SEARCH_POOL_PATH) -> dict:
    """The committed search pool with its reference scores, integrity-checked."""
    pool = json.loads(path.read_text())
    queries = [from_dotbracket(text) for text in pool["queries"]]
    targets = [from_dotbracket(text) for text in pool["targets"]]
    if structure_hash(*queries, *targets) != pool["sha256"]:
        raise ValueError(f"{path}: pool hash mismatch")
    scores = np.asarray(pool["scores"], dtype=np.int64)
    if scores.shape != (len(queries), len(targets)):
        raise ValueError(f"{path}: score matrix has shape {scores.shape}")
    return {"queries": queries, "targets": targets, "scores": scores}


def _search(rng: np.random.Generator) -> list[Request]:
    pool = load_search_pool()
    queries, targets, scores = pool["queries"], pool["targets"], pool["scores"]
    requests = []
    for q in rng.permutation(len(queries)):
        chosen = rng.choice(len(targets), SEARCH_TARGETS_PER_REQUEST, replace=False)
        items = [(f"t{t:02d}", targets[t]) for t in chosen]
        requests.append(Request(
            kind="search",
            args=(queries[q], items),
            kwargs={"n_workers": 2},
            pairs=len(items),
            expect={f"t{t:02d}": int(scores[q, t]) for t in chosen},
            key=structure_hash(queries[q], *(t for _, t in items)),
        ))
    return requests


def make_requests(workload: str, seed: int) -> list[Request]:
    """The request cycle of *workload*, a pure function of *seed*."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "worst_dense":
        return _mutant_requests(contrived_worst_case(300), rng, 16, 15)
    if workload == "rrna_23s":
        return _mutant_requests(fungus_23s(), rng, 6, 10)
    if workload == "rna_pairs":
        return _rna_pairs(rng)
    if workload == "search":
        return _search(rng)
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def check(request: Request, outcome: Any) -> str | None:
    """``None`` when *outcome* is the right answer, else what is wrong.

    *outcome* is ``(score, matched_pairs)`` for a solve and the hit list
    for a search.
    """
    if request.kind == "search":
        got = {hit.name: hit.score for hit in outcome}
        if got != request.expect:
            wrong = sorted(k for k in request.expect if got.get(k) != request.expect[k])
            return f"search scores differ from the reference on {wrong[:5]}"
        order = [(-hit.score, hit.name) for hit in outcome]
        if order != sorted(order):
            return "search hits are not ranked best-first"
        return None
    score, pairs = outcome
    if score != request.expect:
        return f"score {score} != expected {request.expect}"
    if request.kwargs.get("with_backtrace"):
        if pairs is None or len(pairs) != score:
            return f"backtrace holds {None if pairs is None else len(pairs)} pairs, score {score}"
        s1, s2 = request.structures or request.args
        try:
            verify_matching(s1, s2, pairs)
        except Exception as exc:  # noqa: BLE001 - any failure is a wrong answer
            return f"backtrace invalid: {exc}"
    return None


def build_search_pool(path: Path = SEARCH_POOL_PATH) -> None:
    """Generate the search pool and its vectorized reference scores.

    Queries are the candidates whose total work against the targets
    (cells tabulated by SRNA2) is closest to the candidates' median, so
    every search request costs about the same and a run's median does
    not depend on which queries it reached.
    """
    from repro.core.instrument import Instrumentation
    from repro.core.srna2 import srna2

    def rna_like(length: int) -> Structure:
        return rna_like_structure(length, round(ARCS_PER_BASE * length), seed=rng)

    def cells(query: Structure) -> int:
        counter = Instrumentation()
        for target in targets:
            srna2(query, target, instrumentation=counter)
        return counter.cells_tabulated

    rng = np.random.default_rng(SEARCH_POOL_SEED)
    targets = [rna_like(int(n)) for n in rng.integers(200, 701, SEARCH_TARGETS)]
    candidates = [rna_like(int(n)) for n in rng.integers(400, 506, SEARCH_CANDIDATES)]
    work = np.array([cells(query) for query in candidates])
    closest = np.argsort(np.abs(work - np.median(work)))[:SEARCH_QUERIES]
    queries = [candidates[i] for i in sorted(closest)]
    scores = [
        [srna2(query, target, engine="vectorized").score for target in targets]
        for query in queries
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "about": (
            "Search workload pool: rna_like_structure(length, "
            f"round({ARCS_PER_BASE} * length)) from seed {SEARCH_POOL_SEED}; "
            f"the {SEARCH_QUERIES} of {SEARCH_CANDIDATES} candidate queries "
            "(400-505 nt) with median work; scores[q][t] by "
            "srna2(engine='vectorized')."
        ),
        "sha256": structure_hash(*queries, *targets),
        "queries": [to_dotbracket(s) for s in queries],
        "targets": [to_dotbracket(s) for s in targets],
        "scores": scores,
    }, indent=1) + "\n")


if __name__ == "__main__":
    build_search_pool()
    print(f"wrote {SEARCH_POOL_PATH}", file=sys.stderr)
