"""Dependency-driven dataflow executor: plan derivation and parity.

Three layers:

* **plan invariants** — :func:`repro.parallel.dataflow.build_dataflow_plan`
  is a pure function of ``(s1, s2, partition, rank, size)``; its dependency
  bounds must be strictly lower-triangular (the theorem the whole schedule
  rests on) and its send/recv column sets must be mutually consistent
  across ranks (rank ``a`` plans to send rank ``b`` exactly what rank
  ``b`` plans to receive from rank ``a``);
* **parity** — the dataflow schedule, like the row barrier, must be
  bit-identical to SRNA2 across backends and world sizes under the
  runtime sanitizer, plus a property-based sweep over random structure
  pairs;
* **counters** — a dataflow run must retire the per-row collectives: zero
  ``Allreduce`` calls in stage one, publications and awaits instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.srna2 import srna2
from repro.parallel.dataflow import build_dataflow_plan
from repro.parallel.prna import prna
from repro.scheduling.partition import PARTITIONERS
from repro.scheduling.workload import column_weights
from repro.structure.generators import rna_like_structure
from tests.conftest import structure_pairs


def plans_for(s1, s2, size, partitioner="greedy"):
    weights = column_weights(s1, s2)
    partition = PARTITIONERS[partitioner](weights, size)
    return [build_dataflow_plan(s1, s2, partition, r, size) for r in range(size)]


class TestDataflowPlan:
    def test_dependencies_strictly_lower_triangular(self):
        s1 = rna_like_structure(80, 18, seed=1)
        s2 = rna_like_structure(70, 16, seed=2)
        (plan, _) = plans_for(s1, s2, 2)
        arcs = np.arange(s1.n_arcs)
        assert np.all(plan.dep_lo <= plan.dep_hi)
        # Every dependency of arc a is an arc strictly before a — the
        # right-endpoint order theorem the publication schedule relies on.
        assert np.all(plan.dep_hi <= arcs)

    def test_send_recv_sets_mutually_consistent(self):
        s1 = rna_like_structure(80, 18, seed=5)
        s2 = rna_like_structure(70, 16, seed=6)
        size = 3
        plans = plans_for(s1, s2, size)
        for a in range(size):
            for b in range(size):
                if a == b:
                    continue
                sent = plans[a].send_cols.get(b)
                received = plans[b].recv_cols.get(a)
                if sent is None:
                    assert received is None
                else:
                    assert np.array_equal(sent, received)

    def test_col_blocks_partition_all_columns(self):
        s1 = rna_like_structure(80, 18, seed=7)
        s2 = rna_like_structure(70, 16, seed=8)
        (plan, _) = plans_for(s1, s2, 2)
        merged = np.sort(np.concatenate(list(plan.col_blocks.values())))
        assert np.array_equal(merged, np.sort(s2.lefts + 1))

    def test_earliest_reader_is_minimal(self):
        s1 = rna_like_structure(80, 18, seed=9)
        s2 = rna_like_structure(70, 16, seed=10)
        (plan, _) = plans_for(s1, s2, 2)
        n = s1.n_arcs
        for d in range(n):
            readers = [
                a
                for a in range(n)
                if plan.dep_lo[a] <= d < plan.dep_hi[a]
            ]
            if readers:
                assert plan.has_reader[d]
                assert plan.earliest_reader[d] == min(readers)
            else:
                assert not plan.has_reader[d]
                assert plan.earliest_reader[d] == n

    def test_identical_plan_on_every_rank(self):
        # The plan is derived, not negotiated: rank-independent fields
        # must come out identical everywhere.
        s1 = rna_like_structure(60, 14, seed=11)
        s2 = rna_like_structure(56, 12, seed=12)
        plans = plans_for(s1, s2, 3)
        for plan in plans[1:]:
            assert np.array_equal(plan.row_of_arc, plans[0].row_of_arc)
            assert np.array_equal(plan.dep_lo, plans[0].dep_lo)
            assert np.array_equal(plan.dep_hi, plans[0].dep_hi)
            assert plan.n_dependency_edges == plans[0].n_dependency_edges


# The parity matrix: backend x world size x schedule, all validated and
# sanitized.
MATRIX = [
    (backend, n_ranks, sync_mode)
    for backend in ("thread", "process")
    for n_ranks in (2, 4)
    for sync_mode in ("row", "dataflow")
]


class TestDataflowParity:
    @pytest.mark.parametrize("backend,n_ranks,sync_mode", MATRIX)
    def test_matrix_bit_identical_to_srna2(self, backend, n_ranks, sync_mode):
        s1 = rna_like_structure(60, 14, seed=3)
        s2 = rna_like_structure(56, 12, seed=4)
        reference = srna2(s1, s2)
        result = prna(
            s1, s2, n_ranks, backend=backend, sync_mode=sync_mode,
            validate=True, sanitize=True,
        )
        assert result.score == reference.score
        assert np.array_equal(result.memo.values, reference.memo.values)

    @given(
        pair=structure_pairs(max_arcs=6),
        n_ranks=st.integers(min_value=1, max_value=4),
        partitioner=st.sampled_from(["greedy", "block", "cyclic"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_dataflow_always_matches_srna2(self, pair, n_ranks, partitioner):
        s1, s2 = pair
        reference = srna2(s1, s2)
        result = prna(
            s1, s2, n_ranks, backend="thread", sync_mode="dataflow",
            partitioner=partitioner, validate=True,
        )
        assert result.score == reference.score
        assert np.array_equal(result.memo.values, reference.memo.values)

    def test_dataflow_matches_row_barrier_table(self):
        s1 = rna_like_structure(60, 14, seed=13)
        s2 = rna_like_structure(56, 12, seed=14)
        row = prna(s1, s2, 2, backend="thread", sync_mode="row")
        flow = prna(s1, s2, 2, backend="thread", sync_mode="dataflow")
        assert flow.score == row.score
        assert np.array_equal(flow.memo.values, row.memo.values)


class TestDataflowCounters:
    def test_stage_one_is_collective_free(self):
        s1 = rna_like_structure(60, 14, seed=15)
        s2 = rna_like_structure(56, 12, seed=16)
        result = prna(
            s1, s2, 2, backend="thread", sync_mode="dataflow",
            collect_stats=True,
        )
        stats = result.comm_stats
        # The only collective left is the final score broadcast.
        assert stats["allreduces"] == 0
        assert stats["barriers"] == 0
        assert stats["publishes"] > 0
        assert stats["awaits"] > 0
        assert stats["coalesced_cells"] > 0
        assert stats["publish_bytes"] > 0

    def test_row_barrier_pays_one_allreduce_per_arc(self):
        s1 = rna_like_structure(60, 14, seed=15)
        s2 = rna_like_structure(56, 12, seed=16)
        result = prna(
            s1, s2, 2, backend="thread", sync_mode="row",
            collect_stats=True,
        )
        stats = result.comm_stats
        # Stats are rank 0's view: one stage-one Allreduce per outer arc.
        assert stats["allreduces"] == s1.n_arcs
        assert stats["publishes"] == 0

    def test_dependency_wait_accounted(self):
        s1 = rna_like_structure(60, 14, seed=17)
        s2 = rna_like_structure(56, 12, seed=18)
        result = prna(
            s1, s2, 2, backend="thread", sync_mode="dataflow",
            collect_stats=True,
        )
        assert result.comm_stats["dependency_wait_ns"] >= 0
