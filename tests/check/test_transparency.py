"""Result transparency: sanitized PRNA is bit-identical to plain PRNA.

The acceptance criterion for the runtime sanitizer — wrapping the
communicator must never change an answer, on either backend, and its
overhead must be *reported* (CommStats counters, tracer spans) rather than hidden.
"""

import numpy as np
import pytest

from repro.parallel.prna import prna
from repro.structure.generators import contrived_worst_case, rna_like_structure


@pytest.fixture(scope="module")
def structures():
    return contrived_worst_case(60), rna_like_structure(60, 10, seed=3)


@pytest.fixture(scope="module")
def plain(structures):
    s1, s2 = structures
    return prna(s1, s2, 2, backend="thread")


class TestThreadBackend:
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_bit_identical(self, structures, plain, ranks):
        s1, s2 = structures
        result = prna(s1, s2, ranks, backend="thread", sanitize=True)
        assert result.score == plain.score
        assert np.array_equal(result.memo.values, plain.memo.values)

    def test_overhead_reported_in_stats(self, structures):
        s1, s2 = structures
        result = prna(
            s1, s2, 2, backend="thread", sanitize=True, collect_stats=True
        )
        assert result.comm_stats["sanitizer_checks"] > 0
        assert result.comm_stats["sanitizer_ns"] > 0

    def test_plain_run_has_zero_sanitizer_counters(self, structures):
        s1, s2 = structures
        result = prna(s1, s2, 2, backend="thread", collect_stats=True)
        assert result.comm_stats["sanitizer_checks"] == 0
        assert result.comm_stats["sanitizer_ns"] == 0

    def test_sanitizer_spans_in_trace_report(self, structures):
        from repro.obs.report import summarize_events
        from repro.obs.tracer import Tracer

        s1, s2 = structures
        tracer = Tracer()
        prna(s1, s2, 2, backend="thread", sanitize=True, tracer=tracer)
        events = tracer.events
        assert any(e.category == "sanitizer" for e in events)
        report = summarize_events(list(events))
        assert any(r.sanitizer_seconds > 0 for r in report.ranks)
        assert "sanitizer overhead" in report.render()


class TestProcessBackend:
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_bit_identical(self, structures, plain, ranks):
        s1, s2 = structures
        result = prna(
            s1, s2, ranks, backend="process",
            sanitize=True, collect_stats=True,
        )
        assert result.score == plain.score
        assert np.array_equal(result.memo.values, plain.memo.values)
        assert result.comm_stats["sanitizer_checks"] > 0

    def test_sanitized_allreduce_reaches_the_pipes(self, structures):
        # Sanitized Allreduce must delegate every row to the inner
        # communicator's pipe reduction: one round per outer arc, with
        # the full row payload counted.
        s1, s2 = structures
        result = prna(
            s1, s2, 2, backend="process", sanitize=True, collect_stats=True,
        )
        row_bytes = s2.length * 8
        assert result.comm_stats["allreduces"] == s1.n_arcs
        assert result.comm_stats["allreduce_bytes"] == s1.n_arcs * row_bytes
