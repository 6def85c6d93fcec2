"""The numeric dataflow verifier: lattices, transfer functions, rules.

Covers the two abstract domains (intervals, symbolic shapes), the
interpreter's rule families (DTYPE1xx/SHAPE1xx), the proven-only flagging
policy (top never flags), and the acceptance criterion that the shipped
tree is clean with every function interpreted.
"""

import ast
import os
import textwrap

import pytest

from repro.check.dataflow import analyze_dataflow
from repro.check.intervals import (
    TOP,
    Interval,
    bounded,
    const,
    dtype_range,
    lift_bound,
)
from repro.check.shapes import (
    TOP_DIM,
    affine_dim,
    broadcast_dim,
    const_dim,
    dim_offset,
    provably_incompatible,
    side_of_name,
)
from repro.runtime.registry import INPUT_BOUNDS


def flow(source: str, path: str = "src/fault/core/slices.py", bounds=None):
    tree = ast.parse(textwrap.dedent(source), filename=path)
    return analyze_dataflow({path: tree}, bounds=bounds)


def rules_of(findings):
    return [f.rule for f in findings]


class TestIntervalLattice:
    def test_join_widens(self):
        assert const(3).join(const(7)) == Interval(3, 7)
        assert const(3).join(TOP) == TOP

    def test_arithmetic(self):
        assert const(3).add(const(4)) == Interval(7, 7)
        assert bounded(0, 10).sub(bounded(2, 5)) == Interval(-5, 8)
        assert bounded(-2, 3).mul(bounded(4, 5)) == Interval(-10, 15)
        assert bounded(1, 1).lshift(const(16)) == Interval(65536, 65536)

    def test_unknown_operand_stays_top(self):
        assert bounded(0, None).mul(const(2)) == TOP
        assert TOP.lshift(const(3)) == TOP

    def test_proven_exceeds_requires_known_bound(self):
        int16 = dtype_range("int16")
        assert bounded(0, 40000).proven_exceeds(int16)
        assert not bounded(0, None).proven_exceeds(int16)
        assert not bounded(0, 100).proven_exceeds(int16)
        assert bounded(-40000, 0).proven_exceeds(int16)

    def test_lift_bound_exceeds_narrow_dtypes_below_guard(self):
        bound = lift_bound(INPUT_BOUNDS)
        # The proof DTYPE101 carries: beyond every sub-64-bit integer,
        # below the kernel's 2**62 boundary-sentinel guard.
        assert bound > dtype_range("uint32").hi
        assert bound < (1 << 62)


class TestShapeLattice:
    def test_offsets_share_roots(self):
        n = affine_dim("n")
        assert dim_offset(n, 1) == affine_dim("n", 1)
        assert provably_incompatible(n, dim_offset(n, 1))
        assert not provably_incompatible(n, affine_dim("m"))

    def test_constants(self):
        assert provably_incompatible(const_dim(4), const_dim(5))
        assert not provably_incompatible(const_dim(1), const_dim(5))
        assert not provably_incompatible(const_dim(4), TOP_DIM)

    def test_broadcast(self):
        assert broadcast_dim(const_dim(1), affine_dim("n")) == \
            affine_dim("n")
        assert broadcast_dim(TOP_DIM, const_dim(3)) == const_dim(3)

    def test_side_of_name(self):
        assert side_of_name("k1s") == frozenset({"s1"})
        assert side_of_name("k2s") == frozenset({"s2"})
        assert side_of_name("los") == frozenset({"s2"})
        assert side_of_name("rows") == frozenset()
        assert side_of_name("d12") == frozenset()


class TestDtypeRules:
    def test_narrow_dtype_reaching_lift_sink(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_slice_batched(values):
                return values

            def driver(n):
                memo = np.zeros((n, n), dtype=np.int16)
                table = memo
                return tabulate_slice_batched(table)
            """
        )
        assert "DTYPE101" in rules_of(findings)
        [finding] = [f for f in findings if f.rule == "DTYPE101"]
        assert "int16" in finding.message
        assert str(lift_bound(INPUT_BOUNDS)) in finding.message

    def test_int64_memo_is_clean(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_slice_batched(values):
                return values

            def driver(n):
                memo = np.zeros((n, n), dtype=np.int64)
                return tabulate_slice_batched(memo)
            """
        )
        assert findings == []

    def test_packed_overflow_is_dtype102(self):
        findings = flow(
            """
            import numpy as np

            def pack_flags(n):
                packed = np.zeros(n, dtype=np.uint16)
                ones = np.ones(n, dtype=np.uint16)
                for k in range(17):
                    packed |= ones << k
                return packed
            """
        )
        assert rules_of(findings) == ["DTYPE102"]

    def test_pack_within_word_width_is_clean(self):
        findings = flow(
            """
            import numpy as np

            def pack_flags(n):
                packed = np.zeros(n, dtype=np.uint16)
                ones = np.ones(n, dtype=np.uint16)
                for k in range(16):
                    packed |= ones << k
                return packed
            """
        )
        assert findings == []

    def test_lossy_cumsum_cast_is_dtype103(self):
        # Under the declared max_length bound the prefix sum provably
        # exceeds int16 even though each element is just 1.
        findings = flow(
            """
            import numpy as np

            def lift_prefix(n):
                gains = np.ones(n, dtype=np.int64)
                total = np.cumsum(gains)
                return total.astype(np.int16)
            """
        )
        assert rules_of(findings) == ["DTYPE103"]

    def test_unknown_range_cast_stays_silent(self):
        # The value range is top: narrowing MIGHT overflow, but nothing
        # is proven, so the proven-only policy keeps quiet.
        findings = flow(
            """
            import numpy as np

            def lift_prefix(values):
                return values.astype(np.int16)
            """
        )
        assert findings == []


class TestShapeRules:
    def test_transposed_memo_gather_is_shape101(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_gather(memo_values, k1s, k2s):
                return memo_values[np.ix_(k2s, k1s)]
            """
        )
        assert rules_of(findings) == ["SHAPE101"]
        assert "transposed" in findings[0].message

    def test_correct_memo_gather_is_clean(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_gather(memo_values, k1s, k2s):
                return memo_values[np.ix_(k1s, k2s)]
            """
        )
        assert findings == []

    def test_non_memo_gather_is_not_shape101(self):
        # The axis contract applies to the memo table only.
        findings = flow(
            """
            import numpy as np

            def tabulate_gather(weights, k1s, k2s):
                return weights[np.ix_(k2s, k1s)]
            """
        )
        assert findings == []

    def test_same_root_off_by_one_is_shape102(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_rows(n):
                a = np.zeros(n)
                b = np.zeros(n + 1)
                return a + b
            """
        )
        assert rules_of(findings) == ["SHAPE102"]

    def test_distinct_roots_stay_silent(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_rows(n, m):
                a = np.zeros(n)
                b = np.zeros(m)
                return a + b
            """
        )
        assert findings == []

    def test_take_out_mismatch_is_shape103(self):
        findings = flow(
            """
            import numpy as np

            def lift_cols(src, idx_len):
                out = np.empty(idx_len + 1, dtype=np.int64)
                rows = np.empty(idx_len, dtype=np.int64)
                np.take(src, rows, out=out)
                return out
            """
        )
        assert rules_of(findings) == ["SHAPE103"]

    def test_scatter_length_mismatch_is_shape103(self):
        findings = flow(
            """
            import numpy as np

            def lift_scatter(n):
                dest = np.zeros(n + 4)
                idx = np.arange(n)
                src = np.zeros(n + 1)
                dest[idx] = src
                return dest
            """
        )
        assert rules_of(findings) == ["SHAPE103"]


class TestTargetSelection:
    def test_every_function_is_analyzed(self):
        # Every function is interpreted: a provable fault in a helper
        # outside the kernel modules, with no kernel-style name, is
        # flagged exactly as it is inside them.
        source = """
            import numpy as np

            def unrelated_helper(n):
                a = np.zeros(n)
                b = np.zeros(n + 1)
                return a + b
        """
        assert rules_of(
            flow(source, path="src/fault/util/misc.py")
        ) == ["SHAPE102"]
        assert rules_of(
            flow(source, path="src/fault/core/slices.py")
        ) == ["SHAPE102"]


class TestMergeSoundness:
    def test_branch_join_widens_conflicting_facts(self):
        # One branch makes the shapes incompatible, the other does not:
        # after the join nothing is provable, so nothing is flagged past
        # the branch.
        findings = flow(
            """
            import numpy as np

            def tabulate_rows(n, flag):
                a = np.zeros(n)
                if flag:
                    b = np.zeros(n)
                else:
                    b = np.zeros(n + 2)
                return a * b
            """
        )
        assert findings == []

    def test_loop_body_fact_widens_at_the_merge(self):
        # The loop may run zero times: after the merge the dtype is
        # int64-or-int16, i.e. unknown, and the proven-only policy stays
        # silent.  (A narrow dtype on EVERY path is what DTYPE101 needs —
        # see test_narrow_dtype_reaching_lift_sink.)
        findings = flow(
            """
            import numpy as np

            def tabulate_slice_batched(values):
                return values

            def driver(n, k):
                memo = np.zeros((n, n), dtype=np.int64)
                for _ in range(k):
                    memo = np.zeros((n, n), dtype=np.int16)
                return tabulate_slice_batched(memo)
            """
        )
        assert findings == []

    def test_narrow_on_both_branches_still_proves(self):
        findings = flow(
            """
            import numpy as np

            def tabulate_slice_batched(values):
                return values

            def driver(n, flag):
                if flag:
                    memo = np.zeros((n, n), dtype=np.int16)
                else:
                    memo = np.zeros((n, n), dtype=np.int16)
                return tabulate_slice_batched(memo)
            """
        )
        assert rules_of(findings) == ["DTYPE101"]


class TestShippedTreeClean:
    def test_src_repro_is_dataflow_clean(self):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "src",
            "repro",
        )
        if not os.path.isdir(src):
            pytest.skip("source tree not available (installed package)")
        modules = {}
        for root, dirs, names in os.walk(src):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    modules[path] = ast.parse(handle.read(), filename=path)
        findings = analyze_dataflow(modules)
        assert findings == [], [f.render() for f in findings]
