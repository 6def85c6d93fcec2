"""Memoization tables."""

import numpy as np
import pytest

from repro.core.memo import KEY_NOT_FOUND, DenseMemoTable, SparseMemoTable


class TestKeyNotFound:
    def test_singleton(self):
        from repro.core.memo import _KeyNotFound

        assert _KeyNotFound() is KEY_NOT_FOUND

    def test_falsy_and_repr(self):
        assert not KEY_NOT_FOUND
        assert repr(KEY_NOT_FOUND) == "KEY_NOT_FOUND"


class TestDenseMemoTable:
    def test_store_lookup(self):
        memo = DenseMemoTable(4, 5)
        memo.store(1, 2, 7)
        assert memo.lookup(1, 2) == 7
        assert memo.values[1, 2] == 7

    def test_without_tracking_zero_default(self):
        memo = DenseMemoTable(3, 3)
        assert memo.lookup(0, 0) == 0  # dense default, no sentinel

    def test_with_tracking_sentinel(self):
        memo = DenseMemoTable(3, 3, track_known=True)
        assert memo.lookup(0, 0) is KEY_NOT_FOUND
        memo.store(0, 0, 0)
        assert memo.lookup(0, 0) == 0

    def test_zero_dimensions(self):
        memo = DenseMemoTable(0, 0)
        assert memo.shape == (1, 1)  # padded so indexing never fails

    def test_row_view_writable(self):
        memo = DenseMemoTable(3, 4)
        row = memo.row(1)
        row[:] = 9
        assert (memo.values[1] == 9).all()

    def test_nbytes(self):
        plain = DenseMemoTable(10, 10)
        tracked = DenseMemoTable(10, 10, track_known=True)
        assert tracked.nbytes() > plain.nbytes() > 0

    def test_dtype(self):
        memo = DenseMemoTable(2, 2, dtype=np.int32)
        assert memo.values.dtype == np.int32


class TestSharedDenseMemoTable:
    def test_starts_zeroed_and_writable(self):
        memo = DenseMemoTable.shared(5, 7)
        assert memo.shape == (5, 7)
        assert memo.values.dtype == np.int64
        assert memo.values.flags.writeable
        assert not memo.values.any()
        memo.store(2, 3, 9)
        assert memo.lookup(2, 3) == 9

    def test_zero_dimensions_padded(self):
        assert DenseMemoTable.shared(0, 0).shape == (1, 1)

    def test_forked_child_write_visible_in_parent(self):
        import multiprocessing as mp

        shared = DenseMemoTable.shared(4, 6)
        private = DenseMemoTable(4, 6)

        def child():
            shared.store(3, 5, 41)
            private.store(3, 5, 41)

        worker = mp.get_context("fork").Process(target=child)
        worker.start()
        worker.join(timeout=30)
        assert worker.exitcode == 0
        assert shared.lookup(3, 5) == 41
        assert int(shared.values.sum()) == 41
        # A private table is copied on write, so the child's store stays
        # in the child: what the shared mapping adds is exactly this.
        assert private.lookup(3, 5) == 0


class TestSparseMemoTable:
    def test_store_lookup(self):
        memo = SparseMemoTable(4, 4)
        assert memo.lookup(2, 2) is KEY_NOT_FOUND
        memo.store(2, 2, 5)
        assert memo.lookup(2, 2) == 5
        assert len(memo) == 1

    def test_values_array_mirrors_store(self):
        memo = SparseMemoTable(4, 4)
        memo.store(1, 3, 8)
        assert memo.values[1, 3] == 8
        assert memo.values[0, 0] == 0

    def test_nbytes_grows(self):
        memo = SparseMemoTable(4, 4)
        before = memo.nbytes()
        memo.store(0, 1, 2)
        assert memo.nbytes() > before
