"""No memo crosses ``ExecutionContext.launch``: ``prna``/``manager_worker`` own it.

Rank 0 tabulates into a table ``prna()`` (or ``manager_worker()``)
allocated before the launch, so on the process backend the memo is never
pickled back through the result pipes.  The table they hand back must
still be bit-identical to SRNA2's.
"""

import numpy as np
import pytest

from repro.core.srna2 import srna2
from repro.mpi.costmodel import CostModel
from repro.parallel.managerworker import manager_worker
from repro.parallel.prna import prna
from repro.runtime.context import ExecutionContext
from repro.structure.generators import contrived_worst_case


@pytest.fixture
def launched(monkeypatch):
    """The ``memo`` of every rank result as ``ExecutionContext.launch`` returns it.

    Read at return time: ``prna()`` attaches its own table to rank 0's
    result object afterwards.
    """
    memos = []
    original = ExecutionContext.launch

    def spy(self, *args, **kwargs):
        results = original(self, *args, **kwargs)
        for result in results:
            if kwargs.get("cost_model") is not None:
                result, _ = result
            memos.append(result.memo)
        return results

    monkeypatch.setattr(ExecutionContext, "launch", spy)
    return memos


@pytest.mark.parametrize("sync_mode", ["row", "dataflow"])
def test_prna_process_ranks_return_no_memo(launched, sync_mode):
    s = contrived_worst_case(40)
    result = prna(s, s, 2, backend="process", sync_mode=sync_mode)
    assert launched == [None, None]
    assert np.array_equal(result.memo.values, srna2(s, s).memo.values)


def test_prna_with_cost_model_keeps_simulated_time(launched):
    s = contrived_worst_case(30)
    result = prna(s, s, 2, backend="process", cost_model=CostModel())
    assert launched == [None, None]
    assert result.simulated_time is not None and result.simulated_time > 0
    assert np.array_equal(result.memo.values, srna2(s, s).memo.values)


def test_manager_worker_process_ranks_return_no_memo(launched):
    s = contrived_worst_case(30)
    result = manager_worker(s, s, 2, backend="process")
    assert launched == [None, None]
    assert np.array_equal(result.memo.values, srna2(s, s).memo.values)
