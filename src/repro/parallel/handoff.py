"""Rank 0's memo table, owned by the driver instead of shipped back by it.

Only rank 0's table is ever read after a run: the answer and stage two
need it, the other ranks' tables are scratch.  :func:`launch_rank0_memo`
is the one place that decides this for both drivers
(:func:`~repro.parallel.prna.prna` and
:func:`~repro.parallel.managerworker.manager_worker`): it allocates rank
0's table before the launch, so a forked rank 0 fills pages the driver
sees, and no rank result carries a table out of the launch.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.memo import DenseMemoTable
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import CostModel
from repro.runtime.context import ExecutionContext

__all__ = ["launch_rank0_memo"]


def launch_rank0_memo(
    context: ExecutionContext,
    rank_main: Callable[[Communicator, DenseMemoTable | None], Any],
    n: int,
    m: int,
    *,
    n_ranks: int,
    backend: str,
    cost_model: CostModel | None,
) -> Any:
    """Run ``rank_main(comm, memo)`` on every rank; rank 0's result with the table.

    Rank 0 gets a zeroed :meth:`DenseMemoTable.shared` ``(n, m)`` table to
    fill in place, the other ranks ``None`` (they allocate private
    scratch).  Every rank result leaves the launch with ``memo=None``, so
    nothing the size of the memo crosses it on any backend.  The returned
    result is rank 0's, with the shared table attached as ``memo`` and,
    under *cost_model*, its ``simulated_time`` set.
    """
    memo = DenseMemoTable.shared(n, m)

    def run(comm: Communicator) -> Any:
        result = rank_main(comm, memo if comm.rank == 0 else None)
        result.memo = None
        return result

    results = context.launch(
        run, n_ranks=n_ranks, backend=backend, cost_model=cost_model
    )
    result = results[0]
    if cost_model is not None:
        result, simulated = result
        result.simulated_time = simulated
    result.memo = memo
    return result
