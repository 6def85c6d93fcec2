"""Process-backed communicator — real parallelism across the GIL.

Each rank is an OS process (``multiprocessing``, fork start method); every
ordered pair of ranks shares a duplex pipe, so point-to-point messages
travel without a central broker.  Generic collectives are implemented as a
gather-to-0 / broadcast star over the pipes, while the NumPy
:meth:`Allreduce` runs a genuine recursive-doubling exchange
(:mod:`repro.mpi.reduce_algos`) — the same algorithm an MPI library would
use — so the paper's communication pattern is exercised for real.

This is the "multiprocessing hack" the reproduction notes anticipate: it is
the only backend on which pure-Python compute actually scales with cores.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from typing import Any, Callable, Sequence

from repro.errors import CollectiveMismatchError, CommunicatorError
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import CostModel
from repro.mpi.datatypes import ReduceOp
from repro.mpi.reduce_algos import allreduce_recursive_doubling
from repro.mpi.virtualtime import VirtualClock

__all__ = ["ProcessCommunicator", "run_multiprocess"]


class ProcessCommunicator(Communicator):
    """Communicator endpoint for one process-rank.

    ``connections[peer]`` is this rank's end of the duplex pipe to *peer*.
    Messages are ``(tag, payload)`` tuples; out-of-order tags are stashed
    until a matching :meth:`recv` asks for them.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        connections: dict[int, Any],
        clock: VirtualClock | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(rank, size, clock, cost_model)
        self._connections = connections
        self._pending: dict[tuple[int, int], list[Any]] = {}

    # -- point to point ----------------------------------------------------
    def _send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if dest == self._rank:
            raise CommunicatorError("send to self would deadlock recv ordering")
        try:
            conn = self._connections[dest]
        except KeyError:
            raise CommunicatorError(
                f"dest {dest} outside [0, {self._size})"
            ) from None
        conn.send((tag, obj))

    def _recv(self, source: int, tag: int = 0) -> Any:
        try:
            conn = self._connections[source]
        except KeyError:
            raise CommunicatorError(
                f"source {source} outside [0, {self._size})"
            ) from None
        stash = self._pending.get((source, tag))
        if stash:
            return stash.pop(0)
        while True:
            got_tag, payload = conn.recv()
            if got_tag == tag:
                return payload
            self._pending.setdefault((source, got_tag), []).append(payload)

    def _try_recv(self, source: int, tag: int = 0) -> tuple[bool, Any]:
        try:
            conn = self._connections[source]
        except KeyError:
            raise CommunicatorError(
                f"source {source} outside [0, {self._size})"
            ) from None
        stash = self._pending.get((source, tag))
        if stash:
            return True, stash.pop(0)
        # Drain whatever is already in the pipe into the stash.
        while conn.poll(0):
            got_tag, payload = conn.recv()
            if got_tag == tag:
                return True, payload
            self._pending.setdefault((source, got_tag), []).append(payload)
        return False, None

    # -- collectives ---------------------------------------------------------
    _BARRIER_TAG = 0x7FF0
    _EXCHANGE_TAG = 0x7FF1

    def _barrier(self) -> None:
        # Two-phase star: everyone checks in at rank 0, rank 0 releases.
        if self._size == 1:
            return
        if self._rank == 0:
            for source in range(1, self._size):
                self.recv(source, self._BARRIER_TAG)
            for dest in range(1, self._size):
                self.send(None, dest, self._BARRIER_TAG)
        else:
            self.send(None, 0, self._BARRIER_TAG)
            self.recv(0, self._BARRIER_TAG)

    def _exchange(self, key: str, payload: Any) -> list[Any]:
        if self._size == 1:
            return [payload]
        tag = self._EXCHANGE_TAG
        if self._rank == 0:
            entries: list[Any] = [(key, payload)]
            entries += [self.recv(source, tag) for source in range(1, self._size)]
            keys = [entry[0] for entry in entries]
            if any(k != key for k in keys):
                result: Any = CollectiveMismatchError(
                    f"ranks disagree on the collective being executed: {keys}"
                )
            else:
                result = [entry[1] for entry in entries]
            for dest in range(1, self._size):
                self.send(result, dest, tag)
        else:
            self.send((key, payload), 0, tag)
            result = self.recv(0, tag)
        if isinstance(result, CollectiveMismatchError):
            raise result
        return result

    def Allreduce(self, buffer, op: ReduceOp = ReduceOp.MAX) -> None:
        """In-place NumPy allreduce by recursive doubling over the pipes."""
        allreduce_recursive_doubling(self, buffer, op)
        if self.stats is not None:
            self.stats.allreduces += 1
            self.stats.allreduce_bytes += int(buffer.nbytes)
        self._charge_collective("allreduce", buffer.nbytes)


def _child_main(
    fn: Callable[..., Any],
    rank: int,
    size: int,
    connections: dict[int, Any],
    result_conn,
    args: Sequence[Any],
    use_clock: bool,
    cost_model: CostModel | None,
) -> None:
    clock = VirtualClock() if use_clock else None
    comm = ProcessCommunicator(rank, size, connections, clock, cost_model)
    try:
        value = fn(comm, *args)
        simulated = clock.now if clock is not None else None
        result_conn.send(("ok", value, simulated))
    except BaseException:  # noqa: BLE001 - serialized to the parent
        result_conn.send(("error", traceback.format_exc(), None))
    finally:
        result_conn.close()


def run_multiprocess(
    fn: Callable[..., Any],
    size: int,
    args: Sequence[Any] = (),
    *,
    cost_model: CostModel | None = None,
    with_clocks: bool = False,
    timeout: float = 300.0,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on *size* process-ranks; return all results.

    Uses the ``fork`` start method (POSIX only) so *fn* and *args* need not
    be picklable.  With ``with_clocks=True`` results are
    ``(value, simulated_time)`` pairs.  A rank raising is reported as a
    :class:`CommunicatorError` carrying its traceback.
    """
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    if os.name != "posix":  # pragma: no cover - platform guard
        raise CommunicatorError("the process backend requires POSIX fork")
    ctx = mp.get_context("fork")

    # Duplex pipe per unordered rank pair.
    ends: dict[int, dict[int, Any]] = {rank: {} for rank in range(size)}
    for a in range(size):
        for b in range(a + 1, size):
            conn_a, conn_b = ctx.Pipe(duplex=True)
            ends[a][b] = conn_a
            ends[b][a] = conn_b

    result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
    workers = [
        ctx.Process(
            target=_child_main,
            args=(
                fn, rank, size, ends[rank], result_pipes[rank][1], args,
                with_clocks, cost_model,
            ),
            name=f"rank-{rank}",
        )
        for rank in range(size)
    ]
    for worker in workers:
        worker.start()
    # Parent closes its copies of the child ends so EOF propagates.
    for rank in range(size):
        result_pipes[rank][1].close()
        for conn in ends[rank].values():
            conn.close()

    outcomes: list[Any] = []
    failure: str | None = None
    for rank in range(size):
        receiver = result_pipes[rank][0]
        if receiver.poll(timeout):
            outcomes.append(receiver.recv())
        else:
            outcomes.append(("error", f"rank {rank} timed out", None))
        receiver.close()
    for worker in workers:
        worker.join(timeout=10.0)
        if worker.is_alive():  # pragma: no cover - hung child
            worker.terminate()
    for rank, outcome in enumerate(outcomes):
        status, payload, _ = outcome
        if status == "error" and failure is None:
            failure = f"rank {rank} failed:\n{payload}"
    if failure is not None:
        raise CommunicatorError(failure)
    if with_clocks:
        return [(payload, simulated) for _, payload, simulated in outcomes]
    return [payload for _, payload, _ in outcomes]
