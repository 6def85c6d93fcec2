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
import signal
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from repro.errors import CollectiveMismatchError, CommunicatorError
from repro.mpi.communicator import Communicator
from repro.mpi.costmodel import CostModel
from repro.mpi.datatypes import ReduceOp
from repro.mpi.reduce_algos import allreduce_recursive_doubling
from repro.mpi.virtualtime import VirtualClock

__all__ = ["ProcessCommunicator", "run_multiprocess"]


class _PeerLost(CommunicatorError):
    """A peer closed its end of a rank-pair pipe: it exited or died."""


class ProcessCommunicator(Communicator):
    """Communicator endpoint for one process-rank.

    ``connections[peer]`` is this rank's end of the duplex pipe to *peer*.
    Messages are ``(tag, payload)`` tuples; out-of-order tags are stashed
    until a matching :meth:`recv` asks for them.  A peer that has exited
    closes its end, so sending to it or receiving from it raises a
    :class:`CommunicatorError` naming that peer instead of blocking.
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
    def _conn(self, peer: int, role: str) -> Any:
        try:
            return self._connections[peer]
        except KeyError:
            raise CommunicatorError(
                f"{role} {peer} outside [0, {self._size})"
            ) from None

    def _lost(self, peer: int) -> _PeerLost:
        return _PeerLost(
            f"rank {self._rank}: peer rank {peer} closed its pipe "
            "(it exited or died)"
        )

    def _next_message(self, conn: Any, source: int) -> tuple[int, Any]:
        try:
            return conn.recv()
        except (EOFError, ConnectionError):
            raise self._lost(source) from None

    def _send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if dest == self._rank:
            raise CommunicatorError("send to self would deadlock recv ordering")
        conn = self._conn(dest, "dest")
        try:
            conn.send((tag, obj))
        except ConnectionError:
            raise self._lost(dest) from None

    def _recv(self, source: int, tag: int = 0) -> Any:
        conn = self._conn(source, "source")
        stash = self._pending.get((source, tag))
        if stash:
            return stash.pop(0)
        while True:
            got_tag, payload = self._next_message(conn, source)
            if got_tag == tag:
                return payload
            self._pending.setdefault((source, got_tag), []).append(payload)

    def _try_recv(self, source: int, tag: int = 0) -> tuple[bool, Any]:
        conn = self._conn(source, "source")
        stash = self._pending.get((source, tag))
        if stash:
            return True, stash.pop(0)
        # Drain whatever is already in the pipe into the stash.
        while conn.poll(0):
            got_tag, payload = self._next_message(conn, source)
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
    ends: dict[int, dict[int, Any]],
    result_pipes: list[tuple[Any, Any]],
    args: Sequence[Any],
    use_clock: bool,
    cost_model: CostModel | None,
) -> None:
    # Every pipe was created before the first fork, so this process holds
    # a copy of every end.  Keep only its own: then a rank that exits
    # closes the last copy of its ends, and its partners and the parent
    # read EOF instead of blocking.
    for other, conns in ends.items():
        if other != rank:
            for conn in conns.values():
                conn.close()
    for other, (reader, writer) in enumerate(result_pipes):
        reader.close()
        if other != rank:
            writer.close()
    result_conn = result_pipes[rank][1]
    clock = VirtualClock() if use_clock else None
    comm = ProcessCommunicator(rank, size, ends[rank], clock, cost_model)
    try:
        value = fn(comm, *args)
        simulated = clock.now if clock is not None else None
        result_conn.send(("ok", value, simulated))
    except _PeerLost:
        result_conn.send(("lost", traceback.format_exc(), None))
    except BaseException:  # noqa: BLE001 - serialized to the parent
        result_conn.send(("error", traceback.format_exc(), None))
    finally:
        result_conn.close()


#: Failure kinds, root cause first: a rank that died or raised explains the
#: peers that then lost it, and a hang is reported only when nothing failed.
_CAUSES = ("died", "error", "lost", "timeout")
#: Seconds a rank that sent no result gets to finish exiting, so the exit
#: code reported is its own and not the kill that ends the run.
_EXIT_WAIT_S = 1.0


def _await_results(
    workers: list[Any], readers: list[Any], deadline: float
) -> tuple[dict[int, tuple[Any, Any]], dict[int, tuple[str, str]]]:
    """Wait on every result pipe and process sentinel until *deadline*.

    Returns ``(results, failures)``: ``rank -> (value, simulated)`` for the
    ranks that succeeded, ``rank -> (cause, detail)`` for the others.
    Stops at the first root cause (a death or an exception).  A peer loss
    alone does not stop it: the rank that caused it has already died or
    finished, so its own report follows.
    """
    results: dict[int, tuple[Any, Any]] = {}
    failures: dict[int, tuple[str, str]] = {}
    waiting = {reader: rank for rank, reader in enumerate(readers)}
    sentinels = {worker.sentinel: rank for rank, worker in enumerate(workers)}
    while waiting and not any(c in ("died", "error") for c, _ in failures.values()):
        ready = wait([*waiting, *sentinels], deadline - time.monotonic())
        if not ready:
            for rank in waiting.values():
                failures.setdefault(rank, ("timeout", ""))
            break
        for handle in ready:
            if handle in sentinels:
                rank = sentinels.pop(handle)
                reader = readers[rank]
                # An exited rank's pipe is readable (its result, or EOF)
                # unless something else still holds the write end.
                if reader in waiting and not reader.poll(0):
                    del waiting[reader]
                    failures[rank] = ("died", _exit_reason(workers[rank]))
                continue
            if handle not in waiting:
                continue
            rank = waiting.pop(handle)
            try:
                status, payload, simulated = handle.recv()
            except (EOFError, OSError):  # no result, or a truncated one
                failures[rank] = ("died", _exit_reason(workers[rank]))
                continue
            if status == "ok":
                results[rank] = (payload, simulated)
            else:
                failures[rank] = (status, payload)
    return results, failures


def _exit_reason(worker: Any) -> str:
    """How *worker* ended, read before the end of the run kills it.

    Its pipes and sentinel close before the kernel can report its exit
    status, so this waits up to :data:`_EXIT_WAIT_S` for it.  A rank still
    running after that closed its result pipe without exiting; the kill
    that follows is the parent's, so its reason stays unknown.
    """
    worker.join(_EXIT_WAIT_S)
    exitcode = worker.exitcode
    if exitcode is None:
        return "exit reason unknown: still running after closing its result pipe"
    if exitcode < 0:
        try:
            return f"signal {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"signal {-exitcode}"
    return f"exit code {exitcode}"


def _describe(rank: int, cause: str, detail: str, timeout: float) -> str:
    if cause == "died":
        return f"rank {rank} died ({detail}) before sending its result"
    if cause == "timeout":
        return f"rank {rank} timed out: still running after {timeout:g} s"
    return f"rank {rank} failed:\n{detail}"


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
    ``(value, simulated_time)`` pairs.

    The whole world shares one deadline, *timeout* seconds from the call,
    and the first failure ends the run with a :class:`CommunicatorError`
    that names the rank at fault: a rank that raised (with its
    traceback), a rank whose process ended before sending a result
    (``rank R died (exit code X)`` or ``(signal SIGKILL)``), or, when
    nothing failed, the ranks still running at the deadline.  Ranks still
    running when the run ends are killed at once.
    """
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    if os.name != "posix":  # pragma: no cover - platform guard
        raise CommunicatorError("the process backend requires POSIX fork")
    deadline = time.monotonic() + timeout
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
                fn, rank, size, ends, result_pipes, args,
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

    readers = [reader for reader, _ in result_pipes]
    try:
        results, failures = _await_results(workers, readers, deadline)
        if not failures:
            for worker in workers:
                worker.join(max(0.0, deadline - time.monotonic()))
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.kill()
            worker.join()
        for reader in readers:
            reader.close()
    if failures:
        ordered = sorted(
            failures.items(),
            key=lambda item: (_CAUSES.index(item[1][0]), item[0]),
        )
        reports = [
            _describe(rank, cause, detail, timeout)
            for rank, (cause, detail) in ordered
        ]
        others = [report.strip().splitlines()[-1] for report in reports[1:]]
        raise CommunicatorError(
            "\n".join([reports[0], *(f"also: {line}" for line in others)])
        )
    if with_clocks:
        return [results[rank] for rank in range(size)]
    return [results[rank][0] for rank in range(size)]
