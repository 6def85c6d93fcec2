"""Allreduce algorithms over point-to-point messaging.

These are the textbook algorithms an MPI library would choose between for
``MPI_Allreduce``; implementing them over the substrate's ``send``/``recv``
(rather than the rendezvous-based collectives) exercises real distributed
communication patterns, and their analytic costs are mirrored in
:meth:`repro.mpi.costmodel.CostModel.allreduce` for the simulator and the
collective-algorithm ablation.

All functions reduce *buffer* **in place** on every rank and assume sends
are buffered (both backends guarantee it for the message sizes involved).
"""

from __future__ import annotations

import numpy as np

from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import ReduceOp, apply_op

__all__ = [
    "allreduce_linear",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "ALLREDUCE_ALGORITHMS",
]

_TAG_BASE = 0x5200  # distinct tag space so algorithms never cross-talk


def allreduce_linear(
    comm: Communicator, buffer: np.ndarray, op: ReduceOp = ReduceOp.MAX
) -> None:
    """Gather-to-root, reduce, broadcast — the naive O(P) baseline."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    tag = _TAG_BASE + 1
    if rank == 0:
        for source in range(1, size):
            apply_op(op, buffer, comm.recv(source, tag), out=buffer)
        for dest in range(1, size):
            comm.send(buffer.copy(), dest, tag + 1)
    else:
        comm.send(buffer.copy(), 0, tag)
        buffer[...] = comm.recv(0, tag + 1)


def allreduce_recursive_doubling(
    comm: Communicator, buffer: np.ndarray, op: ReduceOp = ReduceOp.MAX
) -> None:
    """Recursive doubling: ceil(log2 P) full-buffer exchange rounds.

    Non-power-of-two worlds are handled the standard way: the first
    ``2r`` ranks fold pairwise so a power-of-two core runs the doubling,
    then the folded-out ranks receive the result.
    """
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    tag = _TAG_BASE + 10
    power = 1
    while power * 2 <= size:
        power *= 2
    remainder = size - power

    # Fold phase: ranks [power, size) send into ranks [0, remainder).
    if rank >= power:
        partner = rank - power
        comm.send(buffer.copy(), partner, tag)
    elif rank < remainder:
        apply_op(op, buffer, comm.recv(rank + power, tag), out=buffer)

    # Doubling phase among ranks [0, power).
    if rank < power:
        distance = 1
        while distance < power:
            partner = rank ^ distance
            comm.send(buffer.copy(), partner, tag + distance)
            apply_op(op, buffer, comm.recv(partner, tag + distance), out=buffer)
            distance *= 2

    # Unfold phase: results back out to ranks [power, size).
    if rank < remainder:
        comm.send(buffer.copy(), rank + power, tag + power)
    elif rank >= power:
        buffer[...] = comm.recv(rank - power, tag + power)


def allreduce_ring(
    comm: Communicator, buffer: np.ndarray, op: ReduceOp = ReduceOp.MAX
) -> None:
    """Ring allreduce: reduce-scatter then allgather over P-1 steps each.

    Bandwidth-optimal (each rank moves ``2 (P-1)/P`` of the buffer), the
    choice for large rows.  The buffer is chunked along its first axis.
    """
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    tag = _TAG_BASE + 100
    flat = buffer.reshape(-1)
    bounds = np.linspace(0, flat.size, size + 1).astype(np.int64)

    def chunk(index: int) -> np.ndarray:
        index %= size
        return flat[bounds[index] : bounds[index + 1]]

    right = (rank + 1) % size
    left = (rank - 1) % size

    # Reduce-scatter: after step s, rank r holds the partial reduction of
    # chunk (r - s) over ranks r-s..r.
    for step in range(size - 1):
        send_idx = rank - step
        recv_idx = rank - step - 1
        comm.send(chunk(send_idx).copy(), right, tag + step)
        incoming = comm.recv(left, tag + step)
        target = chunk(recv_idx)
        if target.size:
            apply_op(op, target, incoming, out=target)

    # Allgather: circulate the fully reduced chunks.
    for step in range(size - 1):
        send_idx = rank + 1 - step
        recv_idx = rank - step
        comm.send(chunk(send_idx).copy(), right, tag + size + step)
        incoming = comm.recv(left, tag + size + step)
        target = chunk(recv_idx)
        if target.size:
            target[...] = incoming


ALLREDUCE_ALGORITHMS = {
    "linear": allreduce_linear,
    "recursive_doubling": allreduce_recursive_doubling,
    "ring": allreduce_ring,
}
