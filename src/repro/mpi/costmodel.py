"""Communication and contention cost models for cluster simulation.

The paper measured PRNA on *Fundy*, a hybrid (multi-core nodes,
distributed-memory) cluster at UNB/ACEnet.  To reproduce its speedup curves
on a single offline core, the virtual-time backends charge communication
with a Hockney (alpha-beta) model and compute with a measured or analytic
per-rank cost inflated by an **intra-node memory-contention factor** — the
dominant efficiency loss for this memory-bound tabulation when several
ranks share a node's memory bus.

Calibration (documented in EXPERIMENTS.md): the per-row synchronization
cost and the contention coefficient are fitted so the simulated 64-process
speedups land near the paper's reported 32x (1600 nested arcs) and 22x
(800 nested arcs); the *shape* of the curves (monotone growth, larger
problems scaling better) is then emergent, not fitted point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["ClusterSpec", "CostModel", "DEFAULT_CLUSTER"]


@dataclass(frozen=True)
class ClusterSpec:
    """Physical description of the simulated cluster.

    Parameters
    ----------
    cores_per_node:
        Ranks are placed round-robin across nodes (one per node first),
        so intra-node contention only begins once ranks outnumber nodes.
    n_nodes:
        Total nodes available.
    alpha:
        Point-to-point message latency (seconds).
    beta:
        Per-byte transfer time (seconds/byte).
    sync_overhead:
        Fixed extra cost per collective call (OS jitter, MPI stack,
        progress-engine scheduling) — the per-row synchronization tax that
        limits small problems at scale.
    contention:
        Additional fraction of compute time added per extra rank sharing a
        node (memory-bandwidth contention for this memory-bound kernel).
    """

    cores_per_node: int = 8
    n_nodes: int = 8
    alpha: float = 5.0e-5
    beta: float = 1.0e-8
    sync_overhead: float = 1.0e-2
    contention: float = 0.135

    @property
    def max_ranks(self) -> int:
        return self.cores_per_node * self.n_nodes

    def ranks_per_node(self, n_ranks: int) -> list[int]:
        """Round-robin placement: rank counts per node for *n_ranks*."""
        if n_ranks < 0:
            raise ValueError(f"n_ranks must be non-negative, got {n_ranks}")
        base, extra = divmod(n_ranks, self.n_nodes)
        return [base + (1 if node < extra else 0) for node in range(self.n_nodes)]

    def node_of_rank(self, rank: int) -> int:
        """Node hosting *rank* under round-robin placement."""
        return rank % self.n_nodes

    def contention_factor(self, rank: int, n_ranks: int) -> float:
        """Compute-time inflation for *rank* given total *n_ranks*.

        ``1 + contention * (ranks_on_my_node - 1)`` — one rank per node is
        contention-free; a fully packed node pays the most.
        """
        per_node = self.ranks_per_node(n_ranks)
        sharers = per_node[self.node_of_rank(rank)]
        return 1.0 + self.contention * max(sharers - 1, 0)


#: The calibrated stand-in for the paper's Fundy cluster.
DEFAULT_CLUSTER = ClusterSpec()


@dataclass
class CostModel:
    """Analytic costs of the substrate's communication primitives.

    All costs are in seconds; message sizes in bytes.  Collective costs
    follow the standard algorithm analyses (recursive doubling and ring for
    allreduce, binomial tree for broadcast) parameterized by the cluster's
    ``alpha``/``beta``, plus the flat ``sync_overhead`` per call.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)

    # ------------------------------------------------------------------
    def p2p(self, nbytes: int) -> float:
        """One point-to-point message."""
        return self.cluster.alpha + self.cluster.beta * nbytes

    def barrier(self, n_ranks: int) -> float:
        """Dissemination barrier: ceil(log2 P) rounds of zero-byte messages."""
        if n_ranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(n_ranks))
        return self.cluster.sync_overhead + rounds * self.cluster.alpha

    def bcast(self, n_ranks: int, nbytes: int) -> float:
        """Binomial-tree broadcast."""
        if n_ranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(n_ranks))
        return self.cluster.sync_overhead + rounds * self.p2p(nbytes)

    def allreduce(
        self, n_ranks: int, nbytes: int, algorithm: str = "recursive_doubling"
    ) -> float:
        """Allreduce cost under the chosen algorithm.

        ``recursive_doubling``: ceil(log2 P) rounds exchanging the full
        buffer — latency-optimal, what small/medium rows want (and what the
        paper's per-row MPI_Allreduce over one memo row amounts to).

        ``ring``: 2 (P-1) steps moving ``nbytes / P`` each — bandwidth-
        optimal for large buffers.

        ``linear``: gather-to-root then broadcast, (P-1) messages each way —
        the naive baseline, used by the ablation.
        """
        if n_ranks <= 1:
            return 0.0
        overhead = self.cluster.sync_overhead
        if algorithm == "recursive_doubling":
            rounds = math.ceil(math.log2(n_ranks))
            return overhead + rounds * self.p2p(nbytes)
        if algorithm == "ring":
            steps = 2 * (n_ranks - 1)
            return overhead + steps * self.p2p(max(nbytes // n_ranks, 1))
        if algorithm == "linear":
            return overhead + 2 * (n_ranks - 1) * self.p2p(nbytes)
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; expected "
            "'recursive_doubling', 'ring' or 'linear'"
        )

    def compute(self, rank: int, n_ranks: int, seconds: float) -> float:
        """Charge compute time including intra-node contention."""
        return seconds * self.cluster.contention_factor(rank, n_ranks)
