"""Publication channel: Publish/Await coalescing, flushing, counters.

The dependency-driven dataflow executor rides on three communicator
guarantees tested here:

* **adaptive coalescing** — publications buffer per destination and ship
  as one batch at :attr:`Communicator.publish_coalesce_cells` pending
  cells, on ``urgent=True``, or when the publisher itself blocks in
  :meth:`Await` (deadlock freedom);
* **inbox semantics** — early-arriving keys are served from the inbox
  without touching the transport, and keys claimed once are gone;
* **honest counters** — ``publishes`` counts batches (not cells),
  ``coalesced_cells``/``publish_bytes`` count the payloads,
  ``dependency_wait_ns`` counts only blocked time.
"""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi.inprocess import run_threaded

class TestPublishBuffering:
    def test_small_publications_buffer_locally(self):
        """Below the threshold nothing hits the transport."""

        def fn(comm):
            if comm.rank == 0:
                comm.enable_stats()
                comm.Publish(("row", 0), np.arange(4), 1)
                comm.Publish(("row", 1), np.arange(4), 1)
                buffered = len(comm._pub_outbox.get(1, ()))
                batches = comm.stats.publishes
                comm.flush_publications()
                return buffered, batches
            return comm.Await([("row", 0), ("row", 1)], 0) and None

        (buffered, batches), _ = run_threaded(fn, 2)
        assert buffered == 2
        assert batches == 0  # nothing shipped until the explicit flush

    def test_threshold_triggers_flush(self):
        """Crossing publish_coalesce_cells ships one batch on its own."""

        def fn(comm):
            if comm.rank == 0:
                comm.enable_stats()
                cells = comm.publish_coalesce_cells
                comm.Publish(("row", 0), np.zeros(cells - 1, np.int64), 1)
                before = comm.stats.publishes
                comm.Publish(("row", 1), np.zeros(1, np.int64), 1)
                return before, comm.stats.publishes
            comm.Await([("row", 0), ("row", 1)], 0)
            return None

        (before, after), _ = run_threaded(fn, 2)
        assert before == 0
        assert after == 1

    def test_urgent_flushes_immediately(self):
        def fn(comm):
            if comm.rank == 0:
                comm.enable_stats()
                comm.Publish(("row", 0), np.arange(2), 1, urgent=True)
                return comm.stats.publishes
            comm.Await([("row", 0)], 0)
            return None

        batches, _ = run_threaded(fn, 2)
        assert batches == 1

    def test_payload_snapshot_at_publish_time(self):
        """NumPy payloads are copied: later mutation must not leak."""

        def fn(comm):
            if comm.rank == 0:
                row = np.arange(4, dtype=np.int64)
                comm.Publish(("row", 0), row, 1)
                row[:] = -1  # keep tabulating into the source buffer
                comm.flush_publications()
                return None
            return comm.Await([("row", 0)], 0)[("row", 0)]

        _, received = run_threaded(fn, 2)
        assert np.array_equal(received, np.arange(4))

    def test_publish_to_self_rejected(self):
        def fn(comm):
            with pytest.raises(CommunicatorError, match="self"):
                comm.Publish("k", 1, comm.rank)

        run_threaded(fn, 2)

    def test_publish_bad_dest_rejected(self):
        def fn(comm):
            with pytest.raises(CommunicatorError, match="dest"):
                comm.Publish("k", 1, 7)

        run_threaded(fn, 2)


class TestAwait:
    def test_early_arrivals_served_from_inbox(self):
        """One coalesced batch satisfies several later Await calls."""

        def fn(comm):
            if comm.rank == 0:
                for a in range(3):
                    comm.Publish(("row", a), np.arange(a + 1), 1)
                comm.flush_publications()
                return None
            comm.enable_stats()
            first = comm.Await([("row", 0)], 0)
            waits_after_first = comm.stats.awaits
            # rows 1 and 2 rode in the same batch: inbox hit, no recv.
            rest = comm.Await([("row", 1), ("row", 2)], 0)
            return (
                waits_after_first,
                comm.stats.awaits,
                len(first) + len(rest),
            )

        _, (first_waits, total_waits, n_keys) = run_threaded(fn, 2)
        assert first_waits == 1
        assert total_waits == 1  # the second Await never blocked
        assert n_keys == 3

    def test_claimed_keys_leave_the_inbox(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Publish(("row", 0), np.arange(2), 1, urgent=True)
                return None
            comm.Await([("row", 0)], 0)
            return comm._pub_inbox[0]

        _, inbox = run_threaded(fn, 2)
        assert inbox == {}

    def test_await_flushes_own_outbox_first(self):
        """Two ranks awaiting each other's buffered cells must not
        deadlock: Await flushes this rank's outboxes before blocking."""

        def fn(comm):
            peer = 1 - comm.rank
            comm.Publish(("row", comm.rank), np.arange(3), peer)
            got = comm.Await([("row", peer)], peer)
            return int(got[("row", peer)].sum())

        assert run_threaded(fn, 2) == [3, 3]

    def test_bidirectional_streams_keep_order(self):
        """Interleaved publications in both directions stay keyed."""

        def fn(comm):
            peer = 1 - comm.rank
            for a in range(5):
                comm.Publish(("row", a), np.full(2, 10 * comm.rank + a), peer)
            got = comm.Await([("row", a) for a in range(5)], peer)
            return [int(got[("row", a)][0]) for a in range(5)]

        out = run_threaded(fn, 2)
        assert out[0] == [10 + a for a in range(5)]
        assert out[1] == list(range(5))


class TestPublishStats:
    def test_counters_count_batches_and_cells(self):
        def fn(comm):
            if comm.rank == 0:
                comm.enable_stats()
                comm.Publish(("row", 0), np.arange(6, dtype=np.int64), 1)
                comm.Publish(("row", 1), np.arange(4, dtype=np.int64), 1)
                comm.flush_publications()
                comm.Publish(("row", 2), "not-an-array", 1, urgent=True)
                return comm.stats.as_dict()
            comm.enable_stats()
            comm.Await([("row", 0), ("row", 1), ("row", 2)], 0)
            return comm.stats.as_dict()

        sender, receiver = run_threaded(fn, 2)
        assert sender["publishes"] == 2  # one coalesced batch + one urgent
        assert sender["coalesced_cells"] == 6 + 4 + 1
        assert sender["publish_bytes"] > 0
        # Publication traffic rides a primitive tag: it must not inflate
        # the point-to-point send/recv counters.
        assert sender["sends"] == 0
        assert receiver["recvs"] == 0
        assert receiver["awaits"] >= 1
        assert receiver["dependency_wait_ns"] >= 0
