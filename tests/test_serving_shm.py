"""Shared-memory ring transport: equivalence, fault injection, leaks.

The rings replace pickled-pipe block shipping with preallocated
``multiprocessing.shared_memory`` slots, so three new things can go
wrong and are proven not to here:

* **correctness** — verdicts and distances through the shm transport are
  bit-identical to the pipe transport and to a monolithic monitor
  (hypothesis-driven), including when blocks overflow a slot or the ring
  and fall back to the pipe path block-by-block;
* **slot accounting** — a SIGKILL'd worker cannot hand its in-flight
  slot indices back, so the crash handler must reclaim them: after any
  crash/respawn/requeue storm every ring ends with its full free queue
  and zero lost or duplicated futures;
* **segment hygiene** — every ``/dev/shm`` segment the pool creates is
  unlinked by ``stop()``, by respawn-budget exhaustion, and on the
  crash-respawn path — nothing may outlive the pool.
"""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.monitor import NeuronActivationMonitor
from repro.serving import ProcessShardPool, ShardRouter, WorkerCrashError
from repro.serving import shmring

WIDTH = 16
CLASSES = list(range(6))


def _build_monitor(seed=0, gamma=0):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((200, WIDTH)) < 0.4).astype(np.uint8)
    labels = rng.integers(0, len(CLASSES), len(patterns))
    monitor = NeuronActivationMonitor(
        WIDTH, CLASSES, gamma=gamma, backend="bitset"
    )
    monitor.record(patterns, labels, labels)
    return monitor


def _queries(n=240, seed=7):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((n, WIDTH)) < 0.6).astype(np.uint8)
    classes = rng.integers(0, len(CLASSES), n)
    return patterns, classes


def _ring_segments():
    """Pool-owned shared-memory segments currently linked in /dev/shm."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if shmring.SEGMENT_PREFIX in name
        }
    except FileNotFoundError:  # non-tmpfs platform: leak check is a no-op
        return set()


def _assert_rings_fully_free(pool):
    """Every live ring has every slot back in its free queue."""
    for ring in pool._rings:
        if ring is not None:
            assert len(ring.free) == ring.request.slots


class _AnsweredBeforeReturn:
    """Worker-connection proxy whose ``send`` returns only after every
    block in flight at send time has its answer (slot already recycled)."""

    def __init__(self, conn, worker):
        self._conn = conn
        self._worker = worker

    def send(self, message):
        waiting = list(self._worker.inflight.values())
        self._conn.send(message)
        deadline = time.monotonic() + 30
        while not all(p.future.done() for p in waiting):
            assert time.monotonic() < deadline, "block never answered"
            time.sleep(0.001)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestShmEquivalence:
    def test_shm_pool_matches_monolith_and_pipe(self):
        monitor = _build_monitor(gamma=1)
        router = ShardRouter.partition(monitor, 3)
        patterns, classes = _queries(n=300)
        expected_verdicts = monitor.check(patterns, classes)
        expected_distances = monitor.min_distances(patterns, classes)
        results = {}
        for transport in ("shm", "pipe"):
            with ProcessShardPool(
                router.shards, num_workers=2, transport=transport
            ) as pool:
                verdicts = pool.check(patterns, classes)
                distances = pool.min_distances(patterns, classes)
                if transport == "shm":
                    assert pool.total_ring_blocks > 0
                    assert all(
                        row["transport"] == "shm" for row in pool.stats()
                    )
                _assert_rings_fully_free(pool)
            results[transport] = (verdicts, distances)
        for verdicts, distances in results.values():
            np.testing.assert_array_equal(verdicts, expected_verdicts)
            np.testing.assert_array_equal(distances, expected_distances)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 80),
        gamma=st.integers(0, 2),
    )
    def test_hypothesis_cross_process_equivalence(self, shm_fleet, seed, n, gamma):
        """Random query batches through the shm fleet are bit-identical
        to the monolithic monitor (γ applied via resync)."""
        pool, monitor = shm_fleet
        rng = np.random.default_rng(seed)
        patterns = (rng.random((n, WIDTH)) < rng.random()).astype(np.uint8)
        classes = rng.integers(0, len(CLASSES), n)
        pool.set_gamma(gamma)
        monitor.set_gamma(gamma)
        np.testing.assert_array_equal(
            pool.check(patterns, classes), monitor.check(patterns, classes)
        )
        _assert_rings_fully_free(pool)

    def test_oversized_blocks_fall_back_to_pipe(self):
        """Slots too small for any block: every block rides the pipe,
        results stay exact."""
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=120)
        with ProcessShardPool(
            router.shards, num_workers=2, transport="shm",
            ring_slots=2, ring_slot_bytes=8,
        ) as pool:
            np.testing.assert_array_equal(
                pool.check(patterns, classes),
                monitor.check(patterns, classes),
            )
            assert pool.total_ring_blocks == 0
            assert pool.total_pipe_blocks > 0

    def test_ring_exhaustion_falls_back_per_block(self):
        """A single-slot ring under concurrent load: overflow blocks take
        the pipe, nothing is lost, and the slot always comes home."""
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=400)
        with ProcessShardPool(
            router.shards, num_workers=2, transport="shm", ring_slots=1
        ) as pool:
            futures = []
            for shard_id, rows in router.route(classes).items():
                for start in range(0, len(rows), 8):
                    piece = rows[start : start + 8]
                    futures.append(
                        (piece, pool.submit(patterns[piece], classes[piece]))
                    )
            expected = monitor.check(patterns, classes)
            for piece, future in futures:
                verdicts, _ = future.result(timeout=60)
                np.testing.assert_array_equal(verdicts, expected[piece])
            assert pool.total_ring_blocks + pool.total_pipe_blocks == len(futures)
            _assert_rings_fully_free(pool)

    def test_concurrent_submitters_count_every_block_once(self):
        """More submitting threads than cores on a two-slot ring, with a
        tiny switch interval: the per-worker ring/pipe block counters and
        the served-row counters are read-modify-writes shared by every
        submitter, so a lost update would break the totals."""
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=400)
        expected = monitor.check(patterns, classes)
        routed = [
            (shard_id, rows[start : start + 5])
            for shard_id, rows in router.route(classes).items()
            for start in range(0, len(rows), 5)
        ]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ProcessShardPool(
                router.shards, num_workers=2, transport="shm", ring_slots=2
            ) as pool:

                def submitter(offset):
                    for shard_id, piece in routed[offset::8]:
                        future = pool.submit(patterns[piece], classes[piece])
                        results.append((piece, future))

                threads = [
                    threading.Thread(target=submitter, args=(k,)) for k in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for piece, future in results:
                    verdicts, _ = future.result(timeout=60)
                    np.testing.assert_array_equal(verdicts, expected[piece])
                assert len(results) == len(routed)
                assert pool.total_ring_blocks + pool.total_pipe_blocks == len(routed)
                stats = pool.stats()
                assert sum(row["batches"] for row in stats) == len(routed)
                assert sum(row["requests"] for row in stats) == len(patterns)
                _assert_rings_fully_free(pool)
        finally:
            sys.setswitchinterval(interval)

    def test_answered_ring_blocks_still_count_as_ring(self):
        """Regression: the send path read ``pending.slot`` after the send,
        when the pump may already have answered the block and reset its
        slot to -1, so a ring block was counted as a pipe block.  Here each
        send returns only once its block is answered."""
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 1)
        patterns, classes = _queries(n=40)
        blocks = 10
        with ProcessShardPool(router.shards, num_workers=1, transport="shm") as pool:
            worker = pool._workers[0]
            worker.conn = _AnsweredBeforeReturn(worker.conn, worker)
            for i in range(blocks):
                piece = slice(4 * i, 4 * i + 4)
                future = pool.submit(patterns[piece], classes[piece])
                verdicts, _ = future.result(timeout=60)
                np.testing.assert_array_equal(
                    verdicts, monitor.check(patterns[piece], classes[piece])
                )
            assert pool.total_pipe_blocks == 0
            assert pool.total_ring_blocks == blocks
            _assert_rings_fully_free(pool)


@pytest.fixture(scope="module")
def shm_fleet():
    monitor = _build_monitor(gamma=0)
    router = ShardRouter.partition(monitor, 3)
    with ProcessShardPool(
        router.shards, num_workers=2, transport="shm"
    ) as pool:
        yield pool, monitor


# ----------------------------------------------------------------------
# fault injection: slot reclamation under SIGKILL
# ----------------------------------------------------------------------
class TestShmFaults:
    @pytest.mark.parametrize("kill_delay", [0.0, 0.003, 0.015])
    def test_sigkill_while_slots_in_flight(self, kill_delay):
        """SIGKILL under continuous ring traffic: the crash handler
        reclaims the dead worker's slots, every block resolves exactly
        once, and the rings end fully free."""
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 3)
        patterns, classes = _queries(n=400)
        expected = monitor.check(patterns, classes)

        with ProcessShardPool(
            router.shards, num_workers=2, max_respawns=10, transport="shm"
        ) as pool:
            submitted = []
            stop_submitting = threading.Event()

            def producer():
                block = 20
                while not stop_submitting.is_set():
                    for shard_id, rows in router.route(classes).items():
                        for start in range(0, len(rows), block):
                            piece = rows[start : start + block]
                            try:
                                future = pool.submit(
                                    patterns[piece], classes[piece]
                                )
                            except RuntimeError:
                                return  # pool stopping
                            submitted.append((piece, future))
                    time.sleep(0.001)

            feeder = threading.Thread(target=producer, daemon=True)
            feeder.start()
            time.sleep(0.02)  # rings under load before the kill
            killer = threading.Timer(
                kill_delay,
                lambda: os.kill(pool.worker_pids()[0], signal.SIGKILL),
            )
            killer.start()
            killer.join()
            time.sleep(0.05)
            stop_submitting.set()
            feeder.join(timeout=30)
            assert not feeder.is_alive()

            for piece, future in submitted:
                verdicts, _ = future.result(timeout=60)  # exactly once
                np.testing.assert_array_equal(verdicts, expected[piece])
            # Row accounting adds up across the crash: nothing lost or
            # double-served.
            served = sum(row["requests"] for row in pool.stats())
            assert served == sum(len(piece) for piece, _ in submitted)
            assert pool.total_ring_blocks > 0
            _assert_rings_fully_free(pool)

    def test_crash_storm_reclaims_every_slot(self):
        """Repeated kills between bursts: slots reclaimed every time."""
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 3)
        patterns, classes = _queries(n=150)
        expected = monitor.check(patterns, classes)
        with ProcessShardPool(
            router.shards, num_workers=2, max_respawns=10, transport="shm"
        ) as pool:
            for round_no in range(3):
                np.testing.assert_array_equal(
                    pool.check(patterns, classes), expected
                )
                os.kill(pool.worker_pids()[round_no % 2], signal.SIGKILL)
                deadline = time.monotonic() + 30
                while (
                    pool.total_respawns < round_no + 1
                    or len(pool.worker_pids()) < 2
                ):
                    assert time.monotonic() < deadline, "respawn timed out"
                    time.sleep(0.01)
            np.testing.assert_array_equal(
                pool.check(patterns, classes), expected
            )
            assert pool.total_respawns >= 3
            _assert_rings_fully_free(pool)


# ----------------------------------------------------------------------
# /dev/shm hygiene
# ----------------------------------------------------------------------
class TestSegmentLeaks:
    def test_stop_unlinks_every_segment(self):
        before = _ring_segments()
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        pool = ProcessShardPool(router.shards, num_workers=2, transport="shm")
        pool.start()
        try:
            patterns, classes = _queries(n=80)
            pool.check(patterns, classes)
            assert len(_ring_segments()) >= len(before)
        finally:
            pool.stop()
        assert _ring_segments() <= before

    def test_crash_respawn_does_not_leak(self):
        before = _ring_segments()
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        with ProcessShardPool(
            router.shards, num_workers=2, max_respawns=5, transport="shm"
        ) as pool:
            patterns, classes = _queries(n=80)
            pool.check(patterns, classes)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while len(pool.worker_pids()) < 2:
                assert time.monotonic() < deadline, "respawn timed out"
                time.sleep(0.01)
            pool.check(patterns, classes)
        assert _ring_segments() <= before

    def test_budget_exhaustion_unlinks_the_dead_slot(self):
        """Respawn budget burned on every slot (futures fail with
        WorkerCrashError) — each dead slot's segments are unlinked at
        retirement, before stop()."""
        before = _ring_segments()
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        with ProcessShardPool(
            router.shards, num_workers=2, max_respawns=0, transport="shm",
        ) as pool:
            patterns, classes = _queries(n=60)
            pool.check(patterns, classes)
            for crashes in (1, 2):
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                deadline = time.monotonic() + 30
                while pool.total_crashes < crashes:
                    assert time.monotonic() < deadline, "crash never detected"
                    time.sleep(0.01)
            with pytest.raises(WorkerCrashError):
                pool.check(patterns, classes)
            assert _ring_segments() <= before
        assert _ring_segments() <= before


# ----------------------------------------------------------------------
# BlockRing.close(): resource-tracker hygiene on the BufferError path
# ----------------------------------------------------------------------
class TestBlockRingClose:
    def test_detach_path_unregisters_from_resource_tracker(self, monkeypatch):
        """A close() forced down the BufferError fallback must drop the
        segment's resource-tracker registration by hand — the detach
        bypasses SharedMemory.close(), so nothing else ever will, and
        the tracker would print a spurious "leaked shared_memory"
        warning at interpreter exit."""
        from multiprocessing import resource_tracker

        ring = shmring.BlockRing(
            f"{shmring.SEGMENT_PREFIX}-test-detach-{os.getpid()}",
            slots=2, slot_bytes=64, create=True,
        )
        tracked_name = ring.shm._name
        unregistered = []
        monkeypatch.setattr(
            resource_tracker, "unregister",
            lambda name, rtype: unregistered.append((name, rtype)),
        )
        view = ring.u8(0, 16)  # live export: close() must hit BufferError
        ring.close()
        assert unregistered == [(tracked_name, "shared_memory")]
        assert ring.shm._fd == -1  # the detach itself still happened
        del view
        ring.unlink()  # monkeypatched unregister: only shm_unlink runs

    def test_clean_close_leaves_registration_for_unlink(self, monkeypatch):
        """No live views: close() succeeds normally and must NOT
        unregister — that is unlink()'s job (SharedMemory.unlink
        unregisters internally), and unregistering early would let a
        crash between close and unlink truly leak the segment."""
        from multiprocessing import resource_tracker

        ring = shmring.BlockRing(
            f"{shmring.SEGMENT_PREFIX}-test-clean-{os.getpid()}",
            slots=2, slot_bytes=64, create=True,
        )
        unregistered = []
        monkeypatch.setattr(
            resource_tracker, "unregister",
            lambda name, rtype: unregistered.append((name, rtype)),
        )
        ring.close()
        assert unregistered == []
        ring.unlink()
        assert len(unregistered) == 1  # unlink's own internal unregister

    def test_no_leak_warning_at_interpreter_exit(self):
        """End-to-end regression: a child interpreter that exits with a
        detached (BufferError'd) segment must not print the tracker's
        "leaked shared_memory" warning."""
        import subprocess
        import sys

        name = f"{shmring.SEGMENT_PREFIX}-test-exit-{os.getpid()}"
        child = (
            "from repro.serving import shmring\n"
            f"ring = shmring.BlockRing({name!r}, slots=2, slot_bytes=64, "
            "create=True)\n"
            "view = ring.u8(0, 16)\n"
            "ring.close()  # view alive: detach path\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            assert result.returncode == 0, result.stderr
            assert "leaked shared_memory" not in result.stderr, result.stderr
        finally:
            # The child never unlinked (that is the scenario): the name
            # survives in /dev/shm for the parent to reap.
            try:
                os.unlink(f"/dev/shm/{name}")
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# stop() with a wedged pump thread
# ----------------------------------------------------------------------
class TestWedgedPumpShutdown:
    def test_wedged_pump_warns_and_keeps_its_ring_mapped(self):
        """A pump that misses its join window must be reported by name,
        and its ring must stay mapped (unlinked, not closed) so a late
        reply resolving through slot views touches live memory."""
        before = _ring_segments()
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        pool = ProcessShardPool(
            router.shards, num_workers=2, transport="shm", ready_timeout=2
        )
        pool.start()
        try:
            patterns, classes = _queries(n=40)
            pool.check(patterns, classes)
            # Swap worker 0's pump handle for a stand-in that never
            # exits: stop() must time out joining it, warn, and spare
            # ring 0 from the close.
            release = threading.Event()
            stuck = threading.Thread(
                target=release.wait, name="repro-shard-pump-0", daemon=True
            )
            stuck.start()
            pool._workers[0].pump = stuck
            with pytest.warns(RuntimeWarning, match="repro-shard-pump-0"):
                pool.stop()
            assert pool._rings[0] is not None  # mapping kept for the pump
            assert pool._rings[1] is None  # healthy slot fully destroyed
            # Unlink still ran for both: nothing pool-owned in /dev/shm.
            assert _ring_segments() <= before
            # The kept mapping is genuinely alive: slot views still read.
            assert pool._rings[0].request.u8(0, 8) is not None
        finally:
            release.set()
            stuck.join(timeout=10)
            ring = pool._rings[0]
            if ring is not None:  # now truly quiesced: safe to unmap
                ring.close()
                pool._rings[0] = None

    def test_clean_stop_still_warns_nothing(self):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        pool = ProcessShardPool(router.shards, num_workers=2, transport="shm")
        pool.start()
        patterns, classes = _queries(n=40)
        pool.check(patterns, classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            pool.stop()
        assert all(ring is None for ring in pool._rings)
