"""Cross-process serving suite: ProcessShardPool must be invisible.

Process-level sharding may never change an answer.  The equivalence half
of this suite drives hypothesis-generated query streams through a live
worker fleet and asserts bit-identical verdicts and distances against
the in-process ``ShardRouter`` and the monolithic monitors on *both*
engines (bitset and BDD) across γ ∈ {0..4} and ``indexed=True/False``,
including the routing edges: classes with empty zones and classes no
shard monitors.  The fault half proves the lifecycle story: warm-up
handshake, graceful drain, SIGKILL mid-stream with automatic respawn and
in-flight block requeue (no lost or duplicated futures, stats that still
add up), respawn-budget exhaustion, and the
partition → pickle → rehydrate → assemble round trip.
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import NeuronActivationMonitor
from repro.serving import (
    MonitorShard,
    ProcessShardPool,
    ShardRouter,
    StreamServer,
    WorkerCrashError,
    run_stream,
)

WIDTH = 16
#: Monitored classes; EMPTY_CLASS has a zone but never receives patterns.
CLASSES = list(range(6))
EMPTY_CLASS = 5


def _build_monitor(backend="bitset", indexed=False, gamma=1, seed=0):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((200, WIDTH)) < 0.4).astype(np.uint8)
    labels = rng.integers(0, EMPTY_CLASS, len(patterns))  # class 5 stays empty
    monitor = NeuronActivationMonitor(
        WIDTH, CLASSES, gamma=gamma, backend=backend, indexed=indexed
    )
    monitor.record(patterns, labels, labels)
    assert monitor.zones[EMPTY_CLASS].is_empty()
    return monitor


def _queries(n=200, seed=1, extra_classes=3):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((n, WIDTH)) < 0.4).astype(np.uint8)
    classes = rng.integers(0, len(CLASSES) + extra_classes, n)
    return patterns, classes


# ----------------------------------------------------------------------
# cross-process equivalence (hypothesis)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def monoliths():
    return {"bitset": _build_monitor("bitset"), "bdd": _build_monitor("bdd")}


@pytest.fixture(scope="module")
def fleets():
    """One live worker fleet per indexed flag, shared across examples.

    The routers are partitioned from *separate* monitor builds, so the
    pool answers can only agree with the monoliths if the payload
    rehydration is genuinely faithful.
    """
    plain_router = ShardRouter.partition(_build_monitor("bitset"), 3)
    indexed_router = ShardRouter.partition(
        _build_monitor("bitset", indexed=True), 3
    )
    for shard in indexed_router.shards:
        assert shard.monitor.indexed
    with ProcessShardPool(plain_router.shards, num_workers=2) as plain, \
            ProcessShardPool(indexed_router.shards, num_workers=2) as indexed:
        yield {"plain": (plain, plain_router), "indexed": (indexed, indexed_router)}


@st.composite
def query_case(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=WIDTH, max_size=WIDTH),
            min_size=n, max_size=n,
        )
    )
    # 0..4 populated, 5 empty-zone, 6..8 unmonitored — all three edges.
    classes = draw(
        st.lists(st.integers(0, len(CLASSES) + 2), min_size=n, max_size=n)
    )
    gamma = draw(st.integers(min_value=0, max_value=4))
    return (
        np.asarray(rows, dtype=np.uint8),
        np.asarray(classes, dtype=np.int64),
        gamma,
    )


@settings(max_examples=40, deadline=None)
@given(query_case())
def test_cross_process_equivalence(fleets, monoliths, case):
    """Pool verdicts and distances are bit-identical to the in-process
    router, the bitset monolith and the BDD engine for every γ and both
    indexed flags — including empty-zone and unmonitored-class rows."""
    patterns, classes, gamma = case
    for monolith in monoliths.values():
        monolith.set_gamma(gamma)
    expected = monoliths["bitset"].check(patterns, classes)
    np.testing.assert_array_equal(
        monoliths["bdd"].check(patterns, classes), expected, err_msg="bdd"
    )
    expected_distances = monoliths["bitset"].min_distances(patterns, classes)
    np.testing.assert_array_equal(
        monoliths["bdd"].min_distances(patterns, classes),
        expected_distances,
        err_msg="bdd distances",
    )
    for name, (pool, router) in fleets.items():
        router.set_gamma(gamma)
        pool.set_gamma(gamma)
        np.testing.assert_array_equal(
            router.check(patterns, classes), expected, err_msg=f"router/{name}"
        )
        np.testing.assert_array_equal(
            pool.check(patterns, classes), expected, err_msg=f"pool/{name}"
        )
        np.testing.assert_array_equal(
            pool.min_distances(patterns, classes),
            expected_distances,
            err_msg=f"pool distances/{name}",
        )
        # Bounded form: min(true, γ+1) — unmonitored rows stay 0.
        np.testing.assert_array_equal(
            pool.min_distances(patterns, classes, cap=gamma),
            np.minimum(expected_distances, gamma + 1),
            err_msg=f"pool bounded distances/{name}",
        )


def test_empty_query_and_all_unmonitored(fleets):
    pool, _router = fleets["plain"]
    none = np.zeros((0, WIDTH), dtype=np.uint8)
    assert pool.check(none, np.zeros(0, dtype=np.int64)).shape == (0,)
    patterns, _ = _queries(n=7)
    unmonitored = np.full(7, 99)
    assert pool.check(patterns, unmonitored).all()
    assert (pool.min_distances(patterns, unmonitored) == 0).all()


def test_bdd_backed_pool_serves_identically():
    """Shards recorded by the BDD engine rehydrate into BDD workers."""
    router = ShardRouter.partition(_build_monitor("bdd"), 2)
    monolith = _build_monitor("bitset")
    patterns, classes = _queries(n=120)
    with ProcessShardPool(router.shards, num_workers=2) as pool:
        np.testing.assert_array_equal(
            pool.check(patterns, classes), monolith.check(patterns, classes)
        )


# ----------------------------------------------------------------------
# payload round trip (partition → pickle → rehydrate → assemble)
# ----------------------------------------------------------------------
@st.composite
def partition_case(draw):
    num_classes = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=WIDTH, max_size=WIDTH),
            min_size=1, max_size=40,
        )
    )
    patterns = np.asarray(rows, dtype=np.uint8)
    labels = draw(
        st.lists(
            st.integers(0, num_classes - 1),
            min_size=len(patterns), max_size=len(patterns),
        )
    )
    num_shards = draw(st.integers(min_value=1, max_value=4))
    backend = draw(st.sampled_from(["bitset", "bdd"]))
    return patterns, np.asarray(labels), num_classes, num_shards, backend


@settings(max_examples=30, deadline=None)
@given(partition_case())
def test_partition_pickle_rehydrate_assemble_round_trip(case):
    """The wire form is lossless: pickled payloads rebuild shards whose
    router and re-assembled monolith answer exactly like the source."""
    patterns, labels, num_classes, num_shards, backend = case
    monitor = NeuronActivationMonitor(
        WIDTH, range(num_classes), gamma=1, backend=backend
    )
    monitor.record(patterns, labels, labels)
    router = ShardRouter.partition(monitor, num_shards)
    rebuilt = ShardRouter(
        [
            MonitorShard.from_payload(pickle.loads(pickle.dumps(s.to_payload())))
            for s in router.shards
        ]
    )
    assembled = rebuilt.assemble()
    probes, probe_classes = _queries(n=60, seed=7)
    probe_classes = probe_classes % (num_classes + 2)
    expected = monitor.check(probes, probe_classes)
    np.testing.assert_array_equal(rebuilt.check(probes, probe_classes), expected)
    np.testing.assert_array_equal(assembled.check(probes, probe_classes), expected)
    np.testing.assert_array_equal(
        rebuilt.min_distances(probes, probe_classes),
        monitor.min_distances(probes, probe_classes),
    )
    for c in monitor.classes:
        assert (
            assembled.zones[c].num_visited_patterns
            == monitor.zones[c].num_visited_patterns
        )


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
def _caller_blocks(patterns, block_rows=40):
    """Split a stream into caller blocks the way check_many does: each
    block's rows may span every shard."""
    return [
        np.arange(start, min(start + block_rows, len(patterns)))
        for start in range(0, len(patterns), block_rows)
    ]


class TestFaultInjection:
    def test_kill_mid_stream_respawns_requeues_no_lost_or_dup_futures(self):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 4)
        patterns, classes = _queries(n=2000, extra_classes=0)
        expected = monitor.check(patterns, classes)
        with ProcessShardPool(router.shards, num_workers=2) as pool:
            blocks = _caller_blocks(patterns)
            futures = [
                pool.submit(patterns[rows], classes[rows]) for rows in blocks
            ]
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            got = np.ones(len(patterns), dtype=bool)
            for rows, future in zip(blocks, futures):
                verdicts, _ = future.result(timeout=60)
                assert len(verdicts) == len(rows)
                got[rows] = verdicts
            np.testing.assert_array_equal(got, expected)
            assert all(future.done() for future in futures)
            # Balance dispatch may have answered every block on the
            # survivor: wait for the replacement to be published.
            deadline = time.monotonic() + 30
            while pool.total_respawns < 1 or len(pool.worker_pids()) < 2:
                assert time.monotonic() < deadline, "respawn timed out"
                time.sleep(0.01)
            assert pool.total_respawns >= 1
            # Correct final stats: every submitted block answered exactly
            # once (requeued blocks counted on the replacement, never on
            # both workers), so the per-worker request counters add up to
            # exactly the routed row count — no losses, no duplicates.
            rows_routed = sum(len(rows) for rows in blocks)
            stats = pool.stats()
            assert sum(row["requests"] for row in stats) == rows_routed
            assert sum(row["batches"] for row in stats) == len(blocks)
            assert any(row["respawns"] >= 1 for row in stats)

    def test_idle_crash_detected_and_respawned(self):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=50, extra_classes=0)
        with ProcessShardPool(router.shards, num_workers=2) as pool:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.total_respawns == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.total_respawns >= 1
            np.testing.assert_array_equal(
                pool.check(patterns, classes), monitor.check(patterns, classes)
            )
            assert victim not in pool.worker_pids()
            assert len(pool.worker_pids()) == 2

    def test_respawn_budget_exhaustion_raises(self):
        # Every worker holds every shard, so a shard only becomes
        # unservable once every slot has burned its budget.
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        pool = ProcessShardPool(router.shards, num_workers=2, max_respawns=0)
        pool.start()
        try:
            for crashes in (1, 2):
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                deadline = time.monotonic() + 30
                while pool.total_crashes < crashes and time.monotonic() < deadline:
                    time.sleep(0.02)
            owned_class = router.shards[0].classes[0]
            patterns, _ = _queries(n=4)
            with pytest.raises(WorkerCrashError):
                pool.submit(patterns, np.full(4, owned_class))
        finally:
            pool.stop()

    def test_balance_survives_single_slot_exhaustion(self):
        # Balance dispatch replicates every shard into every worker, so
        # one burned slot degrades capacity instead of failing a shard;
        # only exhausting *every* slot raises.
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=80, extra_classes=0)
        pool = ProcessShardPool(router.shards, num_workers=2, max_respawns=0)
        pool.start()
        try:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.total_crashes == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.total_crashes >= 1
            np.testing.assert_array_equal(
                pool.check(patterns, classes), monitor.check(patterns, classes)
            )
            assert len(pool.worker_pids()) == 1  # burned slot stays empty
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.total_crashes < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            with pytest.raises(WorkerCrashError):
                pool.check(patterns, classes)
        finally:
            pool.stop()

    def test_graceful_drain_answers_everything(self):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=600, extra_classes=0)
        pool = ProcessShardPool(router.shards, num_workers=2)
        pool.start()
        blocks = _caller_blocks(patterns)
        futures = [pool.submit(patterns[rows], classes[rows]) for rows in blocks]
        pool.stop()  # FIFO drain: stop sentinel queues behind every block
        assert all(future.done() for future in futures)
        expected = monitor.check(patterns, classes)
        for rows, future in zip(blocks, futures):
            verdicts, _ = future.result(timeout=0)
            np.testing.assert_array_equal(verdicts, expected[rows])
        with pytest.raises(RuntimeError):
            pool.submit(patterns[:1], classes[:1])

    def test_bad_block_fails_its_future_not_the_worker(self):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        with ProcessShardPool(router.shards, num_workers=2) as pool:
            bad = np.zeros((3, 8), dtype=np.uint8)  # wrong pattern width
            future = pool.submit(bad, np.zeros(3, dtype=np.int64))
            with pytest.raises(ValueError):
                future.result(timeout=30)
            patterns, classes = _queries(n=40, extra_classes=0)
            np.testing.assert_array_equal(
                pool.check(patterns, classes), monitor.check(patterns, classes)
            )
            assert pool.total_crashes == 0  # worker survived the bad block

    def test_crash_respawn_reapplies_current_gamma(self):
        monitor = _build_monitor(gamma=1)
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=120, extra_classes=0)
        with ProcessShardPool(router.shards, num_workers=2) as pool:
            pool.set_gamma(3)
            monitor.set_gamma(3)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            # Wait for the replacement, so the check below can reach it.
            deadline = time.monotonic() + 30
            while pool.total_respawns < 1 or len(pool.worker_pids()) < 2:
                assert time.monotonic() < deadline, "respawn timed out"
                time.sleep(0.01)
            np.testing.assert_array_equal(
                pool.check(patterns, classes), monitor.check(patterns, classes)
            )
            assert pool.total_respawns >= 1

    def test_respawn_counted_only_once_replacement_is_published(self):
        """While a replacement is still being spawned, the death is
        already a crash but not yet a respawn, and the survivor serves.
        The gate on ``_replace`` holds that window open for as long as
        the test needs it, independent of scheduling."""
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=50, extra_classes=0)
        entered = threading.Event()
        release = threading.Event()
        with ProcessShardPool(router.shards, num_workers=2) as pool:
            spawn = pool._replace

            def gated_spawn(index):
                entered.set()
                release.wait(timeout=60)
                return spawn(index)

            pool._replace = gated_spawn
            try:
                victim = pool.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)
                assert entered.wait(timeout=30), "crash never detected"
                assert pool.total_crashes == 1
                assert pool.total_respawns == 0
                assert len(pool.worker_pids()) == 1
                np.testing.assert_array_equal(
                    pool.check(patterns, classes),
                    monitor.check(patterns, classes),
                )
                rows = pool.stats()
                assert sum(row["crashes"] for row in rows) == 1
                assert sum(row["respawns"] for row in rows) == 0
            finally:
                release.set()
            deadline = time.monotonic() + 30
            while pool.total_respawns < 1 or len(pool.worker_pids()) < 2:
                assert time.monotonic() < deadline, "respawn timed out"
                time.sleep(0.01)
            assert pool.total_crashes == 1
            assert pool.total_respawns == 1
            assert victim not in pool.worker_pids()
            assert len(pool.worker_pids()) == 2


class TestPoolValidation:
    def test_rejects_empty_and_bad_workers(self):
        router = ShardRouter.partition(_build_monitor(), 2)
        with pytest.raises(ValueError, match="at least one shard"):
            ProcessShardPool([])
        with pytest.raises(ValueError, match="num_workers"):
            ProcessShardPool(router.shards, num_workers=0)

    def test_rejects_duplicate_shards_and_classes(self):
        monitor = _build_monitor()
        shard = MonitorShard(0, monitor)
        with pytest.raises(ValueError, match="duplicate shard id"):
            ProcessShardPool([shard, MonitorShard(0, monitor)])
        with pytest.raises(ValueError, match="owned by two shards"):
            ProcessShardPool([shard, MonitorShard(1, monitor)])

    def test_workers_capped_at_shard_count(self):
        router = ShardRouter.partition(_build_monitor(), 2)
        pool = ProcessShardPool(router.shards, num_workers=64)
        assert len(pool) == 2

    def test_submit_before_start_and_unmonitored_rows(self):
        """A stopped pool refuses every block, even one whose rows no
        shard monitors (they would be answered without a worker)."""
        router = ShardRouter.partition(_build_monitor(), 2)
        pool = ProcessShardPool(router.shards, num_workers=2)
        patterns, classes = _queries(n=2, extra_classes=0)
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(patterns, classes)
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(patterns, np.full(2, 99))
        with pytest.raises(ValueError, match="gamma"):
            ProcessShardPool(router.shards).set_gamma(-1)

    def test_stop_is_idempotent_and_safe_before_start(self):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        pool = ProcessShardPool(router.shards, num_workers=2)
        pool.stop()  # never started: no-op, nothing to tear down
        pool.start()
        patterns, classes = _queries(n=40, extra_classes=0)
        np.testing.assert_array_equal(
            pool.check(patterns, classes), monitor.check(patterns, classes)
        )
        pids = pool.worker_pids()
        pool.stop()
        pool.stop()  # second stop: no-op, no double-unlink/double-join
        for pid in pids:
            deadline = time.monotonic() + 30
            while True:
                try:
                    os.kill(pid, 0)
                except OSError:
                    break
                assert time.monotonic() < deadline, "worker outlived stop()"
                time.sleep(0.01)
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(patterns[:1], classes[:1])


# ----------------------------------------------------------------------
# StreamServer with executor="process"
# ----------------------------------------------------------------------
class TestProcessExecutorServer:
    @pytest.mark.parametrize("submit", ["bulk", "per_request"])
    def test_stream_parity_with_monolith(self, submit):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 3)
        patterns, classes = _queries(n=250)
        result = run_stream(
            router, patterns, classes,
            executor="process", workers=2, max_batch=32, submit=submit,
        )
        np.testing.assert_array_equal(
            result.verdicts, monitor.check(patterns, classes)
        )
        assert result.worker_stats
        routed = int(np.isin(classes, monitor.classes).sum())
        assert sum(row["requests"] for row in result.worker_stats) == routed
        # Process mode ships every batch across the pipe.
        assert sum(row["offloaded_batches"] for row in result.stats) == sum(
            row["batches"] for row in result.stats if row["shard"] >= 0
        )

    def test_detectors_fed_through_worker_fleet(self):
        from repro.monitor import DistanceShiftDetector, DistributionShiftDetector

        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(n=150)
        shift = DistributionShiftDetector(baseline_rate=0.05, window=50)
        distance = DistanceShiftDetector(
            monitor.min_distances(patterns, classes), window=50
        )
        result = run_stream(
            router, patterns, classes,
            executor="process", workers=2,
            shift_detector=shift, distance_detector=distance,
        )
        np.testing.assert_array_equal(
            result.verdicts, monitor.check(patterns, classes)
        )
        # Unmonitored-class rows feed the binary detector only; the
        # distance histogram must see served distances exclusively.
        routed = int(np.isin(classes, monitor.classes).sum())
        assert shift.peek().samples_seen == len(patterns)
        assert distance.peek().samples_seen == routed

    def test_env_override_and_knob_validation(self, monkeypatch):
        router = ShardRouter.partition(_build_monitor(), 2)
        monkeypatch.setenv("REPRO_SERVING_EXECUTOR", "process")
        assert StreamServer(router).executor_mode == "process"
        # Explicit knobs still beat the environment.
        assert StreamServer(router, executor_threads=0).executor_mode == "inline"
        assert StreamServer(router, executor_threads=2).executor_mode == "thread"
        assert StreamServer(router, executor="thread").executor_mode == "thread"
        monkeypatch.delenv("REPRO_SERVING_EXECUTOR")
        assert StreamServer(router).executor_mode == "thread"
        with pytest.raises(ValueError, match="executor"):
            StreamServer(router, executor="rocket")
        with pytest.raises(ValueError, match="workers"):
            StreamServer(router, executor="process", workers=0)
