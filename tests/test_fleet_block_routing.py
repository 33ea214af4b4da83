"""One fleet request per caller block.

A caller block's rows may span every shard.  The fleet sends it as one
request to a worker holding all of those shards, and the worker routes
the rows by class among its own shards (``ShardRouter.check_batch``).
Only when no single worker holds them all is the block split, one part
per holder set, and the parts' answers are joined into one future.
This suite pins the request counts of that contract and the answers it
must keep:

- a 64-row block over 4 shards through a 1-worker shm pool is one ring
  block and one server batch;
- on a cluster whose shards are split across two workers, a mixed block
  is exactly one block per holding worker;
- a SIGKILL with a multi-shard block in flight requeues it whole, and
  every row is answered once;
- a requeued block whose shards a re-place moved apart is re-split when
  it is dispatched again;
- ``ShardRouter.check_batch`` equals the per-shard loop it replaces,
  and the thread lanes sharing one check queue never query one shard's
  monitor at the same time.
"""

import asyncio
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import NeuronActivationMonitor
from repro.serving import ClusterCoordinator, ProcessShardPool, ShardRouter, StreamServer
from repro.serving.fleet import ShardFleet, WorkerHandle, serve_shards

WIDTH = 16
#: Monitored classes; EMPTY_CLASS has a zone but never receives patterns.
CLASSES = list(range(6))
EMPTY_CLASS = 5


def _build_monitor(gamma=1):
    rng = np.random.default_rng(0)
    patterns = (rng.random((200, WIDTH)) < 0.4).astype(np.uint8)
    labels = rng.integers(0, EMPTY_CLASS, len(patterns))  # class 5 stays empty
    monitor = NeuronActivationMonitor(WIDTH, CLASSES, gamma=gamma, backend="bitset")
    monitor.record(patterns, labels, labels)
    return monitor


def _mixed_block(n=64, seed=3, unmonitored=False):
    """``n`` rows whose classes cover every shard (and, optionally, a
    class no shard monitors)."""
    rng = np.random.default_rng(seed)
    patterns = (rng.random((n, WIDTH)) < 0.4).astype(np.uint8)
    classes = np.resize(np.arange(len(CLASSES) + (2 if unmonitored else 0)), n)
    rng.shuffle(classes)
    return patterns, classes.astype(np.int64)


def _per_shard_loop(router, patterns, classes, with_distances, cap):
    """The answer assembled the old way: one ``check_batch`` per shard."""
    verdicts = np.ones(len(patterns), dtype=bool)
    distances = np.zeros(len(patterns), dtype=np.int64)
    by_id = {shard.shard_id: shard for shard in router.shards}
    for shard_id, rows in router.route(classes).items():
        got, dist = by_id[shard_id].check_batch(
            patterns[rows], classes[rows], with_distances, cap
        )
        verdicts[rows] = got
        if with_distances:
            distances[rows] = dist
    return verdicts, (distances if with_distances else None)


def _batches_by_worker(fleet):
    return {row["worker"]: row["batches"] for row in fleet.stats()}


def test_block_over_four_shards_is_one_ring_block_and_one_batch():
    monitor = _build_monitor()
    router = ShardRouter.partition(monitor, 4)
    patterns, classes = _mixed_block()
    assert len(router.route(classes)) == 4

    async def _run():
        server = StreamServer(
            router, max_batch=64, max_delay_ms=0.0, executor="process",
            workers=1, pool_transport="shm",
        )
        async with server:
            verdicts = await server.check_many(patterns, classes)
            return verdicts, server.stats(), server.worker_stats()

    verdicts, stats, workers = asyncio.run(_run())
    np.testing.assert_array_equal(verdicts, monitor.check(patterns, classes))
    shard_rows = [row for row in stats if row["shard"] >= 0]
    assert sum(row["batches"] for row in shard_rows) == 1
    # Every shard still counts exactly the rows it served.
    counts = {sid: len(rows) for sid, rows in router.route(classes).items()}
    assert {row["shard"]: row["requests"] for row in shard_rows} == counts
    assert sum(row["ring_blocks"] for row in workers) == 1
    assert sum(row["pipe_blocks"] for row in workers) == 0


def test_split_placement_sends_one_block_per_holding_worker():
    router = ShardRouter.partition(_build_monitor(), 4)
    oracle = ShardRouter.partition(_build_monitor(), 4)
    patterns, classes = _mixed_block(unmonitored=True)
    with ClusterCoordinator(router.shards, workers=2, replicas=1,
                            ready_timeout=60) as cluster:
        placements = [w.shard_ids for w in cluster._workers.values()]
        assert sorted(len(p) for p in placements) == [2, 2]
        assert not set.intersection(*placements)  # shards split across workers
        before = _batches_by_worker(cluster)
        verdicts, distances = cluster.submit(
            patterns, classes, with_distances=True
        ).result(timeout=60)
        after = _batches_by_worker(cluster)
        assert {key: after[key] - before[key] for key in after} == {
            key: 1 for key in after
        }
        want_verdicts, want_distances = oracle.check_batch(
            patterns, classes, with_distances=True
        )
        np.testing.assert_array_equal(verdicts, want_verdicts)
        np.testing.assert_array_equal(distances, want_distances)
        np.testing.assert_array_equal(
            cluster.check(patterns, classes), oracle.check(patterns, classes)
        )


def test_sigkill_requeues_a_multi_shard_block_whole():
    """The one worker is stopped, handed a 4-shard block, then killed:
    the replacement answers the whole block once."""
    router = ShardRouter.partition(_build_monitor(), 4)
    oracle = ShardRouter.partition(_build_monitor(), 4)
    patterns, classes = _mixed_block()
    with ProcessShardPool(router.shards, num_workers=1, transport="shm") as pool:
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)
        future = pool.submit(patterns, classes, with_distances=True)
        assert not future.done()
        os.kill(victim, signal.SIGKILL)
        verdicts, distances = future.result(timeout=60)
        want_verdicts, want_distances = oracle.check_batch(
            patterns, classes, with_distances=True
        )
        np.testing.assert_array_equal(verdicts, want_verdicts)
        np.testing.assert_array_equal(distances, want_distances)
        assert pool.total_requeued == 1
        (row,) = pool.stats()
        assert (row["requests"], row["batches"]) == (len(patterns), 1)
        assert victim not in pool.worker_pids()


class _ThreadFleet(ShardFleet):
    """A fleet of in-process ``serve_shards`` threads with a fixed
    placement.  A ``"hole-*"`` worker takes blocks but never answers;
    closing its far end is its death, and it never comes back."""

    _self_hosted = False
    _transport = "thread"

    def __init__(self, shards, placement):
        super().__init__(shards, context=None, max_respawns=0, ready_timeout=30)
        self.placement = placement
        self.holes = {}
        self.loops = []

    def _launch(self):
        for key, shard_ids in self.placement.items():
            conn, far = multiprocessing.Pipe()
            handle = WorkerHandle(key, conn, pid=-1)
            handle.shard_ids = set(shard_ids)
            if key.startswith("hole"):
                self.holes[key] = far
            else:
                loop = threading.Thread(target=serve_shards, args=(far,), daemon=True)
                loop.start()
                self.loops.append(loop)
                conn.send(("init", self._payloads_for(handle), None, None))
                assert conn.recv()[0] == "ready"
            handle.pump = threading.Thread(target=self._pump, args=(handle,), daemon=True)
            handle.pump.start()
            self._pumps.append(handle.pump)
            self._publish(handle)

    def _replace(self, key):
        pass  # gone for good: its blocks go to the survivors

    def __len__(self):
        return len(self.placement)


def test_requeued_block_is_resplit_when_its_shards_moved_apart():
    router = ShardRouter.partition(_build_monitor(), 2)
    oracle = ShardRouter.partition(_build_monitor(), 2)
    patterns, classes = _mixed_block()
    fleet = _ThreadFleet(
        router.shards, {"a": {0}, "b": {1}, "hole-c": {0, 1}}
    )
    with fleet:
        # Only the hole holds both shards, so the whole block goes there.
        future = fleet.submit(patterns, classes, with_distances=True)
        assert not future.done()
        assert _batches_by_worker(fleet) == {"a": 0, "b": 0, "hole-c": 0}
        fleet.holes["hole-c"].close()  # the hole dies with the block in flight
        verdicts, distances = future.result(timeout=60)
        want_verdicts, want_distances = oracle.check_batch(
            patterns, classes, with_distances=True
        )
        np.testing.assert_array_equal(verdicts, want_verdicts)
        np.testing.assert_array_equal(distances, want_distances)
        assert fleet.total_requeued == 1
        # Re-split at dispatch: one part per surviving holder.
        assert _batches_by_worker(fleet) == {"a": 1, "b": 1, "hole-c": 0}
    for loop in fleet.loops:
        loop.join(timeout=30)
        assert not loop.is_alive()


@st.composite
def routed_case(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    rows = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=WIDTH, max_size=WIDTH),
        min_size=n, max_size=n,
    ))
    # 0..4 populated, 5 empty zone, 6..7 unmonitored.
    classes = draw(st.lists(st.integers(0, len(CLASSES) + 1), min_size=n, max_size=n))
    return (
        np.asarray(rows, dtype=np.uint8).reshape(n, WIDTH),
        np.asarray(classes, dtype=np.int64),
        draw(st.integers(0, 4)),
        draw(st.integers(1, 4)),
        draw(st.one_of(st.none(), st.integers(0, 6))),
    )


@settings(max_examples=60, deadline=None)
@given(case=routed_case())
def test_router_check_batch_equals_the_per_shard_loop(case):
    patterns, classes, gamma, num_shards, cap = case
    monitor = _build_monitor(gamma=gamma)
    router = ShardRouter.partition(monitor, num_shards)
    for with_distances in (False, True):
        verdicts, distances = router.check_batch(
            patterns, classes, with_distances, cap
        )
        want_verdicts, want_distances = _per_shard_loop(
            router, patterns, classes, with_distances, cap
        )
        np.testing.assert_array_equal(verdicts, want_verdicts)
        assert verdicts.dtype == bool and len(verdicts) == len(patterns)
        if with_distances:
            np.testing.assert_array_equal(distances, want_distances)
        else:
            assert distances is None
    np.testing.assert_array_equal(router.check(patterns, classes), monitor.check(patterns, classes))


def test_thread_lanes_never_query_one_monitor_at_once():
    """Four thread lanes drain one check queue, all rows on one shard: the
    router still runs one query per monitor at a time (a BDD zone is
    built lazily on its manager, so concurrent queries could corrupt it)."""
    monitor = _build_monitor()
    router = ShardRouter.partition(monitor, 1)
    shard_monitor = router.shards[0].monitor
    query = shard_monitor.check
    guard = threading.Lock()
    active = [0, 0]  # running, peak

    def check(patterns, classes):
        with guard:
            active[0] += 1
            active[1] = max(active[1], active[0])
        time.sleep(0.002)
        try:
            return query(patterns, classes)
        finally:
            with guard:
                active[0] -= 1

    shard_monitor.check = check
    patterns, classes = _mixed_block(n=256)

    async def _run():
        async with StreamServer(router, max_batch=16, max_delay_ms=0.0,
                                executor="thread", executor_threads=4) as server:
            return await asyncio.gather(*(
                server.check_many(patterns[k::4], classes[k::4]) for k in range(4)
            ))

    answers = asyncio.run(_run())
    for k, verdicts in enumerate(answers):
        np.testing.assert_array_equal(verdicts, monitor.check(patterns[k::4], classes[k::4]))
    assert active[1] == 1
