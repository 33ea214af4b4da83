"""Cross-host serving suite: the TCP cluster must be invisible.

Moving the worker fleet from ``multiprocessing`` pipes to sockets may
never change an answer.  The equivalence half drives query streams
through a live :class:`ClusterCoordinator` fleet and asserts
bit-identical verdicts and distances against the in-process
``ShardRouter`` — including the routing edges (empty zones, unmonitored
classes) and a byte-hostile transport (a fake worker that replies one
byte at a time).  The fault half proves the reconnect-else-re-place
story: SIGKILL mid-block with respawn + requeue, a dropped connection
healed by the worker redialling under the same name, replica re-placement
onto survivors when the respawn budget is gone, and the γ / zone-epoch
resync handshakes over TCP.  The frame codec gets its own unit tests:
the length prefix must reassemble frames from arbitrary fragmentation
and tell a clean close from a torn one.
"""

import asyncio
import os
import pickle
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.monitor import NeuronActivationMonitor, ZoneSnapshot, partition_payloads
from repro.serving import (
    ClusterCoordinator,
    ShardRouter,
    StreamServer,
    WorkerCrashError,
    run_stream,
)
from repro.serving import netproto
from repro.serving import cluster as cluster_mod
from repro.serving.cluster import parse_address, run_worker
from repro.serving.fleet import serve_shards

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


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
class TestNetproto:
    def test_frame_layout_is_length_prefixed_pickle(self):
        message = ("ok", 7, ([True, False], None))
        frame = netproto.encode_frame(message)
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - netproto.HEADER_BYTES
        assert pickle.loads(frame[4:]) == message
        assert netproto.decode_length(frame[:4]) == length

    def test_oversized_length_prefix_is_rejected(self):
        header = (netproto.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(netproto.ProtocolError, match="ceiling"):
            netproto.decode_length(header)

    def test_write_frame_rejects_oversized_payload_before_sending(
        self, monkeypatch
    ):
        # The ceiling is enforced on the *write* side too: an oversized
        # message raises before a single byte reaches the stream, so the
        # peer never sees a torn or half-framed write.
        monkeypatch.setattr(netproto, "MAX_FRAME_BYTES", 64)
        written = []

        class _Socket:
            def sendall(self, data):
                written.append(data)

        with pytest.raises(netproto.ProtocolError, match="ceiling"):
            netproto.FrameConnection(_Socket()).send(("req", b"\x00" * 4096))
        assert written == []

    def test_blocking_send_rejects_oversized_payload_before_sending(
        self, monkeypatch
    ):
        monkeypatch.setattr(netproto, "MAX_FRAME_BYTES", 64)
        left, right = socket.socketpair()
        a, b = netproto.FrameConnection(left), netproto.FrameConnection(right)
        try:
            with pytest.raises(netproto.ProtocolError, match="ceiling"):
                a.send(("req", b"\x00" * 4096))
            # The connection is still clean: the peer saw zero bytes, so
            # a well-sized frame round-trips afterwards.
            a.send(("ping", 1))
            assert b.recv() == ("ping", 1)
        finally:
            a.close()
            b.close()

    def test_payload_exactly_at_the_ceiling_is_allowed(self, monkeypatch):
        message = ("x", 1)
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.setattr(netproto, "MAX_FRAME_BYTES", len(payload))
        frame = netproto.encode_frame(message)  # == ceiling: not over it
        assert netproto.decode_length(frame[:4]) == len(payload)
        with pytest.raises(netproto.ProtocolError, match="ceiling"):
            netproto.encode_frame(("x", "one byte longer"))

    def test_recv_reassembles_one_byte_fragments(self):
        left, right = socket.socketpair()
        reader = netproto.FrameConnection(right)
        frame = netproto.encode_frame(("ping", 123))

        def dribble():
            for i in range(len(frame)):
                left.sendall(frame[i : i + 1])
                time.sleep(0.001)

        writer = threading.Thread(target=dribble)
        writer.start()
        try:
            assert reader.recv() == ("ping", 123)
        finally:
            writer.join(timeout=30)
            left.close()
            reader.close()

    def test_eof_between_frames_is_a_clean_close(self):
        left, right = socket.socketpair()
        reader = netproto.FrameConnection(right)
        try:
            left.sendall(netproto.encode_frame(("pong", 1)))
            left.close()
            assert reader.recv() == ("pong", 1)
            with pytest.raises(netproto.ConnectionClosed):
                reader.recv()
        finally:
            left.close()
            reader.close()

    def test_eof_inside_a_frame_is_a_protocol_error(self):
        def truncated(cut):
            left, right = socket.socketpair()
            reader = netproto.FrameConnection(right)
            try:
                left.sendall(
                    netproto.encode_frame(("req", list(range(64))))[:cut]
                )
                left.close()
                reader.recv()
            finally:
                left.close()
                reader.close()

        with pytest.raises(netproto.ProtocolError, match="header"):
            truncated(2)  # torn inside the length prefix
        with pytest.raises(netproto.ProtocolError, match="payload"):
            truncated(10)  # torn inside the payload
        # ConnectionClosed subclasses ProtocolError: one except arm
        # handles both on the read loops.
        assert issubclass(netproto.ConnectionClosed, netproto.ProtocolError)

    def test_blocking_connection_round_trips(self):
        left, right = socket.socketpair()
        a, b = netproto.FrameConnection(left), netproto.FrameConnection(right)
        try:
            payload = ("req", 0, 1, "check", b"\x00" * 10_000, 5, WIDTH,
                       np.arange(5), None)
            a.send(payload)
            got = b.recv()
            assert got[:4] == payload[:4] and got[4] == payload[4]
            b.send(("bye",))
            assert a.recv() == ("bye",)
            a.close()
            with pytest.raises(netproto.ConnectionClosed):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7410") == ("10.0.0.5", 7410)
        assert parse_address(("localhost", 9)) == ("localhost", 9)
        with pytest.raises(ValueError):
            parse_address("7410")


# ----------------------------------------------------------------------
# cross-host equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet():
    """One live self-hosted cluster shared across the equivalence tests.

    The router is partitioned from a *separate* monitor build, so the
    cluster answers only agree if payload rehydration over TCP is
    genuinely faithful.
    """
    router = ShardRouter.partition(_build_monitor(), 3)
    with ClusterCoordinator(router.shards, workers=2, ready_timeout=60) as cluster:
        yield cluster, ShardRouter.partition(_build_monitor(), 3)


class TestEquivalence:
    def test_verdicts_bit_identical_to_router(self, fleet):
        cluster, router = fleet
        patterns, classes = _queries()
        np.testing.assert_array_equal(
            cluster.check(patterns, classes), router.check(patterns, classes)
        )

    def test_min_distances_bit_identical_to_router(self, fleet):
        cluster, router = fleet
        patterns, classes = _queries(seed=2)
        np.testing.assert_array_equal(
            cluster.min_distances(patterns, classes),
            router.min_distances(patterns, classes),
        )

    def test_capped_distances_match(self, fleet):
        cluster, router = fleet
        patterns, classes = _queries(seed=3)
        np.testing.assert_array_equal(
            cluster.min_distances(patterns, classes, cap=2),
            router.min_distances(patterns, classes, cap=2),
        )

    def test_unmonitored_and_empty_classes_route_like_the_router(self, fleet):
        cluster, router = fleet
        patterns, _ = _queries(n=40)
        # Every row lands on the empty zone or an unmonitored class.
        classes = np.where(np.arange(40) % 2 == 0, EMPTY_CLASS, len(CLASSES))
        np.testing.assert_array_equal(
            cluster.check(patterns, classes), router.check(patterns, classes)
        )
        assert cluster.owns(EMPTY_CLASS) and not cluster.owns(len(CLASSES))

    def test_bad_block_fails_its_own_future_only(self, fleet):
        cluster, _ = fleet
        wrong_width = np.zeros((4, WIDTH + 8), dtype=np.uint8)
        future = cluster.submit(wrong_width, np.zeros(4, dtype=np.int64))
        with pytest.raises(Exception):
            future.result(timeout=30)
        patterns, classes = _queries(n=20)
        assert len(cluster.check(patterns, classes)) == 20  # fleet still up

    def test_unmonitored_rows_never_reach_a_worker(self, fleet):
        """Rows no shard monitors are answered at submit — trusted, at
        distance 0 — without a block on the wire."""
        cluster, _ = fleet
        patterns, _ = _queries(n=3)
        unmonitored = np.full(3, len(CLASSES) + 1)
        batches = sum(row["batches"] for row in cluster.stats())
        future = cluster.submit(patterns, unmonitored, with_distances=True)
        assert future.done()
        verdicts, distances = future.result()
        assert verdicts.all() and not distances.any()
        assert sum(row["batches"] for row in cluster.stats()) == batches

    def test_stats_rows_cover_the_cli_table(self, fleet):
        cluster, _ = fleet
        patterns, classes = _queries(n=50)
        cluster.check(patterns, classes)
        rows = cluster.stats()
        assert len(rows) == 2
        for row in rows:
            for key in ("worker", "pid", "requests", "batches", "mean_batch",
                        "respawns", "requeued_blocks", "p50_ms", "p99_ms"):
                assert key in row
            assert row["transport"] == "tcp"


# ----------------------------------------------------------------------
# fault injection: SIGKILL, dropped connection, reconnect, re-place
# ----------------------------------------------------------------------
class TestFaults:
    def test_sigkill_mid_block_respawns_and_requeues(self):
        router = ShardRouter.partition(_build_monitor(), 3)
        oracle = ShardRouter.partition(_build_monitor(), 3)
        patterns, classes = _queries(n=300)
        want = oracle.check(patterns, classes)
        with ClusterCoordinator(router.shards, workers=2,
                                ready_timeout=60) as cluster:
            stop = threading.Event()
            failures = []

            def traffic():
                while not stop.is_set():
                    try:
                        got = cluster.check(patterns, classes)
                    except Exception as exc:  # noqa: BLE001
                        failures.append(exc)
                        return
                    if not np.array_equal(got, want):
                        failures.append(AssertionError("verdict drift"))
                        return

            producer = threading.Thread(target=traffic)
            producer.start()
            try:
                for _ in range(3):
                    time.sleep(0.1)
                    pids = cluster.worker_pids()
                    if pids:
                        os.kill(pids[0], signal.SIGKILL)
            finally:
                stop.set()
                producer.join(timeout=120)
            assert not failures, failures[0]
            # The kills landed on live workers, so the respawn/requeue
            # machinery demonstrably ran; a respawn counts once the
            # replacement has re-registered.
            assert cluster.total_crashes >= 1
            deadline = time.monotonic() + 30
            while (
                cluster.total_respawns < 1
                or len(cluster.worker_pids()) < 2
            ):
                assert time.monotonic() < deadline, "respawn timed out"
                time.sleep(0.01)
            assert cluster.total_respawns >= 1
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)

    def test_dropped_connection_heals_bit_identically(self):
        router = ShardRouter.partition(_build_monitor(), 3)
        oracle = ShardRouter.partition(_build_monitor(), 3)
        patterns, classes = _queries(n=200)
        want = oracle.check(patterns, classes)
        with ClusterCoordinator(router.shards, workers=2,
                                ready_timeout=60) as cluster:
            name = cluster.worker_names()[0]
            assert cluster.drop_connection(name)
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            assert cluster.total_crashes >= 1
            deadline = time.monotonic() + 30
            while name not in cluster.worker_names():
                assert time.monotonic() < deadline, "worker never came back"
                time.sleep(0.01)
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            assert cluster.total_respawns >= 1

    def test_external_worker_reconnects_under_its_name(self):
        router = ShardRouter.partition(_build_monitor(), 3)
        oracle = ShardRouter.partition(_build_monitor(), 3)
        patterns, classes = _queries(n=120)
        want = oracle.check(patterns, classes)
        port = _free_port()
        cluster = ClusterCoordinator(
            router.shards, listen=f"127.0.0.1:{port}", workers=1,
            ready_timeout=60, reconnect_grace=30,
        )
        # The worker thread redials until the coordinator is listening,
        # and again after every dropped connection (same name, so the
        # re-registration reclaims its shard placement).
        worker = threading.Thread(
            target=run_worker,
            args=((f"127.0.0.1:{port}"),),
            kwargs=dict(name="ext-a", reconnect_attempts=50,
                        reconnect_backoff=0.1),
            daemon=True,
        )
        worker.start()
        try:
            cluster.start()
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            assert cluster.worker_names() == ["ext-a"]
            assert cluster.drop_connection("ext-a")
            # The same external worker dials back in and re-registers.
            deadline = time.monotonic() + 30
            while "ext-a" not in cluster.worker_names():
                assert time.monotonic() < deadline, "worker never reconnected"
                time.sleep(0.05)
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            assert cluster.total_requeued == 0  # drop landed between blocks
            assert cluster.total_crashes == 1
            assert cluster.total_respawns == 1  # the reconnect replaced it
        finally:
            cluster.stop()
            worker.join(timeout=30)
            assert not worker.is_alive()

    def test_respawn_counted_only_once_the_name_reregisters(self):
        """A dropped self-spawned worker is a crash at once but a
        respawn only after its replacement has registered.  Deferring
        the replacement's launch holds that window open for as long as
        the test needs it, independent of scheduling."""
        router = ShardRouter.partition(_build_monitor(), 3)
        oracle = ShardRouter.partition(_build_monitor(), 3)
        patterns, classes = _queries(n=120)
        want = oracle.check(patterns, classes)
        with ClusterCoordinator(router.shards, workers=2,
                                ready_timeout=60) as cluster:
            spawn = cluster._replace
            deferred = []
            cluster._replace = deferred.append
            name = cluster.worker_names()[0]
            assert cluster.drop_connection(name)
            assert deferred == [name]
            assert cluster.total_crashes == 1
            assert cluster.total_respawns == 0
            assert len(cluster.worker_pids()) == 1
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            row = {r["worker"]: r for r in cluster.stats()}[name]
            assert (row["crashes"], row["respawns"]) == (1, 0)

            cluster._replace = spawn
            spawn(name)
            deadline = time.monotonic() + 30
            while name not in cluster.worker_names():
                assert time.monotonic() < deadline, "worker never came back"
                time.sleep(0.01)
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            assert cluster.total_crashes == 1
            assert cluster.total_respawns == 1
            assert len(cluster.worker_pids()) == 2

    def test_shards_replaced_on_survivors_when_budget_exhausted(self):
        router = ShardRouter.partition(_build_monitor(), 3)
        oracle = ShardRouter.partition(_build_monitor(), 3)
        patterns, classes = _queries(n=150)
        want = oracle.check(patterns, classes)
        with ClusterCoordinator(router.shards, workers=2, replicas=1,
                                max_respawns=0, ready_timeout=60) as cluster:
            shard_counts = sorted(
                len(w.shard_ids)
                for w in cluster._workers.values()
            )
            assert sum(shard_counts) == 3  # replicas=1: disjoint placement
            os.kill(cluster.worker_pids()[0], signal.SIGKILL)
            # No respawn budget: the dead worker's shards must re-place
            # onto the survivor for these blocks to ever resolve.
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            survivor_shards = [
                len(w.shard_ids)
                for w in cluster._workers.values()
                if not w.dead
            ]
            assert survivor_shards == [3]

    def test_all_budgets_exhausted_raises_worker_crash(self):
        router = ShardRouter.partition(_build_monitor(), 2)
        patterns, classes = _queries(n=40)
        with ClusterCoordinator(router.shards, workers=1, max_respawns=0,
                                ready_timeout=5) as cluster:
            os.kill(cluster.worker_pids()[0], signal.SIGKILL)
            with pytest.raises((WorkerCrashError, RuntimeError)):
                cluster.check(patterns, classes)

    def test_slow_partial_frame_worker_still_bit_identical(self):
        """A byte-hostile but protocol-correct worker: every reply frame
        arrives one byte at a time.  The coordinator's reader must
        reassemble the dribble and the verdicts must not change."""
        router = ShardRouter.partition(_build_monitor(), 2)
        oracle = ShardRouter.partition(_build_monitor(), 2)
        patterns, classes = _queries(n=60)
        want = oracle.check(patterns, classes)
        port = _free_port()

        def dribbling_worker():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    sock = socket.create_connection(("127.0.0.1", port))
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                return

            class DribblingConnection(netproto.FrameConnection):
                def send(self, message):
                    frame = netproto.encode_frame(message)
                    for i in range(len(frame)):
                        sock.sendall(frame[i : i + 1])

            # The real worker loop, every reply dribbled out byte-wise.
            conn = DribblingConnection(sock)
            conn.send(("register", "dribbler", os.getpid()))
            try:
                serve_shards(conn)
            finally:
                conn.close()

        thread = threading.Thread(target=dribbling_worker, daemon=True)
        thread.start()
        cluster = ClusterCoordinator(
            router.shards, listen=f"127.0.0.1:{port}", workers=1,
            ready_timeout=60,
        )
        try:
            cluster.start()
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            np.testing.assert_array_equal(
                cluster.min_distances(patterns, classes),
                oracle.min_distances(patterns, classes),
            )
        finally:
            cluster.stop()
            thread.join(timeout=30)


# ----------------------------------------------------------------------
# control plane: γ broadcast, zone-epoch swap
# ----------------------------------------------------------------------
class TestControlPlane:
    def test_gamma_broadcast_matches_rebuilt_oracle(self):
        router = ShardRouter.partition(_build_monitor(gamma=1), 3)
        patterns, classes = _queries()
        with ClusterCoordinator(router.shards, workers=2,
                                ready_timeout=60) as cluster:
            cluster.set_gamma(3)
            oracle = ShardRouter.partition(_build_monitor(gamma=3), 3)
            np.testing.assert_array_equal(
                cluster.check(patterns, classes),
                oracle.check(patterns, classes),
            )

    def test_zone_swap_is_fleet_atomic_and_observable(self):
        old = _build_monitor(gamma=0)
        router = ShardRouter.partition(old, 3)
        layout = [(s.shard_id, list(s.classes)) for s in router.shards]
        rng = np.random.default_rng(11)
        patterns = (rng.random((150, WIDTH)) < 0.6).astype(np.uint8)
        classes = rng.integers(0, len(CLASSES), 150)
        new = NeuronActivationMonitor.merge([old])
        new.record(patterns, classes, classes)
        snapshot = ZoneSnapshot(
            epoch=1, gamma=new.gamma,
            payloads=tuple(partition_payloads(new, layout)),
        )
        with ClusterCoordinator(router.shards, workers=2,
                                ready_timeout=60) as cluster:
            before = cluster.check(patterns, classes)
            np.testing.assert_array_equal(before, old.check(patterns, classes))
            assert not before.all()  # the swap must be observable
            cluster.apply_snapshot(snapshot)
            assert cluster.epoch == 1
            assert cluster.total_swaps == 1
            after = cluster.check(patterns, classes)
            np.testing.assert_array_equal(after, new.check(patterns, classes))
            assert after.all()
            with pytest.raises(ValueError, match="not newer"):
                cluster.apply_snapshot(snapshot)

    def test_respawned_worker_rehydrates_at_current_epoch(self):
        old = _build_monitor(gamma=0)
        router = ShardRouter.partition(old, 3)
        layout = [(s.shard_id, list(s.classes)) for s in router.shards]
        rng = np.random.default_rng(13)
        patterns = (rng.random((100, WIDTH)) < 0.6).astype(np.uint8)
        classes = rng.integers(0, len(CLASSES), 100)
        new = NeuronActivationMonitor.merge([old])
        new.record(patterns, classes, classes)
        snapshot = ZoneSnapshot(
            epoch=1, gamma=new.gamma,
            payloads=tuple(partition_payloads(new, layout)),
        )
        with ClusterCoordinator(router.shards, workers=2,
                                ready_timeout=60) as cluster:
            cluster.apply_snapshot(snapshot)
            os.kill(cluster.worker_pids()[0], signal.SIGKILL)
            # The respawned worker registers against the *installed*
            # payload set — answers must be post-swap everywhere.
            np.testing.assert_array_equal(
                cluster.check(patterns, classes), new.check(patterns, classes)
            )


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_stop_is_idempotent_and_safe_before_start(self):
        router = ShardRouter.partition(_build_monitor(), 2)
        cluster = ClusterCoordinator(router.shards, workers=1)
        cluster.stop()  # never started: no-op
        cluster.start()
        pids = cluster.worker_pids()
        cluster.stop()
        cluster.stop()  # second stop: no-op
        deadline = time.monotonic() + 30
        while any(_pid_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, "worker outlived stop()"
            time.sleep(0.05)
        with pytest.raises(RuntimeError, match="not running"):
            cluster.submit(np.zeros((1, WIDTH), np.uint8), np.zeros(1, dtype=np.int64))

    def test_restart_after_stop(self):
        router = ShardRouter.partition(_build_monitor(), 2)
        patterns, classes = _queries(n=40)
        oracle = ShardRouter.partition(_build_monitor(), 2)
        want = oracle.check(patterns, classes)
        cluster = ClusterCoordinator(router.shards, workers=1, ready_timeout=60)
        for _ in range(2):
            cluster.start()
            np.testing.assert_array_equal(cluster.check(patterns, classes), want)
            cluster.stop()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


# ----------------------------------------------------------------------
# heartbeat configuration and the silence boundary
# ----------------------------------------------------------------------
class TestHeartbeatConfig:
    def test_defaults_are_one_and_fifteen_seconds(self, monkeypatch):
        monkeypatch.delenv(cluster_mod.ENV_HEARTBEAT_INTERVAL, raising=False)
        monkeypatch.delenv(cluster_mod.ENV_HEARTBEAT_TIMEOUT, raising=False)
        router = ShardRouter.partition(_build_monitor(), 2)
        cluster = ClusterCoordinator(router.shards)
        assert cluster.heartbeat_interval == 1.0
        assert cluster.heartbeat_timeout == 15.0

    def test_environment_overrides_the_default(self, monkeypatch):
        monkeypatch.setenv(cluster_mod.ENV_HEARTBEAT_INTERVAL, "0.25")
        monkeypatch.setenv(cluster_mod.ENV_HEARTBEAT_TIMEOUT, "40")
        router = ShardRouter.partition(_build_monitor(), 2)
        cluster = ClusterCoordinator(router.shards)
        assert cluster.heartbeat_interval == 0.25
        assert cluster.heartbeat_timeout == 40.0

    def test_constructor_argument_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv(cluster_mod.ENV_HEARTBEAT_TIMEOUT, "99")
        router = ShardRouter.partition(_build_monitor(), 2)
        cluster = ClusterCoordinator(router.shards, heartbeat_timeout=3.5)
        assert cluster.heartbeat_timeout == 3.5

    @pytest.mark.parametrize("bad", ["soon", "-3", "0"])
    def test_bad_environment_value_is_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(cluster_mod.ENV_HEARTBEAT_TIMEOUT, bad)
        router = ShardRouter.partition(_build_monitor(), 2)
        with pytest.raises(ValueError, match="REPRO_CLUSTER_HEARTBEAT_TIMEOUT"):
            ClusterCoordinator(router.shards)

    def test_slow_but_alive_worker_survives_the_silence_boundary(self):
        """Regression: a worker whose silence stays under the configured
        threshold is never declared dead — the sweep only drops
        connections *past* ``heartbeat_timeout``, so slow-but-alive
        workers (mid-batch, answering pings only between blocks) keep
        their placement."""
        router = ShardRouter.partition(_build_monitor(), 2)
        cluster = ClusterCoordinator(
            router.shards,
            listen="127.0.0.1:0",
            workers=1,
            heartbeat_interval=0.05,
            heartbeat_timeout=1.5,
            ready_timeout=15,
        )
        starter = threading.Thread(target=cluster.start)
        starter.start()
        conn = None
        try:
            deadline = time.monotonic() + 15
            while cluster._address is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cluster._address is not None, "listener never bound"
            sock = socket.create_connection(cluster._address)
            conn = netproto.FrameConnection(sock)
            conn.send(("register", "sluggish", os.getpid()))
            msg = conn.recv()
            assert msg[0] == "init"
            conn.send(("ready", len(msg[1])))
            starter.join(timeout=15)
            assert "sluggish" in cluster.worker_names()
            # Silent for most of the threshold — many missed ping rounds,
            # but never *past* heartbeat_timeout.
            time.sleep(0.9)
            assert "sluggish" in cluster.worker_names(), (
                "worker declared dead before the silence threshold"
            )
            # One inbound frame is liveness: answer a queued ping.
            ping = conn.recv()
            assert ping[0] == "ping"
            conn.send(("pong", ping[1]))
            time.sleep(0.2)
            assert "sluggish" in cluster.worker_names()
            # Now actually exceed the threshold: total silence until the
            # sweep declares the connection dead.
            deadline = time.monotonic() + 15
            while ("sluggish" in cluster.worker_names()
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert "sluggish" not in cluster.worker_names(), (
                "worker silent past heartbeat_timeout was never dropped"
            )
        finally:
            if conn is not None:
                conn.close()
            cluster.stop()
            starter.join(timeout=15)


# ----------------------------------------------------------------------
# StreamServer integration
# ----------------------------------------------------------------------
class TestStreamServerCluster:
    def test_executor_cluster_end_to_end(self):
        router = ShardRouter.partition(_build_monitor(), 3)
        oracle = ShardRouter.partition(_build_monitor(), 3)
        patterns, classes = _queries(n=150)
        want = oracle.check(patterns, classes)

        async def scenario():
            server = StreamServer(router, executor="cluster", workers=2)
            async with server:
                verdicts = await server.check_many(patterns, classes)
                singles = await asyncio.gather(
                    *(server.check(patterns[i], classes[i]) for i in range(25))
                )
                stats = server.worker_stats()
            return verdicts, singles, stats

        verdicts, singles, stats = asyncio.run(scenario())
        np.testing.assert_array_equal(verdicts, want)
        np.testing.assert_array_equal(np.asarray(singles), want[:25])
        assert stats and all(row["transport"] == "tcp" for row in stats)

    def test_run_stream_cluster_executor(self):
        router = ShardRouter.partition(_build_monitor(), 3)
        oracle = ShardRouter.partition(_build_monitor(), 3)
        patterns, classes = _queries(n=120)
        result = run_stream(
            router, patterns, classes, executor="cluster", workers=2
        )
        np.testing.assert_array_equal(
            result.verdicts, oracle.check(patterns, classes)
        )
        assert result.worker_stats
        assert all(row["transport"] == "tcp" for row in result.worker_stats)

    def test_invalid_executor_still_rejected(self):
        router = ShardRouter.partition(_build_monitor(), 2)
        with pytest.raises(ValueError, match="executor"):
            StreamServer(router, executor="rocket")
        with pytest.raises(ValueError, match="workers"):
            StreamServer(router, executor="cluster", workers=0)
