"""The one worker loop, driven in-process.

:func:`repro.serving.fleet.serve_shards` is the only shard worker both
executors run — in a pool process behind a pipe, and behind a TCP
registration in the cluster.  Here it runs on a thread over
``multiprocessing.Pipe()``, with no subprocess, so every message of the
wire protocol is checked directly: answers against a brute-force
Hamming oracle, γ and zone resync, liveness pings, per-block failure
isolation, and the two ways the loop ends.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.monitor import NeuronActivationMonitor
from repro.monitor.patterns import pack_patterns
from repro.serving import ShardRouter
from repro.serving.fleet import serve_shards

WIDTH = 16
CLASSES = list(range(6))
EMPTY_CLASS = 5


def _training(seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((120, WIDTH)) < density).astype(np.uint8)
    labels = rng.integers(0, EMPTY_CLASS, len(patterns))  # class 5 stays empty
    return patterns, labels


def _payloads(patterns, labels, gamma=1):
    monitor = NeuronActivationMonitor(WIDTH, CLASSES, gamma=gamma, backend="bitset")
    monitor.record(patterns, labels, labels)
    router = ShardRouter.partition(monitor, 2)
    return [shard.to_payload() for shard in router.shards], router


def _oracle_distances(train, labels, queries, classes, cap=None):
    """Minimum Hamming distance to the class's visited patterns; an
    empty zone answers ``WIDTH + 1``; ``cap=k`` clips at ``k + 1``."""
    out = np.empty(len(queries), dtype=np.int64)
    for i, (row, c) in enumerate(zip(queries, classes)):
        zone = train[labels == c]
        out[i] = (zone != row).sum(axis=1).min() if len(zone) else WIDTH + 1
    return out if cap is None else np.minimum(out, cap + 1)


def _request(req_id, rows, classes, mode="check", cap=None):
    return ("req", req_id, mode, pack_patterns(rows),
            len(rows), rows.shape[1], classes, cap)


class _Loop:
    """``serve_shards`` on a thread; ``conn`` is the coordinator end."""

    def __init__(self):
        self.conn, child = multiprocessing.Pipe()
        self.result = None
        self.thread = threading.Thread(target=self._run, args=(child,), daemon=True)
        self.thread.start()

    def _run(self, child):
        try:
            self.result = serve_shards(child)
        finally:
            child.close()

    def ask(self, message):
        self.conn.send(message)
        assert self.conn.poll(30), "worker loop never answered"
        return self.conn.recv()

    def join(self):
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()
        return self.result


@pytest.fixture
def setup():
    train, labels = _training()
    payloads, router = _payloads(train, labels)
    loop = _Loop()
    try:
        yield loop, payloads, router, train, labels
    finally:
        loop.conn.close()
        loop.join()


def _owned_queries(shard, n=40, seed=3):
    rng = np.random.default_rng(seed)
    rows = (rng.random((n, WIDTH)) < 0.4).astype(np.uint8)
    owned = [c for c in shard.classes if c != EMPTY_CLASS]
    classes = rng.choice(owned, n).astype(np.int64)
    return rows, classes


class TestWorkerLoop:
    def test_init_then_all_modes_match_the_oracle(self, setup):
        loop, payloads, router, train, labels = setup
        assert loop.ask(("init", payloads, None, None)) == ("ready", len(payloads))
        for req_id, shard in enumerate(router.shards):
            rows, classes = _owned_queries(shard, seed=req_id)
            exact = _oracle_distances(train, labels, rows, classes)

            kind, rid, (verdicts, distances) = loop.ask(
                _request(10 * req_id, rows, classes, "check")
            )
            assert (kind, rid, distances) == ("ok", 10 * req_id, None)
            np.testing.assert_array_equal(verdicts, exact <= 1)

            kind, _, (verdicts, distances) = loop.ask(
                _request(10 * req_id + 1, rows, classes, "both", cap=2)
            )
            np.testing.assert_array_equal(verdicts, exact <= 1)
            np.testing.assert_array_equal(distances, np.minimum(exact, 3))

            kind, _, (verdicts, distances) = loop.ask(
                _request(10 * req_id + 2, rows, classes, "dist")
            )
            assert verdicts is None
            np.testing.assert_array_equal(distances, exact)

            _, _, (_, capped) = loop.ask(
                _request(10 * req_id + 3, rows, classes, "dist", cap=0)
            )
            np.testing.assert_array_equal(capped, np.minimum(exact, 1))

    def test_empty_zone_answers_the_sentinel(self, setup):
        loop, payloads, router, train, labels = setup
        loop.ask(("init", payloads, None, None))
        shard = next(s for s in router.shards if EMPTY_CLASS in s.classes)
        rows, _ = _owned_queries(shard, n=5)
        classes = np.full(5, EMPTY_CLASS, dtype=np.int64)
        _, _, (verdicts, distances) = loop.ask(
            _request(1, rows, classes, "both")
        )
        assert not verdicts.any()
        np.testing.assert_array_equal(distances, np.full(5, WIDTH + 1))

    def test_init_gamma_and_gamma_resync(self, setup):
        loop, payloads, router, train, labels = setup
        shard = router.shards[0]
        rows, classes = _owned_queries(shard)
        exact = _oracle_distances(train, labels, rows, classes)
        loop.ask(("init", payloads, 0, None))  # γ travels in the handshake
        _, _, (verdicts, _) = loop.ask(_request(1, rows, classes))
        np.testing.assert_array_equal(verdicts, exact <= 0)
        assert loop.ask(("gamma", 3, 77)) == ("gamma_ok", 77)
        _, _, (verdicts, _) = loop.ask(_request(2, rows, classes))
        np.testing.assert_array_equal(verdicts, exact <= 3)

    def test_zone_resync_replaces_the_shard_map(self, setup):
        loop, payloads, router, train, labels = setup
        loop.ask(("init", payloads, None, None))
        new_train, new_labels = _training(seed=9, density=0.7)
        new_payloads, new_router = _payloads(new_train, new_labels)
        shard = new_router.shards[1]
        assert loop.ask(("zone", new_payloads[1:], 2, 5)) == ("zone_ok", 5)
        rows, classes = _owned_queries(shard)
        _, _, (verdicts, distances) = loop.ask(_request(1, rows, classes, "both"))
        exact = _oracle_distances(new_train, new_labels, rows, classes)
        np.testing.assert_array_equal(distances, exact)
        np.testing.assert_array_equal(verdicts, exact <= 2)
        # The zone frame carried one shard: the other one is gone, so a
        # row of its classes fails the block instead of passing as
        # unmonitored.
        gone_rows, gone_classes = _owned_queries(new_router.shards[0])
        kind, _, error = loop.ask(_request(2, gone_rows, gone_classes))
        assert kind == "err" and isinstance(error, KeyError)

    def test_init_replaces_the_shard_map(self, setup):
        loop, payloads, router, _train, _labels = setup
        loop.ask(("init", payloads, None, None))
        assert loop.ask(("init", payloads[:1], None, None)) == ("ready", 1)
        rows, classes = _owned_queries(router.shards[1])
        kind, _, error = loop.ask(_request(1, rows, classes))
        assert kind == "err" and isinstance(error, KeyError)

    def test_ping(self, setup):
        loop, *_ = setup
        assert loop.ask(("ping", 12.5)) == ("pong", 12.5)

    def test_bad_block_fails_only_its_own_reply(self, setup):
        loop, payloads, router, train, labels = setup
        loop.ask(("init", payloads, None, None))
        shard = router.shards[0]
        rows, classes = _owned_queries(shard)
        wrong_width = np.zeros((4, WIDTH + 8), dtype=np.uint8)
        kind, rid, error = loop.ask(_request(1, wrong_width, classes[:4]))
        assert (kind, rid) == ("err", 1) and isinstance(error, ValueError)
        kind, rid, error = loop.ask(
            _request(2, rows, classes, mode="nonsense")
        )
        assert (kind, rid) == ("err", 2) and "nonsense" in str(error)
        kind, rid, (verdicts, _) = loop.ask(_request(3, rows, classes))
        assert (kind, rid) == ("ok", 3)
        exact = _oracle_distances(train, labels, rows, classes)
        np.testing.assert_array_equal(verdicts, exact <= 1)

    def test_unpicklable_exception_degrades_to_runtime_error(
        self, setup, monkeypatch
    ):
        class Unpicklable(Exception):
            def __init__(self):
                super().__init__("holds a lock")
                self.lock = threading.Lock()

        def explode(self, patterns, classes):
            raise Unpicklable()

        loop, payloads, router, _train, _labels = setup
        loop.ask(("init", payloads, None, None))
        monkeypatch.setattr(NeuronActivationMonitor, "check", explode)
        rows, classes = _owned_queries(router.shards[0])
        kind, rid, error = loop.ask(_request(4, rows, classes))
        assert (kind, rid) == ("err", 4)
        assert type(error) is RuntimeError
        assert "Unpicklable" in str(error) and "holds a lock" in str(error)

    def test_stop_returns_true(self, setup):
        loop, *_ = setup
        assert loop.ask(("stop",)) == ("bye",)
        assert loop.join() is True

    def test_eof_returns_false(self, setup):
        loop, *_ = setup
        loop.conn.close()
        assert loop.join() is False
