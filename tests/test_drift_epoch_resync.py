"""Fleet-atomic zone-epoch resync: the swap must be invisible, except
for the verdicts it exists to change.

``ProcessShardPool.apply_snapshot`` generalises the γ-resync handshake
to whole zones (drain → install → rehydrate → replay).  This suite
proves the protocol under fire, in the style of the cross-process
equivalence/fault suites:

* every block ever submitted resolves exactly once (zero lost, zero
  duplicated futures), even with a SIGKILL landing mid-swap;
* every block's verdicts are bit-identical to a *single-version* oracle
  monitor — either wholly pre-swap or wholly post-swap, never a mix;
* once ``apply_snapshot`` returns, every verdict matches the new oracle
  only (replayed blocks never observe a stale zone);
* a crash/respawn after the swap rehydrates at the *current* epoch.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.monitor import NeuronActivationMonitor, ZoneSnapshot, partition_payloads
from repro.serving import ProcessShardPool, ShardRouter

WIDTH = 16
CLASSES = list(range(6))


def _build_monitor(seed=0, gamma=0, indexed=False):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((200, WIDTH)) < 0.4).astype(np.uint8)
    labels = rng.integers(0, len(CLASSES), len(patterns))
    monitor = NeuronActivationMonitor(
        WIDTH, CLASSES, gamma=gamma, backend="bitset", indexed=indexed
    )
    monitor.record(patterns, labels, labels)
    return monitor


def _queries(n=240, seed=7):
    rng = np.random.default_rng(seed)
    # Drawn from a different density than the zones, so the old monitor
    # flags most rows and absorbing them flips verdicts — the swap is
    # *observable*, which is what makes the oracle assertions meaningful.
    patterns = (rng.random((n, WIDTH)) < 0.6).astype(np.uint8)
    classes = rng.integers(0, len(CLASSES), n)
    return patterns, classes


def _absorbed(old_monitor, patterns, classes):
    """The post-swap oracle: the old zones plus every query pattern."""
    new = NeuronActivationMonitor.merge([old_monitor])
    new.record(patterns, classes, classes)
    return new


def _snapshot(monitor, layout, epoch):
    return ZoneSnapshot(
        epoch=epoch,
        gamma=monitor.gamma,
        payloads=tuple(partition_payloads(monitor, layout)),
    )


def _layout(router):
    return [(s.shard_id, list(s.classes)) for s in router.shards]


@pytest.fixture()
def fleet():
    old = _build_monitor()
    router = ShardRouter.partition(old, 3)
    with ProcessShardPool(router.shards, num_workers=2) as pool:
        yield pool, router, old


class TestApplySnapshotBasics:
    def test_verdicts_flip_to_new_oracle(self, fleet):
        pool, router, old = fleet
        patterns, classes = _queries()
        new = _absorbed(old, patterns, classes)
        before = pool.check(patterns, classes)
        np.testing.assert_array_equal(before, old.check(patterns, classes))
        assert not before.all()  # the swap must be observable

        pool.apply_snapshot(_snapshot(new, _layout(router), epoch=1))
        assert pool.epoch == 1
        assert pool.total_swaps == 1
        after = pool.check(patterns, classes)
        np.testing.assert_array_equal(after, new.check(patterns, classes))
        assert after.all()
        # Distances re-measure against the new zones too.
        np.testing.assert_array_equal(
            pool.min_distances(patterns, classes),
            new.min_distances(patterns, classes),
        )
        # Every worker row reports the new epoch.
        assert all(row["epoch"] == 1 for row in pool.stats())

    def test_epoch_must_be_monotonic(self, fleet):
        pool, router, old = fleet
        snap = _snapshot(old, _layout(router), epoch=1)
        pool.apply_snapshot(snap)
        with pytest.raises(ValueError, match="not newer"):
            pool.apply_snapshot(snap)
        with pytest.raises(ValueError, match="not newer"):
            pool.apply_snapshot(_snapshot(old, _layout(router), epoch=0))

    def test_payloads_must_cover_the_fleet(self, fleet):
        pool, router, old = fleet
        partial = _layout(router)[:-1]
        with pytest.raises(ValueError, match="do not match"):
            pool.apply_snapshot(_snapshot(old, partial, epoch=1))
        assert pool.epoch == 0  # rejected snapshots change nothing

    def test_stopped_pool_rejects_swaps(self):
        old = _build_monitor()
        router = ShardRouter.partition(old, 2)
        pool = ProcessShardPool(router.shards, num_workers=2)
        snap = _snapshot(old, _layout(router), epoch=1)
        with pytest.raises(RuntimeError, match="not running"):
            pool.apply_snapshot(snap)


class TestRouterSnapshot:
    def test_router_swap_matches_oracle(self):
        old = _build_monitor()
        router = ShardRouter.partition(old, 3)
        patterns, classes = _queries()
        new = _absorbed(old, patterns, classes)
        router.apply_snapshot(_snapshot(new, _layout(router), epoch=1))
        assert router.epoch == 1
        np.testing.assert_array_equal(
            router.check(patterns, classes), new.check(patterns, classes)
        )
        with pytest.raises(ValueError, match="not newer"):
            router.apply_snapshot(_snapshot(new, _layout(router), epoch=1))

    def test_router_rejects_uncovered_shards(self):
        old = _build_monitor()
        router = ShardRouter.partition(old, 3)
        with pytest.raises(ValueError, match="do not match"):
            router.apply_snapshot(_snapshot(old, _layout(router)[:1], epoch=1))


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestEpochResyncFaults:
    @pytest.mark.parametrize("kill_delay", [0.0, 0.003, 0.015])
    def test_sigkill_mid_swap(self, kill_delay):
        """SIGKILL landing around the swap: no lost/duplicated futures,
        every block bit-identical to exactly one single-version oracle,
        and everything answered after the swap matches the new one."""
        old = _build_monitor()
        router = ShardRouter.partition(old, 3)
        patterns, classes = _queries(n=400)
        new = _absorbed(old, patterns, classes)
        old_expected = old.check(patterns, classes)
        new_expected = new.check(patterns, classes)
        snap = _snapshot(new, _layout(router), epoch=1)

        with ProcessShardPool(
            router.shards, num_workers=2, max_respawns=10
        ) as pool:
            submitted = []  # (row_indices, future)
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
            time.sleep(0.02)  # in-flight traffic before the swap

            killer = threading.Timer(
                kill_delay,
                lambda: os.kill(pool.worker_pids()[0], signal.SIGKILL),
            )
            killer.start()
            pool.apply_snapshot(snap)
            killer.join()
            assert pool.epoch == 1

            # Everything submitted strictly after the completed swap must
            # see the new zones only.
            post_swap = pool.check(patterns, classes)
            np.testing.assert_array_equal(post_swap, new_expected)

            stop_submitting.set()
            feeder.join(timeout=30)
            assert not feeder.is_alive()

            mixed = 0
            for piece, future in submitted:
                verdicts, _ = future.result(timeout=60)  # exactly once, no loss
                matches_old = np.array_equal(verdicts, old_expected[piece])
                matches_new = np.array_equal(verdicts, new_expected[piece])
                assert matches_old or matches_new, (
                    "block answered by a mixed-epoch fleet"
                )
                if matches_new and not matches_old:
                    mixed += 1
            # Row accounting still adds up across crash + swap: every
            # submitted row is counted exactly once.
            served = sum(row["requests"] for row in pool.stats())
            total_rows = sum(len(piece) for piece, _ in submitted) + len(patterns)
            assert served == total_rows

    def test_crash_respawn_rehydrates_at_current_epoch(self):
        """A worker killed *after* the swap must come back serving the
        new zones — the replacement inits from the installed payloads."""
        old = _build_monitor()
        router = ShardRouter.partition(old, 3)
        patterns, classes = _queries(n=200)
        new = _absorbed(old, patterns, classes)
        new_expected = new.check(patterns, classes)

        with ProcessShardPool(router.shards, num_workers=2) as pool:
            pool.apply_snapshot(_snapshot(new, _layout(router), epoch=1))
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.total_respawns < 1 or len(pool.worker_pids()) < 2:
                assert time.monotonic() < deadline, "respawn timed out"
                time.sleep(0.01)
            np.testing.assert_array_equal(
                pool.check(patterns, classes), new_expected
            )
            assert all(row["epoch"] == 1 for row in pool.stats())
            assert pool.total_respawns >= 1

    def test_back_to_back_swaps_with_traffic(self):
        """Several monotonic snapshots under continuous load: the fleet
        lands on the last epoch and serves its oracle exactly."""
        old = _build_monitor()
        router = ShardRouter.partition(old, 3)
        patterns, classes = _queries(n=150)
        oracles = [old]
        for step in range(3):
            grown = NeuronActivationMonitor.merge([oracles[-1]])
            grown.record(
                patterns[step::3], classes[step::3], classes[step::3]
            )
            oracles.append(grown)

        with ProcessShardPool(router.shards, num_workers=2) as pool:
            for epoch, oracle in enumerate(oracles[1:], start=1):
                pool.check(patterns, classes)  # keep traffic flowing
                pool.apply_snapshot(
                    _snapshot(oracle, _layout(router), epoch=epoch)
                )
                assert pool.epoch == epoch
            final = oracles[-1]
            np.testing.assert_array_equal(
                pool.check(patterns, classes),
                final.check(patterns, classes),
            )
            np.testing.assert_array_equal(
                pool.min_distances(patterns, classes),
                final.min_distances(patterns, classes),
            )
