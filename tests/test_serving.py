"""Tests for the sharded streaming serving layer (repro.serving).

The serving layer must be a pure wrapper: sharding, routing, queueing and
micro-batching may never change a verdict.  Every test therefore compares
against the synchronous monolithic monitor as ground truth.
"""

import asyncio

import numpy as np
import pytest

from repro.monitor import (
    DistanceShiftDetector,
    DistributionShiftDetector,
    NeuronActivationMonitor,
)
from repro.monitor.detection import DetectionMonitor
from repro.serving import (
    MonitorShard,
    ShardRouter,
    StreamServer,
    run_stream,
    shard_detection_monitor,
)


def _monitor(backend="bitset", num_classes=6, width=16, gamma=1, seed=0):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((40 * num_classes, width)) < 0.4).astype(np.uint8)
    labels = rng.integers(0, num_classes, len(patterns))
    monitor = NeuronActivationMonitor(
        width, range(num_classes), gamma=gamma, backend=backend
    )
    monitor.record(patterns, labels, labels)
    return monitor


def _queries(monitor, n=300, extra_classes=2, seed=1):
    rng = np.random.default_rng(seed)
    width = monitor.layer_width
    num_classes = len(monitor.classes)
    patterns = (rng.random((n, width)) < 0.4).astype(np.uint8)
    # Includes classes beyond the monitor's coverage (trusted unmonitored).
    classes = rng.integers(0, num_classes + extra_classes, n)
    return patterns, classes


class TestShardRouter:
    @pytest.mark.parametrize("backend", ["bitset", "bdd"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 99])
    def test_routed_check_matches_monolith(self, backend, num_shards):
        monitor = _monitor(backend=backend)
        router = ShardRouter.partition(monitor, num_shards)
        patterns, classes = _queries(monitor)
        np.testing.assert_array_equal(
            router.check(patterns, classes), monitor.check(patterns, classes)
        )

    def test_partition_covers_all_classes_once(self):
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 4)
        owned = sorted(c for shard in router.shards for c in shard.classes)
        assert owned == monitor.classes
        assert len(router) == 4

    def test_partition_caps_shards_at_class_count(self):
        monitor = _monitor(num_classes=3)
        router = ShardRouter.partition(monitor, 10)
        assert len(router) == 3

    def test_partition_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ShardRouter.partition(_monitor(), 0)

    def test_duplicate_class_ownership_rejected(self):
        monitor = _monitor(num_classes=2)
        shard = MonitorShard(0, monitor)
        with pytest.raises(ValueError):
            ShardRouter([shard, MonitorShard(1, monitor)])

    def test_route_groups_rows_by_owner(self):
        monitor = _monitor(num_classes=4)
        router = ShardRouter.partition(monitor, 2)
        classes = np.array([0, 1, 2, 3, 0, 99])
        groups = router.route(classes)
        covered = np.sort(np.concatenate(list(groups.values())))
        # Row 5 (class 99) is unmonitored: routed nowhere.
        np.testing.assert_array_equal(covered, np.arange(5))

    def test_assemble_is_inverse_of_partition(self):
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 3)
        rebuilt = router.assemble()
        patterns, classes = _queries(monitor)
        np.testing.assert_array_equal(
            rebuilt.check(patterns, classes), monitor.check(patterns, classes)
        )
        for c in monitor.classes:
            assert (
                rebuilt.zones[c].num_visited_patterns
                == monitor.zones[c].num_visited_patterns
            )

    def test_min_distances_match_monolith(self):
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 3)
        patterns, classes = _queries(monitor)
        np.testing.assert_array_equal(
            router.min_distances(patterns, classes),
            monitor.min_distances(patterns, classes),
        )

    def test_set_gamma_propagates(self):
        monitor = _monitor(gamma=0)
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor)
        monitor.set_gamma(2)
        router.set_gamma(2)
        np.testing.assert_array_equal(
            router.check(patterns, classes), monitor.check(patterns, classes)
        )

    def test_cross_backend_partition(self):
        """A BDD monitor partitions into shards served by its own engine,
        and the visited sets survive the exchange."""
        bdd_monitor = _monitor(backend="bdd", width=10, num_classes=3)
        router = ShardRouter.partition(bdd_monitor, 3)
        for shard in router.shards:
            assert shard.monitor.backend_name == "bdd"
        patterns, classes = _queries(bdd_monitor)
        np.testing.assert_array_equal(
            router.check(patterns, classes), bdd_monitor.check(patterns, classes)
        )


class TestDetectionSharding:
    def test_one_shard_per_cell(self):
        rng = np.random.default_rng(0)
        monitors = {}
        for cell in range(4):
            m = NeuronActivationMonitor(8, [0, 1], gamma=0, backend="bitset")
            pats = (rng.random((20, 8)) < 0.5).astype(np.uint8)
            labels = rng.integers(0, 2, 20)
            m.record(pats, labels, labels)
            monitors[cell] = m
        detection = DetectionMonitor(num_cells=4, monitors=monitors)
        shards = shard_detection_monitor(detection)
        assert [s.shard_id for s in shards] == [0, 1, 2, 3]
        probe = (rng.random((5, 8)) < 0.5).astype(np.uint8)
        probe_classes = rng.integers(0, 2, 5)
        for cell, shard in enumerate(shards):
            np.testing.assert_array_equal(
                shard.check(probe, probe_classes),
                detection.monitors[cell].check(probe, probe_classes),
            )


class TestStreamServer:
    def test_verdict_parity_with_sync_monitor(self):
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 3)
        patterns, classes = _queries(monitor)
        result = run_stream(router, patterns, classes, max_batch=16, max_delay_ms=1.0)
        np.testing.assert_array_equal(
            result.verdicts, monitor.check(patterns, classes)
        )
        assert result.elapsed > 0
        assert result.throughput > 0

    def test_requests_are_microbatched(self):
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor, n=200)
        result = run_stream(router, patterns, classes, max_batch=32, max_delay_ms=5.0)
        shard_rows = [row for row in result.stats if row["shard"] >= 0]
        served = sum(row["requests"] for row in shard_rows)
        batches = sum(row["batches"] for row in shard_rows)
        # Monitored rows only (unmonitored classes resolve without a queue hop).
        assert served == int(np.isin(classes, monitor.classes).sum())
        # Concurrent submission must coalesce far below one-batch-per-request.
        assert batches < served / 4
        assert all(row["max_batch"] <= 32 for row in shard_rows)

    def test_stats_report_latency_percentiles(self):
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor, n=100, extra_classes=0)
        result = run_stream(router, patterns, classes)
        for row in result.stats:
            assert row["p99_ms"] >= row["p50_ms"] >= 0.0
            assert row["max_queue_depth"] >= row["queue_depth"]

    def test_backpressure_bounds_queue_depth(self):
        monitor = _monitor(num_classes=2)
        router = ShardRouter.partition(monitor, 1)
        patterns, classes = _queries(monitor, n=300, extra_classes=0)
        result = run_stream(
            router, patterns, classes, max_pending=8, max_batch=4, max_delay_ms=0.0
        )
        np.testing.assert_array_equal(
            result.verdicts, monitor.check(patterns, classes)
        )
        assert all(row["max_queue_depth"] <= 8 for row in result.stats)

    def test_check_outside_running_server_raises(self):
        monitor = _monitor()
        server = StreamServer(ShardRouter.partition(monitor, 2))

        async def _call():
            await server.check(np.zeros(monitor.layer_width, dtype=np.uint8), 0)

        with pytest.raises(RuntimeError):
            asyncio.run(_call())

    def test_invalid_knobs_rejected(self):
        router = ShardRouter.partition(_monitor(), 2)
        with pytest.raises(ValueError):
            StreamServer(router, max_batch=0)
        with pytest.raises(ValueError):
            StreamServer(router, max_delay_ms=-1)
        with pytest.raises(ValueError):
            StreamServer(router, max_pending=0)

    def test_unmonitored_class_short_circuits(self):
        monitor = _monitor(num_classes=2)
        router = ShardRouter.partition(monitor, 2)

        async def _run():
            async with StreamServer(router) as server:
                return await server.check(
                    np.zeros(monitor.layer_width, dtype=np.uint8), 999
                )

        assert asyncio.run(_run()) is True

    def test_detectors_fed_inline(self):
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor, n=150)
        sync_supported = monitor.check(patterns, classes)
        sync_distances = monitor.min_distances(patterns, classes)

        shift = DistributionShiftDetector(baseline_rate=0.05, window=50)
        distance = DistanceShiftDetector(sync_distances, window=50)
        result = run_stream(
            router, patterns, classes,
            shift_detector=shift, distance_detector=distance,
        )
        # The binary detector sees every row (unmonitored classes are
        # trusted verdicts); the distance histogram sees only *served*
        # rows — no shard computed a distance for the rest, and synthetic
        # zeros would pollute the divergence baseline.
        routed = int(np.isin(classes, monitor.classes).sum())
        assert routed < len(patterns)  # _queries mixes unmonitored classes
        assert shift.peek().samples_seen == len(patterns)
        assert distance.peek().samples_seen == routed
        # The windowed mean matches the tail of the exact distance stream
        # only statistically (order is batch-dependent); check totals.
        np.testing.assert_array_equal(result.verdicts, sync_supported)

    def test_check_batch_distance_cap_bounds_but_never_bends_verdicts(self):
        """The combined kernel's cap must clip distances to min(true, cap+1)
        while verdicts stay exact — even for a cap below γ (clamped)."""
        monitor = _monitor(gamma=2)
        shard = ShardRouter.partition(monitor, 1).shards[0]
        patterns, classes = _queries(monitor, n=120, extra_classes=0)
        exact_verdicts, exact_distances = shard.check_batch(
            patterns, classes, with_distances=True
        )
        for cap in (0, 1, 2, 5):  # 0 and 1 are below gamma: clamp to gamma
            verdicts, distances = shard.check_batch(
                patterns, classes, with_distances=True, distance_cap=cap
            )
            np.testing.assert_array_equal(verdicts, exact_verdicts)
            np.testing.assert_array_equal(
                distances, np.minimum(exact_distances, max(cap, 2) + 1)
            )

    @pytest.mark.parametrize("backend", ["bitset", "bdd"])
    def test_check_batch_keeps_empty_zone_unsupported_past_width(self, backend):
        """An empty zone's distance sentinel is width + 1, so the bare
        ``distance <= γ`` used to pass it once γ exceeded the width while
        ``check`` said unsupported.  Both paths must agree for every γ."""
        monitor = NeuronActivationMonitor(3, [0, 1], gamma=4, backend=backend)
        monitor.record(
            np.array([[0, 1, 0]], dtype=np.uint8), np.array([0]), np.array([0])
        )  # class 1 stays empty
        shard = MonitorShard(0, monitor)
        patterns = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        classes = np.array([1, 0, 2])  # empty, recorded, unmonitored
        verdicts, distances = shard.check_batch(
            patterns, classes, with_distances=True
        )
        np.testing.assert_array_equal(verdicts, [False, True, True])
        np.testing.assert_array_equal(distances, [4, 3, 0])
        for gamma in range(7):
            monitor.set_gamma(gamma)
            expected = monitor.check(patterns, classes)
            for cap in (None, 0, 6):
                verdicts, _ = shard.check_batch(
                    patterns, classes, with_distances=True, distance_cap=cap
                )
                np.testing.assert_array_equal(verdicts, expected)

    def test_capped_detector_stream_is_alarm_identical(self):
        """Serving feeds the histogram detector bounded distances; the
        histogram, divergence and alarm must match an exact-fed twin on a
        stream with rows far beyond the overflow bin."""
        monitor = _monitor(gamma=1)
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor, n=200, extra_classes=0)
        exact_distances = monitor.min_distances(patterns, classes)
        baseline = exact_distances[:50]
        # A tight overflow bin (max_distance=1 → serving cap 2) that much
        # of the stream exceeds, so the bounded kernel genuinely clips.
        assert (exact_distances > 3).any()

        # window == stream length: the compared histograms cover the whole
        # stream as a multiset, so shard-interleaved arrival order (which
        # legitimately differs from sequential order) cannot matter.
        # The deliberately clipped baseline is exactly what the detector
        # now warns about — expected here, the clipping is the test.
        with pytest.warns(RuntimeWarning, match="overflow bin"):
            served = DistanceShiftDetector(
                baseline, max_distance=1, window=len(patterns)
            )
            exact_fed = DistanceShiftDetector(
                baseline, max_distance=1, window=len(patterns)
            )
        result = run_stream(
            router, patterns, classes, distance_detector=served
        )
        # Feed the twin in served order-independence terms: histograms are
        # multiset statistics, so bulk order differences cannot matter.
        exact_fed.update_many(exact_distances)
        np.testing.assert_array_equal(
            result.verdicts, monitor.check(patterns, classes)
        )
        a, b = served.peek(), exact_fed.peek()
        assert a.samples_seen == b.samples_seen == len(patterns)
        np.testing.assert_allclose(a.histogram, b.histogram)
        assert a.divergence == pytest.approx(b.divergence)
        assert a.alarm == b.alarm

    def test_classify_path_matches_sync_classifier(self):
        from repro.monitor import MonitoredClassifier
        from repro.nn.layers import Linear, ReLU, Sequential

        rng = np.random.default_rng(5)
        model = Sequential(Linear(6, 12), ReLU(), Linear(12, 3))
        inputs = rng.normal(size=(40, 6))
        labels = rng.integers(0, 3, 40)

        monitor = NeuronActivationMonitor.build(
            model, model[1],
            list(zip(inputs, labels)),
            gamma=1, backend="bitset",
        )
        classifier = MonitoredClassifier(model, model[1], monitor)
        probes = rng.normal(size=(25, 6))
        expected = classifier.classify(probes)

        async def _run():
            router = ShardRouter.partition(monitor, 2)
            server = StreamServer(router, classifier=classifier, max_batch=8)
            async with server:
                return await asyncio.gather(
                    *(server.classify(probes[i]) for i in range(len(probes)))
                )

        verdicts = asyncio.run(_run())
        for got, want in zip(verdicts, expected):
            assert got.predicted_class == want.predicted_class
            assert got.supported == want.supported
            assert got.monitored == want.monitored
            # Micro-batch composition changes float summation order in the
            # softmax; verdicts agree, confidences agree to rounding.
            assert got.confidence == pytest.approx(want.confidence)

    def test_concurrent_classify_records_queue_depth(self):
        """Regression: ``classify`` never recorded the depth of its queue,
        so the classify stats row read ``max_queue_depth`` 0 under load."""
        from repro.monitor import MonitoredClassifier
        from repro.nn.layers import Linear, ReLU, Sequential

        rng = np.random.default_rng(6)
        model = Sequential(Linear(6, 12), ReLU(), Linear(12, 3))
        inputs = rng.normal(size=(30, 6))
        monitor = NeuronActivationMonitor.build(
            model, model[1], list(zip(inputs, rng.integers(0, 3, 30))),
            gamma=1, backend="bitset",
        )
        classifier = MonitoredClassifier(model, model[1], monitor)

        async def _run():
            server = StreamServer(
                ShardRouter.partition(monitor, 1), classifier=classifier,
                max_batch=8, executor="inline",
            )
            async with server:
                await asyncio.gather(*(server.classify(inputs[i]) for i in range(8)))
                return server.stats()

        (classify_row,) = [row for row in asyncio.run(_run()) if row["shard"] == -1]
        assert classify_row["requests"] == 8
        assert classify_row["max_queue_depth"] >= 1

    def test_bad_request_fails_without_wedging_the_worker(self):
        """A wrong-width pattern must raise in its own caller, and the
        shard worker must survive to serve later requests."""
        monitor = _monitor(num_classes=2)
        router = ShardRouter.partition(monitor, 1)
        good = np.zeros(monitor.layer_width, dtype=np.uint8)
        bad = np.zeros(monitor.layer_width - 1, dtype=np.uint8)

        async def _run():
            async with StreamServer(router, max_delay_ms=0.0) as server:
                with pytest.raises(ValueError):
                    await server.check(bad, 0)
                return await server.check(good, 0)

        assert isinstance(asyncio.run(_run()), bool)

    def test_router_with_noncontiguous_shard_ids(self):
        """Routing must key shards by id, not list position (detection
        shards keep their cell index as id even when subset)."""
        monitor = _monitor(num_classes=4)
        full = ShardRouter.partition(monitor, 4)
        subset = ShardRouter(list(reversed(full.shards))[:3])
        patterns, classes = _queries(monitor)
        served = np.isin(classes, [c for s in subset.shards for c in s.classes])
        expected = monitor.check(patterns, classes)
        got = subset.check(patterns, classes)
        np.testing.assert_array_equal(got[served], expected[served])
        assert got[~served].all()  # unowned classes are trusted

    def test_duplicate_shard_ids_rejected(self):
        monitor = _monitor(num_classes=2)
        other = _monitor(num_classes=4)
        with pytest.raises(ValueError, match="duplicate shard id"):
            ShardRouter([MonitorShard(0, monitor), MonitorShard(0, other)])

    def test_classify_without_classifier_raises(self):
        router = ShardRouter.partition(_monitor(), 2)

        async def _run():
            async with StreamServer(router) as server:
                await server.classify(np.zeros(4))

        with pytest.raises(RuntimeError):
            asyncio.run(_run())

    @pytest.mark.parametrize("submit", ["bulk", "per_request"])
    def test_submit_modes_agree_with_monolith(self, submit):
        """Both producer shapes — vectorised bulk blocks and one check()
        per row — must return the monolithic monitor's verdicts."""
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 3)
        patterns, classes = _queries(monitor, n=250)
        result = run_stream(router, patterns, classes, submit=submit)
        np.testing.assert_array_equal(
            result.verdicts, monitor.check(patterns, classes)
        )

    def test_invalid_submit_mode_rejected(self):
        router = ShardRouter.partition(_monitor(), 2)
        with pytest.raises(ValueError, match="submit"):
            run_stream(router, np.zeros((1, 16), dtype=np.uint8), [0], submit="?")

    def test_inline_execution_matches_offloaded(self):
        """executor_threads=0 (kernels inline on the loop) and the default
        thread pool must serve identical verdicts."""
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor, n=200)
        inline = run_stream(router, patterns, classes, executor_threads=0)
        pooled = run_stream(router, patterns, classes, executor_threads=2)
        np.testing.assert_array_equal(inline.verdicts, pooled.verdicts)
        np.testing.assert_array_equal(
            inline.verdicts, monitor.check(patterns, classes)
        )
        assert all(row["offloaded_batches"] == 0 for row in inline.stats)

    def test_negative_executor_threads_rejected(self):
        with pytest.raises(ValueError, match="executor_threads"):
            StreamServer(ShardRouter.partition(_monitor(), 2), executor_threads=-1)

    def test_bulk_blocks_never_exceed_max_batch(self):
        """Block coalescing must respect the kernel row budget even when
        bulk blocks and single-row requests interleave (the carry path)."""
        monitor = _monitor(num_classes=2)
        router = ShardRouter.partition(monitor, 1)
        patterns, classes = _queries(monitor, n=500, extra_classes=0)
        result = run_stream(
            router, patterns, classes, max_batch=48, max_delay_ms=2.0
        )
        assert all(row["max_batch"] <= 48 for row in result.stats)
        np.testing.assert_array_equal(
            result.verdicts, monitor.check(patterns, classes)
        )

    def test_mixed_check_and_check_many_callers(self):
        """Single-row check() callers and a bulk check_many() caller share
        queues and workers without disturbing each other's verdicts."""
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor, n=120)
        expected = monitor.check(patterns, classes)

        async def _run():
            async with StreamServer(router, max_batch=16) as server:
                singles = [
                    server.check(patterns[i], classes[i]) for i in range(40)
                ]
                bulk = server.check_many(patterns[40:], classes[40:])
                single_verdicts = await asyncio.gather(*singles)
                return np.asarray(single_verdicts, dtype=bool), await bulk

        single_verdicts, bulk_verdicts = asyncio.run(_run())
        np.testing.assert_array_equal(single_verdicts, expected[:40])
        np.testing.assert_array_equal(bulk_verdicts, expected[40:])

    def test_check_many_outside_running_server_raises(self):
        server = StreamServer(ShardRouter.partition(_monitor(), 2))

        async def _call():
            await server.check_many(np.zeros((2, 16), dtype=np.uint8), [0, 1])

        with pytest.raises(RuntimeError):
            asyncio.run(_call())

    def test_check_many_with_every_row_unmonitored(self):
        """Empty route groups: all rows trusted, nothing queued, and the
        distance histogram sees none of them."""
        monitor = _monitor(num_classes=3)
        router = ShardRouter.partition(monitor, 2)
        patterns, _ = _queries(monitor, n=50)
        unmonitored = np.full(50, len(monitor.classes) + 7)
        shift = DistributionShiftDetector(baseline_rate=0.05, window=50)
        distance = DistanceShiftDetector(np.arange(5), window=50)

        async def _run():
            server = StreamServer(
                router, shift_detector=shift, distance_detector=distance
            )
            async with server:
                verdicts = await server.check_many(patterns, unmonitored)
                return verdicts, server.stats()

        verdicts, stats = asyncio.run(_run())
        assert verdicts.all() and len(verdicts) == 50
        assert sum(row["requests"] for row in stats) == 0  # nothing queued
        assert shift.peek().samples_seen == 50  # trusted verdicts counted
        assert distance.peek().samples_seen == 0  # histogram untouched

    def test_unmonitored_rows_never_reach_the_distance_histogram(self):
        """Regression: unrouted rows used to be fed as synthetic
        distance-0 samples, piling unmonitored traffic into the
        distance-0 bin and skewing the TV-divergence baseline.  Both
        request paths must leave the histogram untouched for them."""
        monitor = _monitor()
        router = ShardRouter.partition(monitor, 2)
        patterns, classes = _queries(monitor, n=120)
        served_mask = np.isin(classes, monitor.classes)
        assert 0 < served_mask.sum() < len(patterns)
        exact = monitor.min_distances(patterns, classes)
        detector = DistanceShiftDetector(exact[served_mask], window=120)

        async def _run():
            server = StreamServer(router, distance_detector=detector)
            async with server:
                await server.check_many(patterns[:60], classes[:60])
                for i in range(60, 120):  # per-request path
                    await server.check(patterns[i], classes[i])

        asyncio.run(_run())
        state = detector.peek()
        assert state.samples_seen == int(served_mask.sum())
        # The histogram is exactly the served rows' distance multiset —
        # bit-identical to feeding the monolith's distances for them.
        twin = DistanceShiftDetector(exact[served_mask], window=120)
        twin.update_many(
            np.minimum(exact[served_mask], detector.max_distance + 1)
        )
        np.testing.assert_allclose(state.histogram, twin.peek().histogram)

    def test_server_stop_is_idempotent_and_safe_before_start(self):
        router = ShardRouter.partition(_monitor(), 2)

        async def _run():
            server = StreamServer(router)
            await server.stop()  # never started: no-op
            await server.start()
            await server.start()  # double start: no-op
            patterns, classes = _queries(_monitor(), n=20)
            verdicts = await server.check_many(patterns, classes)
            await server.stop()
            await server.stop()  # double stop: no-op
            with pytest.raises(RuntimeError):
                await server.check_many(patterns, classes)
            return verdicts

        verdicts = asyncio.run(_run())
        assert len(verdicts) == 20


class TestDistanceShiftDetector:
    def test_no_alarm_on_baseline_stream(self):
        rng = np.random.default_rng(0)
        baseline = rng.integers(0, 4, 500)
        detector = DistanceShiftDetector(baseline, window=100)
        states = detector.update_many(rng.integers(0, 4, 400))
        assert not any(s.alarm for s in states)

    def test_alarm_when_mass_moves_outward(self):
        rng = np.random.default_rng(1)
        baseline = rng.integers(0, 3, 500)  # distances 0-2 in-distribution
        detector = DistanceShiftDetector(baseline, window=100)
        shifted = rng.integers(5, 9, 300)  # all far out
        states = detector.update_many(shifted)
        assert states[-1].alarm
        assert states[-1].divergence > 0.9

    def test_sharper_than_binary_verdicts(self):
        """A drift entirely inside Z^gamma is invisible to the binary
        stream but visible in the distance histogram."""
        gamma = 3
        baseline = np.zeros(400, dtype=np.int64)  # training-time: exact hits
        detector = DistanceShiftDetector(
            baseline, max_distance=gamma, window=100, divergence_threshold=0.5
        )
        drifted = np.full(200, gamma, dtype=np.int64)  # still supported!
        assert np.all(drifted <= gamma)  # binary monitor would stay silent
        states = detector.update_many(drifted)
        assert states[-1].alarm

    def test_histogram_bins_and_overflow(self):
        detector = DistanceShiftDetector([0, 1, 2], max_distance=2, window=5)
        state = detector.update_many([0, 1, 2, 50, 50])[-1]
        assert state.histogram.shape == (4,)  # 0, 1, 2, overflow
        assert state.histogram[-1] == pytest.approx(0.4)

    def test_reset_keeps_baseline(self):
        detector = DistanceShiftDetector([0, 0, 1], window=5)
        detector.update_many([9, 9, 9, 9, 9])
        detector.reset()
        assert detector.peek().samples_seen == 0
        assert detector.update(0).samples_seen == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DistanceShiftDetector([])
        with pytest.raises(ValueError):
            DistanceShiftDetector([-1, 2])
        with pytest.raises(ValueError):
            DistanceShiftDetector([1], divergence_threshold=0.0)
        with pytest.raises(ValueError):
            DistanceShiftDetector([1], window=0)
        with pytest.raises(ValueError):
            DistanceShiftDetector([1]).update(-2)
