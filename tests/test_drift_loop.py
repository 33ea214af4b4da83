"""The closed drift loop: alarm → staging → absorption → γ → hot-swap.

End-to-end: a synthetic distribution shift is injected into a served
stream, the inline detector alarms, the ``DriftResponder`` absorbs the
staged out-of-zone patterns, re-chooses γ through the existing
``GammaCalibrator.choose`` sweep, and the published ``ZoneSnapshot``
bumps the zone epoch fleet-wide — across every executor mode.  Plus the
responder/staging unit coverage and the regression tests for the three
satellite bugfixes (CUSUM restart vs. ``peek()``, strict ``merge``
gamma/indexed resolution is covered in ``test_monitor_merge``, and
``DistanceShiftDetector`` baseline clipping/validation).
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.monitor import (
    DriftResponder,
    NeuronActivationMonitor,
    StagingZone,
    ZoneSnapshot,
    evaluate_patterns,
    partition_payloads,
)
from repro.monitor.calibration import GammaCalibrator
from repro.monitor.shift import DistanceShiftDetector, DistributionShiftDetector
from repro.serving import ShardRouter, StreamServer, run_stream

WIDTH = 16
CLASSES = list(range(6))


def _build_monitor(seed=0, gamma=1, density=0.2):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((250, WIDTH)) < density).astype(np.uint8)
    labels = rng.integers(0, len(CLASSES), len(patterns))
    monitor = NeuronActivationMonitor(WIDTH, CLASSES, gamma=gamma, backend="bitset")
    monitor.record(patterns, labels, labels)
    return monitor


def _validation(seed=3, n=200, density=0.2):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((n, WIDTH)) < density).astype(np.uint8)
    labels = rng.integers(0, len(CLASSES), n)
    return patterns, labels


def _loop_sweep(monitor, patterns, predictions, labels, gammas):
    """The per-γ check loop the calibration sweep replaced, as an oracle;
    the monitor's γ is restored afterwards."""
    start = monitor.gamma
    rows = []
    for gamma in gammas:
        monitor.set_gamma(gamma)
        rows.append(evaluate_patterns(monitor, patterns, predictions, labels))
    monitor.set_gamma(start)
    return rows


def _shifted_stream(seed=11, n=500, density=0.8):
    """Patterns from a flipped density — far outside the trained zones."""
    rng = np.random.default_rng(seed)
    patterns = (rng.random((n, WIDTH)) < density).astype(np.uint8)
    classes = rng.integers(0, len(CLASSES), n)
    return patterns, classes


# ----------------------------------------------------------------------
# staging zone
# ----------------------------------------------------------------------
class TestStagingZone:
    def test_add_drain_roundtrip(self):
        zone = StagingZone(WIDTH)
        patterns, classes = _shifted_stream(n=30)
        assert zone.add(patterns, classes) == 30
        assert zone.total == 30
        assert zone.total_ever == 30
        assert sum(zone.counts().values()) == 30
        staged = zone.drain()
        assert sum(len(rows) for rows in staged.values()) == 30
        for c, rows in staged.items():
            np.testing.assert_array_equal(rows, patterns[classes == c])
        assert zone.total == 0
        assert zone.total_ever == 30  # cumulative survives drains
        assert zone.drain() == {}

    def test_staged_rows_are_copies(self):
        zone = StagingZone(WIDTH)
        patterns = np.ones((2, WIDTH), dtype=np.uint8)
        zone.add(patterns, np.zeros(2, dtype=np.int64))
        patterns[:] = 0  # mutate the caller's buffer after staging
        staged = zone.drain()
        assert staged[0].all()

    def test_width_and_length_validation(self):
        zone = StagingZone(WIDTH)
        with pytest.raises(ValueError, match="width"):
            zone.add(np.ones((1, WIDTH + 1), dtype=np.uint8), np.array([0]))
        with pytest.raises(ValueError, match="length mismatch"):
            zone.add(np.ones((2, WIDTH), dtype=np.uint8), np.array([0]))
        with pytest.raises(ValueError, match="positive"):
            StagingZone(0)

    def test_empty_add_is_noop(self):
        zone = StagingZone(WIDTH)
        assert zone.add(np.empty((0, WIDTH), dtype=np.uint8), np.empty(0)) == 0
        assert zone.total == 0

    def test_max_staged_drops_oldest_per_class(self):
        zone = StagingZone(WIDTH, max_staged=5)
        stamped = np.zeros((8, WIDTH), dtype=np.uint8)
        stamped[:, :3] = np.unpackbits(
            np.arange(8, dtype=np.uint8)[:, None], axis=1
        )[:, -3:]  # encode the arrival index in the first three columns
        zone.add(stamped, np.zeros(8, dtype=np.int64))
        assert zone.total == 5
        assert zone.total_ever == 8
        assert zone.total_dropped == 3
        staged = zone.drain()[0]
        # drop-oldest: the survivors are the five *newest* arrivals
        np.testing.assert_array_equal(staged, stamped[3:])

    def test_max_staged_bounds_each_class_independently(self):
        zone = StagingZone(WIDTH, max_staged=4)
        patterns = np.zeros((6, WIDTH), dtype=np.uint8)
        patterns[:, 0] = 1
        zone.add(patterns, np.zeros(6, dtype=np.int64))
        zone.add(patterns[:2], np.ones(2, dtype=np.int64))
        counts = zone.counts()
        assert counts[0] == 4  # trimmed to the bound
        assert counts[1] == 2  # untouched: under its own bound
        assert zone.total_dropped == 2

    def test_max_staged_validation(self):
        with pytest.raises(ValueError, match="max_staged"):
            StagingZone(WIDTH, max_staged=0)

    def test_dropped_counter_surfaces_in_responder_stats(self):
        monitor = _build_monitor()
        patterns, labels = _validation()
        responder = DriftResponder(
            monitor, patterns, labels, labels, max_staged=3
        )
        drifted, classes = _shifted_stream(n=10)
        responder.staging.add(drifted, classes)
        stats = responder.stats()
        assert stats["staged_dropped"] == responder.staging.total_dropped
        assert responder.staging.total_ever == 10


# ----------------------------------------------------------------------
# snapshots + responder
# ----------------------------------------------------------------------
class TestZoneSnapshot:
    def test_validation(self):
        monitor = _build_monitor()
        router = ShardRouter.partition(monitor, 2)
        layout = [(s.shard_id, list(s.classes)) for s in router.shards]
        payloads = tuple(partition_payloads(monitor, layout))
        with pytest.raises(ValueError, match="epoch"):
            ZoneSnapshot(epoch=-1, gamma=0, payloads=payloads)
        with pytest.raises(ValueError, match="gamma"):
            ZoneSnapshot(epoch=1, gamma=-1, payloads=payloads)
        with pytest.raises(ValueError, match="payload"):
            ZoneSnapshot(epoch=1, gamma=0, payloads=())
        snap = ZoneSnapshot(epoch=1, gamma=0, payloads=payloads)
        assert snap.shard_ids == (0, 1)

    def test_baseline_distances_frozen(self):
        monitor = _build_monitor()
        payloads = tuple(
            partition_payloads(monitor, [(0, list(CLASSES))])
        )
        distances = np.arange(5, dtype=np.int64)
        snap = ZoneSnapshot(
            epoch=1, gamma=0, payloads=payloads, baseline_distances=distances
        )
        with pytest.raises(ValueError):
            snap.baseline_distances[0] = 9

    def test_partition_payloads_requires_coverage(self):
        monitor = _build_monitor()
        with pytest.raises(ValueError, match="does not cover"):
            partition_payloads(monitor, [(0, [99])])


class TestDriftResponder:
    def _responder(self, min_staged=16, **kwargs):
        monitor = _build_monitor()
        val_patterns, val_labels = _validation()
        return monitor, DriftResponder(
            monitor,
            val_patterns,
            val_labels,
            val_labels,
            min_staged=min_staged,
            **kwargs,
        )

    def test_thin_evidence_defers(self):
        _monitor, responder = self._responder(min_staged=16)
        patterns, classes = _shifted_stream(n=5)
        responder.staging.add(patterns, classes)
        assert not responder.ready()
        assert responder.respond([(0, CLASSES)]) is None
        assert responder.epoch == 0
        assert responder.staging.total == 5  # evidence keeps accumulating

    def test_respond_absorbs_and_recalibrates(self):
        monitor, responder = self._responder(min_staged=16)
        patterns, classes = _shifted_stream(n=60)
        assert not monitor.check(patterns, classes).all()
        responder.staging.add(patterns, classes)
        assert responder.ready()

        snapshot = responder.respond([(0, CLASSES)])
        assert snapshot is not None
        assert snapshot.epoch == 1 and responder.epoch == 1
        assert snapshot.absorbed_patterns == 60
        assert responder.total_absorbed == 60
        assert responder.staging.total == 0
        # γ came from the calibrator's single selection rule over the
        # retained validation sweep, and the candidate was left at it.
        assert snapshot.calibration is responder.last_calibration
        assert snapshot.gamma == snapshot.calibration.chosen_gamma
        assert responder.monitor.gamma == snapshot.gamma
        assert snapshot.gamma == responder.calibrator.choose(
            snapshot.calibration.sweep
        )
        # The absorbed patterns are now inside the published zones.
        assert responder.monitor.check(patterns, classes).all()
        # Baselines were re-measured against the new zones.
        val_patterns, val_labels = _validation()
        supported = responder.monitor.check(val_patterns, val_labels)
        assert snapshot.baseline_oop_rate == 1.0 - float(supported.mean())
        np.testing.assert_array_equal(
            snapshot.baseline_distances,
            responder.monitor.min_distances(val_patterns, val_labels),
        )
        # The one-pass sweep equals the per-γ check loop on the candidate.
        expected = _loop_sweep(
            responder.monitor, val_patterns, val_labels, val_labels,
            range(responder.calibrator.max_gamma + 1),
        )
        assert [dataclasses.astuple(row) for row in snapshot.calibration.sweep] == [
            dataclasses.astuple(row) for row in expected
        ]

    @pytest.mark.parametrize("backend,indexed", [
        ("bitset", False), ("bitset", True), ("bdd", False),
    ])
    def test_respond_scans_the_retained_set_twice(self, monkeypatch, backend, indexed):
        """One capped distance pass for the sweep, one exact pass for the
        baselines, and no ``check``; the baselines match the check oracle
        on a fleet with an empty zone and unmonitored predictions."""
        rng = np.random.default_rng(5)
        trained = (rng.random((250, WIDTH)) < 0.2).astype(np.uint8)
        labels = rng.integers(0, 4, len(trained))  # classes 4, 5 stay empty
        monitor = NeuronActivationMonitor(
            WIDTH, CLASSES, gamma=1, backend=backend, indexed=indexed
        )
        monitor.record(trained, labels, labels)
        val_patterns, _ = _validation()
        val_predictions = rng.integers(0, len(CLASSES) + 2, len(val_patterns))
        responder = DriftResponder(
            monitor, val_patterns, val_predictions, val_predictions,
            calibrator=GammaCalibrator(max_gamma=3), min_staged=16,
        )
        patterns, classes = _shifted_stream(n=60)
        responder.staging.add(patterns, classes % 4)

        calls = []
        real_distances = NeuronActivationMonitor.min_distances
        real_check = NeuronActivationMonitor.check

        def spy_distances(self, rows, predicted, cap=None):
            calls.append(("min_distances", len(rows), cap))
            return real_distances(self, rows, predicted, cap=cap)

        def spy_check(self, rows, predicted):
            calls.append(("check", len(rows), None))
            return real_check(self, rows, predicted)

        monkeypatch.setattr(NeuronActivationMonitor, "min_distances", spy_distances)
        monkeypatch.setattr(NeuronActivationMonitor, "check", spy_check)
        snapshot = responder.respond([(0, CLASSES)])
        monkeypatch.undo()

        monitored = int(np.isin(val_predictions, CLASSES).sum())
        assert calls == [
            ("min_distances", monitored, responder.calibrator.max_gamma),
            ("min_distances", len(val_patterns), None),
        ]
        candidate = responder.monitor
        supported = candidate.check(val_patterns, val_predictions)
        assert snapshot.baseline_oop_rate == 1.0 - float(supported.mean())
        np.testing.assert_array_equal(
            snapshot.baseline_distances,
            candidate.min_distances(val_patterns, val_predictions),
        )

    def test_snapshot_rehydrates_bit_identical(self):
        _monitor, responder = self._responder(min_staged=16)
        patterns, classes = _shifted_stream(n=40)
        responder.staging.add(patterns, classes)
        router = ShardRouter.partition(responder.monitor, 3)
        layout = [(s.shard_id, list(s.classes)) for s in router.shards]
        snapshot = responder.respond(layout)
        router.apply_snapshot(snapshot)
        probes, probe_classes = _shifted_stream(seed=23, n=120, density=0.5)
        np.testing.assert_array_equal(
            router.check(probes, probe_classes),
            responder.monitor.check(probes, probe_classes),
        )

    def test_validation_set_required(self):
        monitor = _build_monitor()
        with pytest.raises(ValueError, match="non-empty"):
            DriftResponder(
                monitor,
                np.empty((0, WIDTH), dtype=np.uint8),
                np.empty(0),
                np.empty(0),
            )
        with pytest.raises(ValueError, match="length mismatch"):
            DriftResponder(
                monitor,
                np.ones((2, WIDTH), dtype=np.uint8),
                np.zeros(1),
                np.zeros(2),
            )
        val_patterns, val_labels = _validation()
        with pytest.raises(ValueError, match="min_staged"):
            DriftResponder(
                monitor, val_patterns, val_labels, val_labels, min_staged=0
            )


# ----------------------------------------------------------------------
# end-to-end: served shift → alarm → absorb → recalibrate → epoch bump
# ----------------------------------------------------------------------
class TestDriftLoopEndToEnd:
    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_alarm_drives_absorption_and_swap(self, executor):
        monitor = _build_monitor()
        val_patterns, val_labels = _validation()
        router = ShardRouter.partition(monitor, 3)
        responder = DriftResponder(
            monitor, val_patterns, val_labels, val_labels, min_staged=32
        )
        baseline_oop = 1.0 - monitor.check(val_patterns, val_labels).mean()
        # Forced-low thresholds: a small window and z-threshold make the
        # synthetic shift alarm within the first few batches.
        shift_detector = DistributionShiftDetector(
            min(baseline_oop, 0.99), window=32, z_threshold=1.0,
            cusum_threshold=4.0,
        )
        distance_detector = DistanceShiftDetector(
            monitor.min_distances(val_patterns, val_labels),
            window=32, divergence_threshold=0.2,
        )
        patterns, classes = _shifted_stream(n=600)

        result = run_stream(
            router,
            patterns,
            classes,
            max_batch=32,
            shift_detector=shift_detector,
            distance_detector=distance_detector,
            drift_responder=responder,
            executor=executor,
            workers=2,
        )

        drift = result.drift
        assert drift is not None
        assert "swap_error" not in drift, drift
        assert drift["swaps"] >= 1
        assert drift["epoch"] >= 1
        assert drift["epoch"] == router.epoch == responder.epoch
        assert responder.total_absorbed >= responder.min_staged
        # γ was re-chosen by the calibrator's rule and published.
        assert responder.last_calibration is not None
        assert (
            responder.monitor.gamma
            == responder.last_calibration.chosen_gamma
        )
        # The served fleet (post-swap router) is bit-identical to the
        # responder's authoritative monitor — the published snapshot is
        # the single source of truth on both sides of the swap.
        probes, probe_classes = _shifted_stream(seed=29, n=150, density=0.5)
        np.testing.assert_array_equal(
            router.check(probes, probe_classes),
            responder.monitor.check(probes, probe_classes),
        )
        # Detectors were re-baselined against the new zones.
        assert shift_detector.baseline_rate == pytest.approx(
            responder.last_snapshot.baseline_oop_rate
        )
        np.testing.assert_array_equal(
            distance_detector.baseline_histogram,
            distance_detector._histogram(
                np.minimum(
                    responder.last_snapshot.baseline_distances,
                    distance_detector.max_distance + 1,
                )
            ),
        )

    def test_quiet_stream_never_swaps(self):
        monitor = _build_monitor()
        val_patterns, val_labels = _validation()
        router = ShardRouter.partition(monitor, 3)
        responder = DriftResponder(
            monitor, val_patterns, val_labels, val_labels, min_staged=32
        )
        baseline_oop = 1.0 - monitor.check(val_patterns, val_labels).mean()
        shift_detector = DistributionShiftDetector(
            min(baseline_oop, 0.99), window=32
        )
        # In-distribution stream: same density the zones were built from.
        rng = np.random.default_rng(5)
        patterns = (rng.random((300, WIDTH)) < 0.2).astype(np.uint8)
        classes = rng.integers(0, len(CLASSES), 300)
        result = run_stream(
            router,
            patterns,
            classes,
            shift_detector=shift_detector,
            drift_responder=responder,
            executor="inline",
        )
        assert result.drift["epoch"] == router.epoch
        assert responder.absorptions == result.drift["swaps"]

    def test_responder_requires_a_detector(self):
        monitor = _build_monitor()
        val_patterns, val_labels = _validation()
        router = ShardRouter.partition(monitor, 2)
        responder = DriftResponder(
            monitor, val_patterns, val_labels, val_labels
        )
        with pytest.raises(ValueError, match="detector"):
            StreamServer(router, drift_responder=responder)


# ----------------------------------------------------------------------
# satellite regressions: shift-detector bugfixes
# ----------------------------------------------------------------------
class TestCusumRestartSemantics:
    def test_update_reports_crossing_peek_reports_restart(self):
        """The alarming update returns the pre-restart crossing value;
        an immediate peek() reflects the re-armed accumulator — the
        documented pair, regression-locked."""
        detector = DistributionShiftDetector(
            baseline_rate=0.0, window=1000,
            cusum_slack=0.0, cusum_threshold=1.0,
        )
        state = detector.update(True)
        assert state.alarm
        assert state.cusum >= 1.0  # the crossing value, pre-restart
        after = detector.peek()
        assert after.cusum == 0.0  # live post-restart accumulator
        assert not after.alarm  # partial window: no z-alarm either

    def test_non_alarming_update_agrees_with_peek(self):
        detector = DistributionShiftDetector(
            baseline_rate=0.0, window=1000,
            cusum_slack=0.0, cusum_threshold=10.0,
        )
        state = detector.update(True)
        assert not state.alarm
        assert detector.peek().cusum == state.cusum

    def test_rebaseline_rearms(self):
        detector = DistributionShiftDetector(
            baseline_rate=0.5, window=4, cusum_slack=0.0, cusum_threshold=50.0
        )
        for _ in range(6):
            detector.update(True)
        assert detector.peek().cusum > 0.0
        detector.rebaseline(0.1)
        assert detector.baseline_rate == 0.1
        state = detector.peek()
        assert state.cusum == 0.0 and state.window_rate == 0.0
        assert state.samples_seen == 6  # cumulative count survives
        with pytest.raises(ValueError, match="baseline_rate"):
            detector.rebaseline(1.5)


class TestDistanceBaselineValidation:
    def test_clipped_baseline_mass_warns(self):
        """An explicit max_distance below the largest baseline distance
        used to silently fold baseline mass into the overflow bin."""
        with pytest.warns(RuntimeWarning, match="overflow bin"):
            detector = DistanceShiftDetector([0, 1, 1, 5], max_distance=2)
        assert detector.max_distance == 2

    def test_covering_max_distance_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DistanceShiftDetector([0, 1, 5], max_distance=5)
            DistanceShiftDetector([0, 1, 5])  # default: max + 1

    def test_error_reports_computed_value(self):
        """The validation message must show the effective bound, not the
        raw argument."""
        with pytest.raises(
            ValueError, match=r"got -3 \(from max_distance=-3\)"
        ):
            DistanceShiftDetector([0, 1], max_distance=-3)

    def test_rebaseline_keeps_binning_and_clears_window(self):
        detector = DistanceShiftDetector([0, 1, 2], max_distance=4, window=8)
        detector.update_many([4, 4, 4])
        detector.rebaseline([0, 0, 1, 2])
        assert detector.max_distance == 4  # serving's distance cap stays valid
        state = detector.peek()
        assert state.samples_seen == 3  # cumulative count survives
        np.testing.assert_allclose(state.histogram, detector.baseline_histogram)
        # An explicit new bound is honoured (and re-validated).
        detector.rebaseline([0, 1], max_distance=3)
        assert detector.max_distance == 3
