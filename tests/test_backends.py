"""Unit tests for the zone-backend subsystem itself.

Cross-backend semantic equivalence lives in ``test_backend_equivalence``;
this file covers the registry/factory, engine-specific internals (bitset
dedup and distance kernel, BDD γ-cache and bulk construction) and the
backend plumbing through the monitor stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.monitor import (
    BDDZoneBackend,
    BitsetZoneBackend,
    ComfortZone,
    NeuronActivationMonitor,
    available_backends,
    make_backend,
)
from repro.monitor.backends.bitset import pad_to_words
from repro.monitor.detection import DetectionMonitor
from repro.monitor.runtime import MonitoredClassifier
from repro.nn import ArrayDataset, Linear, ReLU, Sequential


class TestFactory:
    def test_registry_contents(self):
        assert available_backends() == ["bdd", "bitset"]

    def test_make_backend_types(self):
        assert isinstance(make_backend("bdd", 4), BDDZoneBackend)
        assert isinstance(make_backend("bitset", 4), BitsetZoneBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown zone backend"):
            make_backend("cudd", 4)

    def test_shared_manager_only_for_bdd(self):
        mgr = BDDManager(4)
        backend = make_backend("bdd", 4, manager=mgr)
        assert backend.manager is mgr
        with pytest.raises(ValueError):
            make_backend("bitset", 4, manager=mgr)

    def test_manager_width_mismatch(self):
        with pytest.raises(ValueError):
            make_backend("bdd", 3, manager=BDDManager(4))

    @pytest.mark.parametrize("name", ["bdd", "bitset"])
    def test_invalid_num_vars(self, name):
        with pytest.raises(ValueError):
            make_backend(name, 0)


class TestBitsetBackend:
    def test_deduplication(self):
        backend = BitsetZoneBackend(5)
        row = np.array([[1, 0, 1, 0, 1]], dtype=np.uint8)
        for _ in range(4):
            backend.add_patterns(row)
        assert len(backend.visited_patterns()) == 1
        assert backend.size(0) == 1

    def test_min_distances(self):
        backend = BitsetZoneBackend(8)
        backend.add_patterns(np.array([[0] * 8, [1] * 8], dtype=np.uint8))
        probes = np.array(
            [[0] * 8, [1, 0, 0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0, 0]],
            dtype=np.uint8,
        )
        np.testing.assert_array_equal(
            backend.min_distances(probes), [0, 1, 4]
        )

    def test_empty_zone_rejects_everything(self):
        backend = BitsetZoneBackend(6)
        probes = np.zeros((3, 6), dtype=np.uint8)
        assert not backend.contains_batch(probes, 0).any()
        assert not backend.contains_batch(probes, 3).any()
        assert backend.is_empty()
        assert backend.size(2) == 0

    def test_byte_lut_popcount_fallback(self, monkeypatch):
        """The numpy<2 byte-LUT kernel must agree with the hardware
        bitwise_count path (CI also forces it via
        REPRO_FORCE_POPCOUNT_LUT across the whole suite)."""
        import repro.monitor.backends.bitset as bitset_mod

        rng = np.random.default_rng(7)
        visited = (rng.random((30, 70)) < 0.5).astype(np.uint8)
        probes = (rng.random((100, 70)) < 0.5).astype(np.uint8)
        results = {}
        for forced in (True, False):
            monkeypatch.setattr(bitset_mod, "_HAS_BITWISE_COUNT", forced)
            backend = BitsetZoneBackend(70)
            backend.add_patterns(visited)
            results[forced] = (
                backend.min_distances(probes),
                backend.contains_batch(probes, 2),
                backend.statistics(0)["popcount_kernel"],
            )
        np.testing.assert_array_equal(results[True][0], results[False][0])
        np.testing.assert_array_equal(results[True][1], results[False][1])
        assert results[True][2] == "bitwise_count"
        assert results[False][2] == "lut"

    def test_chunked_query_path(self, monkeypatch):
        """Queries larger than the chunk budget still answer correctly."""
        import repro.monitor.backends.bitset as bitset_mod

        monkeypatch.setattr(bitset_mod, "_CHUNK_BYTES", 64)
        rng = np.random.default_rng(0)
        backend = BitsetZoneBackend(16)
        visited = (rng.random((20, 16)) < 0.5).astype(np.uint8)
        backend.add_patterns(visited)
        probes = (rng.random((100, 16)) < 0.5).astype(np.uint8)
        expected = (probes[:, None, :] != visited[None, :, :]).sum(axis=2).min(axis=1) <= 1
        np.testing.assert_array_equal(backend.contains_batch(probes, 1), expected)

    def test_non_binary_patterns_rejected(self):
        backend = BitsetZoneBackend(4)
        with pytest.raises(ValueError):
            backend.add_patterns(np.array([[0, 1, 2, 0]], dtype=np.uint8))

    def test_width_mismatch_rejected(self):
        backend = BitsetZoneBackend(4)
        with pytest.raises(ValueError):
            backend.add_patterns(np.zeros((2, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            backend.contains_batch(np.zeros((2, 5), dtype=np.uint8), 0)

    def test_size_saturates_at_full_space(self):
        backend = BitsetZoneBackend(3)
        backend.add_patterns(np.array([[0, 0, 0]], dtype=np.uint8))
        assert backend.size(3) == 8  # whole 3-bit space reached
        assert backend.size(10) == 8

    def test_statistics_keys(self):
        backend = BitsetZoneBackend(6)
        backend.add_patterns(np.array([[1, 0, 1, 0, 1, 0]], dtype=np.uint8))
        stats = backend.statistics(1)
        assert stats["visited_patterns"] == 1
        assert stats["patterns"] == 7
        assert stats["storage_bytes"] == 8  # one row, one 64-bit word
        assert 0 < stats["density"] < 1


class TestBDDBackend:
    def test_gamma_cache_is_incremental(self):
        rng = np.random.default_rng(1)
        backend = BDDZoneBackend(10)
        backend.add_patterns((rng.random((15, 10)) < 0.5).astype(np.uint8))
        z2 = backend.zone_ref(2)
        assert backend.zone_ref(1) == backend._zone_cache[1]
        assert backend.zone_ref(2) == z2  # replay hits the cache
        # Adding patterns invalidates enlarged zones.
        backend.add_patterns(np.ones((1, 10), dtype=np.uint8))
        assert 2 not in backend._zone_cache

    def test_saturation_short_circuits(self):
        backend = BDDZoneBackend(3)
        backend.add_patterns(np.zeros((1, 3), dtype=np.uint8))
        assert backend.zone_ref(3) == backend.manager.universal_set()
        assert backend.zone_ref(7) == backend.manager.universal_set()

    def test_visited_patterns_roundtrip(self):
        rng = np.random.default_rng(2)
        visited = (rng.random((12, 8)) < 0.5).astype(np.uint8)
        backend = BDDZoneBackend(8)
        backend.add_patterns(visited)
        out = backend.visited_patterns()
        assert {r.tobytes() for r in out} == {r.tobytes() for r in np.unique(visited, axis=0)}

    def test_statistics_include_cache_counters(self):
        backend = BDDZoneBackend(6)
        backend.add_patterns(np.eye(6, dtype=np.uint8))
        stats = backend.statistics(1)
        assert stats["visited_patterns"] == 6
        assert "nodes" in stats
        assert stats["cache"]["ite_calls"] >= 0


class TestZoneFacade:
    def test_backend_instance_injection(self):
        backend = BitsetZoneBackend(5)
        zone = ComfortZone(5, gamma=1, backend=backend)
        zone.add_pattern([1, 1, 0, 0, 0])
        assert zone.backend is backend
        assert zone.contains([1, 0, 0, 0, 0])

    def test_backend_instance_width_checked(self):
        with pytest.raises(ValueError):
            ComfortZone(4, backend=BitsetZoneBackend(5))

    def test_backend_instance_and_manager_conflict(self):
        with pytest.raises(ValueError):
            ComfortZone(4, manager=BDDManager(4), backend=BitsetZoneBackend(4))

    def test_manager_property_none_for_bitset(self):
        zone = ComfortZone(4, backend="bitset")
        assert zone.manager is None

    def test_repr_names_backend(self):
        assert "bitset" in repr(ComfortZone(4, backend="bitset"))


class TestMonitorPlumbing:
    def _toy_system(self):
        rng = np.random.default_rng(0)
        monitored = ReLU()
        model = Sequential(Linear(2, 4, rng=rng), monitored, Linear(4, 2, rng=rng))
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] > 0).astype(np.int64)
        return model, monitored, ArrayDataset(x, y)

    @pytest.mark.parametrize("backend", ["bdd", "bitset"])
    def test_monitor_build_with_backend(self, backend):
        model, monitored, dataset = self._toy_system()
        monitor = NeuronActivationMonitor.build(
            model, monitored, dataset, gamma=1, backend=backend
        )
        assert monitor.backend_name == backend
        assert backend in repr(monitor)

    def test_bitset_monitor_has_no_shared_manager(self):
        monitor = NeuronActivationMonitor(4, [0], backend="bitset")
        assert monitor._manager is None

    def test_merge_prefers_first_backend(self):
        a = NeuronActivationMonitor(4, [0], backend="bitset")
        b = NeuronActivationMonitor(4, [0], backend="bdd")
        row = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        a.record(row, np.array([0]), np.array([0]))
        b.record(1 - row, np.array([0]), np.array([0]))
        merged = NeuronActivationMonitor.merge([a, b])
        assert merged.backend_name == "bitset"
        assert merged.zones[0].contains([1, 0, 1, 0])
        assert merged.zones[0].contains([0, 1, 0, 1])

    @pytest.mark.parametrize("backend", ["bdd", "bitset"])
    def test_monitored_classifier_build(self, backend):
        model, monitored, dataset = self._toy_system()
        guarded = MonitoredClassifier.build(
            model, monitored, dataset, gamma=0, backend=backend
        )
        assert guarded.backend_name == backend
        verdicts = guarded.classify(dataset.inputs[:5])
        assert len(verdicts) == 5

    @pytest.mark.parametrize("backend", ["bdd", "bitset"])
    def test_detection_monitor_backend(self, backend):
        from repro.datasets import MultiObjectConfig, generate_multiobject
        from repro.models import build_model

        config = MultiObjectConfig()
        data = generate_multiobject(12, seed=0, config=config)
        spec = build_model("grid_detector", seed=0, config=config)
        det = DetectionMonitor.build(
            spec.model, spec.monitored_module, data.inputs, data.cell_labels,
            gamma=0, backend=backend,
        )
        for monitor in det.monitors.values():
            assert monitor.backend_name == backend


class TestMergeInsert:
    """Incremental add_patterns must *merge* into the sorted dedup array
    (searchsorted + scatter), not re-sort the world — and stay exactly
    equivalent to one bulk insert."""

    def test_incremental_adds_equal_bulk_insert(self):
        rng = np.random.default_rng(0)
        patterns = (rng.random((300, 24)) < 0.5).astype(np.uint8)
        bulk = BitsetZoneBackend(24)
        bulk.add_patterns(patterns)
        incremental = BitsetZoneBackend(24)
        for start in range(0, len(patterns), 17):  # ragged batch sizes
            incremental.add_patterns(patterns[start : start + 17])
        assert incremental.num_visited() == bulk.num_visited()
        probes = (rng.random((100, 24)) < 0.5).astype(np.uint8)
        for gamma in range(3):
            np.testing.assert_array_equal(
                incremental.contains_batch(probes, gamma),
                bulk.contains_batch(probes, gamma),
            )
        np.testing.assert_array_equal(
            incremental.min_distances(probes), bulk.min_distances(probes)
        )

    def test_sorted_invariant_survives_interleaved_adds(self):
        """The γ=0 fast path and dedup both rely on the void array being
        sorted; every merge step must preserve it bit-exactly."""
        rng = np.random.default_rng(1)
        backend = BitsetZoneBackend(96)  # multi-word rows
        for _ in range(12):
            backend.add_patterns((rng.random((23, 96)) < 0.3).astype(np.uint8))
            resorted = np.sort(backend._words.view(backend._void).ravel())
            np.testing.assert_array_equal(backend._sorted_void, resorted)
            assert backend.num_visited() == len(
                np.unique(backend.visited_patterns(), axis=0)
            )

    def test_duplicate_only_batch_is_a_no_op(self):
        backend = BitsetZoneBackend(16)
        rows = np.eye(16, dtype=np.uint8)[:4]
        backend.add_patterns(rows)
        before = backend._sorted_void.copy()
        backend.add_patterns(rows)  # all duplicates: no merge, no growth
        np.testing.assert_array_equal(backend._sorted_void, before)
        assert backend.num_visited() == 4


class TestBoundedMinDistances:
    """`min_distances(patterns, cap=k)` answers "exact distance, or > k"
    — elementwise `min(true_distance, k+1)` on every backend."""

    @pytest.mark.parametrize("backend", ["bdd", "bitset"])
    def test_matches_clipped_exact_distances(self, backend):
        rng = np.random.default_rng(2)
        visited = (rng.random((60, 20)) < 0.4).astype(np.uint8)
        engine = make_backend(backend, 20)
        engine.add_patterns(visited)
        probes = (rng.random((80, 20)) < 0.4).astype(np.uint8)
        exact = (
            (probes[:, None, :] != visited[None, :, :]).sum(axis=2).min(axis=1)
        )
        np.testing.assert_array_equal(engine.min_distances(probes), exact)
        for cap in range(6):
            np.testing.assert_array_equal(
                engine.min_distances(probes, cap=cap),
                np.minimum(exact, cap + 1),
            )

    @pytest.mark.parametrize("backend", ["bdd", "bitset"])
    def test_empty_store_bounded_sentinel(self, backend):
        engine = make_backend(backend, 12)
        probes = np.zeros((3, 12), dtype=np.uint8)
        assert (engine.min_distances(probes, cap=4) == 5).all()
        # cap beyond the width: sentinel is the usual num_vars + 1.
        assert (engine.min_distances(probes, cap=40) == 13).all()

    @pytest.mark.parametrize("backend", ["bdd", "bitset"])
    def test_negative_cap_rejected(self, backend):
        engine = make_backend(backend, 8)
        engine.add_patterns(np.zeros((1, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match="cap"):
            engine.min_distances(np.zeros((1, 8), dtype=np.uint8), cap=-1)

    def test_cap_zero_is_exact_membership(self):
        backend = BitsetZoneBackend(16)
        rows = np.eye(16, dtype=np.uint8)[:3]
        backend.add_patterns(rows)
        probes = np.concatenate([rows[:1], np.ones((1, 16), dtype=np.uint8)])
        np.testing.assert_array_equal(
            backend.min_distances(probes, cap=0), [0, 1]
        )

    def test_monitor_and_zone_plumbing(self):
        rng = np.random.default_rng(3)
        monitor = NeuronActivationMonitor(16, [0, 1], gamma=1, backend="bitset")
        patterns = (rng.random((40, 16)) < 0.5).astype(np.uint8)
        labels = rng.integers(0, 2, 40)
        monitor.record(patterns, labels, labels)
        probes = (rng.random((30, 16)) < 0.5).astype(np.uint8)
        classes = rng.integers(0, 4, 30)  # includes unmonitored rows
        exact = monitor.min_distances(probes, classes)
        bounded = monitor.min_distances(probes, classes, cap=2)
        np.testing.assert_array_equal(bounded, np.minimum(exact, 3))
        # check-equivalence holds for every gamma under the cap
        for gamma in range(3):
            monitor.set_gamma(gamma)
            np.testing.assert_array_equal(
                bounded <= gamma, monitor.check(probes, classes)
            )


# Widths around byte and word boundaries: 1..7 and 9..63 bits pad inside
# a word, 65..71 bits pad a second word, 64 and 128 pad nothing.
PACK_WIDTHS = st.sampled_from([1, 3, 7, 9, 13, 31, 32, 33, 63, 64, 65, 71, 100, 128])


@settings(max_examples=80, deadline=None)
@given(width=PACK_WIDTHS, rows=st.integers(0, 9), seed=st.integers(0, 2**16))
def test_pad_to_words_matches_np_pad(width, rows, seed):
    """The one padding helper writes the packbits bytes into a zeroed
    word buffer: the same words ``np.pad`` gave, for every width, and
    the backend packs and stores rows through it."""
    bits = (np.random.default_rng(seed).random((rows, width)) < 0.5).astype(np.uint8)
    packed = np.packbits(bits, axis=1)
    row_words = (packed.shape[1] + 7) // 8
    expected = np.ascontiguousarray(
        np.pad(packed, ((0, 0), (0, row_words * 8 - packed.shape[1])))
    ).view(np.uint64)
    got = pad_to_words(packed, row_words)
    assert got.dtype == np.uint64 and got.shape == (rows, row_words)
    np.testing.assert_array_equal(got, expected)

    backend = BitsetZoneBackend(width)
    np.testing.assert_array_equal(backend._pack_words(bits), expected)
    # add_packed pads the same way: the stored rows read back unchanged.
    backend.add_packed(packed)
    np.testing.assert_array_equal(
        np.unique(backend.visited_patterns(), axis=0).reshape(-1, width),
        np.unique(bits, axis=0).reshape(-1, width),
    )
