"""Unit suite for the crash-consistent on-disk zone store.

Covers the four layers of :mod:`repro.store` in isolation and their
composition with the monitor:

* CRC32C — known vectors, chaining, vector-kernel/reference agreement;
* the pattern WAL — typed record round trips, torn-tail detection at
  every byte offset of a frame, checksum quarantine, repair;
* segment files — atomic write, mmap reads, per-class corruption
  location;
* ``ZoneStore`` — recovery (segment + tail replay), compaction,
  quarantine of corrupt artifacts, verify/info reports;
* monitor integration — ``attach_store`` / ``from_store`` round trips
  bit-identical on both backends, write-through of fresh rows only,
  ``DriftResponder`` snapshot persistence.

The randomized SIGKILL crash sweep lives in ``test_store_recovery.py``.
"""

import os
import struct

import numpy as np
import pytest

from repro.monitor.drift import DriftResponder
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.patterns import pack_patterns
from repro.store import (
    PatternWAL,
    SegmentFile,
    StoreError,
    ZoneStore,
    crc32c,
    write_segment,
)
from repro.store import wal as wal_mod
from repro.store.checksum import VECTOR_MIN_BYTES, crc32c_reference
from repro.store.segment import SegmentError, list_segments, segment_name
from repro.store.wal import (
    FSYNC_ALWAYS,
    FSYNC_MARKERS,
    FSYNC_NEVER,
    ScanResult,
    WALError,
    fsync_policy,
)

WIDTH = 20
CLASSES = [0, 1, 2]


def _patterns(n, seed=0, width=WIDTH):
    rng = np.random.default_rng(seed)
    return (rng.random((n, width)) < 0.4).astype(np.uint8)


def _monitor(backend="bitset", gamma=1, seed=0):
    monitor = NeuronActivationMonitor(
        WIDTH, CLASSES, gamma=gamma, backend=backend
    )
    rng = np.random.default_rng(seed)
    patterns = _patterns(120, seed=seed)
    labels = rng.integers(0, len(CLASSES), len(patterns))
    monitor.record(patterns, labels, labels)
    return monitor


# ----------------------------------------------------------------------
# CRC32C
# ----------------------------------------------------------------------
class TestChecksum:
    # RFC 3720 / Intel reference vectors.
    VECTORS = [
        (b"", 0x00000000),
        (b"a", 0xC1D04330),
        (b"123456789", 0xE3069283),
        (b"\x00" * 32, 0x8A9136AA),
        (b"\xff" * 32, 0x62A8AB43),
    ]

    @pytest.mark.parametrize("data,expected", VECTORS)
    def test_known_vectors(self, data, expected):
        assert crc32c(data) == expected
        assert crc32c_reference(data) == expected

    def test_chaining_matches_concatenation(self):
        rng = np.random.default_rng(7)
        blob = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        for cut in (0, 1, 17, 1024, 4999, 5000):
            a, b = blob[:cut], blob[cut:]
            assert crc32c(b, crc32c(a)) == crc32c(blob)

    def test_vector_kernel_agrees_with_reference(self):
        rng = np.random.default_rng(11)
        # Straddle the byte-loop/vector crossover and the pair-table
        # folding's alignment cases.
        sizes = [0, 1, 3, 63, 64, 65, VECTOR_MIN_BYTES - 1,
                 VECTOR_MIN_BYTES, VECTOR_MIN_BYTES + 1, 4096, 10_001]
        for size in sizes:
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            assert crc32c(data) == crc32c_reference(data), size

    def test_ndarray_input_matches_bytes(self):
        array = np.arange(2048, dtype=np.uint8)
        assert crc32c(array) == crc32c(array.tobytes())

    def test_single_bit_flip_changes_the_checksum(self):
        data = bytearray(_patterns(64).tobytes())
        want = crc32c(bytes(data))
        data[100] ^= 0x10
        assert crc32c(bytes(data)) != want


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
def _populate(wal):
    """Append one record of every type; returns the oracle descriptions."""
    meta = {"layer_width": WIDTH, "classes": CLASSES, "pattern_width": WIDTH}
    rows_a = pack_patterns(_patterns(7, seed=1))
    rows_b = pack_patterns(_patterns(3, seed=2))
    wal.append_meta(meta)
    wal.append_insert(0, rows_a)
    wal.append_gamma(2)
    wal.append_insert(2, rows_b)
    wal.append_snapshot(epoch=4, gamma=2, counts={0: 7, 2: 3})
    return meta, rows_a, rows_b


class TestWAL:
    def test_roundtrip_all_record_types(self, tmp_path):
        wal = PatternWAL(tmp_path / "wal.rzw")
        meta, rows_a, rows_b = _populate(wal)
        wal.close()

        scan = PatternWAL(tmp_path / "wal.rzw").scan()
        assert scan.clean and scan.reason is None
        kinds = [type(r).__name__ for r in scan.records]
        assert kinds == ["MetaRecord", "InsertRecord", "GammaRecord",
                         "InsertRecord", "SnapshotRecord"]
        assert scan.records[0].meta == meta
        got_a = scan.records[1].as_array(rows_a.shape[1])
        np.testing.assert_array_equal(got_a, rows_a)
        assert scan.records[2].gamma == 2
        snap = scan.records[4]
        assert (snap.epoch, snap.gamma, snap.counts) == (4, 2, {0: 7, 2: 3})
        offsets = [r.offset for r in scan.records]
        assert offsets == sorted(offsets) and offsets[0] == 0

    def test_scan_from_offset_skips_earlier_records(self, tmp_path):
        wal = PatternWAL(tmp_path / "wal.rzw")
        _populate(wal)
        full = wal.scan()
        start = full.records[2].offset
        partial = wal.scan(start=start)
        assert [r.offset for r in partial.records] == [
            r.offset for r in full.records[2:]
        ]
        assert partial.valid_end == full.valid_end
        wal.close()

    def test_torn_tail_detected_at_every_byte_offset(self, tmp_path):
        """Truncate the file inside the last frame at *every* byte
        position: the scan must stop exactly at the previous record and
        repair must restore an appendable WAL."""
        path = tmp_path / "wal.rzw"
        wal = PatternWAL(path)
        _populate(wal)
        keep = wal.scan()
        last_start = keep.records[-1].offset
        wal.close()
        full = path.read_bytes()
        file_last_start = wal_mod.HEADER.size + last_start
        for cut in range(file_last_start + 1, len(full)):
            path.write_bytes(full[:cut])
            reopened = PatternWAL(path)
            scan = reopened.scan()
            assert scan.valid_end == last_start, cut
            assert len(scan.records) == len(keep.records) - 1
            assert not scan.clean and scan.reason is not None
            cut_bytes = reopened.repair(scan)
            assert cut_bytes == cut - file_last_start
            assert reopened.scan().clean
            reopened.append_gamma(9)  # still appendable after repair
            assert reopened.scan().records[-1].gamma == 9
            reopened.close()

    def test_corrupted_record_byte_stops_the_scan(self, tmp_path):
        path = tmp_path / "wal.rzw"
        wal = PatternWAL(path)
        _populate(wal)
        target = wal.scan().records[1]  # first insert record
        wal.close()
        raw = bytearray(path.read_bytes())
        # Flip a byte inside the record *payload* (past the frame prefix).
        flip_at = wal_mod.HEADER.size + target.offset + wal_mod.RECORD.size + 3
        raw[flip_at] ^= 0xFF
        path.write_bytes(bytes(raw))
        scan = PatternWAL(path).scan()
        assert scan.valid_end == target.offset
        assert scan.reason == "record checksum mismatch"
        assert len(scan.records) == 1  # only the META before it survives

    def test_implausible_length_prefix_is_corruption_not_allocation(
        self, tmp_path
    ):
        path = tmp_path / "wal.rzw"
        wal = PatternWAL(path)
        wal.append_gamma(1)
        wal.close()
        with open(path, "ab") as f:
            f.write(struct.pack("<II", wal_mod.MAX_RECORD_BYTES + 1, 0))
        scan = PatternWAL(path).scan()
        assert "implausible record length" in scan.reason
        assert len(scan.records) == 1

    def test_bad_header_raises_wal_error(self, tmp_path):
        path = tmp_path / "wal.rzw"
        PatternWAL(path).close()
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF  # break the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(WALError, match="magic"):
            PatternWAL(path)
        # Checksum-only damage (magic intact) is also fatal.
        raw[0] ^= 0xFF
        raw[8] ^= 0x01  # inside the base field, covered by the header crc
        path.write_bytes(bytes(raw))
        with pytest.raises(WALError, match="checksum"):
            PatternWAL(path)

    def test_base_offset_restarts_logical_offsets(self, tmp_path):
        wal = PatternWAL(tmp_path / "wal.rzw", base=500)
        assert wal.offset == 500
        wal.append_gamma(3)
        scan = wal.scan()
        assert scan.records[0].offset == 500
        # A scan cursor below base clamps to base, not to file start.
        assert wal.scan(start=0).valid_end == scan.valid_end
        wal.close()

    def test_fsync_policy_resolution(self, monkeypatch):
        monkeypatch.delenv(wal_mod.ENV_FSYNC, raising=False)
        assert fsync_policy() == FSYNC_MARKERS
        assert fsync_policy("1") == FSYNC_ALWAYS
        assert fsync_policy("always") == FSYNC_ALWAYS
        assert fsync_policy("0") == FSYNC_NEVER
        assert fsync_policy("never") == FSYNC_NEVER
        monkeypatch.setenv(wal_mod.ENV_FSYNC, "true")
        assert fsync_policy() == FSYNC_ALWAYS
        assert fsync_policy("never") == FSYNC_NEVER  # explicit beats env
        with pytest.raises(ValueError, match="fsync"):
            fsync_policy("sometimes")

    def test_scan_result_clean_flag(self):
        assert ScanResult().clean
        assert not ScanResult(torn_bytes=3).clean


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
def _segment_payload(seed=5):
    meta = {"layer_width": WIDTH, "classes": CLASSES, "pattern_width": WIDTH}
    row_bytes = (WIDTH + 7) // 8
    class_rows = {
        0: np.unique(pack_patterns(_patterns(9, seed=seed)), axis=0),
        1: np.zeros((0, row_bytes), dtype=np.uint8),
        2: np.unique(pack_patterns(_patterns(4, seed=seed + 1)), axis=0),
    }
    return meta, class_rows, row_bytes


class TestSegment:
    def test_write_read_roundtrip(self, tmp_path):
        meta, class_rows, row_bytes = _segment_payload()
        path = write_segment(
            tmp_path, seq=3, meta=meta, epoch=2, gamma=1, wal_offset=777,
            class_rows=class_rows, row_bytes=row_bytes,
        )
        assert os.path.basename(path) == segment_name(3)
        seg = SegmentFile(path)
        assert (seg.seq, seg.epoch, seg.gamma, seg.wal_offset) == (3, 2, 1, 777)
        assert seg.meta == meta
        assert seg.row_bytes == row_bytes
        assert sorted(seg.classes) == [0, 1, 2]
        for c, rows in class_rows.items():
            assert seg.row_count(c) == len(rows)
            np.testing.assert_array_equal(seg.rows(c), rows)
        assert seg.verify() == []
        seg.close()

    def test_no_tmp_files_survive_a_clean_write(self, tmp_path):
        meta, class_rows, row_bytes = _segment_payload()
        write_segment(
            tmp_path, seq=1, meta=meta, epoch=0, gamma=0, wal_offset=0,
            class_rows=class_rows, row_bytes=row_bytes,
        )
        assert [n for n in os.listdir(tmp_path) if "tmp" in n] == []

    def test_corrupt_class_body_is_located_not_just_detected(self, tmp_path):
        meta, class_rows, row_bytes = _segment_payload()
        path = write_segment(
            tmp_path, seq=1, meta=meta, epoch=0, gamma=0, wal_offset=0,
            class_rows=class_rows, row_bytes=row_bytes,
        )
        seg = SegmentFile(path)
        offset = seg._body_start + seg._layout[2]["offset"]  # class 2 body
        seg.close()
        raw = bytearray(open(path, "rb").read())
        raw[offset] ^= 0x01
        with open(path, "wb") as f:
            f.write(bytes(raw))
        seg = SegmentFile(path)
        assert seg.verify() == [2]  # class 0 still verifies clean
        seg.close()

    def test_corrupt_header_raises_segment_error(self, tmp_path):
        meta, class_rows, row_bytes = _segment_payload()
        path = write_segment(
            tmp_path, seq=1, meta=meta, epoch=0, gamma=0, wal_offset=0,
            class_rows=class_rows, row_bytes=row_bytes,
        )
        raw = bytearray(open(path, "rb").read())
        raw[20] ^= 0xFF  # inside the JSON header
        with open(path, "wb") as f:
            f.write(bytes(raw))
        with pytest.raises(SegmentError):
            SegmentFile(path)

    def test_bad_magic_raises_segment_error(self, tmp_path):
        path = tmp_path / segment_name(1)
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SegmentError, match="magic"):
            SegmentFile(path)

    def test_list_segments_newest_first_and_ignores_noise(self, tmp_path):
        meta, class_rows, row_bytes = _segment_payload()
        for seq in (1, 3, 2):
            write_segment(
                tmp_path, seq=seq, meta=meta, epoch=0, gamma=0, wal_offset=0,
                class_rows=class_rows, row_bytes=row_bytes,
            )
        (tmp_path / ".tmp-segment-junk").write_bytes(b"partial")
        (tmp_path / "wal.rzw").write_bytes(b"")
        names = [os.path.basename(p) for p in list_segments(tmp_path)]
        assert names == [segment_name(3), segment_name(2), segment_name(1)]


# ----------------------------------------------------------------------
# ZoneStore
# ----------------------------------------------------------------------
def _init_store(directory, **kwargs):
    # Pin auto-compaction off so assertions about segment/WAL layout
    # hold under any ambient REPRO_STORE_AUTO_COMPACT (the CI
    # persistence job exports a tiny budget process-wide).
    kwargs.setdefault("auto_compact_bytes", 0)
    store = ZoneStore.open(directory, **kwargs)
    store.initialize(
        {"layer_width": WIDTH, "classes": CLASSES, "pattern_width": WIDTH}
    )
    return store


class TestZoneStore:
    def test_append_recover_roundtrip(self, tmp_path):
        rows = np.unique(pack_patterns(_patterns(20, seed=3)), axis=0)
        store = _init_store(tmp_path)
        store.append_insert(0, rows)
        store.append_gamma(2)
        store.append_snapshot(1, 2, {0: len(rows)})
        store.close()

        reopened = ZoneStore.open(tmp_path)
        assert reopened.initialized
        assert (reopened.gamma, reopened.epoch) == (2, 1)
        state = reopened.state()
        np.testing.assert_array_equal(
            np.unique(state.class_rows[0], axis=0), rows
        )
        assert state.dedup_counts()[0] == len(rows)
        assert reopened.recovery_events == []
        reopened.close()

    def test_writer_validation(self, tmp_path):
        store = ZoneStore.open(tmp_path)
        with pytest.raises(StoreError, match="not initialized"):
            store.append_gamma(1)
        store.initialize(
            {"layer_width": WIDTH, "classes": CLASSES, "pattern_width": WIDTH}
        )
        with pytest.raises(StoreError, match="already initialized"):
            store.initialize({"layer_width": WIDTH, "classes": CLASSES,
                              "pattern_width": WIDTH})
        with pytest.raises(StoreError, match="packed bytes"):
            store.append_insert(0, np.zeros((2, 99), dtype=np.uint8))
        store.close()
        with pytest.raises(StoreError, match="missing keys"):
            _init_store_missing = ZoneStore.open(tmp_path / "fresh")
            _init_store_missing.initialize({"layer_width": WIDTH})

    def test_compact_dedups_and_prunes(self, tmp_path):
        rows = pack_patterns(_patterns(15, seed=4))
        store = _init_store(tmp_path)
        store.append_insert(1, rows)
        store.append_insert(1, rows)  # raw duplicate append
        first = store.compact()
        store.append_insert(2, rows[:5])
        second = store.compact(keep_segments=0)
        assert os.path.exists(second)
        assert not os.path.exists(first)  # pruned past keep_segments
        seg = SegmentFile(second)
        np.testing.assert_array_equal(
            seg.rows(1), np.unique(rows, axis=0)
        )
        seg.close()
        # Cold start now maps the segment with an empty WAL tail.
        store.close()
        reopened = ZoneStore.open(tmp_path)
        assert reopened.wal_tail_bytes == 0
        assert reopened.state().dedup_counts()[1] == len(np.unique(rows, axis=0))
        reopened.close()

    def test_corrupt_segment_quarantined_and_rebuilt_from_wal(self, tmp_path):
        rows = np.unique(pack_patterns(_patterns(12, seed=6)), axis=0)
        store = _init_store(tmp_path)
        store.append_insert(0, rows)
        store.append_snapshot(1, 0, {0: len(rows)})
        path = store.compact()
        store.close()
        raw = bytearray(open(path, "rb").read())
        raw[-2] ^= 0xFF  # corrupt a class body byte
        with open(path, "wb") as f:
            f.write(bytes(raw))

        reopened = ZoneStore.open(tmp_path)
        assert any("quarantin" in e for e in reopened.recovery_events)
        assert not os.path.exists(path)
        assert any(
            ".quarantined" in n for n in os.listdir(tmp_path)
        )
        # The WAL remains ground truth: full state rebuilt, epoch intact.
        assert reopened.epoch == 1
        np.testing.assert_array_equal(
            np.unique(reopened.state().class_rows[0], axis=0), rows
        )
        assert reopened.verify()["ok"]
        reopened.close()

    def test_corrupt_wal_quarantined_after_segment(self, tmp_path):
        rows = np.unique(pack_patterns(_patterns(10, seed=8)), axis=0)
        store = _init_store(tmp_path)
        store.append_insert(2, rows)
        store.append_snapshot(1, 0, {2: len(rows)})
        store.compact()
        cursor = store.wal_offset
        store.close()
        wal_path = tmp_path / "wal.rzw"
        raw = bytearray(wal_path.read_bytes())
        raw[0] ^= 0xFF  # destroy the WAL header
        wal_path.write_bytes(bytes(raw))

        reopened = ZoneStore.open(tmp_path)
        assert any("quarantin" in e for e in reopened.recovery_events)
        # Fresh WAL restarts at the segment's replay cursor, so logical
        # offsets stay monotonic.
        assert reopened.wal_offset == cursor
        np.testing.assert_array_equal(
            np.unique(reopened.state().class_rows[2], axis=0), rows
        )
        reopened.close()

    def test_torn_wal_tail_truncated_on_open(self, tmp_path):
        rows = pack_patterns(_patterns(6, seed=9))
        store = _init_store(tmp_path)
        store.append_insert(0, rows)
        store.close()
        with open(tmp_path / "wal.rzw", "ab") as f:
            f.write(b"\x55\xaa\x55")  # torn garbage past the last record

        reopened = ZoneStore.open(tmp_path)
        assert any("torn" in e for e in reopened.recovery_events)
        assert reopened.state().dedup_counts()[0] == len(np.unique(rows, axis=0))
        # The truncation is durable: a second open sees a clean WAL.
        reopened.close()
        again = ZoneStore.open(tmp_path)
        assert again.recovery_events == []
        again.close()

    def test_auto_compact_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_AUTO_COMPACT", "64")
        store = ZoneStore.open(tmp_path)
        store.initialize(
            {"layer_width": WIDTH, "classes": CLASSES, "pattern_width": WIDTH}
        )
        store.append_insert(0, pack_patterns(_patterns(40, seed=10)))
        assert store.segment_seq is None  # inserts alone never compact
        store.append_snapshot(1, 0, {0: 1})
        assert store.segment_seq is not None  # snapshot crossed the budget
        store.close()

    def test_verify_and_info_reports(self, tmp_path):
        store = _init_store(tmp_path)
        rows = pack_patterns(_patterns(8, seed=12))
        store.append_insert(1, rows)
        store.append_snapshot(
            1, 0, {1: len(np.unique(rows, axis=0))}
        )
        # Marker still in the tail: counts are cross-checked, and extra
        # inserts after the marker are expected surplus, not a mismatch.
        store.append_insert(2, pack_patterns(_patterns(5, seed=13)))
        pre = store.verify()
        assert pre["ok"] and pre["snapshot_counts_match"]
        store.compact()
        report = store.verify()
        assert report["ok"]
        assert report["segments"][0]["valid"]
        assert report["wal"]["torn_bytes"] == 0
        # Once folded into a segment the marker is covered by body CRCs
        # instead of the replay cross-check.
        assert "snapshot_counts_match" not in report
        info = store.info()
        assert info["initialized"] and info["epoch"] == 1
        assert info["segment_seq"] == 1
        assert info["classes"] == CLASSES
        store.close()

    def test_context_manager_closes(self, tmp_path):
        with ZoneStore.open(tmp_path) as store:
            store.initialize(
                {"layer_width": WIDTH, "classes": CLASSES,
                 "pattern_width": WIDTH}
            )
        reopened = ZoneStore.open(tmp_path)
        assert reopened.initialized
        reopened.close()


# ----------------------------------------------------------------------
# monitor integration
# ----------------------------------------------------------------------
class TestMonitorStore:
    @pytest.mark.parametrize("backend", ["bitset", "bdd"])
    def test_attach_from_store_bit_identical(self, tmp_path, backend):
        monitor = _monitor(backend=backend)
        store = ZoneStore.open(tmp_path)
        monitor.attach_store(store)
        # Live write-through after attach: fresh patterns and a γ change.
        extra = _patterns(30, seed=21)
        labels = np.zeros(len(extra), dtype=np.int64)
        monitor.record(extra, labels, labels)
        monitor.set_gamma(2)
        store.flush(sync=True)

        probe = _patterns(100, seed=22)
        probe_classes = np.random.default_rng(23).integers(0, 3, len(probe))
        for restored_backend in ("bitset", "bdd"):
            recovered = NeuronActivationMonitor.from_store(
                tmp_path, backend=restored_backend, attach=False
            )
            assert recovered.gamma == 2
            # Verdict agreement at several enlargements resolves zone
            # contents near the boundary, at a fraction of the cost of
            # min_distances on the bdd backend.
            for gamma in (0, 1, 2):
                recovered.set_gamma(gamma)
                monitor.set_gamma(gamma)
                np.testing.assert_array_equal(
                    recovered.check(probe, probe_classes),
                    monitor.check(probe, probe_classes),
                )
            monitor.set_gamma(2)
            for c in CLASSES:
                assert (
                    recovered.zones[c].num_visited_patterns
                    == monitor.zones[c].num_visited_patterns
                )
        store.close()

    def test_sink_logs_only_fresh_rows(self, tmp_path):
        monitor = NeuronActivationMonitor(WIDTH, [0], gamma=0, backend="bitset")
        store = ZoneStore.open(tmp_path)
        monitor.attach_store(store)
        batch = _patterns(10, seed=30)
        monitor.zones[0].add_patterns(batch)
        monitor.zones[0].add_patterns(batch)  # full duplicate: no new rows
        scan = store._wal.scan()
        inserted = sum(
            len(r.rows) // store.row_bytes
            for r in scan.records
            if type(r).__name__ == "InsertRecord"
        )
        assert inserted == len(np.unique(pack_patterns(batch), axis=0))
        store.close()

    def test_attach_rejects_mismatched_store(self, tmp_path):
        _monitor().attach_store(_init_store_for(tmp_path, _monitor()))
        other = NeuronActivationMonitor(WIDTH + 8, CLASSES, backend="bitset")
        with pytest.raises(StoreError, match="layer_width"):
            other.attach_store(ZoneStore.open(tmp_path))

    def test_drift_responder_persists_snapshots(self, tmp_path):
        monitor = _monitor()
        val = _patterns(150, seed=40)
        val_labels = np.random.default_rng(41).integers(0, 3, len(val))
        store = ZoneStore.open(tmp_path)
        responder = DriftResponder(
            monitor, val, val_labels, val_labels, min_staged=8, store=store
        )
        drifted = (np.random.default_rng(42).random((40, WIDTH)) < 0.8).astype(
            np.uint8
        )
        responder.staging.add(
            drifted, np.random.default_rng(43).integers(0, 3, len(drifted))
        )
        layout = [(0, [0]), (1, [1]), (2, [2])]
        snapshot = responder.respond(layout)
        assert snapshot is not None
        assert store.epoch == snapshot.epoch == 1
        store.close()

        # A cold restart resumes at the recorded epoch with the absorbed
        # zones — verdicts bit-identical to the published candidate.
        reopened = ZoneStore.open(tmp_path)
        recovered = NeuronActivationMonitor.from_store(reopened, attach=False)
        assert recovered.gamma == responder.monitor.gamma
        probe = _patterns(80, seed=44)
        probe_classes = np.random.default_rng(45).integers(0, 3, len(probe))
        np.testing.assert_array_equal(
            recovered.check(probe, probe_classes),
            responder.monitor.check(probe, probe_classes),
        )
        resumed = DriftResponder(
            recovered, val, val_labels, val_labels, min_staged=8,
            store=reopened,
        )
        assert resumed.epoch == 1  # monotonic across the restart
        reopened.close()


def _init_store_for(directory, monitor):
    store = ZoneStore.open(directory)
    store.initialize(monitor.store_meta())
    return store
