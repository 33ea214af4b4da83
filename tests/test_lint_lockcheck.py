"""Runtime lock-order checker: recorder units, a deliberate inversion,
the static graph over the real tree, and an instrumented drift workload.

The static half (:mod:`repro.devtools.lint.lockgraph`) proves the
*declared* order is acyclic; the runtime half proves executions stay on
it.  The key test injects a deliberate inversion and asserts the checker
catches it — the race-detector contract the CI lockcheck job relies on.
"""

from __future__ import annotations

import ast
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.devtools.lint.lockgraph import (
    build_graph,
    build_graph_for_paths,
    find_cycle,
)
from repro.devtools.lint.runtime import (
    LockOrderRecorder,
    LockOrderViolation,
    RECORDER,
    lockcheck_enabled,
    named_lock,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The modules whose locks form the serving/drift acquisition graph.
GRAPH_PATHS = [
    str(SRC / "repro" / "serving"),
    str(SRC / "repro" / "monitor" / "drift.py"),
    str(SRC / "repro" / "monitor" / "shift.py"),
]


# ----------------------------------------------------------------------
# recorder units
# ----------------------------------------------------------------------
class TestLockOrderRecorder:
    def test_nested_acquire_records_edge(self):
        recorder = LockOrderRecorder()
        a = named_lock("A.lock", recorder)
        b = named_lock("B.lock", recorder)
        with a:
            with b:
                pass
        assert recorder.observed_edges() == {("A.lock", "B.lock")}
        recorder.check_consistent()  # acyclic: no raise

    def test_sequential_acquire_records_nothing(self):
        recorder = LockOrderRecorder()
        a = named_lock("A.lock", recorder)
        b = named_lock("B.lock", recorder)
        with a:
            pass
        with b:
            pass
        assert recorder.observed_edges() == set()

    def test_per_thread_stacks_do_not_interleave(self):
        recorder = LockOrderRecorder()
        a = named_lock("A.lock", recorder)
        b = named_lock("B.lock", recorder)
        hold_a = threading.Event()
        release_a = threading.Event()

        def holder():
            with a:
                hold_a.set()
                release_a.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert hold_a.wait(5.0)
        # This thread takes only b; the other thread holds a.  No edge —
        # the two holds are on different threads.
        with b:
            pass
        release_a.set()
        thread.join(5.0)
        assert recorder.observed_edges() == set()

    def test_out_of_lifo_release(self):
        recorder = LockOrderRecorder()
        a = named_lock("A.lock", recorder)
        b = named_lock("B.lock", recorder)
        a.acquire()
        b.acquire()
        a.release()  # legal for plain locks
        c = named_lock("C.lock", recorder)
        with c:
            pass
        b.release()
        # After releasing a, only b was held when c was taken.
        assert ("B.lock", "C.lock") in recorder.observed_edges()
        assert ("A.lock", "C.lock") not in recorder.observed_edges()

    def test_nonblocking_acquire_failure_records_nothing(self):
        recorder = LockOrderRecorder()
        a = named_lock("A.lock", recorder)
        a.acquire()
        assert not a.acquire(blocking=False)
        assert recorder.observed_edges() == set()
        a.release()

    def test_deliberate_inversion_is_detected(self):
        """The race-detector contract: an execution that inverts the
        order trips the checker even though it never deadlocked."""
        recorder = LockOrderRecorder()
        responder = named_lock("DriftResponder._lock", recorder)
        staging = named_lock("StagingZone._lock", recorder)
        with responder:
            with staging:
                pass
        recorder.check_consistent()  # canonical order: fine
        with staging:
            with responder:  # the inversion — lucky schedule, no deadlock
                pass
        with pytest.raises(LockOrderViolation, match="DriftResponder._lock"):
            recorder.check_consistent()

    def test_inversion_against_static_graph_only(self):
        """One runtime edge + the opposing *static* edge is enough."""
        recorder = LockOrderRecorder()
        responder = named_lock("DriftResponder._lock", recorder)
        staging = named_lock("StagingZone._lock", recorder)
        with staging:
            with responder:
                pass
        static = build_graph_for_paths(GRAPH_PATHS)
        assert ("DriftResponder._lock", "StagingZone._lock") in static.edge_set()
        with pytest.raises(LockOrderViolation):
            recorder.check_consistent(static.edge_set())

    def test_named_lock_is_plain_lock_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_LINT_LOCKCHECK", raising=False)
        lock = named_lock("X.lock")
        assert isinstance(lock, type(threading.Lock()))

    def test_named_lock_instrumented_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_LOCKCHECK", "1")
        lock = named_lock("X.lock")
        assert hasattr(lock, "name") and lock.name == "X.lock"


# ----------------------------------------------------------------------
# static graph over the real tree
# ----------------------------------------------------------------------
class TestStaticGraph:
    def test_real_tree_graph_is_acyclic(self):
        graph = build_graph_for_paths(GRAPH_PATHS)
        assert graph.find_cycle() is None, graph.edge_set()

    def test_real_tree_declares_the_known_locks(self):
        graph = build_graph_for_paths(GRAPH_PATHS)
        assert {
            "DriftResponder._lock",
            "StagingZone._lock",
            "ShardFleet._lock",
            "WorkerHandle.send_lock",
            "DistributionShiftDetector._lock",
            "DistanceShiftDetector._lock",
        } <= graph.nodes

    def test_responder_to_staging_edge_is_recovered(self):
        # respond() holds the responder lock while draining staging — the
        # one real nesting in the tree, recovered through the attr-type
        # call closure (self.staging = StagingZone(...); staging.drain()).
        graph = build_graph_for_paths(GRAPH_PATHS)
        assert ("DriftResponder._lock", "StagingZone._lock") in graph.edge_set()

    def test_pool_never_sends_under_its_own_lock(self):
        # The fleet core's discipline: _lock is released before send_lock
        # is taken (snapshot targets are collected under _lock, sent after).
        graph = build_graph_for_paths(GRAPH_PATHS)
        assert (
            "ShardFleet._lock",
            "WorkerHandle.send_lock",
        ) not in graph.edge_set()
        assert (
            "WorkerHandle.send_lock",
            "ShardFleet._lock",
        ) not in graph.edge_set()

    def test_subclass_walks_inherited_methods_with_its_hooks(self):
        # The serving executors subclass the fleet core: a base method
        # that calls a hook under the base's lock must pick up the locks
        # the subclass's override takes.
        source = textwrap.dedent('''
            class Base:
                def __init__(self):
                    self._lock = named_lock("Base._lock")

                def run(self):
                    with self._lock:
                        self.hook()

                def hook(self):
                    pass

            class Inner:
                def __init__(self):
                    self._lock = named_lock("Inner._lock")

                def go(self):
                    with self._lock:
                        pass

            class Sub(Base):
                def __init__(self):
                    self.inner = Inner()

                def hook(self):
                    self.inner.go()
        ''')
        graph = build_graph([("m.py", ast.parse(source))])
        assert ("Base._lock", "Inner._lock") in graph.edge_set()
        assert "Base._lock" in graph.nodes

    def test_find_cycle_on_known_cycle(self):
        cycle = find_cycle({("a", "b"), ("b", "c"), ("c", "a")})
        assert cycle is not None and cycle[0] == cycle[-1]
        assert find_cycle({("a", "b"), ("b", "c")}) is None


# ----------------------------------------------------------------------
# instrumented drift workload
# ----------------------------------------------------------------------
WIDTH = 16
CLASSES = list(range(4))


def _build_monitor(seed=0):
    rng = np.random.default_rng(seed)
    patterns = (rng.random((120, WIDTH)) < 0.2).astype(np.uint8)
    labels = rng.integers(0, len(CLASSES), len(patterns))
    from repro.monitor import NeuronActivationMonitor

    monitor = NeuronActivationMonitor(WIDTH, CLASSES, gamma=1, backend="bitset")
    monitor.record(patterns, labels, labels)
    return monitor


class TestInstrumentedWorkload:
    def test_drift_workload_order_consistent_with_static_graph(self, monkeypatch):
        """Drive the real responder/staging/detector stack with
        instrumented locks and assert no inversion was observed."""
        monkeypatch.setenv("REPRO_LINT_LOCKCHECK", "1")
        from repro.monitor import DriftResponder
        from repro.monitor.shift import (
            DistanceShiftDetector,
            DistributionShiftDetector,
        )

        monitor = _build_monitor()
        rng = np.random.default_rng(7)
        val_patterns = (rng.random((80, WIDTH)) < 0.2).astype(np.uint8)
        val_labels = rng.integers(0, len(CLASSES), 80)
        responder = DriftResponder(
            monitor, val_patterns, val_labels, val_labels, min_staged=8
        )
        shifted = (rng.random((60, WIDTH)) < 0.8).astype(np.uint8)
        shifted_classes = rng.integers(0, len(CLASSES), 60)
        responder.staging.add(shifted, shifted_classes)
        snapshot = responder.respond([(0, CLASSES)])
        assert snapshot is not None and snapshot.epoch == 1

        # rebaseline() + peek() interplay under the instrumented wrapper
        # (the satellite concern): exercise from two threads.
        detector = DistributionShiftDetector(baseline_rate=0.05, window=16)
        distance = DistanceShiftDetector(baseline_distances=[0, 1, 1, 2], window=16)
        stop = threading.Event()

        def poller():
            while not stop.is_set():
                detector.peek()
                distance.peek()

        thread = threading.Thread(target=poller)
        thread.start()
        try:
            for _ in range(50):
                detector.update_many([True, False, False])
                distance.update_many([0, 1, 3])
                detector.rebaseline(0.06)
                distance.rebaseline([0, 1, 2, 2])
        finally:
            stop.set()
            thread.join(5.0)

        # The workload exercised the responder→staging hold-and-drain
        # (the recorder is process-global and cumulative, so earlier
        # instrumented suites may have contributed the edge too).
        observed = RECORDER.observed_edges()
        assert ("DriftResponder._lock", "StagingZone._lock") in observed
        static = build_graph_for_paths(GRAPH_PATHS)
        RECORDER.check_consistent(static.edge_set())  # no inversion: no raise

    def test_global_recorder_state_is_consistent_when_enabled(self):
        """Mirror of the conftest session-teardown gate, callable inline."""
        if not lockcheck_enabled():
            pytest.skip("REPRO_LINT_LOCKCHECK not enabled")
        static = build_graph_for_paths(GRAPH_PATHS)
        RECORDER.check_consistent(static.edge_set())
