"""In-memory span recorder wrapped around each layer's public functions.

The traced run installs wrappers from here around the public entry
points of every layer (the table :data:`HOOKS`), runs a round, and
removes them again; nothing inside ``src/`` knows about it, and the
untraced run installs nothing.  Each span records a name, start, end,
parent span and request id; the parent comes from a context variable,
so spans nest per asyncio task and per thread.  A span's self time is
its duration minus the part of it covered by its child spans.

Per-row detector updates are only counted and timed in aggregate
(``mode="count"``): a span object per row would cost more than the row.
Calls that return a future (the process pool's ``submit``) end when the
future resolves, so their span is the pool round trip.

A hook whose target no longer exists is skipped and listed in
:attr:`Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)

#: Spans kept in memory per run; later spans are counted, not stored
#: (the per-layer sums still include them).
MAX_STORED_SPANS = 400_000

#: (module, attribute path, span name, mode)
HOOKS: List[Tuple[str, str, str, str]] = [
    ("repro.monitor.runtime", "extract_patterns", "patterns.extract", "sync"),
    ("repro.monitor.runtime", "MonitoredClassifier.classify", "runtime.classify", "sync"),
    ("repro.monitor.monitor", "NeuronActivationMonitor.check", "monitor.check", "sync"),
    ("repro.monitor.monitor", "NeuronActivationMonitor.min_distances", "monitor.min_distances", "sync"),
    ("repro.monitor.monitor", "NeuronActivationMonitor.merge", "drift.merge", "sync"),
    ("repro.monitor.backends.bdd", "BDDZoneBackend.contains_batch", "bdd.contains_batch", "sync"),
    ("repro.monitor.backends.bdd", "BDDZoneBackend.min_distances", "bdd.min_distances", "sync"),
    ("repro.monitor.backends.bitset", "BitsetZoneBackend.contains_batch", "bitset.contains_batch", "sync"),
    ("repro.monitor.backends.bitset", "BitsetZoneBackend.min_distances", "bitset.min_distances", "sync"),
    ("repro.monitor.shift", "DistributionShiftDetector.update", "shift.binary", "count"),
    ("repro.monitor.shift", "DistributionShiftDetector.update_many", "shift.binary", "count"),
    ("repro.monitor.shift", "DistanceShiftDetector.update", "shift.distance", "count"),
    ("repro.monitor.shift", "DistanceShiftDetector.update_many", "shift.distance", "count"),
    ("repro.serving.procpool", "ProcessShardPool.submit", "procpool.submit", "future"),
    ("repro.serving.cluster", "ClusterCoordinator.check", "cluster.check", "sync"),
    ("repro.serving.cluster", "ClusterCoordinator.min_distances", "cluster.min_distances", "sync"),
    ("repro.serving.cluster", "ClusterCoordinator.apply_snapshot", "cluster.swap", "sync"),
    ("repro.serving.shard", "ShardRouter.apply_snapshot", "shard.apply_snapshot", "sync"),
    ("repro.monitor.drift", "DriftResponder.respond", "drift.respond", "sync"),
    ("repro.monitor.calibration", "GammaCalibrator.calibrate_patterns", "calibration.sweep", "sync"),
    ("repro.store.store", "ZoneStore.append_insert", "store.append", "sync"),
    ("repro.store.store", "ZoneStore.append_gamma", "store.append", "sync"),
    ("repro.store.store", "ZoneStore.append_snapshot", "store.append", "sync"),
    ("os", "fsync", "store.fsync", "count"),
]


def _rows_of(args) -> int:
    """Row count of the first array-like argument after ``self``."""
    for arg in args[1:3]:
        shape = getattr(arg, "shape", None)
        if shape:
            return int(shape[0])
        if isinstance(arg, (list, tuple)):
            return len(arg)
    return 1


class Tracer:
    """Span store plus the install/remove logic for the layer hooks."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.dropped = 0
        # name → [calls, rows, total_ns] for mode="count" hooks
        self.counters: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._installed: List[Tuple[object, str, Optional[object]]] = []
        self._model = None

    # -- recording ------------------------------------------------------
    def _store(self, span: tuple) -> None:
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    def record(self, name: str, start_ns: int, end_ns: int, rows: int = 1) -> None:
        """Record a span measured by the caller (request-level spans)."""
        self._store((next(self._ids), name, start_ns, end_ns, _CURRENT.get(),
                     REQUEST.get(), rows))

    def _sync(self, fn: Callable, name: str, keep: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep is not None and not keep(args):
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                tracer._store((sid, name, start, end, parent, REQUEST.get(), _rows_of(args)))
        return wrapper

    def _count(self, fn: Callable, name: str) -> Callable:
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += len(args[1]) if len(args) > 1 and hasattr(args[1], "__len__") else 1
                counter[2] += time.perf_counter_ns() - start
        return wrapper

    def _future(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _CURRENT.get()
            request = REQUEST.get()
            rows = _rows_of(args[1:])
            start = time.perf_counter_ns()
            future = fn(*args, **kwargs)

            def done(_f):
                tracer._store((sid, name, start, time.perf_counter_ns(), parent, request, rows))
            future.add_done_callback(done)
            return future
        return wrapper

    # -- install / remove -------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, classmethod):
            bound = getattr(owner, attr)
            wrapped = make(bound)
            setattr(owner, attr, staticmethod(wrapped))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._installed.append((owner, attr, raw if own else None))

    def install(self, model=None) -> None:
        """Wrap every hook target; ``model`` (optional) is the network
        whose top-level forward calls become ``nn.forward`` spans."""
        self._model = model
        for module_name, path, name, mode in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                target = f"{module_name}.{path}"
                if target not in self.missing:
                    self.missing.append(target)
                continue
            make = {
                "sync": lambda fn, n=name: self._sync(fn, n),
                "count": lambda fn, n=name: self._count(fn, n),
                "future": lambda fn, n=name: self._future(fn, n),
            }[mode]
            self._patch(owner, attr, make)
        if model is not None:
            self._patch(
                type(model), "__call__",
                lambda fn: self._sync(fn, "nn.forward", keep=lambda args: args[0] is model),
            )

    def remove(self) -> None:
        """Restore every wrapped attribute (reverse install order); an
        inherited one is deleted again so lookup reaches the base class."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def paused(self):
        """No hooks inside the block (the benchmark's own output checks)."""
        self.remove()
        try:
            yield
        finally:
            self.install(self._model)

    # -- analysis -------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, rows, total seconds and self seconds."""
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for sid, _name, start, end, parent, _req, _rows in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, name, start, end, _parent, _req, rows in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            row = out[name]
            row["calls"] += 1
            row["rows"] += rows
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered) / 1e9
        for name, (calls, rows, total_ns) in self.counters.items():
            row = out[name]
            row["calls"] += calls
            row["rows"] += rows
            row["total_s"] += total_ns / 1e9
            row["self_s"] += total_ns / 1e9
        return dict(out)

    def write(self, path: str) -> None:
        """Write every stored span, one JSON object a line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req, rows in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": req, "rows": rows,
                }) + "\n")


#: Every per-layer metric a traced run prints, with its unit.  Counts and
#: self times are per timed round; ``_ms`` / ``_us`` figures are means per
#: call (or per row).  A layer the workload does not exercise reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "nn.calls": "count", "nn.rows": "rows", "nn.self_s": "s", "nn.forward_ms": "ms",
    "patterns.self_s": "s",
    "runtime.calls": "count", "runtime.rows_per_call": "rows",
    "monitor.check_calls": "count", "monitor.self_s": "s",
    "monitor.backend_calls_per_check": "ratio",
    "bdd.calls": "count", "bdd.self_s": "s", "bdd.contains_batch_ms": "ms",
    "bdd.cache_hit_ratio": "ratio",
    "bitset.calls": "count", "bitset.self_s": "s",
    "shift.rows": "rows", "shift.us_per_row": "us",
    "server.batches": "count", "server.mean_batch_rows": "rows",
    "server.max_queue_depth": "blocks", "server.queue_wait_ms": "ms",
    "procpool.roundtrip_ms": "ms", "procpool.ring_blocks": "blocks",
    "procpool.pipe_blocks": "blocks",
    "cluster.roundtrip_ms": "ms", "cluster.swap_ms": "ms", "cluster.requeued_blocks": "blocks",
    "shard.apply_snapshot_ms": "ms",
    "drift.responses": "count", "drift.absorbed_rows": "rows", "drift.respond_ms": "ms",
    "drift.merge_ms": "ms", "calibration.sweep_ms": "ms",
    "store.append_ms": "ms", "store.wal_bytes": "bytes", "store.fsyncs": "count",
    "trace.rows_per_s": "rows/s", "trace.overhead_pct": "%",
}

_EMPTY = {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}


def _merged(summary, *names) -> Dict[str, float]:
    row = dict(_EMPTY)
    for name in names:
        for key, value in summary.get(name, _EMPTY).items():
            row[key] += value
    return row


def _mean_ms(row) -> float:
    return row["total_s"] / row["calls"] * 1e3 if row["calls"] else 0.0


def span_metrics(tracer: Tracer, rounds: int) -> Dict[str, float]:
    """The per-layer metrics that come from spans, per traced round."""
    summary = tracer.summary()
    nn = _merged(summary, "nn.forward")
    runtime = _merged(summary, "runtime.classify")
    monitor = _merged(summary, "monitor.check", "monitor.min_distances")
    bdd = _merged(summary, "bdd.contains_batch", "bdd.min_distances")
    bitset = _merged(summary, "bitset.contains_batch", "bitset.min_distances")
    shift = _merged(summary, "shift.binary", "shift.distance")
    per = (lambda v: v / rounds) if rounds else (lambda v: 0.0)
    return {
        "nn.calls": per(nn["calls"]),
        "nn.rows": per(nn["rows"]),
        "nn.self_s": per(nn["self_s"]),
        "nn.forward_ms": _mean_ms(nn),
        "patterns.self_s": per(_merged(summary, "patterns.extract")["self_s"]),
        "runtime.calls": per(runtime["calls"]),
        "runtime.rows_per_call": runtime["rows"] / runtime["calls"] if runtime["calls"] else 0.0,
        "monitor.check_calls": per(monitor["calls"]),
        "monitor.self_s": per(monitor["self_s"]),
        "monitor.backend_calls_per_check": (
            (bdd["calls"] + bitset["calls"]) / monitor["calls"] if monitor["calls"] else 0.0
        ),
        "bdd.calls": per(bdd["calls"]),
        "bdd.self_s": per(bdd["self_s"]),
        "bdd.contains_batch_ms": _mean_ms(_merged(summary, "bdd.contains_batch")),
        "bitset.calls": per(bitset["calls"]),
        "bitset.self_s": per(bitset["self_s"]),
        "shift.rows": per(shift["rows"]),
        "shift.us_per_row": shift["total_s"] / shift["rows"] * 1e6 if shift["rows"] else 0.0,
        "procpool.roundtrip_ms": _mean_ms(_merged(summary, "procpool.submit")),
        "cluster.roundtrip_ms": _mean_ms(_merged(summary, "cluster.check", "cluster.min_distances")),
        "cluster.swap_ms": _mean_ms(_merged(summary, "cluster.swap")),
        "shard.apply_snapshot_ms": _mean_ms(_merged(summary, "shard.apply_snapshot")),
        "drift.respond_ms": _mean_ms(_merged(summary, "drift.respond")),
        "drift.merge_ms": _mean_ms(_merged(summary, "drift.merge")),
        "calibration.sweep_ms": _mean_ms(_merged(summary, "calibration.sweep")),
        "store.append_ms": _mean_ms(_merged(summary, "store.append")),
        "store.fsyncs": per(_merged(summary, "store.fsync")["calls"]),
    }


def mean_span_ms(tracer: Tracer, *names: str) -> float:
    return _mean_ms(_merged(tracer.summary(), *names))


def per_layer_result(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; unmeasured ones read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
