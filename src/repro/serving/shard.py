"""Sharding monitors into independently queryable slices.

A :class:`~repro.monitor.monitor.NeuronActivationMonitor` is a dictionary
of per-class comfort zones over one projection — an embarrassingly
partitionable structure: any subset of classes is itself a complete
monitor for the decisions predicted as those classes.  A
:class:`MonitorShard` wraps such a slice; :class:`ShardRouter` partitions
a monitor into shards, routes query rows to the shard owning their
predicted class, and reassembles the full monitor with
:meth:`NeuronActivationMonitor.merge` (the exact inverse of
:meth:`ShardRouter.partition`, since zones are exchanged as deduplicated
visited-pattern matrices).

Detection monitors shard along their natural axis instead: one shard per
grid cell (:func:`shard_detection_monitor`), each wrapping that cell's
complete per-class monitor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.monitor.detection import DetectionMonitor
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.patterns import pack_patterns, unpack_patterns


class MonitorShard:
    """One independently queryable slice of a monitor.

    Thin, stateless wrapper pairing a shard id with the slice's monitor;
    all storage and vectorised querying stays in the monitor's zone
    backends, so a shard can live in its own worker, process or host.
    :meth:`to_payload` / :meth:`from_payload` are the wire form for the
    "own host" case: a picklable dict of packed visited-pattern matrices
    plus metadata, from which any process can rebuild a bit-identical
    shard with its own local backends (shared-nothing rehydration — see
    :class:`~repro.serving.procpool.ProcessShardPool`).
    """

    def __init__(self, shard_id: int, monitor: NeuronActivationMonitor):
        self.shard_id = shard_id
        self.monitor = monitor

    @property
    def classes(self) -> List[int]:
        """The class indices this shard serves."""
        return self.monitor.classes

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Vectorised zone membership for rows owned by this shard."""
        return self.monitor.check(patterns, predicted_classes)

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Exact (or ``cap``-bounded) Hamming distances for owned rows."""
        return self.monitor.min_distances(patterns, predicted_classes, cap=cap)

    # ------------------------------------------------------------------
    # portable exchange (process/host boundary)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Serialise this shard to a plain picklable dict.

        The zone contents travel as the backend-portable deduplicated
        ``visited_patterns()`` matrices (bit-packed along the row axis,
        the same exchange format as save/load and ``merge``), so the
        receiving process rebuilds its own backend of the recorded kind —
        nothing engine-internal (BDD nodes, sorted word arrays, band
        indices) ever crosses the pipe.
        """
        monitor = self.monitor
        zones = {}
        for c, zone in monitor.zones.items():
            visited = zone.backend.visited_patterns()
            zones[int(c)] = (pack_patterns(visited), int(visited.shape[0]))
        return {
            "shard_id": int(self.shard_id),
            "layer_width": int(monitor.layer_width),
            "classes": [int(c) for c in monitor.classes],
            "gamma": int(monitor.gamma),
            "monitored_neurons": np.asarray(monitor.monitored_neurons),
            "pattern_width": int(len(monitor.monitored_neurons)),
            "backend": monitor.backend_name,
            "indexed": bool(monitor.indexed),
            "zones": zones,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "MonitorShard":
        """Rebuild a shard from :meth:`to_payload` output (exact inverse).

        The rebuilt shard owns fresh local backends seeded with the
        payload's visited sets — verdicts and distances are bit-identical
        to the source shard's by the backend-equivalence guarantee.
        """
        monitor = NeuronActivationMonitor(
            layer_width=int(payload["layer_width"]),
            classes=payload["classes"],
            gamma=int(payload["gamma"]),
            monitored_neurons=payload["monitored_neurons"],
            backend=payload["backend"],
            indexed=bool(payload["indexed"]),
        )
        width = int(payload["pattern_width"])
        for c, (packed, count) in payload["zones"].items():
            if count:
                monitor.zones[int(c)].add_patterns(
                    unpack_patterns(packed, width)[:count]
                )
        return cls(int(payload["shard_id"]), monitor)

    def check_batch(
        self, patterns, predicted_classes, with_distances=False,
        distance_cap=None,
    ):
        """One-kernel-pass combined query: ``(verdicts, distances | None)``.

        When the caller also wants distances (the serving layer's inline
        histogram detector), deriving verdicts from the distance kernel
        halves the backend work: :meth:`NeuronActivationMonitor.supported`
        turns the distances into the verdicts ``check`` gives, for every
        γ (the bare ``distance <= gamma`` would pass an empty zone's
        sentinel once γ exceeds the projected width).  This is the
        single callable the :class:`~repro.serving.server.StreamServer`
        ships to its thread pool or worker processes, so a whole
        micro-batch runs off the event loop (numpy releases the GIL
        inside the kernels).

        ``distance_cap=k`` requests the *bounded* distance form
        (``min(true, k+1)`` per row — index-accelerated on the indexed
        bitset backend).  The effective cap is clamped to at least the
        monitor's γ, so verdicts stay exact for any requested cap; the
        serving layer passes the attached detector's overflow bin, which
        keeps the histogram/alarm stream bit-identical too.
        """
        # One local reference for the whole batch: a concurrent zone swap
        # (``ShardRouter.apply_snapshot`` rebinds ``self.monitor``) must
        # never split a batch across epochs — every read below (check,
        # gamma clamp, distance kernel, verdict derivation) sees the same
        # monitor object.
        monitor = self.monitor
        if not with_distances:
            return monitor.check(patterns, predicted_classes), None
        cap = None
        if distance_cap is not None:
            cap = max(int(distance_cap), monitor.gamma)
        distances = monitor.min_distances(
            patterns, predicted_classes, cap=cap
        )
        return monitor.supported(distances), distances

    def __repr__(self) -> str:
        return f"MonitorShard(id={self.shard_id}, classes={self.classes})"


class ShardRouter:
    """Partition a classification monitor per-class and route queries.

    The router is the synchronous core of the serving layer: it owns the
    class → shard map and stitches per-shard vectorised answers back into
    request order.  The async :class:`~repro.serving.server.StreamServer`
    adds queueing and micro-batching on top.
    """

    def __init__(self, shards: Sequence[MonitorShard]):
        if not shards:
            raise ValueError("router needs at least one shard")
        self.shards = list(shards)
        self.epoch = 0
        self._shard_by_id: Dict[int, MonitorShard] = {}
        self._owner: Dict[int, MonitorShard] = {}
        for shard in self.shards:
            if shard.shard_id in self._shard_by_id:
                raise ValueError(f"duplicate shard id {shard.shard_id}")
            self._shard_by_id[shard.shard_id] = shard
            for c in shard.classes:
                if c in self._owner:
                    raise ValueError(f"class {c} is owned by two shards")
                self._owner[c] = shard

    @classmethod
    def partition(
        cls, monitor: NeuronActivationMonitor, num_shards: int
    ) -> "ShardRouter":
        """Split a monitor's classes round-robin into ``num_shards`` slices.

        Each shard gets a fresh monitor over the same layer and neuron
        projection, seeded with the deduplicated visited sets of its
        classes — the same portable exchange format used by save/load and
        :meth:`NeuronActivationMonitor.merge`, so partitioning works
        across backends and :meth:`assemble` is an exact inverse.
        """
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        num_shards = min(num_shards, len(monitor.classes))
        assignments: List[List[int]] = [[] for _ in range(num_shards)]
        for index, c in enumerate(monitor.classes):
            assignments[index % num_shards].append(c)
        shards = []
        for shard_id, classes in enumerate(assignments):
            piece = NeuronActivationMonitor(
                layer_width=monitor.layer_width,
                classes=classes,
                gamma=monitor.gamma,
                monitored_neurons=monitor.monitored_neurons,
                backend=monitor.backend_name,
                indexed=monitor.indexed,
            )
            for c in classes:
                visited = monitor.zones[c].backend.visited_patterns()
                if len(visited):
                    piece.zones[c].add_patterns(visited)
            shards.append(MonitorShard(shard_id, piece))
        return cls(shards)

    def assemble(self) -> NeuronActivationMonitor:
        """Merge the shards back into one monitor (inverse of partition)."""
        return NeuronActivationMonitor.merge([s.monitor for s in self.shards])

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, predicted_class: int) -> MonitorShard:
        """The shard owning a class (``KeyError`` for unmonitored ones)."""
        return self._owner[predicted_class]

    def owns(self, predicted_class: int) -> bool:
        """Whether any shard monitors this class."""
        return predicted_class in self._owner

    def route(self, predicted_classes: np.ndarray) -> Dict[int, np.ndarray]:
        """Group query rows by owning shard: shard_id → row indices.

        Rows predicted as unmonitored classes appear under no shard (they
        are trusted unmonitored, mirroring ``NeuronActivationMonitor.check``).
        """
        predicted_classes = np.asarray(predicted_classes)
        groups: Dict[int, np.ndarray] = {}
        for shard in self.shards:
            mask = np.isin(predicted_classes, shard.classes)
            if mask.any():
                groups[shard.shard_id] = np.flatnonzero(mask)
        return groups

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Synchronous routed check: dispatch per shard, stitch results."""
        patterns = np.atleast_2d(patterns)
        predicted_classes = np.asarray(predicted_classes)
        supported = np.ones(len(patterns), dtype=bool)
        for shard_id, rows in self.route(predicted_classes).items():
            shard = self._shard_by_id[shard_id]
            supported[rows] = shard.check(patterns[rows], predicted_classes[rows])
        return supported

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Synchronous routed distances (0 for unmonitored classes)."""
        patterns = np.atleast_2d(patterns)
        predicted_classes = np.asarray(predicted_classes)
        distances = np.zeros(len(patterns), dtype=np.int64)
        for shard_id, rows in self.route(predicted_classes).items():
            shard = self._shard_by_id[shard_id]
            distances[rows] = shard.min_distances(
                patterns[rows], predicted_classes[rows], cap=cap
            )
        return distances

    def set_gamma(self, gamma: int) -> None:
        """Change γ on every shard (zones recompute lazily)."""
        for shard in self.shards:
            shard.monitor.set_gamma(gamma)

    def apply_snapshot(self, snapshot) -> None:
        """Swap every shard to a :class:`~repro.monitor.drift.ZoneSnapshot`.

        The in-process mirror of
        :meth:`~repro.serving.procpool.ProcessShardPool.apply_snapshot`:
        all replacement monitors are rehydrated from the payloads *first*
        (the expensive part — building backends, seeding visited sets),
        then each shard's ``monitor`` reference is rebound in one quick
        loop.  Combined with :meth:`MonitorShard.check_batch` taking a
        single local reference per batch, no batch ever mixes epochs —
        a batch sees either the old zones or the new ones, wholly.

        Raises ``ValueError`` for a non-monotonic epoch or a payload set
        that does not cover this router's shards.
        """
        if snapshot.epoch <= self.epoch:
            raise ValueError(
                f"snapshot epoch {snapshot.epoch} is not newer than the "
                f"router epoch {self.epoch}"
            )
        payload_by_shard = {int(p["shard_id"]): p for p in snapshot.payloads}
        if set(payload_by_shard) != set(self._shard_by_id):
            raise ValueError(
                f"snapshot shards {sorted(payload_by_shard)} do not match "
                f"the router's shards {sorted(self._shard_by_id)}"
            )
        rebuilt = {
            shard_id: MonitorShard.from_payload(payload).monitor
            for shard_id, payload in payload_by_shard.items()
        }
        owner: Dict[int, MonitorShard] = {}
        for shard in self.shards:
            shard.monitor = rebuilt[shard.shard_id]
            for c in shard.classes:
                if c in owner:
                    raise ValueError(f"class {c} is owned by two shards")
                owner[c] = shard
        self._owner = owner
        self.epoch = int(snapshot.epoch)

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        sizes = [len(s.classes) for s in self.shards]
        return f"ShardRouter(shards={len(self.shards)}, classes_per_shard={sizes})"


def shard_detection_monitor(monitor: DetectionMonitor) -> List[MonitorShard]:
    """One shard per grid cell of a detection monitor.

    Each cell already owns a complete per-class monitor over the shared
    trunk layer, so the cell axis is the natural partition: the returned
    shard ``i`` serves cell ``i``'s proposals and can be queried (or
    hosted) independently of every other cell.
    """
    return [
        MonitorShard(cell, monitor.monitors[cell])
        for cell in range(monitor.num_cells)
    ]
