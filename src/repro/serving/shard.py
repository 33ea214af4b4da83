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
visited-pattern matrices).  :meth:`ShardRouter.check_batch` answers a
block whose rows span several shards in one call, in-process or inside a
fleet worker.

Detection monitors shard along their natural axis instead: one shard per
grid cell (:func:`shard_detection_monitor`), each wrapping that cell's
complete per-class monitor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devtools.lint.runtime import named_lock
from repro.monitor.detection import DetectionMonitor
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.patterns import pack_patterns, unpack_patterns


class ClassIndex:
    """``class -> owner`` for a whole block in one ``searchsorted`` (not
    one ``isin`` pass per shard).  Owners are ints — a router's shard
    positions, a fleet's shard ids; unowned classes map to ``-1``."""

    __slots__ = ("_keys", "_owners")

    def __init__(self, owner_of_class: Dict[int, int]):
        keys = sorted(owner_of_class)
        self._keys = np.asarray(keys, dtype=np.int64)
        self._owners = np.asarray([owner_of_class[c] for c in keys], dtype=np.int64)

    def owners(self, classes: np.ndarray) -> np.ndarray:
        classes = np.asarray(classes)
        if not len(self._keys):
            return np.full(classes.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._keys, classes), len(self._keys) - 1)
        return np.where(self._keys[pos] == classes, self._owners[pos], -1)


def _query(monitor, patterns, predicted_classes, with_distances, distance_cap):
    """One monitor's combined query (see :meth:`MonitorShard.check_batch`)."""
    if not with_distances:
        return monitor.check(patterns, predicted_classes), None
    cap = None
    if distance_cap is not None:
        cap = max(int(distance_cap), monitor.gamma)
    distances = monitor.min_distances(patterns, predicted_classes, cap=cap)
    return monitor.supported(distances), distances


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
        sentinel once γ exceeds the projected width).

        ``distance_cap=k`` requests the *bounded* distance form
        (``min(true, k+1)`` per row — index-accelerated on the indexed
        bitset backend).  The effective cap is clamped to at least the
        monitor's γ, so verdicts stay exact for any requested cap; the
        serving layer passes the attached detector's overflow bin, which
        keeps the histogram/alarm stream bit-identical too.
        """
        # ``_query`` reads the one monitor it is handed: a concurrent zone
        # swap rebinding ``self.monitor`` never splits the batch.
        return _query(self.monitor, patterns, predicted_classes, with_distances, distance_cap)

    def __repr__(self) -> str:
        return f"MonitorShard(id={self.shard_id}, classes={self.classes})"


class ShardRouter:
    """Partition a classification monitor per-class and route queries.

    The router is the synchronous core of the serving layer: it owns the
    class → shard map and stitches per-shard vectorised answers back into
    request order.  The async :class:`~repro.serving.server.StreamServer`
    adds queueing and micro-batching on top, and every fleet worker
    answers its blocks through a router of the shards it holds.  Each
    query reads the routing table once and :meth:`apply_snapshot`
    replaces it in one assignment, so a block is answered wholly by one
    zone epoch even while a swap runs on another thread.
    """

    def __init__(self, shards: Sequence[MonitorShard]):
        if not shards:
            raise ValueError("router needs at least one shard")
        self.shards = list(shards)
        self.epoch = 0
        self._shard_by_id: Dict[int, MonitorShard] = {}
        for shard in self.shards:
            if shard.shard_id in self._shard_by_id:
                raise ValueError(f"duplicate shard id {shard.shard_id}")
            self._shard_by_id[shard.shard_id] = shard
        self._install()

    def _install(self) -> None:
        """Rebuild the routing table — each class's shard position, their
        index, and per shard its monitor with a lock: server lanes on
        other threads may query one shard at once, and a monitor answers
        one query at a time (a BDD zone is built lazily on its manager)."""
        position_of: Dict[int, int] = {}
        for position, shard in enumerate(self.shards):
            for c in shard.classes:
                if c in position_of:
                    raise ValueError(f"class {c} is owned by two shards")
                position_of[c] = position
        served = tuple(
            (shard.monitor, named_lock("ShardRouter.shard_lock")) for shard in self.shards
        )
        self._table = (position_of, ClassIndex(position_of), served)

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
    def owns(self, predicted_class: int) -> bool:
        """Whether any shard monitors this class."""
        return predicted_class in self._table[0]

    def locate(self, predicted_classes: np.ndarray) -> np.ndarray:
        """Position in :attr:`shards` of each row's owning shard (``-1``
        for rows predicted as unmonitored classes)."""
        return self._table[1].owners(predicted_classes)

    def route(self, predicted_classes: np.ndarray) -> Dict[int, np.ndarray]:
        """Group query rows by owning shard: shard_id → row indices.

        Rows predicted as unmonitored classes appear under no shard (they
        are trusted unmonitored, mirroring ``NeuronActivationMonitor.check``).
        """
        groups = _groups(self.locate(predicted_classes))
        return {self.shards[position].shard_id: rows for position, rows in groups}

    def check_batch(self, patterns, predicted_classes, with_distances=False, distance_cap=None):
        """Routed :meth:`MonitorShard.check_batch`: one kernel pass per
        owning shard, answers stitched back in row order, unmonitored
        rows trusted (``True``, distance 0).  A
        :class:`~repro.serving.server.StreamServer` lane runs this per
        coalesced batch, and a fleet worker per block."""
        return self._routed(
            patterns, predicted_classes, True, with_distances,
            lambda monitor, rows, classes: _query(
                monitor, rows, classes, with_distances, distance_cap
            ),
        )

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Synchronous routed check: dispatch per shard, stitch results."""
        return self.check_batch(patterns, predicted_classes)[0]

    def min_distances(self, patterns: np.ndarray, predicted_classes: np.ndarray,
                      cap: Optional[int] = None) -> np.ndarray:
        """Synchronous routed distances (0 for unmonitored classes)."""
        return self._routed(
            patterns, predicted_classes, False, True,
            lambda monitor, rows, classes: (None, monitor.min_distances(rows, classes, cap=cap)),
        )[1]

    def _routed(self, patterns, predicted_classes, verdicts, distances, answer):
        """Run ``answer(monitor, rows, classes)`` once per owning shard
        and stitch its ``(verdicts, distances)`` parts in row order; the
        parts not asked for come back ``None``."""
        patterns = np.atleast_2d(patterns)
        predicted_classes = np.atleast_1d(np.asarray(predicted_classes))
        _, index, served = self._table  # one epoch for the whole block
        groups = _groups(index.owners(predicted_classes))
        n = len(patterns)
        if len(groups) == 1 and len(groups[0][1]) == n:
            # Every row on one shard: no gather, no scatter.
            monitor, lock = served[groups[0][0]]
            with lock:
                return answer(monitor, patterns, predicted_classes)
        out_verdicts = np.ones(n, dtype=bool) if verdicts else None
        out_distances = np.zeros(n, dtype=np.int64) if distances else None
        for position, rows in groups:
            monitor, lock = served[position]
            with lock:
                part = answer(monitor, patterns[rows], predicted_classes[rows])
            if verdicts:
                out_verdicts[rows] = part[0]
            if distances:
                out_distances[rows] = part[1]
        return out_verdicts, out_distances

    def set_gamma(self, gamma: int) -> None:
        """Change γ on every shard (zones recompute lazily)."""
        for shard in self.shards:
            shard.monitor.set_gamma(gamma)

    def apply_snapshot(self, snapshot) -> None:
        """Swap every shard to a :class:`~repro.monitor.drift.ZoneSnapshot`.

        The in-process mirror of
        :meth:`~repro.serving.fleet.ShardFleet.apply_snapshot`: all
        replacement monitors are rehydrated from the payloads *first*
        (the expensive part — building backends, seeding visited sets),
        then each shard's ``monitor`` reference is rebound and the
        routing table replaced in one assignment.  Every routed query
        reads that table once, so no block ever mixes epochs — it sees
        either the old zones or the new ones, wholly.

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
        for shard in self.shards:
            shard.monitor = rebuilt[shard.shard_id]
        self._install()
        self.epoch = int(snapshot.epoch)

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        sizes = [len(s.classes) for s in self.shards]
        return f"ShardRouter(shards={len(self.shards)}, classes_per_shard={sizes})"


def _groups(owners: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(owner, row indices)`` per owner present, ascending; rows owned
    by ``-1`` (nobody) are left out."""
    return [
        (int(owner), np.flatnonzero(owners == owner))
        for owner in np.unique(owners)
        if owner >= 0
    ]


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
