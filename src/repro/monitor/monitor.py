"""The neuron activation pattern monitor (Definition 3, Algorithm 1).

A monitor is the tuple of per-class comfort zones built from the training
set after the standard training process.  :meth:`NeuronActivationMonitor.build`
implements Algorithm 1 end-to-end: it feeds the training data through the
network once, records the activation pattern of every *correctly predicted*
image in the zone of its ground-truth class, then applies γ Hamming
enlargement steps.

Monitors can be restricted to a subset of classes (the paper's GTSRB
experiment only monitors the stop-sign class) and to a subset of neurons
(gradient-based selection for wide layers).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.monitor.backends import DEFAULT_BACKEND, ZoneBackend
from repro.monitor.backends.bdd import make_zone_manager
from repro.monitor.patterns import extract_patterns, pack_patterns, unpack_patterns
from repro.monitor.zone import ComfortZone
from repro.nn.data import Dataset, stack_dataset
from repro.nn.layers import Module

PathLike = Union[str, os.PathLike]


class NeuronActivationMonitor:
    """Per-class comfort zones over (a subset of) one ReLU layer's neurons.

    Parameters
    ----------
    layer_width:
        Total number of neurons in the monitored layer.
    classes:
        The class indices to monitor (all classes of the task by default).
    gamma:
        Hamming enlargement radius shared by every zone.
    monitored_neurons:
        Indices of the neurons to monitor (all by default).  Patterns are
        projected onto these indices before zone insertion and queries, so
        unmonitored neurons are don't-cares in the abstraction.
    backend:
        Zone engine registry key: ``"bdd"`` (canonical diagram, the
        paper's engine) or ``"bitset"`` (vectorized XOR/popcount rows).
        Both give identical verdicts; see ``monitor/backends/README.md``.
    indexed:
        Arm the bitset backend's multi-index Hamming pruner, making γ
        queries sub-linear in the stored-pattern count (bitset-only; the
        pruner falls back to the brute kernel when it would not pay).
    """

    def __init__(
        self,
        layer_width: int,
        classes: Iterable[int],
        gamma: int = 0,
        monitored_neurons: Optional[Sequence[int]] = None,
        backend: str = DEFAULT_BACKEND,
        indexed: bool = False,
    ):
        if layer_width <= 0:
            raise ValueError(f"layer_width must be positive, got {layer_width}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        self.layer_width = layer_width
        self.classes = sorted(set(int(c) for c in classes))
        if not self.classes:
            raise ValueError("monitor needs at least one class")
        if monitored_neurons is None:
            self.monitored_neurons = np.arange(layer_width)
        else:
            self.monitored_neurons = np.asarray(sorted(set(monitored_neurons)), dtype=np.int64)
            if len(self.monitored_neurons) == 0:
                raise ValueError("monitored_neurons must be non-empty")
            if self.monitored_neurons[0] < 0 or self.monitored_neurons[-1] >= layer_width:
                raise ValueError(
                    f"monitored neuron indices must lie in [0, {layer_width})"
                )
        self.gamma = gamma
        self.backend_name = backend
        self.indexed = bool(indexed)
        # BDD zones share one manager: same variables, shared node table,
        # one GC/reorder policy (env-configurable via make_zone_manager).
        self._manager = (
            make_zone_manager(len(self.monitored_neurons))
            if backend == "bdd" else None
        )
        self.zones: Dict[int, ComfortZone] = {
            c: ComfortZone(
                len(self.monitored_neurons), gamma,
                manager=self._manager, backend=backend, indexed=self.indexed,
            )
            for c in self.classes
        }
        #: Attached :class:`~repro.store.ZoneStore` (``None`` = volatile).
        self._store = None

    # ------------------------------------------------------------------
    # construction (Algorithm 1)
    # ------------------------------------------------------------------
    def project(self, patterns: np.ndarray) -> np.ndarray:
        """Restrict full-layer patterns to the monitored neuron subset."""
        patterns = np.atleast_2d(patterns)
        if patterns.shape[1] != self.layer_width:
            raise ValueError(
                f"patterns have width {patterns.shape[1]}, expected {self.layer_width}"
            )
        return patterns[:, self.monitored_neurons]

    def record(self, patterns: np.ndarray, labels: np.ndarray, predictions: np.ndarray) -> int:
        """Insert patterns of correctly-predicted examples into their zones.

        Implements Algorithm 1 lines 4-8: a pattern is added to ``Z^0_c``
        only when the ground truth is ``c`` *and* the network predicted
        ``c``.  Returns the number of patterns recorded.
        """
        labels = np.asarray(labels)
        predictions = np.asarray(predictions)
        if not (len(patterns) == len(labels) == len(predictions)):
            raise ValueError(
                f"length mismatch: {len(patterns)} patterns, {len(labels)} labels, "
                f"{len(predictions)} predictions"
            )
        projected = self.project(patterns)
        recorded = 0
        for c in self.classes:
            mask = (labels == c) & (predictions == c)
            if not mask.any():
                continue
            self.zones[c].add_patterns(projected[mask])
            recorded += int(mask.sum())
        return recorded

    @classmethod
    def build(
        cls,
        model: Module,
        monitored_module: Module,
        train_dataset: Dataset,
        gamma: int = 0,
        classes: Optional[Iterable[int]] = None,
        monitored_neurons: Optional[Sequence[int]] = None,
        batch_size: int = 256,
        backend: str = DEFAULT_BACKEND,
        indexed: bool = False,
    ) -> "NeuronActivationMonitor":
        """Run Algorithm 1: one sweep over the training set, then enlarge.

        ``classes`` defaults to every label present in the training set.
        """
        inputs, labels = stack_dataset(train_dataset)
        patterns, logits = extract_patterns(model, monitored_module, inputs, batch_size)
        predictions = logits.argmax(axis=1)
        if classes is None:
            classes = np.unique(labels).tolist()
        monitor = cls(
            layer_width=patterns.shape[1],
            classes=classes,
            gamma=gamma,
            monitored_neurons=monitored_neurons,
            backend=backend,
            indexed=indexed,
        )
        monitor.record(patterns, labels, predictions)
        return monitor

    # ------------------------------------------------------------------
    # runtime queries
    # ------------------------------------------------------------------
    def is_known(self, pattern: np.ndarray, predicted_class: int) -> bool:
        """Is this full-layer pattern inside the predicted class's zone?

        Patterns from classes the monitor does not cover raise ``KeyError``
        — callers decide whether uncovered classes mean "always trusted"
        (see :class:`~repro.monitor.runtime.MonitoredClassifier`).
        """
        if predicted_class not in self.zones:
            raise KeyError(f"class {predicted_class} is not monitored")
        projected = self.project(pattern)[0]
        return self.zones[predicted_class].contains(projected)

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_known`; unmonitored classes return True.

        Returns a boolean array: ``True`` = pattern supported by training
        (inside the zone), ``False`` = out-of-pattern warning.
        """
        projected = self.project(np.atleast_2d(patterns))
        return self._query_backend.contains_grouped(
            self.zones, projected, np.asarray(predicted_classes)
        )

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Exact per-row Hamming distance to the predicted class's ``Z^0``.

        The distance refines :meth:`check`'s binary verdict into "how far
        out-of-distribution"; :meth:`supported` turns it back into the
        verdict.  Rows predicted as an unmonitored class get distance 0
        (the monitor has no opinion, mirroring ``check``'s ``True``); an
        empty zone yields the ``d + 1`` sentinel of the backends (d the
        projected width), so the bare ``distance <= gamma`` matches
        ``check`` only for γ ≤ d.

        ``cap=k`` bounds every answer at ``k + 1`` ("exact distance, or
        > k"), which lets the indexed bitset backend serve the query from
        its pigeonhole shortlist instead of scanning all stored rows.
        """
        projected = self.project(np.atleast_2d(patterns))
        return self._query_backend.min_distances_grouped(
            self.zones, projected, np.asarray(predicted_classes), cap=cap
        )

    def supported(
        self, distances: np.ndarray, gamma: Optional[int] = None
    ) -> np.ndarray:
        """Verdicts for :meth:`min_distances` output at γ (default: the
        monitor's): supported iff ``distance <= min(γ, d)``, d the
        projected width.

        The clamp keeps an empty zone's ``d + 1`` sentinel unsupported once
        γ exceeds d, as :meth:`check` answers; distances bounded by
        ``cap=k`` give the same verdicts for every γ ≤ k.
        """
        if gamma is None:
            gamma = self.gamma
        return np.asarray(distances) <= min(gamma, len(self.monitored_neurons))

    @property
    def _query_backend(self) -> ZoneBackend:
        """The backend whose grouped entry points answer a monitor query:
        one call per batch, however many classes it spans."""
        return next(iter(self.zones.values())).backend

    def monitors_class(self, class_index: int) -> bool:
        """Whether the monitor has a zone for this class."""
        return class_index in self.zones

    def set_gamma(self, gamma: int) -> None:
        """Change γ on every zone (lazily recomputed on next query)."""
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        changed = gamma != self.gamma
        self.gamma = gamma
        for zone in self.zones.values():
            zone.set_gamma(gamma)
        if changed and self._store is not None:
            self._store.append_gamma(gamma)

    def statistics(self) -> Dict[int, Dict[str, float]]:
        """Per-class zone statistics."""
        return {c: zone.statistics() for c, zone in self.zones.items()}

    def engine_stats(self) -> Optional[Dict[str, float]]:
        """Shared BDD engine counters (``None`` for non-BDD monitors).

        One dict for the whole monitor — all zones share one manager —
        with live/physical node counts, unique-table size, GC and
        reorder activity and the operation-cache hit rates (see
        :meth:`repro.bdd.manager.BDDManager.cache_stats`).  The CLI's
        ``evaluate``/``sweep``/``serve`` commands print this line.
        """
        if self._manager is None:
            return None
        return self._manager.cache_stats()

    def reorder(self, method: str = "sift", **kwargs) -> Optional[Dict[str, int]]:
        """Sift the shared BDD manager (no-op ``None`` for non-BDD)."""
        if self._manager is None:
            return None
        return self._manager.reorder(method=method, **kwargs)

    def __repr__(self) -> str:
        return (
            f"NeuronActivationMonitor(classes={self.classes}, gamma={self.gamma}, "
            f"monitored={len(self.monitored_neurons)}/{self.layer_width}, "
            f"backend={self.backend_name!r})"
        )

    @classmethod
    def merge(
        cls,
        monitors: Sequence["NeuronActivationMonitor"],
        gamma: Optional[int] = None,
        indexed: Optional[bool] = None,
    ) -> "NeuronActivationMonitor":
        """Union several monitors built over the same monitored neurons.

        Useful when training data is processed in shards (e.g. a fleet of
        vehicles each contributes patterns): the merged monitor's zones are
        the set union of the inputs' visited sets, with the zone backend
        taken from the first monitor.  All inputs must agree on
        ``layer_width`` and ``monitored_neurons``; backends may differ
        (the visited sets are exchanged as plain pattern matrices).

        ``gamma`` and ``indexed`` must either agree across the inputs or
        be chosen explicitly via the keyword overrides — silently adopting
        the first monitor's values would let a drift-loop absorption of a
        staging zone quietly change the radius (or drop the index) of the
        published monitor.
        """
        if not monitors:
            raise ValueError("merge needs at least one monitor")
        first = monitors[0]
        for other in monitors[1:]:
            if other.layer_width != first.layer_width:
                raise ValueError(
                    f"layer width mismatch: {other.layer_width} vs {first.layer_width}"
                )
            if not np.array_equal(other.monitored_neurons, first.monitored_neurons):
                raise ValueError("monitored neuron sets differ; cannot merge")
        if gamma is None:
            gammas = sorted({m.gamma for m in monitors})
            if len(gammas) > 1:
                raise ValueError(
                    f"gamma differs across monitors ({gammas}); "
                    f"pass gamma= to choose the merged radius explicitly"
                )
            gamma = first.gamma
        if indexed is None:
            flags = {m.indexed for m in monitors}
            if len(flags) > 1:
                raise ValueError(
                    "indexed differs across monitors; "
                    "pass indexed= to choose explicitly"
                )
            indexed = first.indexed
        classes = sorted({c for m in monitors for c in m.classes})
        merged = cls(
            layer_width=first.layer_width,
            classes=classes,
            gamma=gamma,
            monitored_neurons=first.monitored_neurons,
            backend=first.backend_name,
            indexed=indexed,
        )
        for monitor in monitors:
            for c, zone in monitor.zones.items():
                visited = zone.backend.visited_patterns()
                if len(visited):
                    merged.zones[c].add_patterns(visited)
        return merged

    # ------------------------------------------------------------------
    # durable store (crash-consistent WAL + segments)
    # ------------------------------------------------------------------
    def store_meta(self) -> Dict[str, object]:
        """The monitor config as recorded in a store's META record.

        The same fields as :meth:`save`'s metadata (plus the monitored
        neuron indices), so store state stays payload-compatible with
        the portable ``to_payload()`` / save-file form.
        """
        return {
            "layer_width": self.layer_width,
            "gamma": self.gamma,
            "classes": self.classes,
            "pattern_width": int(len(self.monitored_neurons)),
            "backend": self.backend_name,
            "indexed": self.indexed,
            "monitored_neurons": [int(i) for i in self.monitored_neurons],
        }

    def attach_store(self, store) -> None:
        """Write-through this monitor to a :class:`~repro.store.ZoneStore`.

        A fresh store is initialized with this monitor's config and the
        current visited sets; an existing store must agree on the layer
        / projection / class layout (γ may differ — it is a logged,
        replayable quantity, not identity).  From here on every fresh
        pattern insert and every γ change is appended to the store's
        WAL, so a crash at any point recovers to the last append.
        """
        from repro.store import StoreError

        meta = self.store_meta()
        if not store.initialized:
            store.initialize(meta)
            for c in self.classes:
                visited = self.zones[c].backend.visited_patterns()
                if len(visited):
                    store.append_insert(c, pack_patterns(visited))
        else:
            existing = store.meta
            for key in ("layer_width", "pattern_width"):
                if int(existing[key]) != int(meta[key]):
                    raise StoreError(
                        f"store {key}={existing[key]} does not match "
                        f"monitor {key}={meta[key]}"
                    )
            if [int(c) for c in existing["classes"]] != meta["classes"]:
                raise StoreError(
                    f"store classes {existing['classes']} do not match "
                    f"monitor classes {meta['classes']}"
                )
            if "monitored_neurons" in existing and list(
                existing["monitored_neurons"]
            ) != meta["monitored_neurons"]:
                raise StoreError("store monitored neuron set differs from monitor")
        self._store = store
        for c, zone in self.zones.items():
            zone.attach_sink(
                lambda rows, _c=c: store.append_insert(_c, rows)
            )

    def detach_store(self) -> None:
        """Stop write-through (the store keeps everything logged so far)."""
        self._store = None
        for zone in self.zones.values():
            zone.attach_sink(None)

    @property
    def store(self):
        return self._store

    @classmethod
    def from_store(
        cls,
        store,
        backend: Optional[str] = None,
        attach: bool = True,
    ) -> "NeuronActivationMonitor":
        """Cold-start a monitor from a store directory or open store.

        Recovery replays the newest valid segment plus the WAL tail into
        fresh zones via the packed fast path (no unpack/re-pack round
        trip on the bitset backend).  ``backend`` overrides the recorded
        engine, exactly like :meth:`load`.  With ``attach=True`` the
        rebuilt monitor immediately writes through to the same store.
        """
        from repro.store import ZoneStore

        if isinstance(store, (str, os.PathLike)):
            store = ZoneStore.open(store)
        state = store.state()
        meta = state.meta
        restored_backend = backend or meta.get("backend", DEFAULT_BACKEND)
        monitor = cls(
            layer_width=int(meta["layer_width"]),
            classes=[int(c) for c in meta["classes"]],
            gamma=int(state.gamma),
            monitored_neurons=meta.get("monitored_neurons"),
            backend=restored_backend,
            indexed=bool(meta.get("indexed", False)) and restored_backend == "bitset",
        )
        for c in monitor.classes:
            # Segment bodies are deduplicated and byte-sorted by
            # compaction, so the bitset backend ingests them sort-free;
            # the WAL tail is raw append order and takes the full path.
            seg_rows = state.segment_rows.get(c)
            if seg_rows is not None and seg_rows.size:
                monitor.zones[c].add_packed(seg_rows, assume_sorted_unique=True)
            tail = state.tail_rows.get(c)
            if tail is not None and tail.size:
                monitor.zones[c].add_packed(tail)
        if attach:
            monitor.attach_store(store)
        return monitor

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Serialise to ``.npz``: visited patterns (packed bits) + metadata.

        Zones are rebuilt from visited patterns on load; storing ``Z^0``
        rather than ``Z^γ`` keeps files small and lets γ (and even the
        backend) be changed after reload.  The format is backend-portable:
        every backend can emit and re-ingest its deduplicated visited set.
        """
        arrays = {}
        meta = {
            "layer_width": self.layer_width,
            "gamma": self.gamma,
            "classes": self.classes,
            "pattern_width": int(len(self.monitored_neurons)),
            "backend": self.backend_name,
            "indexed": self.indexed,
        }
        arrays["monitored_neurons"] = self.monitored_neurons
        for c, zone in self.zones.items():
            visited = zone.backend.visited_patterns()
            arrays[f"class_{c}"] = pack_patterns(visited)
            arrays[f"count_{c}"] = np.array([visited.shape[0]])
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: PathLike, backend: Optional[str] = None) -> "NeuronActivationMonitor":
        """Restore a monitor saved by :meth:`save`.

        ``backend`` overrides the zone engine recorded in the file — the
        on-disk format is a plain pattern set, so a monitor saved from the
        BDD engine can be served by the bitset engine and vice versa.
        """
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            monitored = archive["monitored_neurons"]
            restored_backend = backend or meta.get("backend", DEFAULT_BACKEND)
            monitor = cls(
                layer_width=int(meta["layer_width"]),
                classes=meta["classes"],
                gamma=int(meta["gamma"]),
                monitored_neurons=monitored,
                backend=restored_backend,
                # Indexing is bitset-only; drop it when the engine is
                # overridden to one that cannot honour it.
                indexed=bool(meta.get("indexed", False))
                and restored_backend == "bitset",
            )
            width = int(meta["pattern_width"])
            for c in meta["classes"]:
                count = int(archive[f"count_{c}"][0])
                packed = archive[f"class_{c}"]
                if count:
                    patterns = unpack_patterns(packed, width)[:count]
                    monitor.zones[c].add_patterns(patterns)
        return monitor
