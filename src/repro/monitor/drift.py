"""Closing the drift loop: alarm → staging → absorption → versioned swap.

The paper's §I pitch is that "the frequent appearance of unseen patterns
provides an indicator of data distribution shift to the development
team".  The shift detectors (:mod:`repro.monitor.shift`) raise that
indicator; this module turns it into an *action* on the live serving
fleet:

1. **Staging.**  Every out-of-zone pattern flagged while serving is
   streamed into a per-class :class:`StagingZone` — a cheap append-only
   buffer, never queried on the hot path.
2. **Absorption.**  When a detector alarms, the :class:`DriftResponder`
   absorbs the staged patterns into a *candidate* monitor via
   :meth:`NeuronActivationMonitor.merge` (the bitset backend's in-place
   band-index merge keeps the candidate's pruner hot through the union).
3. **Re-calibration.**  γ is re-chosen on the candidate through the
   existing :meth:`GammaCalibrator.calibrate_patterns` sweep over a
   retained validation set — the same ``choose`` rule that picked the
   original radius, so the loop cannot drift away from the paper's
   selection criterion.  The sweep is one ``min_distances`` pass capped
   at the largest γ; one exact pass on the candidate then yields both
   detector baselines, so a response scans the retained set twice.
4. **Publication.**  The result is an immutable :class:`ZoneSnapshot`
   with a monotonically increasing *zone epoch*, carrying the per-shard
   portable payloads (the exact :meth:`MonitorShard.to_payload` wire
   form) plus the re-measured detector baselines.  The serving layer
   installs it fleet-atomically (``ShardRouter.apply_snapshot`` /
   ``ProcessShardPool.apply_snapshot``), so no block is ever answered by
   a mixed-epoch fleet and crash respawns rehydrate at the current
   epoch.

The responder owns the authoritative monitor between swaps; the serving
shards are always rehydrated copies of a published snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devtools.lint.runtime import named_lock
from repro.monitor.calibration import CalibrationResult, GammaCalibrator
from repro.monitor.monitor import NeuronActivationMonitor


@dataclass(frozen=True)
class ZoneSnapshot:
    """One immutable, versioned publication of the fleet's zone state.

    ``payloads`` holds one portable shard payload per serving shard (the
    :meth:`~repro.serving.shard.MonitorShard.to_payload` dict: metadata
    plus bit-packed deduplicated visited sets), so any process — current
    worker, crash replacement, or cold-started host — rehydrates the
    same zones from it.  ``epoch`` is strictly monotonic per responder;
    the serving layer rejects out-of-order installs.

    ``baseline_oop_rate`` / ``baseline_distances`` are re-measured on
    the retained validation set against the *new* zones at the *new* γ,
    ready to re-arm the inline shift detectors after the swap.
    """

    epoch: int
    gamma: int
    payloads: Tuple[Dict[str, object], ...]
    baseline_oop_rate: float = 0.0
    baseline_distances: Optional[np.ndarray] = None
    absorbed_patterns: int = 0
    absorbed_classes: Tuple[int, ...] = ()
    calibration: Optional[CalibrationResult] = None

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {self.epoch}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not self.payloads:
            raise ValueError("snapshot needs at least one shard payload")
        if self.baseline_distances is not None:
            # Freeze the array: the snapshot is shared across threads and
            # (conceptually) hosts, so nothing may mutate it in place.
            self.baseline_distances.setflags(write=False)

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(int(p["shard_id"]) for p in self.payloads)


class StagingZone:
    """Per-class buffer of flagged out-of-zone patterns awaiting absorption.

    Append-only and lock-protected: the serving loop appends flagged
    full-layer rows inline with verdict delivery, while the responder's
    absorption (running on an executor thread) drains atomically.  The
    buffer is *not* a comfort zone — it is never queried, never
    deduplicated, never enlarged; it only carries raw evidence to the
    next :meth:`DriftResponder.respond`.

    ``max_staged`` bounds each class's buffer: sustained drift with no
    (or a failing) responder would otherwise grow memory without bound.
    When a class exceeds the cap its *oldest* rows are dropped — the
    newest evidence is what the next absorption should see — and every
    dropped row is counted in :attr:`total_dropped` (surfaced as
    ``staged_dropped`` in the serving layer's ``drift_stats()``).
    """

    def __init__(self, layer_width: int, max_staged: Optional[int] = None):
        if layer_width <= 0:
            raise ValueError(f"layer_width must be positive, got {layer_width}")
        if max_staged is not None and max_staged <= 0:
            raise ValueError(f"max_staged must be positive, got {max_staged}")
        self.layer_width = layer_width
        self.max_staged = max_staged
        self._lock = named_lock("StagingZone._lock")
        self._staged: Dict[int, List[np.ndarray]] = {}
        self._total = 0
        self.total_ever = 0
        self.total_dropped = 0

    def _trim(self, class_id: int) -> None:
        """Drop oldest rows of one class down to ``max_staged`` (lock held)."""
        if self.max_staged is None:
            return
        chunks = self._staged.get(class_id, [])
        excess = sum(len(rows) for rows in chunks) - self.max_staged
        while excess > 0 and chunks:
            head = chunks[0]
            if len(head) <= excess:
                chunks.pop(0)
                dropped = len(head)
            else:
                chunks[0] = head[excess:]
                dropped = excess
            excess -= dropped
            self._total -= dropped
            self.total_dropped += dropped

    def add(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> int:
        """Stage flagged rows under their predicted classes; returns count."""
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
        if patterns.shape[1] != self.layer_width:
            raise ValueError(
                f"patterns have width {patterns.shape[1]}, "
                f"expected {self.layer_width}"
            )
        classes = np.atleast_1d(np.asarray(predicted_classes))
        if len(classes) != len(patterns):
            raise ValueError(
                f"length mismatch: {len(patterns)} patterns, "
                f"{len(classes)} classes"
            )
        if not len(patterns):
            return 0
        with self._lock:
            for c in np.unique(classes):
                rows = patterns[classes == c]
                # Copy: the serving layer hands us views into batch
                # buffers it will reuse.
                self._staged.setdefault(int(c), []).append(rows.copy())
                self._total += len(rows)
                self.total_ever += len(rows)
                self._trim(int(c))
        return len(patterns)

    @property
    def total(self) -> int:
        """Rows currently staged (since the last drain)."""
        with self._lock:
            return self._total

    def counts(self) -> Dict[int, int]:
        """Currently staged rows per class."""
        with self._lock:
            return {
                c: sum(len(rows) for rows in chunks)
                for c, chunks in self._staged.items()
            }

    def drain(self) -> Dict[int, np.ndarray]:
        """Atomically take everything staged (class → stacked row matrix)."""
        with self._lock:
            staged = {
                c: np.concatenate(chunks)
                for c, chunks in self._staged.items()
                if chunks
            }
            self._staged = {}
            self._total = 0
        return staged

    def __repr__(self) -> str:
        return f"StagingZone(width={self.layer_width}, staged={self.total})"


def partition_payloads(
    monitor: NeuronActivationMonitor,
    shard_layout: Sequence[Tuple[int, Sequence[int]]],
) -> List[Dict[str, object]]:
    """Slice a monitor into portable shard payloads along a given layout.

    ``shard_layout`` is ``[(shard_id, classes), ...]`` — normally the
    serving fleet's existing partition, so a published snapshot swaps
    zone *contents* without re-homing any class.  Every class in the
    layout must be covered by the monitor.
    """
    # Imported lazily: repro.serving imports repro.monitor, and the
    # payload format is owned by MonitorShard — this is the one place the
    # monitor package reaches back up into serving.
    from repro.serving.shard import MonitorShard

    payloads = []
    for shard_id, classes in shard_layout:
        missing = [c for c in classes if c not in monitor.zones]
        if missing:
            raise ValueError(
                f"shard {shard_id} expects classes {missing} the monitor "
                f"does not cover"
            )
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
        payloads.append(MonitorShard(int(shard_id), piece).to_payload())
    return payloads


class DriftResponder:
    """Absorb staged drift evidence and publish versioned zone snapshots.

    Parameters
    ----------
    monitor:
        The currently published monitor (the responder takes ownership:
        after each :meth:`respond` it points at the new candidate).
    val_patterns, val_predictions, val_labels:
        The retained validation sweep set: γ is re-chosen on it through
        ``calibrator.calibrate_patterns`` after every absorption, and the
        post-swap detector baselines are measured on it.
    calibrator:
        The γ selection rule (default: the paper's
        :class:`GammaCalibrator` with its standard silence target).
    min_staged:
        An alarm only triggers a response once at least this many
        patterns are staged — absorbing a handful of outliers would churn
        epochs without moving the zones.
    max_staged:
        Optional per-class staging cap (drop-oldest; see
        :class:`StagingZone`).
    store:
        Optional :class:`~repro.store.ZoneStore`: every response then
        durably logs the absorbed patterns, the re-chosen γ and a
        snapshot marker carrying the published epoch, so zone epochs
        survive restart and cross-host publication.  The responder's
        epoch counter resumes from the store's recorded epoch.
    """

    def __init__(
        self,
        monitor: NeuronActivationMonitor,
        val_patterns: np.ndarray,
        val_predictions: np.ndarray,
        val_labels: np.ndarray,
        calibrator: Optional[GammaCalibrator] = None,
        min_staged: int = 32,
        max_staged: Optional[int] = None,
        store=None,
    ):
        if min_staged <= 0:
            raise ValueError(f"min_staged must be positive, got {min_staged}")
        val_patterns = np.atleast_2d(np.asarray(val_patterns, dtype=np.uint8))
        val_predictions = np.asarray(val_predictions)
        val_labels = np.asarray(val_labels)
        if not (len(val_patterns) == len(val_predictions) == len(val_labels)):
            raise ValueError(
                f"length mismatch: {len(val_patterns)} patterns, "
                f"{len(val_predictions)} predictions, {len(val_labels)} labels"
            )
        if len(val_patterns) == 0:
            raise ValueError("responder needs a non-empty validation set")
        self.monitor = monitor
        self.staging = StagingZone(monitor.layer_width, max_staged=max_staged)
        self.calibrator = calibrator if calibrator is not None else GammaCalibrator()
        self.min_staged = min_staged
        self._val_patterns = val_patterns
        self._val_predictions = val_predictions
        self._val_labels = val_labels
        self._store = store
        if store is not None and monitor.store is not store:
            # Initializes a fresh store with the monitor's config and
            # current visited sets; on an existing store this validates
            # config agreement and (re-)registers the write-through.
            monitor.attach_store(store)
        # Epochs must stay monotonic across restarts: resume from the
        # store's last durable snapshot marker.
        self.epoch = (  # lint: disable=epoch-monotonicity -- constructor resume from the durable marker; WAL append order is the guard
            store.epoch if store is not None and store.initialized else 0
        )
        self.absorptions = 0
        self.total_absorbed = 0
        self.last_calibration: Optional[CalibrationResult] = None
        self.last_snapshot: Optional[ZoneSnapshot] = None
        self._lock = named_lock("DriftResponder._lock")

    # ------------------------------------------------------------------
    # baselines (detector seeding)
    # ------------------------------------------------------------------
    def baseline_oop_rate(self) -> float:
        """Out-of-pattern rate of the current monitor on the retained set."""
        supported = self.monitor.check(self._val_patterns, self._val_predictions)
        return 1.0 - float(supported.mean())

    def baseline_distances(self) -> np.ndarray:
        """Exact distances of the retained set against the current zones."""
        return self.monitor.min_distances(self._val_patterns, self._val_predictions)

    def ready(self) -> bool:
        """Whether enough evidence is staged for an alarm to trigger."""
        return self.staging.total >= self.min_staged

    # ------------------------------------------------------------------
    # the response
    # ------------------------------------------------------------------
    def respond(
        self, shard_layout: Sequence[Tuple[int, Sequence[int]]]
    ) -> Optional[ZoneSnapshot]:
        """One full drift response: absorb → re-choose γ → publish.

        Returns the new :class:`ZoneSnapshot`, or ``None`` when fewer
        than ``min_staged`` patterns are staged (the alarm fired on thin
        evidence — leave the staging buffer to keep filling).  Serialised
        under a lock: concurrent alarms collapse into one response.
        """
        with self._lock:
            if self.staging.total < self.min_staged:
                return None
            staged = self.staging.drain()
            # Only monitored classes ever get flagged (unmonitored rows
            # are trusted), so staged keys are always coverable.
            staged = {c: rows for c, rows in staged.items() if c in self.monitor.zones}
            if not staged:
                return None
            staging_monitor = NeuronActivationMonitor(
                layer_width=self.monitor.layer_width,
                classes=list(staged),
                gamma=self.monitor.gamma,
                monitored_neurons=self.monitor.monitored_neurons,
                backend=self.monitor.backend_name,
                indexed=self.monitor.indexed,
            )
            for c, rows in staged.items():
                staging_monitor.zones[c].add_patterns(staging_monitor.project(rows))
            # Candidate = union of published zones and staging zones; the
            # gamma/indexed agreement check is live here by construction
            # (the staging monitor copies both from the current monitor).
            candidate = NeuronActivationMonitor.merge(
                [self.monitor, staging_monitor]
            )
            # Re-choose γ with the exact rule that picked the original
            # radius; the candidate is left at the chosen value.
            calibration = self.calibrator.calibrate_patterns(
                candidate,
                self._val_patterns,
                self._val_predictions,
                self._val_labels,
            )
            # One exact pass yields both baselines at the chosen γ.
            distances = candidate.min_distances(
                self._val_patterns, self._val_predictions
            )
            supported = candidate.supported(distances)
            absorbed = int(sum(len(rows) for rows in staged.values()))
            snapshot = ZoneSnapshot(
                epoch=self.epoch + 1,
                gamma=candidate.gamma,
                payloads=tuple(partition_payloads(candidate, shard_layout)),
                baseline_oop_rate=1.0 - float(supported.mean()),
                baseline_distances=distances,
                absorbed_patterns=absorbed,
                absorbed_classes=tuple(sorted(staged)),
                calibration=calibration,
            )
            if self._store is not None:
                # Durably log the delta before publishing: only rows that
                # were genuinely new to the pre-merge zones (replay is a
                # set union, but there is no reason to log known rows),
                # then γ if it moved, then the snapshot marker (fsync'd
                # under the default policy) carrying the new epoch.
                for c in sorted(staged):
                    fresh = self.monitor.zones[c]._fresh_rows(
                        self.monitor.project(staged[c])
                    )
                    if len(fresh):
                        self._store.append_insert(c, fresh)
                if candidate.gamma != self.monitor.gamma:
                    self._store.append_gamma(candidate.gamma)
                self._store.append_snapshot(
                    snapshot.epoch,
                    snapshot.gamma,
                    {
                        c: candidate.zones[c].num_visited_patterns
                        for c in candidate.classes
                    },
                )
                # The candidate takes over as the authoritative monitor;
                # keep its direct-insert path writing through as well.
                candidate.attach_store(self._store)
            self.monitor = candidate
            self.epoch = snapshot.epoch  # lint: disable=epoch-monotonicity -- snapshot.epoch is self.epoch + 1 computed above, under the same lock hold
            self.absorptions += 1
            self.total_absorbed += absorbed
            self.last_calibration = calibration
            self.last_snapshot = snapshot
            return snapshot

    def stats(self) -> Dict[str, object]:
        """Observability row for the serving layer's drift line."""
        return {
            "epoch": self.epoch,
            "gamma": self.monitor.gamma,
            "absorptions": self.absorptions,
            "absorbed_patterns": self.total_absorbed,
            "staged": self.staging.total,
            "staged_ever": self.staging.total_ever,
            "staged_dropped": self.staging.total_dropped,
        }

    def __repr__(self) -> str:
        return (
            f"DriftResponder(epoch={self.epoch}, gamma={self.monitor.gamma}, "
            f"absorptions={self.absorptions}, staged={self.staging.total})"
        )
