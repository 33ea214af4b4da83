"""Distribution-shift detection from the stream of monitor verdicts.

The paper (§I) observes that "the frequent appearance of unseen patterns
provides an indicator of data distribution shift to the development team".
:class:`DistributionShiftDetector` operationalises that: it maintains a
sliding window over the binary out-of-pattern stream and raises an alarm
when the windowed rate significantly exceeds the rate calibrated on
validation data (a one-sided binomial z-test), with an optional CUSUM
accumulator for slowly drifting shifts.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

import numpy as np

from repro.devtools.lint.runtime import named_lock


@dataclass
class ShiftState:
    """Snapshot of the detector after one update.

    ``cusum`` is the accumulator value *at the moment the state was
    computed*: the state returned by :meth:`DistributionShiftDetector.update`
    reports the pre-restart crossing value when that update alarmed via
    CUSUM, while :meth:`DistributionShiftDetector.peek` always reports the
    live (post-restart) accumulator.
    """

    samples_seen: int
    window_rate: float
    z_score: float
    cusum: float
    alarm: bool


class DistributionShiftDetector:
    """Windowed out-of-pattern-rate alarm.

    Parameters
    ----------
    baseline_rate:
        Expected out-of-pattern rate without shift (from the γ calibration
        on validation data, e.g. 0.6% for MNIST at γ=2).
    window:
        Sliding window length (number of recent decisions considered).
    z_threshold:
        One-sided z-score above which the windowed rate is declared
        significantly higher than baseline.
    cusum_slack, cusum_threshold:
        The CUSUM accumulates ``(x - baseline - slack)`` per observation and
        alarms when it exceeds the threshold; catches slow drifts that never
        spike a single window.

    Alarm semantics: each :class:`ShiftState` reports whether *that update*
    crossed a limit.  When the CUSUM limit is hit, the accumulator restarts
    at zero (standard CUSUM restart), so the alarm is an edge — a fresh
    alarm needs fresh evidence rather than staying latched forever on the
    pre-shift residue.  The windowed z-test needs no reset: the window
    slides, so its alarm clears by itself once the rate recovers.
    """

    def __init__(
        self,
        baseline_rate: float,
        window: int = 200,
        z_threshold: float = 3.0,
        cusum_slack: float = 0.02,
        cusum_threshold: float = 8.0,
    ):
        if not 0.0 <= baseline_rate < 1.0:
            raise ValueError(f"baseline_rate must be in [0, 1), got {baseline_rate}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.baseline_rate = baseline_rate
        self.window = window
        self.z_threshold = z_threshold
        self.cusum_slack = cusum_slack
        self.cusum_threshold = cusum_threshold
        self._buffer: Deque[bool] = deque(maxlen=window)
        self._ones = 0  # running count of True flags in the window
        self._cusum = 0.0
        self._seen = 0
        # Serving calls update() from worker threads while the stats
        # endpoint peek()s and the drift loop rebaseline()s after a zone
        # swap; one lock serialises every window/accumulator access so a
        # rebaseline can never interleave with a half-applied update.
        self._lock = named_lock("DistributionShiftDetector._lock")

    def _state(self) -> ShiftState:
        """Current state from the window and accumulator (shared by
        :meth:`update` and :meth:`peek` so the alarm rule cannot drift)."""
        n = len(self._buffer)
        rate = self._ones / n if n else 0.0
        # One-sided z-test of the windowed rate against the baseline.
        std = math.sqrt(
            max(self.baseline_rate * (1.0 - self.baseline_rate), 1e-12) / max(n, 1)
        )
        z = (rate - self.baseline_rate) / std
        # The z-test waits for a full window: partial-window estimates are
        # too noisy and would fire spuriously during warm-up.
        alarm = (n >= self.window and z >= self.z_threshold) or (
            self._cusum >= self.cusum_threshold
        )
        return ShiftState(
            samples_seen=self._seen,
            window_rate=rate,
            z_score=float(z),
            cusum=self._cusum,
            alarm=bool(alarm),
        )

    def _update_locked(self, out_of_pattern: bool) -> ShiftState:
        """One observation; caller holds ``self._lock``."""
        flag = bool(out_of_pattern)
        buffer = self._buffer
        if len(buffer) == self.window:
            self._ones -= buffer[0]  # the append below evicts it
        buffer.append(flag)
        self._ones += flag
        self._seen += 1
        self._cusum = max(
            0.0,
            self._cusum + (float(out_of_pattern) - self.baseline_rate - self.cusum_slack),
        )
        state = self._state()
        if self._cusum >= self.cusum_threshold:
            # CUSUM restart: report the crossing value, then re-arm so the
            # alarm doesn't stay latched on the accumulated pre-shift mass.
            # A peek() immediately after therefore reports cusum 0.0 (and
            # no CUSUM alarm): the returned state is the record of the
            # crossing, peek() is the live post-restart accumulator.
            self._cusum = 0.0
        return state

    def update(self, out_of_pattern: bool) -> ShiftState:
        """Feed one monitor verdict; returns the current detector state."""
        with self._lock:
            return self._update_locked(out_of_pattern)

    def update_many(self, flags: Iterable[bool]) -> List[ShiftState]:
        """Feed a sequence of verdicts; returns the state after each.

        Holds the lock across the whole batch (via the unlocked helper —
        a plain lock would self-deadlock on nested ``update`` calls), so
        a concurrent ``rebaseline`` lands before or after the batch,
        never inside it.  A numpy flag array is read as Python bools in
        one ``tolist()`` rather than element by element.
        """
        if isinstance(flags, np.ndarray):
            flags = flags.tolist()
        with self._lock:
            return [self._update_locked(flag) for flag in flags]

    def peek(self) -> ShiftState:
        """Current state without consuming an observation (serving stats).

        Reflects the *post-restart* accumulator: after an update that
        alarmed via the CUSUM limit, the returned state reported the
        crossing value but the accumulator was re-armed at zero, so this
        peek reports ``cusum == 0.0`` (and alarms only if the windowed
        z-test still fires).  The two are intentionally different views
        of the same restart, not a disagreement.
        """
        with self._lock:
            return self._state()

    def rebaseline(self, baseline_rate: float) -> None:
        """Swap the no-shift baseline and re-arm the detector.

        Used by the drift loop after a zone swap: the absorbed patterns
        and re-chosen γ change the expected quiet rate, so the window and
        CUSUM built against the old baseline are cleared (keeping the old
        evidence would compare post-swap traffic against a stale
        reference).  ``samples_seen`` is cumulative and survives.
        """
        if not 0.0 <= baseline_rate < 1.0:
            raise ValueError(f"baseline_rate must be in [0, 1), got {baseline_rate}")
        with self._lock:
            self.baseline_rate = float(baseline_rate)
            self._buffer.clear()
            self._ones = 0
            self._cusum = 0.0

    def reset(self) -> None:
        """Clear the window and the CUSUM accumulator."""
        with self._lock:
            self._buffer.clear()
            self._ones = 0
            self._cusum = 0.0
            self._seen = 0


@dataclass
class DistanceShiftState:
    """Snapshot of the distance-histogram detector after one update."""

    samples_seen: int
    window_mean: float
    divergence: float
    histogram: np.ndarray
    alarm: bool


class DistanceShiftDetector:
    """Shift detection from *exact* Hamming distances, not binary verdicts.

    The binary out-of-pattern stream collapses "one bit outside the zone"
    and "half the layer flipped" into the same event.  The bitset backend
    (and now the BDD backend, via ``ZoneBackend.min_distances``) reports
    the exact distance of every decision to its class's visited set, so a
    shift can be read off the *distance histogram* before the binary rate
    moves: distributions drifting away from training shift probability
    mass to larger distances even while most samples still fall inside
    ``Z^γ``.

    The detector bins distances into ``[0, 1, ..., max_distance, overflow]``,
    maintains a sliding-window empirical histogram and alarms when its
    total-variation divergence from the calibration-time baseline exceeds
    ``divergence_threshold`` (with a full window, mirroring the z-test's
    warm-up guard).

    Parameters
    ----------
    baseline_distances:
        Distances observed on validation data (no shift), used to build
        the reference histogram.
    max_distance:
        Distances above this land in one overflow bin (default: the
        largest baseline distance + 1).
    window:
        Sliding window length.
    divergence_threshold:
        Total-variation distance (in [0, 1]) above which the windowed
        histogram is declared shifted.
    """

    def __init__(
        self,
        baseline_distances: Iterable[int],
        max_distance: Optional[int] = None,
        window: int = 200,
        divergence_threshold: float = 0.25,
    ):
        if not 0.0 < divergence_threshold <= 1.0:
            raise ValueError(
                f"divergence_threshold must be in (0, 1], got {divergence_threshold}"
            )
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.divergence_threshold = divergence_threshold
        self._buffer: Deque[int] = deque(maxlen=window)
        self._seen = 0
        # Same contract as DistributionShiftDetector._lock: updates from
        # worker threads vs. peek()/rebaseline() from stats and the drift
        # loop serialise on one lock.
        self._lock = named_lock("DistanceShiftDetector._lock")
        self._set_baseline(baseline_distances, max_distance)
        self._clear_window()

    def _clear_window(self) -> None:
        """Empty the window and its running tallies (per-bin counts over
        the current binning, integer sum of the raw distances)."""
        self._buffer.clear()
        self._counts: List[int] = [0] * (self.max_distance + 2)
        self._sum = 0

    def _set_baseline(
        self, baseline_distances: Iterable[int], max_distance: Optional[int]
    ) -> None:
        """Validate a baseline sample and (re)build the reference histogram.

        The effective ``max_distance`` is validated and reported as the
        *computed* value (the raw argument is ``None`` on the default
        path), and an explicit bound below the largest baseline distance
        warns instead of silently clipping baseline mass into the
        overflow bin — a reference histogram with hidden overflow mass
        makes the TV divergence insensitive to exactly the outward drift
        the detector exists to catch.
        """
        baseline = np.asarray(list(baseline_distances), dtype=np.int64)
        if baseline.size == 0:
            raise ValueError("baseline_distances must be non-empty")
        if baseline.min() < 0:
            raise ValueError("distances must be non-negative")
        self.max_distance = (
            int(baseline.max()) + 1 if max_distance is None else int(max_distance)
        )
        if self.max_distance < 0:
            raise ValueError(
                f"max_distance must be non-negative, got {self.max_distance} "
                f"(from max_distance={max_distance!r})"
            )
        largest = int(baseline.max())
        if self.max_distance < largest:
            clipped = float((baseline > self.max_distance).mean())
            warnings.warn(
                f"max_distance={self.max_distance} is below the largest "
                f"baseline distance ({largest}): {clipped:.1%} of the "
                f"baseline mass lands in the overflow bin",
                RuntimeWarning,
                stacklevel=3,
            )
        self.baseline_histogram = self._histogram(baseline)

    def _histogram(self, distances: np.ndarray) -> np.ndarray:
        """Normalised counts over bins ``0..max_distance`` plus overflow."""
        clipped = np.minimum(distances, self.max_distance + 1)
        counts = np.bincount(clipped, minlength=self.max_distance + 2)
        return counts / counts.sum()

    def _state(self) -> DistanceShiftState:
        """Current state from the window (shared by :meth:`update` and
        :meth:`peek` so the alarm rule cannot drift)."""
        if not self._buffer:
            return DistanceShiftState(
                samples_seen=self._seen,
                window_mean=0.0,
                divergence=0.0,
                histogram=self.baseline_histogram.copy(),
                alarm=False,
            )
        # Integer counts over their sum and an integer sum over the length
        # give the floats a rebuild of the whole window would (both are
        # one correctly rounded division of the same exact integers).
        size = len(self._buffer)
        histogram = np.array(self._counts, dtype=np.int64) / size
        divergence = 0.5 * float(np.abs(histogram - self.baseline_histogram).sum())
        alarm = size >= self.window and divergence >= self.divergence_threshold
        return DistanceShiftState(
            samples_seen=self._seen,
            window_mean=self._sum / size,
            divergence=divergence,
            histogram=histogram,
            alarm=bool(alarm),
        )

    def _update_locked(self, distance: int) -> DistanceShiftState:
        """One observation; caller holds ``self._lock``."""
        if distance < 0:
            raise ValueError(f"distance must be non-negative, got {distance}")
        distance = int(distance)
        overflow = self.max_distance + 1
        if len(self._buffer) == self.window:
            evicted = self._buffer[0]
            self._counts[min(evicted, overflow)] -= 1
            self._sum -= evicted
        self._buffer.append(distance)
        self._counts[min(distance, overflow)] += 1
        self._sum += distance
        self._seen += 1
        return self._state()

    def update(self, distance: int) -> DistanceShiftState:
        """Feed one decision's exact distance; returns the detector state."""
        with self._lock:
            return self._update_locked(distance)

    def update_many(self, distances: Iterable[int]) -> List[DistanceShiftState]:
        """Feed a sequence of distances; returns the state after each.

        Holds the lock once for the whole batch (see
        :meth:`DistributionShiftDetector.update_many`).
        """
        with self._lock:
            return [self._update_locked(d) for d in distances]

    def peek(self) -> DistanceShiftState:
        """Current state without consuming an observation (serving stats)."""
        with self._lock:
            return self._state()

    def rebaseline(
        self,
        baseline_distances: Iterable[int],
        max_distance: Optional[int] = None,
    ) -> None:
        """Rebuild the reference histogram and re-arm the detector.

        Used by the drift loop after a zone swap: distances are measured
        against the *new* ``Z^0``, so both the reference histogram and
        the sliding window built against the old zones are stale.  The
        binning is kept (same ``max_distance``) unless a new bound is
        given, so a serving layer's bounded-distance cap stays valid
        across swaps.  ``samples_seen`` is cumulative and survives.
        """
        with self._lock:
            self._set_baseline(
                baseline_distances,
                self.max_distance if max_distance is None else max_distance,
            )
            self._clear_window()

    def reset(self) -> None:
        """Clear the sliding window (the baseline is kept)."""
        with self._lock:
            self._clear_window()
            self._seen = 0
