"""Both shift detectors keep running window tallies instead of rescans.

``DistanceShiftDetector`` used to rebuild the window array, its
``bincount`` and its mean on every row; it now keeps integer bin counts
and an integer sum.  ``DistributionShiftDetector`` used to sum its whole
flag window for every state; it now keeps a running count of ones.  Both
are updated on each append and eviction.  The rebuild is kept here as
the oracle: every state must be bit-identical across window wrap-around,
CUSUM restarts, ``rebaseline`` (with and without a new binning) and
``reset``.
"""

import warnings
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.shift import (
    DistanceShiftDetector,
    DistributionShiftDetector,
    ShiftState,
)


def rebuilt_state(detector, window, seen):
    """The state computed from scratch over the window contents."""
    if not window:
        return (seen, 0.0, 0.0, detector.baseline_histogram.tolist(), False)
    values = np.asarray(window, dtype=np.int64)
    clipped = np.minimum(values, detector.max_distance + 1)
    counts = np.bincount(clipped, minlength=detector.max_distance + 2)
    histogram = counts / counts.sum()
    divergence = 0.5 * float(np.abs(histogram - detector.baseline_histogram).sum())
    alarm = len(window) >= detector.window and divergence >= detector.divergence_threshold
    return (seen, float(np.mean(window)), divergence, histogram.tolist(), bool(alarm))


def as_tuple(state):
    return (state.samples_seen, state.window_mean, state.divergence,
            state.histogram.tolist(), state.alarm)


distances = st.lists(st.integers(0, 14), min_size=1, max_size=40)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("feed"), distances),
        st.tuples(st.just("rebaseline"), distances,
                  st.one_of(st.none(), st.integers(0, 12))),
        st.tuples(st.just("reset")),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    baseline=distances,
    window=st.integers(1, 12),
    threshold=st.sampled_from([0.05, 0.25, 0.6, 1.0]),
    max_distance=st.one_of(st.none(), st.integers(0, 12)),
    ops=operations,
)
def test_running_tallies_match_window_rebuild(baseline, window, threshold,
                                              max_distance, ops):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clipped baselines
        detector = DistanceShiftDetector(
            baseline, max_distance=max_distance, window=window,
            divergence_threshold=threshold,
        )
        contents, seen = deque(maxlen=window), 0
        for op in ops:
            if op[0] == "feed":
                states = detector.update_many(op[1])
                for value, state in zip(op[1], states):
                    contents.append(value)
                    seen += 1
                    assert as_tuple(state) == rebuilt_state(detector, contents, seen)
                assert len(states) == len(op[1])
            elif op[0] == "rebaseline":
                detector.rebaseline(op[1], max_distance=op[2])
                contents.clear()
            else:
                detector.reset()
                contents.clear()
                seen = 0
            assert as_tuple(detector.peek()) == rebuilt_state(detector, contents, seen)
        single = detector.update(3)
        contents.append(3)
        assert as_tuple(single) == rebuilt_state(detector, contents, seen + 1)


class BinaryRebuild:
    """The binary detector's rule, recomputed per row by summing the
    whole flag window (the oracle for the running count of ones)."""

    def __init__(self, baseline_rate, window, z_threshold, slack, threshold):
        self.baseline_rate = baseline_rate
        self.window = window
        self.z_threshold = z_threshold
        self.slack = slack
        self.threshold = threshold
        self.flags = deque(maxlen=window)
        self.cusum = 0.0
        self.seen = 0

    def state(self):
        n = len(self.flags)
        rate = sum(self.flags) / n if n else 0.0
        b = self.baseline_rate
        std = np.sqrt(max(b * (1.0 - b), 1e-12) / max(n, 1))
        z = (rate - b) / std
        alarm = (n >= self.window and z >= self.z_threshold) or (
            self.cusum >= self.threshold
        )
        return ShiftState(self.seen, rate, float(z), self.cusum, bool(alarm))

    def update(self, flag):
        self.flags.append(bool(flag))
        self.seen += 1
        self.cusum = max(0.0, self.cusum + (float(flag) - self.baseline_rate - self.slack))
        state = self.state()
        if self.cusum >= self.threshold:
            self.cusum = 0.0  # CUSUM restart
        return state


flags = st.lists(st.booleans(), min_size=1, max_size=60)
rates = st.sampled_from([0.0, 0.01, 0.2, 0.5, 0.9])
binary_operations = st.lists(
    st.one_of(
        st.tuples(st.just("feed"), flags, st.booleans()),
        st.tuples(st.just("rebaseline"), rates),
        st.tuples(st.just("reset")),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    baseline=rates,
    window=st.integers(1, 16),
    z_threshold=st.sampled_from([0.5, 3.0]),
    cusum_threshold=st.sampled_from([0.5, 2.0, 8.0]),
    ops=binary_operations,
)
def test_running_ones_match_window_sum(baseline, window, z_threshold,
                                       cusum_threshold, ops):
    detector = DistributionShiftDetector(
        baseline, window=window, z_threshold=z_threshold,
        cusum_slack=0.02, cusum_threshold=cusum_threshold,
    )
    oracle = BinaryRebuild(baseline, window, z_threshold, 0.02, cusum_threshold)
    for op in ops:
        if op[0] == "feed":
            # Both argument shapes the server uses: a numpy flag array
            # and a plain list.
            fed = np.asarray(op[1]) if op[2] else list(op[1])
            states = detector.update_many(fed)
            assert states == [oracle.update(flag) for flag in op[1]]
        elif op[0] == "rebaseline":
            detector.rebaseline(op[1])
            oracle.baseline_rate = op[1]
            oracle.flags.clear()
            oracle.cusum = 0.0
        else:
            detector.reset()
            oracle.flags.clear()
            oracle.cusum = 0.0
            oracle.seen = 0
        assert detector.peek() == oracle.state()
    assert detector.update(True) == oracle.update(True)
