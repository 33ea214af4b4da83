"""``DistanceShiftDetector`` keeps running window tallies, per row O(bins).

The detector used to rebuild the window array, its ``bincount`` and its
mean on every row.  It now keeps integer bin counts and an integer sum,
updated on each append and eviction.  The rebuild is kept here as the
oracle: every state — histogram, divergence, window mean, alarm — must
be bit-identical across window wrap-around, ``rebaseline`` (with and
without a new binning) and ``reset``.
"""

import warnings
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.shift import DistanceShiftDetector


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
