"""One distance pass per γ sweep, against the per-γ loop it replaced.

``evaluate_sweep`` — and through it ``GammaCalibrator.calibrate_patterns``
— scores every γ of a sweep from one ``min_distances`` pass capped at the
largest γ.  The oracle is the loop the callers used to run, kept here:
``set_gamma`` then ``evaluate_patterns`` (a full ``check``) per γ.  The
rows must match field by field, in the order the γs were given, and so
must the chosen γ and the monitor's γ on return.  The cases cover the
bitset, indexed bitset and BDD backends, a ``monitored_neurons``
projection, unmonitored classes, an empty zone and γ above the projected
width, where an empty zone's ``width + 1`` sentinel must stay
unsupported.
"""

import dataclasses

import numpy as np
import pytest

from repro.monitor import (
    GammaCalibrator,
    NeuronActivationMonitor,
    evaluate_patterns,
    evaluate_sweep,
)
from repro.store import PatternWAL, ZoneStore
from repro.store.wal import GammaRecord

CLASSES = [0, 1, 2, 3]      # class 3 records nothing: an empty zone
PREDICTED = range(6)        # classes 4 and 5 are unmonitored
#: (backend, indexed, layer width).  The band index only pays from 2048
#: stored rows per zone and 8 bits per band, hence the wider, fuller
#: indexed layer.
VARIANTS = [
    ("bitset", False, 16),
    ("bitset", True, 32),
    ("bdd", False, 16),
]


def _train(width, seed=0):
    n = 7000 if width > 16 else 300
    rng = np.random.default_rng(seed)
    patterns = (rng.random((n, width)) < 0.3).astype(np.uint8)
    labels = rng.integers(0, 3, n)  # never class 3
    return patterns, labels


def _validation(width, seed=1, n=400):
    """Training rows with a few flipped bits, so distances span the
    sweep, predicted as any class (monitored, empty or unmonitored)."""
    rng = np.random.default_rng(seed)
    train, _ = _train(width)
    rows = train[rng.integers(0, len(train), n)].copy()
    for row, flips in zip(rows, rng.integers(0, width // 3, n)):
        row[rng.choice(width, flips, replace=False)] ^= 1
    predictions = rng.integers(0, len(PREDICTED), n)
    labels = np.where(rng.random(n) < 0.8, predictions, rng.integers(0, 6, n))
    return rows, predictions, labels


def _monitor(backend, indexed, width, projected=False, gamma=1):
    """A monitor over ``width`` neurons; ``projected`` keeps every other."""
    patterns, labels = _train(width)
    monitor = NeuronActivationMonitor(
        width, CLASSES, gamma=gamma,
        monitored_neurons=range(0, width, 2) if projected else None,
        backend=backend, indexed=indexed,
    )
    monitor.record(patterns, labels, labels)
    return monitor


def loop_sweep(monitor, patterns, predictions, labels, gammas):
    """The per-γ loop every sweep ran before: set γ, run a full check."""
    rows = []
    for gamma in gammas:
        monitor.set_gamma(gamma)
        rows.append(evaluate_patterns(monitor, patterns, predictions, labels))
    return rows


def _fields(rows):
    return [dataclasses.astuple(row) for row in rows]


@pytest.mark.parametrize("backend,indexed,width", VARIANTS)
@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize(
    "gammas",
    [[3, 0, 1], [0, 1, 2, 3, 4], [9, 2, 17, 33, 0]],
    ids=["unsorted", "ascending", "above-width"],
)
def test_sweep_rows_match_per_gamma_loop(backend, indexed, width, projected, gammas):
    monitor = _monitor(backend, indexed, width, projected)
    patterns, predictions, labels = _validation(width)

    rows = evaluate_sweep(monitor, patterns, predictions, labels, gammas)
    assert monitor.gamma == 1  # the sweep leaves γ alone

    expected = loop_sweep(monitor, patterns, predictions, labels, gammas)
    assert [row.gamma for row in rows] == gammas
    assert _fields(rows) == _fields(expected)


def test_sweep_covers_the_edge_populations():
    """The fixture really exercises what the sweep must get right."""
    patterns, predictions, _labels = _validation(16)
    assert np.isin(predictions, [4, 5]).any()        # unmonitored rows
    assert (predictions == 3).any()                  # empty-zone rows
    monitor = _monitor("bitset", False, 16)
    assert monitor.zones[3].num_visited_patterns == 0
    distances = monitor.min_distances(patterns, predictions)
    monitored = np.isin(predictions, [0, 1, 2])
    assert set(distances[monitored]) >= {0, 1, 2, 3, 4}  # spans the sweep
    projected = _monitor("bitset", False, 16, projected=True)
    distances = projected.min_distances(patterns, predictions)
    assert (distances[predictions == 3] == 8 + 1).all()  # empty-zone sentinel


def test_indexed_sweep_rides_the_band_index():
    monitor = _monitor("bitset", True, 32)
    patterns, predictions, labels = _validation(32)
    evaluate_sweep(monitor, patterns, predictions, labels, [3, 0, 1])
    assert 3 in monitor.zones[0].backend._indices


def test_empty_sweep_and_empty_rows():
    monitor = _monitor("bitset", False, 16)
    patterns, predictions, labels = _validation(16)
    assert evaluate_sweep(monitor, patterns, predictions, labels, []) == []
    unmonitored = np.full(len(patterns), 5)
    rows = evaluate_sweep(monitor, patterns, unmonitored, labels, [2, 0])
    assert _fields(rows) == _fields(
        loop_sweep(monitor, patterns, unmonitored, labels, [2, 0])
    )


def test_negative_gamma_rejected():
    monitor = _monitor("bitset", False, 16)
    patterns, predictions, labels = _validation(16)
    with pytest.raises(ValueError, match="non-negative"):
        evaluate_sweep(monitor, patterns, predictions, labels, [1, -1])


@pytest.mark.parametrize("backend,indexed,width", VARIANTS)
@pytest.mark.parametrize("projected", [False, True])
def test_calibration_matches_per_gamma_loop(backend, indexed, width, projected):
    patterns, predictions, labels = _validation(width)
    twin = _monitor(backend, indexed, width, projected, gamma=2)
    expected = loop_sweep(twin, patterns, predictions, labels, range(5))
    chosen = set()
    for target in (0.0, 0.05, 0.3, 1.0):
        calibrator = GammaCalibrator(max_gamma=4, max_out_of_pattern_rate=target)
        monitor = _monitor(backend, indexed, width, projected, gamma=2)
        result = calibrator.calibrate_patterns(
            monitor, patterns, predictions, labels
        )
        assert _fields(result.sweep) == _fields(expected)
        assert result.chosen_gamma == calibrator.choose(expected)
        assert monitor.gamma == result.chosen_gamma
        chosen.add(result.chosen_gamma)
    assert len(chosen) > 1  # the targets really move the choice


@pytest.mark.parametrize("start_gamma", [0, 2, 4])
def test_calibration_logs_at_most_one_gamma_record(tmp_path, start_gamma):
    """Each swept ``set_gamma`` used to write a GAMMA record through to
    an attached store; now only the chosen γ is set, once."""
    patterns, predictions, labels = _validation(16)
    monitor = _monitor("bitset", False, 16, gamma=start_gamma)
    store = ZoneStore(tmp_path)
    monitor.attach_store(store)

    result = GammaCalibrator(max_gamma=4).calibrate_patterns(
        monitor, patterns, predictions, labels
    )
    store.close()
    wal = PatternWAL(tmp_path / "wal.rzw")
    logged = [r.gamma for r in wal.scan().records if isinstance(r, GammaRecord)]
    wal.close()
    assert logged == ([] if result.chosen_gamma == start_gamma
                      else [result.chosen_gamma])
    recovered = NeuronActivationMonitor.from_store(tmp_path, attach=False)
    assert recovered.gamma == result.chosen_gamma == monitor.gamma
