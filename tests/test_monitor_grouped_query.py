"""Grouped monitor queries against the per-class loop they replace.

``NeuronActivationMonitor.check`` and ``.min_distances`` answer a batch
with one grouped backend call (``ZoneBackend.contains_grouped`` /
``min_distances_grouped``); on the BDD backend that is one multi-root walk
with each row seeded at its own class's zone.  The oracle is the loop the
monitor used to run — one ``ComfortZone`` query per class present — kept
here verbatim, plus a brute-force Hamming sweep for distances.  Verdicts
and distances must be bit-identical on both backends, for γ 0–4, ``cap``,
per-zone γ, empty zones, unmonitored classes, single rows, batches on
both sides of the scalar/vector walk crossover, and a GC that renumbers
zone roots in the middle of a query.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.bdd.manager import SCALAR_WALK_ROWS
from repro.monitor import NeuronActivationMonitor

BACKENDS = ("bdd", "bitset")


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def loop_check(monitor, patterns, classes):
    """The per-class loop ``check`` ran before grouped queries."""
    projected = monitor.project(np.atleast_2d(patterns))
    classes = np.asarray(classes)
    supported = np.ones(len(projected), dtype=bool)
    for c, zone in monitor.zones.items():
        mask = classes == c
        if mask.any():
            supported[mask] = zone.contains_batch(projected[mask])
    return supported


def loop_distances(monitor, patterns, classes, cap=None):
    """The per-class loop ``min_distances`` ran before grouped queries."""
    projected = monitor.project(np.atleast_2d(patterns))
    classes = np.asarray(classes)
    distances = np.zeros(len(projected), dtype=np.int64)
    for c, zone in monitor.zones.items():
        mask = classes == c
        if mask.any():
            distances[mask] = zone.min_distances(projected[mask], cap=cap)
    return distances


def brute_distances(monitor, visited, patterns, classes, cap=None):
    """Definitional distances: min Hamming distance to the class's rows."""
    projected = monitor.project(np.atleast_2d(patterns))
    width = projected.shape[1]
    out = np.zeros(len(projected), dtype=np.int64)
    for i, (row, c) in enumerate(zip(projected, classes)):
        if int(c) not in monitor.zones:
            continue
        rows = visited.get(int(c))
        if rows is None or not len(rows):
            out[i] = width + 1
        else:
            out[i] = (rows != row).sum(axis=1).min()
        if cap is not None:
            out[i] = min(out[i], cap + 1)
    return out


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def build_case(backend, seed, width, n_classes, rows, gamma, zone_gammas,
               empty_class, subset):
    """A monitor with per-class zones near class prototypes, and probes.

    Probes are drawn near the prototypes (so every distance 0..width
    shows up) and labelled with monitored and unmonitored classes.
    """
    rng = np.random.default_rng(seed)
    neurons = None
    if subset:
        neurons = sorted(rng.choice(width + 2, size=width, replace=False).tolist())
    layer = width + 2 if subset else width
    monitor = NeuronActivationMonitor(
        layer, range(n_classes), gamma=gamma, monitored_neurons=neurons,
        backend=backend,
    )
    prototypes = rng.integers(0, 2, size=(n_classes, layer), dtype=np.uint8)
    visited = {}
    for c in range(n_classes):
        if c == empty_class:
            continue
        flips = rng.random((int(rng.integers(1, 12)), layer)) < 0.15
        patterns = prototypes[c] ^ flips.astype(np.uint8)
        monitor.record(patterns, np.full(len(patterns), c), np.full(len(patterns), c))
        visited[c] = monitor.project(patterns)
    for c, g in zone_gammas.items():
        if c in monitor.zones:
            monitor.zones[c].set_gamma(g)
    labels = rng.integers(0, n_classes + 2, size=rows)  # +2: unmonitored
    flip_rate = rng.choice([0.05, 0.2, 0.5], size=(rows, 1))
    base = prototypes[np.minimum(labels, n_classes - 1)]
    probes = base ^ (rng.random((rows, layer)) < flip_rate).astype(np.uint8)
    return monitor, visited, probes, labels


@st.composite
def cases(draw):
    rows = draw(st.sampled_from([
        1, 2, 7, SCALAR_WALK_ROWS - 1, SCALAR_WALK_ROWS, 3 * SCALAR_WALK_ROWS + 5,
    ]))
    n_classes = draw(st.integers(1, 4))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        width=draw(st.integers(1, 10)),
        n_classes=n_classes,
        rows=rows,
        gamma=draw(st.integers(0, 4)),
        zone_gammas=draw(st.dictionaries(
            st.integers(0, n_classes - 1), st.integers(0, 4), max_size=2,
        )),
        empty_class=draw(st.one_of(st.none(), st.integers(0, n_classes - 1))),
        subset=draw(st.booleans()),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_grouped_check_matches_per_class_loop(backend, case):
    monitor, _visited, probes, labels = build_case(backend, **case)
    expected = loop_check(monitor, probes, labels)
    np.testing.assert_array_equal(monitor.check(probes, labels), expected)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(case=cases(), cap=st.one_of(st.none(), st.integers(0, 5)))
def test_grouped_distances_match_loop_and_brute_force(backend, case, cap):
    monitor, visited, probes, labels = build_case(backend, **case)
    got = monitor.min_distances(probes, labels, cap=cap)
    np.testing.assert_array_equal(got, loop_distances(monitor, probes, labels, cap))
    np.testing.assert_array_equal(
        got, brute_distances(monitor, visited, probes, labels, cap)
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_grouped_distances_agree_with_check_at_each_zone_gamma(backend):
    """``distance <= zone γ`` iff the row is supported, per-zone γ too."""
    monitor, _visited, probes, labels = build_case(
        backend, seed=3, width=9, n_classes=3, rows=120, gamma=1,
        zone_gammas={0: 3, 2: 0}, empty_class=None, subset=False,
    )
    distances = monitor.min_distances(probes, labels)
    gammas = np.array([
        monitor.zones[int(c)].gamma if int(c) in monitor.zones else 10**6
        for c in labels
    ])
    np.testing.assert_array_equal(distances <= gammas, monitor.check(probes, labels))


@pytest.mark.parametrize("backend", BACKENDS)
def test_edge_batches(backend):
    monitor, visited, probes, labels = build_case(
        backend, seed=11, width=8, n_classes=3, rows=40, gamma=2,
        zone_gammas={}, empty_class=1, subset=False,
    )
    # empty zone: never supported, distance is the d + 1 sentinel
    rows = labels == 1
    assert rows.any()
    assert not monitor.check(probes[rows], labels[rows]).any()
    assert (monitor.min_distances(probes[rows], labels[rows]) == 9).all()
    # unmonitored classes only: supported, distance 0
    rows = labels >= 3
    assert rows.any()
    assert monitor.check(probes[rows], labels[rows]).all()
    assert (monitor.min_distances(probes[rows], labels[rows]) == 0).all()
    # single rows and an empty batch
    for i in range(len(probes)):
        assert monitor.check(probes[i], labels[i : i + 1])[0] == loop_check(
            monitor, probes[i], labels[i : i + 1]
        )[0]
    assert monitor.check(probes[:0], labels[:0]).shape == (0,)
    assert monitor.min_distances(probes[:0], labels[:0]).shape == (0,)


def test_bdd_check_is_one_walk_per_batch(monkeypatch):
    """The grouped check walks the shared diagram once for all classes."""
    monitor, _visited, probes, labels = build_case(
        "bdd", seed=5, width=10, n_classes=4, rows=64, gamma=2,
        zone_gammas={}, empty_class=None, subset=False,
    )
    monitor.check(probes, labels)  # materialise every Z^γ
    manager = monitor._manager
    calls = []
    walk = manager.contains_batch
    monkeypatch.setattr(
        manager, "contains_batch", lambda f, p: calls.append(len(p)) or walk(f, p)
    )
    expected = loop_check(monitor, probes, labels)
    calls.clear()
    np.testing.assert_array_equal(monitor.check(probes, labels), expected)
    assert calls == [len(probes)]


@pytest.mark.parametrize("seed", range(4))
def test_bdd_gc_during_zone_expansion(monkeypatch, seed):
    """A GC triggered by ``zone_ref`` expansion inside a grouped query
    renumbers zone roots read earlier; the query must read them again."""
    monkeypatch.setenv("REPRO_BDD_GC_THRESHOLD", "64")
    case = dict(seed=seed, width=12, n_classes=4, rows=3 * SCALAR_WALK_ROWS,
                gamma=3, zone_gammas={1: 4}, empty_class=None, subset=False)
    monitor, visited, probes, labels = build_case("bdd", **case)
    manager = monitor._manager
    before = manager.cache_stats()["gc_runs"]
    got = monitor.check(probes, labels)  # cold γ cache: expands every zone
    assert manager.cache_stats()["gc_runs"] > before, "no GC ran mid-query"
    reference, _, _, _ = build_case("bitset", **case)
    np.testing.assert_array_equal(got, loop_check(reference, probes, labels))

    fresh, visited, _, _ = build_case("bdd", **case)
    before = fresh._manager.cache_stats()["gc_runs"]
    distances = fresh.min_distances(probes, labels, cap=5)
    assert fresh._manager.cache_stats()["gc_runs"] > before, "no GC ran mid-query"
    np.testing.assert_array_equal(
        distances, brute_distances(fresh, visited, probes, labels, cap=5)
    )


# ----------------------------------------------------------------------
# the manager's multi-root walk
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rows", [1, SCALAR_WALK_ROWS - 1, SCALAR_WALK_ROWS, 4 * SCALAR_WALK_ROWS]
)
def test_multi_root_walk_matches_scalar_contains(rows):
    rng = np.random.default_rng(rows)
    manager = BDDManager(8)
    zones = [
        manager.from_patterns(rng.integers(0, 2, size=(k, 8), dtype=np.uint8))
        for k in (1, 5, 30)
    ]
    choices = np.array(zones + [manager.TRUE, manager.FALSE, zones[1] ^ 1])
    roots = choices[rng.integers(0, len(choices), size=rows)]
    patterns = rng.integers(0, 2, size=(rows, 8), dtype=np.uint8)
    expected = [manager.contains(int(r), p) for r, p in zip(roots, patterns)]
    np.testing.assert_array_equal(manager.contains_batch(roots, patterns), expected)
    single = manager.contains_batch(zones[2], patterns)
    np.testing.assert_array_equal(
        single, [manager.contains(zones[2], p) for p in patterns]
    )
    with pytest.raises(ValueError):
        manager.contains_batch(roots[:-1], patterns)
