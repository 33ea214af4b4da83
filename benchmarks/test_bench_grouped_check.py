"""Grouped monitor check against the per-class loop, and the walk crossover.

``NeuronActivationMonitor.check`` answers a batch with one grouped backend
call; on the BDD backend that is one walk of the shared diagram with each
row rooted at its own class's ``Z^γ``.  The per-class loop it replaced
(one ``contains_batch`` per class present, still the default of
``ZoneBackend.contains_grouped``) is timed beside it on the MNIST monitor
at γ=2, for batches of 1, 8 (one coalesced ``classify`` batch), 64 and 512
validation rows, and both must give the same verdicts.

The second table justifies ``repro.bdd.manager.SCALAR_WALK_ROWS``: the
per-row ``BDDManager.contains`` walk against the vectorized multi-root
walk (three numpy gathers per level for the whole batch), on mixed-class
batches of growing size.
"""

import time

import numpy as np

import repro.bdd.manager as bdd_manager
from benchutil import record, record_perf, scaled
from repro.analysis.experiments import build_monitor
from repro.monitor.backends.base import ZoneBackend

BATCHES = (1, 8, 64, 512)
WALK_ROWS = (1, 4, 8, 16, 24, 32, 40, 48, 64, 96, 128, 256)


def _best_us(fns, batches, repeats=5):
    """Per name, the best over ``repeats`` of the mean time per call over
    ``batches``; the functions take turns within each repeat, so a change
    in the host's speed hits all of them alike."""
    for fn in fns.values():
        for args in batches[:2]:
            fn(*args)  # warm-up
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            for args in batches:
                fn(*args)
            best[name] = min(best[name], (time.perf_counter() - start) / len(batches))
    return {name: seconds * 1e6 for name, seconds in best.items()}


def _batches(rng, projected, classes, size, count):
    picks = [rng.choice(len(projected), size=size, replace=False) for _ in range(count)]
    return [(projected[p], classes[p]) for p in picks]


def test_grouped_check_against_per_class_loop(mnist_system, monkeypatch):
    monitor = build_monitor(mnist_system, gamma=2, backend="bdd")
    patterns, _labels, predictions = mnist_system.patterns_of("val")
    projected = monitor.project(patterns)
    monitor.check(patterns, predictions)  # materialise every Z^γ
    grouped = type(monitor.zones[monitor.classes[0]].backend).contains_grouped
    rng = np.random.default_rng(0)
    count = scaled(40, 10)

    np.testing.assert_array_equal(
        grouped(monitor.zones, projected, predictions),
        ZoneBackend.contains_grouped(monitor.zones, projected, predictions),
    )
    rows = [
        f"MNIST BDD monitor, gamma 2, {projected.shape[1]} monitored neurons, "
        f"{len(monitor.classes)} classes; {len(projected)} validation rows "
        "give identical verdicts",
        f"{'batch':>6} {'classes':>8} {'per-class loop':>15} {'grouped':>10} {'speedup':>8}",
    ]
    timings = {}
    for size in BATCHES:
        batches = _batches(rng, projected, predictions, size, count)
        present = np.mean([len(np.unique(c)) for _, c in batches])
        timed = _best_us({
            "loop": lambda p, c: ZoneBackend.contains_grouped(monitor.zones, p, c),
            "grouped": lambda p, c: grouped(monitor.zones, p, c),
        }, batches)
        loop_us, grouped_us = timed["loop"], timed["grouped"]
        timings[f"batch{size}"] = {
            "classes_present": float(present),
            "per_class_loop_us": loop_us,
            "grouped_us": grouped_us,
            "speedup": loop_us / grouped_us,
        }
        rows.append(
            f"{size:>6} {present:>8.1f} {loop_us:>12.1f} us {grouped_us:>7.1f} us "
            f"{loop_us / grouped_us:>7.2f}x"
        )

    # Scalar against vectorized walk, every row rooted at its own class.
    manager = monitor._manager
    root_of = {c: zone.zone_ref for c, zone in monitor.zones.items()}
    chosen = bdd_manager.SCALAR_WALK_ROWS
    monkeypatch.setattr(bdd_manager, "SCALAR_WALK_ROWS", chosen)  # restored after

    def walk_with(limit):
        def walk(roots, patterns):
            bdd_manager.SCALAR_WALK_ROWS = limit
            return manager.contains_batch(roots, patterns)
        return walk

    rows.append("")
    rows.append(f"{'rows':>6} {'scalar walk':>12} {'vector walk':>12}   faster")
    walks = {}
    crossover = None
    for size in WALK_ROWS:
        batches = [
            (np.array([root_of[int(c)] for c in classes]), p)
            for p, classes in _batches(rng, projected, predictions, size, count)
        ]
        timed = _best_us(
            {"scalar": walk_with(10**9), "vector": walk_with(0)}, batches
        )
        walks[str(size)] = {"scalar_us": timed["scalar"], "vector_us": timed["vector"]}
        faster = "scalar" if timed["scalar"] < timed["vector"] else "vector"
        if faster == "vector" and crossover is None:
            crossover = size
        rows.append(
            f"{size:>6} {timed['scalar']:>9.1f} us {timed['vector']:>9.1f} us   {faster}"
        )
    rows.append(
        f"first batch size where the vector walk wins: {crossover}; "
        f"SCALAR_WALK_ROWS = {chosen}"
    )
    record("grouped-check", "\n".join(rows))
    record_perf(
        "monitor.grouped_check",
        {
            "gamma": 2,
            "monitored_neurons": int(projected.shape[1]),
            **timings,
            "walk_us": walks,
            "measured_crossover_rows": crossover,
            "scalar_walk_rows": chosen,
        },
    )
    # One walk per batch must beat one walk per class at the served batch.
    assert timings["batch8"]["speedup"] > 1.0
