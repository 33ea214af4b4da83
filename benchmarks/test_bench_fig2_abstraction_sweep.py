"""Figure 2 — locating the "just-right" abstraction, quantified.

The figure sketches abstractions from α1 (bare visited set, no
generalisation) to α3 (so coarse everything is "visited").  We trace that
axis with γ: per step we report the mean zone density (fraction of the
2^d pattern space covered — the coarseness), the BDD node count (storage),
the out-of-pattern rate and warning precision on validation data.  The
useful band is where density is still far from 1 while the warning rate has
dropped to a usable level.

Also compares against the §V box-abstraction extension at equivalent
silence levels.
"""

from benchutil import is_smoke, record
from repro.analysis import abstraction_sweep, format_table, percent
from repro.monitor import BoxMonitor
from repro.monitor.boxes import _extract_activations
from repro.nn.data import stack_dataset

GAMMAS = [0, 1, 2, 3, 4]


def test_fig2_abstraction_sweep(mnist_system):
    points = abstraction_sweep(mnist_system, gammas=GAMMAS)
    rows = [
        [
            str(p.gamma),
            f"{p.mean_zone_density:.3e}",
            f"{p.mean_zone_nodes:.0f}",
            percent(p.evaluation.out_of_pattern_rate),
            percent(p.evaluation.misclassified_within_oop),
            p.regime,
        ]
        for p in points
    ]
    record(
        "fig2-abstraction",
        format_table(
            ["gamma", "zone density", "BDD nodes", "oop rate", "precision", "regime"],
            rows,
        ),
    )

    densities = [p.mean_zone_density for p in points]
    rates = [p.evaluation.out_of_pattern_rate for p in points]
    # Coarseness grows with gamma, warnings shrink: the Fig. 2 axis.
    assert all(a <= b + 1e-15 for a, b in zip(densities, densities[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    if not is_smoke():  # density levels depend on full-scale diversity
        # gamma=0 is alpha-1-like: density is a vanishing fraction of 2^40.
        assert densities[0] < 1e-6
        # The sweep never over-generalises into alpha-3 within gamma<=4.
        assert densities[-1] < 0.5


def test_fig2_box_abstraction_comparison(mnist_system):
    """The §V extension: interval hulls instead of Hamming balls."""
    inputs, labels = stack_dataset(mnist_system.val_dataset)
    activations, logits = _extract_activations(
        mnist_system.spec.model, mnist_system.spec.monitored_module, inputs, 256
    )
    predictions = logits.argmax(axis=1)
    misclassified = predictions != labels
    rows = []
    for margin in (0.0, 0.5, 1.0, 2.0):
        monitor = BoxMonitor.build(
            mnist_system.spec.model,
            mnist_system.spec.monitored_module,
            mnist_system.train_dataset,
            margin=margin,
        )
        supported = monitor.check(activations, predictions)
        oop = ~supported
        oop_rate = oop.mean()
        precision = (oop & misclassified).sum() / max(oop.sum(), 1)
        rows.append([f"{margin:.1f}", percent(oop_rate), percent(precision)])
    record(
        "fig2-box-extension",
        format_table(["margin (std units)", "oop rate", "precision"], rows),
    )
    # Widening the hull must not increase the warning rate.
    oop_rates = [float(r[1].rstrip("%")) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(oop_rates, oop_rates[1:]))


def test_bench_abstraction_sweep_cost(benchmark, mnist_system):
    """Cost of the full Fig. 2 sweep at small gamma range."""
    benchmark.pedantic(
        lambda: abstraction_sweep(mnist_system, gammas=[0, 1]),
        rounds=1,
        iterations=1,
    )
