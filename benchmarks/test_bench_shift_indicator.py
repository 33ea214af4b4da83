"""§I claim — out-of-pattern frequency as a distribution-shift indicator.

"The frequent appearance of unseen patterns provides an indicator of data
distribution shift to the development team."  We freeze the calibrated
MNIST monitor and sweep corruption severity per corruption type: the
warning rate should rise with severity and track the (runtime-invisible)
misclassification rate.
"""

from benchutil import is_smoke, record
from repro.analysis import (
    build_monitor,
    corruption_sweep,
    format_table,
    gamma_sweep,
    percent,
)

KINDS = ["gaussian_noise", "blur", "occlusion", "brightness"]
SEVERITIES = [0.0, 1.0, 2.0, 4.0]


def test_shift_indicator(mnist_system):
    monitor = build_monitor(mnist_system, gamma=0)
    sweep = gamma_sweep(mnist_system, monitor, [0, 1, 2])
    calibrated = next((r for r in sweep if r.out_of_pattern_rate <= 0.10), sweep[-1])
    monitor.set_gamma(calibrated.gamma)

    points = corruption_sweep(mnist_system, monitor, KINDS, SEVERITIES)
    rows = [
        [
            p.corruption,
            f"{p.severity:.0f}",
            percent(p.evaluation.out_of_pattern_rate),
            percent(p.evaluation.misclassification_rate),
        ]
        for p in points
    ]
    record(
        "shift-indicator",
        format_table(
            ["corruption", "severity", "warning rate", "true miscls rate"], rows
        ),
    )

    by_kind = {}
    for p in points:
        by_kind.setdefault(p.corruption, []).append(p.evaluation)
    if not is_smoke():  # smoke-scale monitors are too noisy for this margin
        for kind, evs in by_kind.items():
            rates = [e.out_of_pattern_rate for e in evs]
            # Heaviest corruption warns at least as much as the clean stream.
            assert rates[-1] >= rates[0] - 1e-9, kind
    # At the heaviest severities the indicator has clearly moved: some
    # corruption must push the warning rate well above baseline.
    if not is_smoke():
        max_rate = max(p.evaluation.out_of_pattern_rate for p in points)
        baseline = calibrated.out_of_pattern_rate
        assert max_rate > baseline + 0.05


def test_bench_corruption_sweep_cost(benchmark, mnist_system):
    monitor = build_monitor(mnist_system, gamma=1)
    benchmark.pedantic(
        lambda: corruption_sweep(
            mnist_system, monitor, ["gaussian_noise"], [2.0]
        ),
        rounds=1,
        iterations=1,
    )
