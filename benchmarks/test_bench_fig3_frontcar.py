"""Figure 3 / §III case study — the front-car selection system, monitored.

The paper reports no numeric table for this system, only that the technique
was applied.  We regenerate the full protocol: train the selector, build and
calibrate the monitor, report Table II-style rows, and demonstrate the §I
distribution-shift indicator — a drifted scene stream (sharper curves,
noisier sensors) raises the windowed warning rate and trips the alarm.
"""

from benchutil import is_smoke, record
from repro.analysis import build_monitor, format_table, gamma_sweep, percent, render_table2
from repro.datasets import generate_frontcar
from repro.datasets.frontcar import shifted_config
from repro.monitor import DistributionShiftDetector, MonitoredClassifier

GAMMAS = [0, 1, 2, 3]


def test_fig3_frontcar_table(frontcar_system):
    monitor = build_monitor(frontcar_system, gamma=0)
    sweep = gamma_sweep(frontcar_system, monitor, GAMMAS)
    record(
        "fig3-frontcar",
        render_table2(3, frontcar_system.misclassification_rate, sweep),
    )
    rates = [row.out_of_pattern_rate for row in sweep]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    # Warnings are informative at the calibrated end of the sweep.
    if not is_smoke():
        assert (
            sweep[-1].misclassified_within_oop
            >= frontcar_system.misclassification_rate * 0.8
            or sweep[-1].out_of_pattern == 0
        )


def test_fig3_shift_alarm(frontcar_system):
    monitor = build_monitor(frontcar_system, gamma=0)
    sweep = gamma_sweep(frontcar_system, monitor, GAMMAS)
    chosen = next((r for r in sweep if r.out_of_pattern_rate <= 0.10), sweep[-1])
    monitor.set_gamma(chosen.gamma)
    guarded = MonitoredClassifier(
        frontcar_system.spec.model, frontcar_system.spec.monitored_module, monitor
    )
    detector = DistributionShiftDetector(
        baseline_rate=chosen.out_of_pattern_rate, window=200
    )

    nominal = generate_frontcar(600, seed=21)
    drifted = generate_frontcar(600, seed=22, config=shifted_config(3.0))
    nominal_alarms = sum(
        detector.update(v.warning).alarm for v in guarded.classify(nominal.inputs)
    )
    nominal_rate = guarded.warning_rate(nominal.inputs)
    drift_alarms = sum(
        detector.update(v.warning).alarm for v in guarded.classify(drifted.inputs)
    )
    drift_rate = guarded.warning_rate(drifted.inputs)
    rows = [
        ["nominal traffic", percent(nominal_rate), str(nominal_alarms)],
        ["drifted traffic (3x)", percent(drift_rate), str(drift_alarms)],
    ]
    record(
        "fig3-shift-alarm",
        format_table(["stream", "warning rate", "#alarmed decisions"], rows),
    )
    # The drifted stream warns more and trips the alarm.
    if not is_smoke():
        assert drift_rate > nominal_rate
        assert drift_alarms > 0


def test_bench_frontcar_guarded_throughput(benchmark, frontcar_system):
    monitor = build_monitor(frontcar_system, gamma=2)
    guarded = MonitoredClassifier(
        frontcar_system.spec.model, frontcar_system.spec.monitored_module, monitor
    )
    scenes = generate_frontcar(256, seed=3).inputs
    guarded.classify(scenes[:1])  # force zone build
    benchmark(lambda: guarded.classify(scenes))
