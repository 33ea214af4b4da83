"""Ablation — the sound monitor vs statistical confidence detectors (§IV).

The paper argues its monitor differs from ML-based detectors in *soundness*:
a warning always means a genuinely unseen pattern.  Statistical baselines
(max-softmax, logit margin) can be tuned to any warning rate but carry no
such guarantee.  This bench matches all detectors at (approximately) the
monitor's calibrated warning rate on the digit task and compares warning
precision and misclassification recall — plus verifies the soundness
property itself: on the training set, the activation monitor never warns on
a correctly classified example, while the statistical baselines do.
"""

from benchutil import is_smoke, record
from repro.analysis import build_monitor, format_table, gamma_sweep, percent
from repro.baselines import LogitMarginDetector, MaxSoftmaxDetector
from repro.monitor import evaluate_patterns, extract_patterns
from repro.nn.data import stack_dataset


def _validation_arrays(system):
    inputs, labels = stack_dataset(system.val_dataset)
    patterns, logits = extract_patterns(
        system.spec.model, system.spec.monitored_module, inputs
    )
    return patterns, logits, labels


def test_baseline_comparison(mnist_system):
    patterns, logits, labels = _validation_arrays(mnist_system)
    predictions = logits.argmax(axis=1)

    monitor = build_monitor(mnist_system, gamma=0)
    sweep = gamma_sweep(mnist_system, monitor, [0, 1, 2])
    calibrated = next((r for r in sweep if r.out_of_pattern_rate <= 0.10), sweep[-1])
    monitor.set_gamma(calibrated.gamma)
    target_rate = calibrated.out_of_pattern_rate

    softmax = MaxSoftmaxDetector()
    softmax.fit_threshold(logits, target_rate)
    margin = LogitMarginDetector()
    margin.fit_threshold(logits, target_rate)

    rows = []
    evaluations = {
        f"activation monitor (gamma={calibrated.gamma})": calibrated,
        "max-softmax": softmax.evaluate(logits, labels),
        "logit margin": margin.evaluate(logits, labels),
    }
    for name, ev in evaluations.items():
        rows.append(
            [
                name,
                percent(ev.out_of_pattern_rate),
                percent(ev.misclassified_within_oop),
                percent(ev.warning_recall),
                percent(ev.false_positive_rate),
            ]
        )
    record("baseline-comparison", format_table(
        ["detector", "warning rate", "precision", "recall", "FPR"], rows
    ))

    if not is_smoke():  # calibration quality needs the full-scale system
        # All detectors operate near the same warning budget.
        for ev in evaluations.values():
            assert abs(ev.out_of_pattern_rate - target_rate) < max(
                0.05, target_rate
            )
        # Every detector's warnings beat the base misclassification rate.
        base = mnist_system.misclassification_rate
        assert (
            calibrated.misclassified_within_oop > base
            or calibrated.out_of_pattern == 0
        )


def test_soundness_on_training_data(mnist_system):
    """The monitor's sure guarantee: zero false alarms on training data."""
    inputs, labels = stack_dataset(mnist_system.train_dataset)
    patterns, logits = extract_patterns(
        mnist_system.spec.model, mnist_system.spec.monitored_module, inputs
    )
    predictions = logits.argmax(axis=1)

    monitor = build_monitor(mnist_system, gamma=0)
    ev_monitor = evaluate_patterns(monitor, patterns, predictions, labels)
    assert ev_monitor.false_positive_rate == 0.0  # sound by construction

    softmax = MaxSoftmaxDetector()
    softmax.fit_threshold(logits, 0.05)
    ev_softmax = softmax.evaluate(logits, labels)
    rows = [
        ["activation monitor (gamma=0)", percent(ev_monitor.false_positive_rate)],
        ["max-softmax @5%", percent(ev_softmax.false_positive_rate)],
    ]
    record("soundness-check", format_table(
        ["detector", "false-positive rate on training data"], rows
    ))
    # The statistical detector inevitably flags some correct decisions.
    if not is_smoke():
        assert ev_softmax.false_positive_rate > 0.0


def test_bench_softmax_detector(benchmark, mnist_system):
    _, logits, _ = _validation_arrays(mnist_system)
    detector = MaxSoftmaxDetector(threshold=0.5)
    benchmark(lambda: detector.warnings(logits))
