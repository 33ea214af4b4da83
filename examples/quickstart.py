#!/usr/bin/env python
"""Quickstart: the complete workflow of Figure 1 on a small digit task.

(a) Train a classifier, then create the monitor by feeding the training data
    through the network once and recording activation patterns in BDDs.
(b) In deployment, every classification decision is supplemented by a
    membership query; unseen patterns raise a "problematic decision" warning.

Run:  python examples/quickstart.py
"""

from repro.analysis import percent
from repro.datasets import corrupt, generate_mnist
from repro.models import build_model
from repro.monitor import (
    GammaCalibrator,
    MonitoredClassifier,
    NeuronActivationMonitor,
)
from repro.nn import Adam, DataLoader, Trainer


def main() -> None:
    # ------------------------------------------------------------------
    # Standard training process (paper Fig. 1-a, left).
    # ------------------------------------------------------------------
    print("== training a digit classifier (network 1, reduced data) ==")
    train_ds = generate_mnist(1500, seed=0)
    val_ds = generate_mnist(600, seed=10_000)
    spec = build_model("mnist", seed=0)
    trainer = Trainer(spec.model, Adam(spec.model.parameters(), lr=1e-3))
    trainer.fit(
        DataLoader(train_ds, batch_size=64, shuffle=True, seed=0),
        epochs=3,
        val_dataset=val_ds,
        verbose=True,
    )

    # ------------------------------------------------------------------
    # Create the monitor after training (paper Fig. 1-a, right).
    # ------------------------------------------------------------------
    print("\n== building the neuron activation pattern monitor ==")
    monitor = NeuronActivationMonitor.build(
        spec.model, spec.monitored_module, train_ds, gamma=0
    )
    print(monitor)

    # Choose the abstraction coarseness on validation data (paper SIII).
    calibrator = GammaCalibrator(max_gamma=3, max_out_of_pattern_rate=0.10)
    result = calibrator.calibrate(
        monitor, spec.model, spec.monitored_module, val_ds
    )
    print(f"calibrated gamma = {result.chosen_gamma}")
    for row in result.sweep:
        print(
            f"  gamma={row.gamma}: out-of-pattern rate "
            f"{percent(row.out_of_pattern_rate)}, misclassified within "
            f"out-of-pattern {percent(row.misclassified_within_oop)}"
        )

    # ------------------------------------------------------------------
    # Deployment (paper Fig. 1-b): decisions plus warnings.
    # ------------------------------------------------------------------
    print("\n== running the monitor in deployment ==")
    guarded = MonitoredClassifier(spec.model, spec.monitored_module, monitor)

    in_distribution = generate_mnist(200, seed=42).inputs
    rate_clean = guarded.warning_rate(in_distribution)
    print(f"warning rate on in-distribution data:   {percent(rate_clean)}")

    # A distribution shift: heavy occlusion, like a smudged camera.
    shifted = corrupt(in_distribution, "occlusion", severity=4.0, seed=1)
    rate_shift = guarded.warning_rate(shifted)
    print(f"warning rate under heavy occlusion:     {percent(rate_shift)}")

    verdict = guarded.classify_one(shifted[0])
    status = "PROBLEMATIC (unseen pattern)" if verdict.warning else "supported"
    print(
        f"\nsingle decision: class={verdict.predicted_class} "
        f"confidence={verdict.confidence:.2f} -> {status}"
    )

    # ------------------------------------------------------------------
    # Pluggable zone engines: the bitset backend answers the same queries
    # with vectorized XOR/popcount and must agree bit-for-bit.
    # ------------------------------------------------------------------
    print("\n== swapping the comfort-zone backend ==")
    fast = NeuronActivationMonitor.build(
        spec.model, spec.monitored_module, train_ds,
        gamma=result.chosen_gamma, backend="bitset",
    )
    guarded_fast = MonitoredClassifier(spec.model, spec.monitored_module, fast)
    rate_fast = guarded_fast.warning_rate(shifted)
    print(f"bitset backend warning rate (same data): {percent(rate_fast)}")
    assert abs(rate_fast - rate_shift) < 1e-12, "backends must agree"


if __name__ == "__main__":
    main()
