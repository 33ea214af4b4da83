#!/usr/bin/env python
"""Stop-sign monitoring on the traffic-sign task (paper §III, network 2).

Reproduces the paper's GTSRB protocol at example scale:

* monitor only the stop-sign class (c = 14), the safety-critical decision;
* monitor only 25% of the 84 neurons of the fc(84) ReLU layer, selected by
  gradient-based sensitivity analysis (here: output-weight magnitude, the
  closed form for a penultimate layer);
* sweep γ and report the two Table II columns.

Run:  python examples/gtsrb_stop_sign.py
"""

from repro.analysis import percent, render_table2
from repro.datasets import STOP_SIGN_CLASS, generate_gtsrb
from repro.datasets.gtsrb import GtsrbConfig
from repro.models import build_model
from repro.monitor import (
    NeuronActivationMonitor,
    evaluate_monitor,
    select_top_neurons,
    weight_sensitivity,
)
from repro.nn import Adam, DataLoader, Trainer

# Softer nuisances keep this example fast while preserving the regime.
EXAMPLE_CONFIG = GtsrbConfig(
    brightness_low=0.6, occlusion_prob=0.1, blur_sigma_max=0.6, noise_std=0.04,
    scale_low=0.75,
)


def main() -> None:
    print("== training the traffic-sign classifier (network 2, reduced) ==")
    train_ds = generate_gtsrb(1290, seed=0, config=EXAMPLE_CONFIG)  # 30/class
    val_ds = generate_gtsrb(860, seed=10_000, config=EXAMPLE_CONFIG)
    spec = build_model("gtsrb", seed=0)
    trainer = Trainer(spec.model, Adam(spec.model.parameters(), lr=2e-3))
    trainer.fit(
        DataLoader(train_ds, batch_size=64, shuffle=True, seed=0),
        epochs=6,
        verbose=True,
    )
    val_accuracy = trainer.evaluate(val_ds)
    print(f"validation accuracy: {percent(val_accuracy)}")

    print("\n== gradient-based neuron selection (25% of fc(84)) ==")
    scores = weight_sensitivity(spec.output_layer, STOP_SIGN_CLASS)
    monitored_neurons = select_top_neurons(scores, 0.25)
    print(f"monitoring {len(monitored_neurons)} of {spec.monitored_width} neurons")
    print(f"selected neuron indices: {monitored_neurons.tolist()}")

    print("\n== building the stop-sign monitor and sweeping gamma ==")
    monitor = NeuronActivationMonitor.build(
        spec.model,
        spec.monitored_module,
        train_ds,
        gamma=0,
        classes=[STOP_SIGN_CLASS],
        monitored_neurons=monitored_neurons,
    )
    sweep = []
    for gamma in range(4):
        monitor.set_gamma(gamma)
        sweep.append(
            evaluate_monitor(monitor, spec.model, spec.monitored_module, val_ds)
        )
    print(render_table2(2, 1.0 - val_accuracy, sweep))

    # Narrate the coarsest gamma that still produces warnings.
    warning_rows = [row for row in sweep if row.out_of_pattern > 0]
    chosen = warning_rows[-1] if warning_rows else sweep[0]
    print(
        f"\nAt gamma={chosen.gamma} the monitor is silent "
        f"{percent(chosen.silence_rate)} of the time on stop-sign decisions; "
        f"when it does warn, {percent(chosen.misclassified_within_oop)} of "
        f"warnings coincide with actual misclassifications."
    )


if __name__ == "__main__":
    main()
