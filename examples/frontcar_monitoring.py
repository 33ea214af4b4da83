#!/usr/bin/env python
"""Front-car selection case study (paper §III "Case Study", Fig. 3).

A highway-pilot vision subsystem selects which detected vehicle is the front
car (or "]" = none).  The neural selector's decisions feed a safety-critical
control unit, so each one is supplemented with an activation-pattern verdict;
the stream of verdicts drives a distribution-shift alarm for the development
team (paper §I).

Run:  python examples/frontcar_monitoring.py
"""

from repro.analysis import percent
from repro.datasets import generate_frontcar
from repro.datasets.frontcar import FrontCarConfig, NO_FRONT_CAR, shifted_config
from repro.models import build_model
from repro.monitor import (
    DistributionShiftDetector,
    GammaCalibrator,
    MonitoredClassifier,
    NeuronActivationMonitor,
)
from repro.nn import Adam, DataLoader, Trainer


def class_name(index: int, config: FrontCarConfig) -> str:
    return NO_FRONT_CAR if index == config.max_vehicles else f"vehicle#{index}"


def main() -> None:
    config = FrontCarConfig()

    print("== training the front-car selector ==")
    train_ds = generate_frontcar(6000, seed=0)
    val_ds = generate_frontcar(2000, seed=10_000)
    spec = build_model("frontcar", seed=0)
    trainer = Trainer(spec.model, Adam(spec.model.parameters(), lr=2e-3))
    trainer.fit(
        DataLoader(train_ds, batch_size=128, shuffle=True, seed=0),
        epochs=60,
    )
    print(f"train accuracy: {percent(trainer.evaluate(train_ds))}")
    print(f"val accuracy:   {percent(trainer.evaluate(val_ds))}")

    print("\n== building and calibrating the monitor ==")
    monitor = NeuronActivationMonitor.build(
        spec.model, spec.monitored_module, train_ds, gamma=0
    )
    result = GammaCalibrator(max_gamma=4, max_out_of_pattern_rate=0.08).calibrate(
        monitor, spec.model, spec.monitored_module, val_ds
    )
    baseline = result.chosen.out_of_pattern_rate
    print(f"chosen gamma = {result.chosen_gamma}, baseline warning rate "
          f"{percent(baseline)}")

    guarded = MonitoredClassifier(spec.model, spec.monitored_module, monitor)

    print("\n== a few monitored decisions ==")
    scenes = generate_frontcar(5, seed=77)
    for features, label, verdict in zip(
        scenes.inputs, scenes.labels, guarded.classify(scenes.inputs)
    ):
        flag = "  [WARNING: unseen pattern]" if verdict.warning else ""
        print(
            f"  truth={class_name(int(label), config):<10} "
            f"predicted={class_name(verdict.predicted_class, config):<10} "
            f"confidence={verdict.confidence:.2f}{flag}"
        )

    print("\n== distribution-shift detection over an operation stream ==")
    detector = DistributionShiftDetector(baseline_rate=baseline, window=200)
    # Phase 1: nominal traffic. Phase 2: the scene distribution drifts
    # (sharper curves, noisier sensors) — the monitor's warning stream
    # should trip the alarm.
    nominal = generate_frontcar(600, seed=5)
    drifted = generate_frontcar(600, seed=6, config=shifted_config(3.0))
    alarm_at = None
    stream_position = 0
    for dataset, phase in ((nominal, "nominal"), (drifted, "drifted")):
        verdicts = guarded.classify(dataset.inputs)
        for verdict in verdicts:
            state = detector.update(verdict.warning)
            stream_position += 1
            if state.alarm and alarm_at is None:
                alarm_at = stream_position
        print(
            f"  after {phase} phase: windowed warning rate "
            f"{percent(state.window_rate)}"
        )
    if alarm_at is None:
        print("  no alarm raised")
    else:
        drift_start = len(nominal)
        print(
            f"  ALARM raised at decision #{alarm_at} "
            f"(drift began at #{drift_start + 1})"
        )


if __name__ == "__main__":
    main()
