"""§V extension 1 — grid-detection monitoring (the YOLO direction).

The paper proposes applying the monitor to networks that partition the
image into a grid of proposal cells.  This bench trains a small grid
detector on synthetic multi-sign scenes, builds one monitor per cell over
the shared trunk, and reports per-cell Table II-style metrics across γ.
Shape to check: the same monotone γ behaviour as classification, applied
per proposal cell.
"""

import numpy as np
import pytest

from benchutil import is_smoke, record, scaled
from repro.analysis import format_table, percent
from repro.datasets import MultiObjectConfig, generate_multiobject
from repro.models import build_model
from repro.monitor import DetectionMonitor
from repro.nn import Adam, CrossEntropyLoss, Tensor

GAMMAS = [0, 1, 2]


@pytest.fixture(scope="module")
def detector_system():
    config = MultiObjectConfig()
    train_data = generate_multiobject(scaled(300, 120), seed=0, config=config)
    val_data = generate_multiobject(scaled(120, 60), seed=10_000, config=config)
    spec = build_model("grid_detector", seed=0, config=config)
    optimizer = Adam(spec.model.parameters(), lr=2e-3)
    loss_fn = CrossEntropyLoss()
    flat_labels = train_data.cell_labels.reshape(len(train_data), -1)
    for epoch in range(scaled(6, 2)):
        order = np.random.default_rng(epoch).permutation(len(train_data))
        for start in range(0, len(train_data), 32):
            idx = order[start : start + 32]
            logits = spec.model(Tensor(train_data.inputs[idx]))
            n, k, c = logits.shape
            loss = loss_fn(logits.reshape(n * k, c), flat_labels[idx].reshape(-1))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return spec, train_data, val_data


def test_yolo_extension_table(detector_system):
    spec, train_data, val_data = detector_system
    monitor = DetectionMonitor.build(
        spec.model, spec.monitored_module,
        train_data.inputs, train_data.cell_labels, gamma=0,
    )
    rows = []
    rates = []
    for gamma in GAMMAS:
        monitor.set_gamma(gamma)
        metrics = monitor.evaluate(
            spec.model, spec.monitored_module, val_data.inputs, val_data.cell_labels
        )
        rates.append(metrics["out_of_pattern_rate"])
        rows.append(
            [
                str(gamma),
                percent(metrics["out_of_pattern_rate"]),
                percent(metrics["misclassified_within_oop"]),
                percent(metrics["misclassification_rate"]),
            ]
        )
    record(
        "yolo-extension",
        format_table(["gamma", "cell oop rate", "precision", "cell miscls"], rows),
    )
    # Same monotone shape as the classification monitors.
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    if not is_smoke():
        assert rates[0] > 0.0  # fresh validation data has novelty at gamma=0


def test_bench_detection_monitor_build(benchmark, detector_system):
    spec, train_data, _ = detector_system
    benchmark.pedantic(
        lambda: DetectionMonitor.build(
            spec.model, spec.monitored_module,
            train_data.inputs, train_data.cell_labels, gamma=0,
        ),
        rounds=1,
        iterations=1,
    )


def test_bench_scene_check_throughput(benchmark, detector_system):
    spec, train_data, val_data = detector_system
    monitor = DetectionMonitor.build(
        spec.model, spec.monitored_module,
        train_data.inputs, train_data.cell_labels, gamma=1,
    )
    scenes = val_data.inputs[:32]
    monitor.check_scene(spec.model, spec.monitored_module, scenes[:1])
    benchmark.pedantic(
        lambda: monitor.check_scene(spec.model, spec.monitored_module, scenes),
        rounds=3,
        iterations=1,
    )
