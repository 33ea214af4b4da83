"""Tests for the experiment harness: configs, caching, sweeps, tables."""

import numpy as np
import pytest

from repro.analysis import (
    ExperimentConfig,
    abstraction_sweep,
    build_monitor,
    corruption_sweep,
    format_table,
    gamma_sweep,
    neuron_fraction_sweep,
    percent,
    render_table1,
    render_table2,
    sensitivity_for_classes,
    table1_row,
    train_system,
)
from repro.monitor import MonitorEvaluation


TINY_MNIST = ExperimentConfig(
    name="mnist", train_size=120, val_size=60, epochs=1, seed=0
)
TINY_FRONTCAR = ExperimentConfig(
    name="frontcar", train_size=2000, val_size=500, epochs=60, seed=0, batch_size=128
)
TINY_GTSRB = ExperimentConfig(
    name="gtsrb", train_size=60, val_size=30, epochs=1, seed=0, num_classes=3
)


@pytest.fixture(scope="module")
def frontcar_system(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return train_system(TINY_FRONTCAR, cache_dir=str(cache))


class TestConfig:
    def test_cache_key_stable(self):
        assert TINY_MNIST.cache_key() == TINY_MNIST.cache_key()

    def test_cache_key_sensitive_to_fields(self):
        other = ExperimentConfig(
            name="mnist", train_size=120, val_size=60, epochs=2, seed=0
        )
        assert other.cache_key() != TINY_MNIST.cache_key()

    def test_unknown_family_raises(self):
        bad = ExperimentConfig(name="cifar", train_size=10, val_size=10, epochs=1)
        with pytest.raises(KeyError):
            train_system(bad, cache_dir=None)


class TestTrainSystem:
    def test_accuracies_in_range(self, frontcar_system):
        assert 0.0 <= frontcar_system.train_accuracy <= 1.0
        assert 0.0 <= frontcar_system.val_accuracy <= 1.0
        assert frontcar_system.misclassification_rate == pytest.approx(
            1.0 - frontcar_system.val_accuracy
        )

    def test_training_actually_learns(self, frontcar_system):
        # 5 classes -> chance is 20%; even 5 epochs must beat it clearly.
        assert frontcar_system.train_accuracy > 0.5

    def test_cache_roundtrip(self, tmp_path):
        first = train_system(TINY_MNIST, cache_dir=str(tmp_path))
        second = train_system(TINY_MNIST, cache_dir=str(tmp_path))
        assert second.train_accuracy == first.train_accuracy
        # Weights identical after reload.
        a = first.spec.model.state_dict()
        b = second.spec.model.state_dict()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_no_cache_dir_trains_fresh(self):
        system = train_system(TINY_MNIST, cache_dir=None)
        assert system.spec.name == "mnist"

    def test_gtsrb_subset_classes(self, tmp_path):
        system = train_system(TINY_GTSRB, cache_dir=str(tmp_path))
        assert system.spec.num_classes == 3


class TestMonitorBuilding:
    def test_build_monitor_all_classes(self, frontcar_system):
        monitor = build_monitor(frontcar_system, gamma=0)
        assert monitor.layer_width == frontcar_system.spec.monitored_width
        assert len(monitor.classes) >= 2

    def test_build_monitor_class_subset(self, frontcar_system):
        monitor = build_monitor(frontcar_system, gamma=0, classes=[0])
        assert monitor.classes == [0]

    def test_gradient_selection_uses_weight_scores(self, frontcar_system):
        monitor = build_monitor(
            frontcar_system, gamma=0, classes=[0], neuron_fraction=0.25
        )
        scores = sensitivity_for_classes(frontcar_system.spec, [0])
        from repro.monitor import select_top_neurons

        np.testing.assert_array_equal(
            monitor.monitored_neurons, select_top_neurons(scores, 0.25)
        )

    def test_random_selection_differs_by_seed(self, frontcar_system):
        a = build_monitor(
            frontcar_system, gamma=0, neuron_fraction=0.25,
            selection="random", selection_seed=0,
        )
        b = build_monitor(
            frontcar_system, gamma=0, neuron_fraction=0.25,
            selection="random", selection_seed=1,
        )
        assert not np.array_equal(a.monitored_neurons, b.monitored_neurons)

    def test_unknown_selection_raises(self, frontcar_system):
        with pytest.raises(ValueError):
            build_monitor(frontcar_system, neuron_fraction=0.5, selection="mystery")


class TestSweeps:
    def test_gamma_sweep_monotone(self, frontcar_system):
        monitor = build_monitor(frontcar_system, gamma=0)
        rows = gamma_sweep(frontcar_system, monitor, [0, 1, 2])
        rates = [r.out_of_pattern_rate for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert [r.gamma for r in rows] == [0, 1, 2]
        assert monitor.gamma == 0  # the sweep leaves the monitor's γ alone

    def test_abstraction_sweep_density_monotone(self, frontcar_system):
        points = abstraction_sweep(frontcar_system, gammas=[0, 1, 2])
        densities = [p.mean_zone_density for p in points]
        assert all(a <= b + 1e-12 for a, b in zip(densities, densities[1:]))
        assert all(p.regime for p in points)

    def test_neuron_fraction_sweep_shapes(self, frontcar_system):
        points = neuron_fraction_sweep(
            frontcar_system, fractions=[0.25, 1.0], gamma=0, classes=[0]
        )
        assert len(points) == 4  # 2 fractions x 2 strategies
        assert {p.selection for p in points} == {"gradient", "random"}

    def test_corruption_sweep_on_images(self, tmp_path):
        system = train_system(TINY_MNIST, cache_dir=str(tmp_path))
        monitor = build_monitor(system, gamma=0)
        points = corruption_sweep(
            system, monitor, corruptions=["gaussian_noise"], severities=[0.0, 4.0]
        )
        assert len(points) == 2
        # (Monotonicity in severity is a statistical property of trained
        # systems; the 1-epoch toy model here only checks plumbing.)
        assert all(
            0.0 <= p.evaluation.out_of_pattern_rate <= 1.0 for p in points
        )
        assert points[0].severity == 0.0 and points[1].severity == 4.0


class TestTables:
    def test_percent(self):
        assert percent(0.0766) == "7.66%"
        assert percent(0.5, digits=0) == "50%"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_render_table1(self):
        text = render_table1([table1_row(1, "MNIST", "conv-stack", 0.9934, 0.9881)])
        assert "99.34%" in text and "98.81%" in text

    def test_render_table2(self):
        sweep = [
            MonitorEvaluation(gamma=0, total=1000, misclassified=12,
                              out_of_pattern=77, out_of_pattern_misclassified=8),
            MonitorEvaluation(gamma=1, total=1000, misclassified=12,
                              out_of_pattern=20, out_of_pattern_misclassified=4),
        ]
        text = render_table2(1, 0.0119, sweep)
        assert "1.19%" in text
        assert "7.70%" in text  # 77/1000
        assert text.count("\n") == 3
