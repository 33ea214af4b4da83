"""Evaluation metrics for monitors — the columns of the paper's Table II.

For a dataset with ground-truth labels, each example is classified by the
network and checked against the monitor, yielding four populations
(in/out of pattern x correctly/incorrectly classified).  From the counts we
derive exactly what Table II reports:

* ``out_of_pattern_rate``   = #out-of-pattern images / #total images
* ``misclassified_within_oop`` = #out-of-pattern misclassified / #out-of-pattern
* ``misclassification_rate``   = #misclassified / #total

plus standard detection quality measures (recall of misclassifications,
false-positive rate on correct decisions) used by the baseline comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.patterns import extract_patterns
from repro.nn.data import Dataset, stack_dataset
from repro.nn.layers import Module


@dataclass
class MonitorEvaluation:
    """Confusion counts between the monitor's warnings and correctness.

    All counts refer to the *evaluated* examples (restricted to monitored
    classes when the monitor covers a subset, as in the GTSRB stop-sign
    experiment).
    """

    gamma: int
    total: int
    misclassified: int
    out_of_pattern: int
    out_of_pattern_misclassified: int

    @property
    def misclassification_rate(self) -> float:
        """Fraction of evaluated images the network got wrong."""
        return self.misclassified / self.total if self.total else 0.0

    @property
    def out_of_pattern_rate(self) -> float:
        """Table II column: #out-of-pattern images / #total images."""
        return self.out_of_pattern / self.total if self.total else 0.0

    @property
    def misclassified_within_oop(self) -> float:
        """Table II column: #out-of-pattern misclassified / #out-of-pattern."""
        if self.out_of_pattern == 0:
            return 0.0
        return self.out_of_pattern_misclassified / self.out_of_pattern

    @property
    def warning_precision(self) -> float:
        """Alias of :attr:`misclassified_within_oop` (precision of warnings)."""
        return self.misclassified_within_oop

    @property
    def warning_recall(self) -> float:
        """Fraction of misclassifications flagged as out-of-pattern."""
        if self.misclassified == 0:
            return 0.0
        return self.out_of_pattern_misclassified / self.misclassified

    @property
    def false_positive_rate(self) -> float:
        """Fraction of *correct* decisions that still triggered a warning."""
        correct = self.total - self.misclassified
        if correct == 0:
            return 0.0
        return (self.out_of_pattern - self.out_of_pattern_misclassified) / correct

    @property
    def silence_rate(self) -> float:
        """Fraction of time the monitor stays silent (1 - warning rate)."""
        return 1.0 - self.out_of_pattern_rate

    def as_dict(self) -> Dict[str, float]:
        """All metrics as a flat dict (for table formatting)."""
        return {
            "gamma": self.gamma,
            "total": self.total,
            "misclassification_rate": self.misclassification_rate,
            "out_of_pattern_rate": self.out_of_pattern_rate,
            "misclassified_within_oop": self.misclassified_within_oop,
            "warning_recall": self.warning_recall,
            "false_positive_rate": self.false_positive_rate,
        }


def _evaluated_rows(monitor, patterns, predictions, labels, restrict_to_monitored=True):
    """The rows predicted as a monitored class (every row when not
    ``restrict_to_monitored``)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    keep = np.isin(predictions, monitor.classes) | (not restrict_to_monitored)
    return patterns[keep], predictions[keep], labels[keep]


def _confusion(
    gamma: int, supported: np.ndarray, misclassified: np.ndarray
) -> MonitorEvaluation:
    """Table II counts from one verdict vector."""
    return MonitorEvaluation(
        gamma=gamma,
        total=int(len(supported)),
        misclassified=int(misclassified.sum()),
        out_of_pattern=int((~supported).sum()),
        out_of_pattern_misclassified=int((~supported & misclassified).sum()),
    )


def evaluate_patterns(
    monitor: NeuronActivationMonitor,
    patterns: np.ndarray,
    predictions: np.ndarray,
    labels: np.ndarray,
    restrict_to_monitored: bool = True,
) -> MonitorEvaluation:
    """Score pre-extracted patterns against a monitor.

    When the monitor covers a class subset and ``restrict_to_monitored`` is
    set (the paper's protocol for the stop-sign experiment), only examples
    *predicted* as a monitored class are evaluated — those are the decisions
    the monitor supervises at runtime.
    """
    patterns, predictions, labels = _evaluated_rows(
        monitor, patterns, predictions, labels, restrict_to_monitored
    )
    if len(patterns) == 0:
        return MonitorEvaluation(monitor.gamma, 0, 0, 0, 0)
    supported = monitor.check(patterns, predictions)
    return _confusion(monitor.gamma, supported, predictions != labels)


def evaluate_sweep(
    monitor: NeuronActivationMonitor,
    patterns: np.ndarray,
    predictions: np.ndarray,
    labels: np.ndarray,
    gammas: Sequence[int],
) -> List[MonitorEvaluation]:
    """One :func:`evaluate_patterns` row per γ, in the order given.

    A row lies in ``Z^γ`` exactly when its distance to ``Z^0`` is within
    γ (Definitions 2–3), so one ``min_distances`` pass capped at the
    largest γ answers the whole sweep.  The monitor's γ is not touched.
    """
    gammas = [int(g) for g in gammas]
    if any(g < 0 for g in gammas):
        raise ValueError(f"gamma must be non-negative, got {min(gammas)}")
    patterns, predictions, labels = _evaluated_rows(
        monitor, patterns, predictions, labels
    )
    if not gammas or len(patterns) == 0:
        return [MonitorEvaluation(g, 0, 0, 0, 0) for g in gammas]
    distances = monitor.min_distances(patterns, predictions, cap=max(gammas))
    misclassified = predictions != labels
    return [
        _confusion(g, monitor.supported(distances, g), misclassified)
        for g in gammas
    ]


def evaluate_monitor(
    monitor: NeuronActivationMonitor,
    model: Module,
    monitored_module: Module,
    dataset: Dataset,
    batch_size: int = 256,
    restrict_to_monitored: bool = True,
) -> MonitorEvaluation:
    """End-to-end evaluation: forward pass, pattern check, Table II counts."""
    inputs, labels = stack_dataset(dataset)
    patterns, logits = extract_patterns(model, monitored_module, inputs, batch_size)
    predictions = logits.argmax(axis=1)
    return evaluate_patterns(
        monitor, patterns, predictions, labels, restrict_to_monitored
    )
