"""Choosing γ — "infer when to stop enlarging" (paper §I and §III).

The paper's recipe: take a validation set with ground-truth labels
(expected to match the operation-time distribution), gradually increase the
Hamming distance, and stop when the abstraction is coarse enough that
out-of-pattern events remain informative: the monitor should be *largely
silent* (small out-of-pattern rate) while out-of-pattern occurrences retain
a substantial misclassification share.

:class:`GammaCalibrator` sweeps γ upward, records a
:class:`~repro.monitor.metrics.MonitorEvaluation` per step (this sweep *is*
the data behind Table II), and picks the smallest γ meeting the target
silence, preferring larger warning precision on ties.  The whole sweep is
scored from one ``min_distances`` pass capped at the largest γ
(:func:`~repro.monitor.metrics.evaluate_sweep`): a row lies in ``Z^γ``
exactly when its distance to ``Z^0`` is within γ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.monitor.metrics import MonitorEvaluation, evaluate_sweep
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.patterns import extract_patterns
from repro.nn.data import Dataset, stack_dataset
from repro.nn.layers import Module


@dataclass
class CalibrationResult:
    """Outcome of a γ sweep."""

    chosen_gamma: int
    sweep: List[MonitorEvaluation] = field(default_factory=list)

    @property
    def chosen(self) -> MonitorEvaluation:
        """The evaluation row of the chosen γ."""
        for row in self.sweep:
            if row.gamma == self.chosen_gamma:
                return row
        raise LookupError(f"no sweep row for gamma={self.chosen_gamma}")

    def as_dict(self) -> dict:
        """Plain-data summary (drift-loop stats lines, snapshot logging)."""
        row = self.chosen
        return {
            "chosen_gamma": self.chosen_gamma,
            "out_of_pattern_rate": row.out_of_pattern_rate,
            "misclassified_within_oop": row.misclassified_within_oop,
            "sweep_gammas": [r.gamma for r in self.sweep],
        }


@dataclass
class GammaCalibrator:
    """Sweep γ on validation data and select the coarseness.

    Parameters
    ----------
    max_gamma:
        Upper bound of the sweep (inclusive).
    max_out_of_pattern_rate:
        Target silence: the smallest γ whose out-of-pattern rate is at or
        below this bound is chosen.  The paper's MNIST discussion lands at
        0.6% (γ=2) and GTSRB at 4.58% (γ=3); the default 5% reproduces both
        choices.
    min_precision:
        Optional floor on misclassified-within-out-of-pattern; γ values
        whose warnings are mostly false alarms are skipped even if silent
        enough.
    """

    max_gamma: int = 4
    max_out_of_pattern_rate: float = 0.05
    min_precision: float = 0.0

    def calibrate_patterns(
        self,
        monitor: NeuronActivationMonitor,
        patterns: np.ndarray,
        predictions: np.ndarray,
        labels: np.ndarray,
    ) -> CalibrationResult:
        """Sweep γ over pre-extracted validation patterns.

        The monitor's γ is set once, to the chosen value, on return.
        """
        if self.max_gamma < 0:
            raise ValueError(f"max_gamma must be non-negative, got {self.max_gamma}")
        sweep = evaluate_sweep(
            monitor, patterns, predictions, labels, range(self.max_gamma + 1)
        )
        chosen = self.choose(sweep)
        monitor.set_gamma(chosen)
        return CalibrationResult(chosen_gamma=chosen, sweep=sweep)

    def calibrate(
        self,
        monitor: NeuronActivationMonitor,
        model: Module,
        monitored_module: Module,
        val_dataset: Dataset,
        batch_size: int = 256,
    ) -> CalibrationResult:
        """End-to-end sweep: extract validation patterns, then calibrate."""
        inputs, labels = stack_dataset(val_dataset)
        patterns, logits = extract_patterns(model, monitored_module, inputs, batch_size)
        return self.calibrate_patterns(monitor, patterns, logits.argmax(axis=1), labels)

    def choose(self, sweep: List[MonitorEvaluation]) -> int:
        """Select γ from evaluated sweep rows — the single source of truth
        for the selection rule (the CLI ``sweep`` command routes through
        this too, so library and CLI cannot drift apart)."""
        acceptable = [
            row
            for row in sweep
            if row.out_of_pattern_rate <= self.max_out_of_pattern_rate
            and row.misclassified_within_oop >= self.min_precision
        ]
        if acceptable:
            # Smallest acceptable gamma: least coarsening that meets targets.
            return min(row.gamma for row in acceptable)
        # Nothing meets the silence target: fall back to the quietest sweep
        # point (largest gamma), which the enlargement monotonicity makes
        # the best-effort choice.
        return sweep[-1].gamma
