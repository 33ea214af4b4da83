"""Monitoring grid-based object detectors (paper §V, extension 1).

The paper notes the technique applies directly to YOLO-style networks: the
image is partitioned into a grid, each cell offers a proposal.  Here every
grid cell's decision is checked against a per-(cell, class) comfort zone
built over the *shared* monitored trunk layer: during monitor construction,
the trunk pattern of each training image is recorded once per cell under
that cell's correctly-predicted class.

The per-decision verdict mirrors the classification monitor: a cell's
proposal is flagged when the trunk pattern was never seen (within Hamming
distance γ) for that (cell, class) pair during training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.monitor.backends import DEFAULT_BACKEND
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.patterns import binarize
from repro.nn.inference import compile_inference
from repro.nn.layers import Module


@dataclass
class CellVerdict:
    """Monitor verdict for one grid cell of one scene."""

    cell: int
    predicted_class: int
    supported: bool

    @property
    def warning(self) -> bool:
        return not self.supported


class DetectionMonitor:
    """Per-cell activation monitors over a shared trunk layer."""

    def __init__(self, num_cells: int, monitors: Dict[int, NeuronActivationMonitor]):
        if num_cells <= 0:
            raise ValueError(f"num_cells must be positive, got {num_cells}")
        if set(monitors) != set(range(num_cells)):
            raise ValueError("monitors must cover exactly cells 0..num_cells-1")
        self.num_cells = num_cells
        self.monitors = monitors

    @classmethod
    def build(
        cls,
        model: Module,
        monitored_module: Module,
        inputs: np.ndarray,
        cell_labels: np.ndarray,
        gamma: int = 0,
        batch_size: int = 64,
        backend: str = DEFAULT_BACKEND,
    ) -> "DetectionMonitor":
        """Algorithm 1 per grid cell.

        ``cell_labels`` has shape ``(N, ...)`` flattening to ``(N, K)`` for
        K cells; the model must emit ``(N, K, C)`` logits.  ``backend``
        selects the zone engine for every cell monitor.
        """
        patterns, logits = _extract_detection(
            model, monitored_module, inputs, batch_size
        )
        n, k, _ = logits.shape
        flat_labels = cell_labels.reshape(n, -1)
        if flat_labels.shape[1] != k:
            raise ValueError(
                f"cell_labels flatten to {flat_labels.shape[1]} cells, model has {k}"
            )
        predictions = logits.argmax(axis=2)
        monitors: Dict[int, NeuronActivationMonitor] = {}
        for cell in range(k):
            classes = np.unique(flat_labels[:, cell]).tolist()
            monitor = NeuronActivationMonitor(
                layer_width=patterns.shape[1], classes=classes, gamma=gamma,
                backend=backend,
            )
            monitor.record(patterns, flat_labels[:, cell], predictions[:, cell])
            monitors[cell] = monitor
        return cls(num_cells=k, monitors=monitors)

    def set_gamma(self, gamma: int) -> None:
        """Change γ on every cell monitor."""
        for monitor in self.monitors.values():
            monitor.set_gamma(gamma)

    def check_scene(
        self,
        model: Module,
        monitored_module: Module,
        scenes: np.ndarray,
        batch_size: int = 64,
    ) -> List[List[CellVerdict]]:
        """Verdicts for every cell of every scene in a batch."""
        patterns, logits = _extract_detection(
            model, monitored_module, scenes, batch_size
        )
        predictions = logits.argmax(axis=2)
        results: List[List[CellVerdict]] = []
        for i in range(len(scenes)):
            scene_verdicts = []
            for cell in range(self.num_cells):
                monitor = self.monitors[cell]
                predicted = int(predictions[i, cell])
                if monitor.monitors_class(predicted):
                    supported = bool(
                        monitor.check(patterns[i : i + 1], np.array([predicted]))[0]
                    )
                else:
                    # A class never predicted correctly in training for this
                    # cell: by definition unsupported.
                    supported = False
                scene_verdicts.append(
                    CellVerdict(cell=cell, predicted_class=predicted, supported=supported)
                )
            results.append(scene_verdicts)
        return results

    def evaluate(
        self,
        model: Module,
        monitored_module: Module,
        scenes: np.ndarray,
        cell_labels: np.ndarray,
        batch_size: int = 64,
    ) -> Dict[str, float]:
        """Aggregate Table II-style metrics over all cells of all scenes."""
        patterns, logits = _extract_detection(
            model, monitored_module, scenes, batch_size
        )
        predictions = logits.argmax(axis=2)
        flat_labels = cell_labels.reshape(len(scenes), -1)
        total = out_of_pattern = misclassified = oop_misclassified = 0
        for cell in range(self.num_cells):
            monitor = self.monitors[cell]
            preds = predictions[:, cell]
            labels = flat_labels[:, cell]
            monitored_mask = np.isin(preds, monitor.classes)
            supported = np.zeros(len(preds), dtype=bool)
            if monitored_mask.any():
                supported[monitored_mask] = monitor.check(
                    patterns[monitored_mask], preds[monitored_mask]
                )
            wrong = preds != labels
            total += len(preds)
            out_of_pattern += int((~supported).sum())
            misclassified += int(wrong.sum())
            oop_misclassified += int((~supported & wrong).sum())
        return {
            "total_cells": total,
            "misclassification_rate": misclassified / total if total else 0.0,
            "out_of_pattern_rate": out_of_pattern / total if total else 0.0,
            "misclassified_within_oop": (
                oop_misclassified / out_of_pattern if out_of_pattern else 0.0
            ),
        }


def _extract_detection(
    model: Module, monitored_module: Module, inputs: np.ndarray, batch_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Trunk patterns plus (N, K, C) logits for a scene batch."""
    model.eval()
    activations, logits = compile_inference(model, monitored_module)(inputs, batch_size)
    if logits.ndim != 3:
        raise ValueError(
            f"detection model must emit (N, K, C) logits, got shape {logits.shape}"
        )
    return binarize(activations), logits
