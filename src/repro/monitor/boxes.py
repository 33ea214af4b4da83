"""Box (interval) abstraction over activation values — the paper's §V
"more refined domains" extension, in the spirit of difference-bound
matrices but restricted to per-neuron bounds.

Where the BDD monitor abstracts each neuron to one bit (on/off), a
:class:`BoxZone` keeps the interval ``[min, max]`` of each monitored
neuron's *real-valued* activation seen on correctly-classified training
data, optionally widened by a margin in units of the neuron's standard
deviation (the analogue of γ).  Membership means every coordinate lies in
its widened interval.  The fig2 sweep bench compares both abstractions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.nn.data import Dataset, stack_dataset
from repro.nn.inference import compile_inference
from repro.nn.layers import Module


class BoxZone:
    """Per-neuron interval hull of visited activations for one class."""

    def __init__(self, num_neurons: int, margin: float = 0.0):
        if num_neurons <= 0:
            raise ValueError(f"num_neurons must be positive, got {num_neurons}")
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        self.num_neurons = num_neurons
        self.margin = margin
        self._low: Optional[np.ndarray] = None
        self._high: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._count = 0

    def fit(self, activations: np.ndarray) -> "BoxZone":
        """Compute the hull (and widths) from visited activations."""
        activations = np.atleast_2d(activations)
        if activations.shape[1] != self.num_neurons:
            raise ValueError(
                f"activations have width {activations.shape[1]}, expected {self.num_neurons}"
            )
        if len(activations) == 0:
            raise ValueError("cannot fit a box zone on zero activations")
        self._low = activations.min(axis=0)
        self._high = activations.max(axis=0)
        self._std = activations.std(axis=0)
        self._count = len(activations)
        return self

    def is_empty(self) -> bool:
        """True before :meth:`fit` was called."""
        return self._low is None

    def contains_batch(self, activations: np.ndarray) -> np.ndarray:
        """Vectorised membership with the margin-widened hull."""
        if self.is_empty():
            return np.zeros(len(np.atleast_2d(activations)), dtype=bool)
        activations = np.atleast_2d(activations)
        slack = self.margin * self._std
        above = activations >= (self._low - slack)
        below = activations <= (self._high + slack)
        return (above & below).all(axis=1)

    def contains(self, activation: np.ndarray) -> bool:
        """Membership for one activation vector."""
        return bool(self.contains_batch(activation[None])[0])


class BoxMonitor:
    """Per-class box zones; same protocol as the BDD activation monitor."""

    def __init__(
        self,
        layer_width: int,
        classes: Iterable[int],
        margin: float = 0.0,
        monitored_neurons: Optional[Sequence[int]] = None,
    ):
        self.layer_width = layer_width
        self.classes = sorted(set(int(c) for c in classes))
        if not self.classes:
            raise ValueError("monitor needs at least one class")
        self.margin = margin
        if monitored_neurons is None:
            self.monitored_neurons = np.arange(layer_width)
        else:
            self.monitored_neurons = np.asarray(sorted(set(monitored_neurons)))
        self.zones: Dict[int, BoxZone] = {}

    @classmethod
    def build(
        cls,
        model: Module,
        monitored_module: Module,
        train_dataset: Dataset,
        margin: float = 0.0,
        classes: Optional[Iterable[int]] = None,
        monitored_neurons: Optional[Sequence[int]] = None,
        batch_size: int = 256,
    ) -> "BoxMonitor":
        """Fit per-class hulls on correctly-classified training activations."""
        inputs, labels = stack_dataset(train_dataset)
        activations, logits = _extract_activations(
            model, monitored_module, inputs, batch_size
        )
        predictions = logits.argmax(axis=1)
        if classes is None:
            classes = np.unique(labels).tolist()
        monitor = cls(
            layer_width=activations.shape[1],
            classes=classes,
            margin=margin,
            monitored_neurons=monitored_neurons,
        )
        projected = activations[:, monitor.monitored_neurons]
        for c in monitor.classes:
            mask = (labels == c) & (predictions == c)
            if mask.any():
                zone = BoxZone(len(monitor.monitored_neurons), margin)
                monitor.zones[c] = zone.fit(projected[mask])
        return monitor

    def check(self, activations: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """True per row when the activation lies inside its class hull."""
        activations = np.atleast_2d(activations)
        predicted_classes = np.asarray(predicted_classes)
        projected = activations[:, self.monitored_neurons]
        supported = np.ones(len(activations), dtype=bool)
        for c in self.classes:
            mask = predicted_classes == c
            if not mask.any():
                continue
            zone = self.zones.get(c)
            if zone is None:
                supported[mask] = False
            else:
                supported[mask] = zone.contains_batch(projected[mask])
        return supported


def _extract_activations(model, monitored_module, inputs, batch_size):
    """Real-valued analogue of extract_patterns (no binarisation)."""
    model.eval()
    activations, logits = compile_inference(model, monitored_module)(inputs, batch_size)
    return activations.reshape(activations.shape[0], -1), logits
