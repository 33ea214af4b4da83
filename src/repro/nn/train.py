"""Training loop with metrics history (the paper's "standard training process").

The trainer is intentionally plain: forward, loss, backward, step, with
per-epoch train/validation accuracy so the Table I accuracy rows can be
reported directly from :attr:`Trainer.history`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn.data import DataLoader, Dataset, stack_dataset
from repro.nn.inference import compile_inference
from repro.nn.layers import Module, Sequential
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor


@dataclass
class EpochStats:
    """Metrics recorded after one epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: Optional[float] = None


@dataclass
class Trainer:
    """Supervised classification trainer.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.layers.Module` mapping inputs to logits.
    optimizer:
        A configured optimiser over ``model.parameters()``.
    loss_fn:
        Defaults to :class:`~repro.nn.losses.CrossEntropyLoss`.
    """

    model: Module
    optimizer: Optimizer
    loss_fn: CrossEntropyLoss = field(default_factory=CrossEntropyLoss)
    history: List[EpochStats] = field(default_factory=list)

    def fit(
        self,
        train_loader: DataLoader,
        epochs: int = 1,
        val_dataset: Optional[Dataset] = None,
        verbose: bool = False,
    ) -> List[EpochStats]:
        """Train for ``epochs`` passes over ``train_loader``."""
        for epoch in range(epochs):
            self.model.train()
            total_loss = 0.0
            total_correct = 0
            total_seen = 0
            for inputs, labels in train_loader:
                x = Tensor(inputs)
                logits = self.model(x)
                loss = self.loss_fn(logits, labels)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                batch = len(labels)
                total_loss += loss.item() * batch
                total_correct += int((logits.data.argmax(axis=1) == labels).sum())
                total_seen += batch
            stats = EpochStats(
                epoch=epoch,
                train_loss=total_loss / max(total_seen, 1),
                train_accuracy=total_correct / max(total_seen, 1),
            )
            if val_dataset is not None:
                stats.val_accuracy = self.evaluate(val_dataset)
            self.history.append(stats)
            if verbose:
                val = f", val_acc={stats.val_accuracy:.4f}" if stats.val_accuracy is not None else ""
                print(
                    f"epoch {epoch}: loss={stats.train_loss:.4f}, "
                    f"train_acc={stats.train_accuracy:.4f}{val}"
                )
        return self.history

    def evaluate(self, dataset: Dataset, batch_size: int = 256) -> float:
        """Return classification accuracy on ``dataset`` in eval mode."""
        if len(dataset) == 0:
            return 0.0
        inputs, labels = stack_dataset(dataset)
        predictions = predict_logits(self.model, inputs, batch_size).argmax(axis=1)
        return float((predictions == labels).mean())


def predict(model: Module, dataset: Dataset, batch_size: int = 256) -> np.ndarray:
    """Predicted class indices for every example, in dataset order."""
    if len(dataset) == 0:
        return np.empty(0, dtype=np.int64)
    inputs, _ = stack_dataset(dataset)
    return predict_logits(model, inputs, batch_size).argmax(axis=1)


def predict_logits(model: Module, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Raw logits for an input batch array, evaluated in chunks.

    An eval-mode :class:`~repro.nn.layers.Sequential` runs as an inference
    plan tapping its last layer (no autograd graph is built; a model the
    plan cannot serve falls back and is counted in
    :data:`repro.nn.inference.FALLBACKS`).  Any other model runs the
    autograd forward pass.
    """
    model.eval()
    if len(inputs) == 0:
        return np.empty((0,))
    if isinstance(model, Sequential) and model.layers:
        _, logits = compile_inference(model, model.layers[-1])(inputs, batch_size)
        return logits
    chunks = [
        model(Tensor(inputs[start : start + batch_size])).data
        for start in range(0, len(inputs), batch_size)
    ]
    return np.concatenate(chunks)
