"""Experiment harness: train the paper's systems once, reuse everywhere.

Training a Table I network in pure numpy takes minutes, so trained systems
are cached on disk (``.artifacts/`` by default): the model checkpoint plus
the accuracy numbers.  Datasets are regenerated deterministically from their
seeds and are not stored.

The three standard systems correspond to the paper's evaluation:

* ``mnist``    — network 1 on the synthetic digit task (Table I/II, ID 1)
* ``gtsrb``    — network 2 on the synthetic sign task (Table I/II, ID 2)
* ``frontcar`` — the §III case-study selector
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datasets import generate_frontcar, generate_gtsrb, generate_mnist
from repro.datasets.gtsrb import GtsrbConfig
from repro.datasets.mnist import MnistConfig
from repro.models import ModelSpec, build_model
from repro.monitor import (
    MonitorEvaluation,
    NeuronActivationMonitor,
    extract_patterns,
    select_random_neurons,
    select_top_neurons,
)
from repro.monitor.backends import DEFAULT_BACKEND
from repro.nn import Adam, DataLoader, Trainer, load_model, save_model
from repro.nn.data import Dataset, stack_dataset

DEFAULT_CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", ".artifacts")

# Harder nuisances than the generator defaults: the default digits are too
# easy (~99.9% validation accuracy leaves no misclassifications for Table II
# to count); this config lands near the paper's regime of ~1-3%
# misclassification with high train accuracy.
TRAINING_MNIST_CONFIG = MnistConfig(
    rotation_deg=17.0,
    shear=0.22,
    scale_low=0.68,
    scale_high=1.28,
    translate_px=3.5,
    wobble=1.4,
    thickness_prob=0.6,
    blur_sigma=0.85,
    noise_std=0.12,
)

# Softer nuisances than the generator defaults: hits the paper's regime of a
# high train accuracy with a visible validation gap in a trainable budget.
TRAINING_GTSRB_CONFIG = GtsrbConfig(
    brightness_low=0.55,
    occlusion_prob=0.15,
    blur_sigma_max=0.8,
    noise_std=0.05,
    scale_low=0.7,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one train-then-monitor experiment."""

    name: str                      # registered model / dataset family
    train_size: int
    val_size: int
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 64
    seed: int = 0
    num_classes: Optional[int] = None   # GTSRB subset for fast runs

    #: Bumped whenever the harness-level dataset configs change, so stale
    #: checkpoints in .artifacts/ are not silently reused.
    HARNESS_VERSION = 2

    def cache_key(self) -> str:
        """Stable hash of every field that affects the trained model."""
        payload = json.dumps(
            {**dataclasses.asdict(self), "_harness": self.HARNESS_VERSION},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: Benchmark-scale defaults, tuned so each system trains in minutes while
#: landing in the paper's accuracy regime.
STANDARD_CONFIGS: Dict[str, ExperimentConfig] = {
    "mnist": ExperimentConfig(
        name="mnist", train_size=4000, val_size=2000, epochs=6, learning_rate=1e-3
    ),
    "gtsrb": ExperimentConfig(
        name="gtsrb", train_size=2580, val_size=4300, epochs=14, learning_rate=2e-3
    ),
    "frontcar": ExperimentConfig(
        name="frontcar", train_size=10000, val_size=3000, epochs=120,
        learning_rate=2e-3, batch_size=128,
    ),
}


@dataclass
class TrainedSystem:
    """A trained model with its data splits and headline accuracies."""

    config: ExperimentConfig
    spec: ModelSpec
    train_dataset: Dataset
    val_dataset: Dataset
    train_accuracy: float
    val_accuracy: float

    def __post_init__(self) -> None:
        self._pattern_cache: Dict[str, tuple] = {}

    @property
    def misclassification_rate(self) -> float:
        """Validation misclassification rate (Table II first column)."""
        return 1.0 - self.val_accuracy

    def patterns_of(self, split: str):
        """Cached ``(patterns, labels, predictions)`` for 'train' or 'val'.

        The model is frozen after training, so the monitored-layer patterns
        of each split never change; caching them makes building many
        monitor variants (ablation sweeps) cheap.
        """
        if split not in ("train", "val"):
            raise ValueError(f"split must be 'train' or 'val', got {split!r}")
        cached = self._pattern_cache.get(split)
        if cached is None:
            dataset = self.train_dataset if split == "train" else self.val_dataset
            inputs, labels = stack_dataset(dataset)
            patterns, logits = extract_patterns(
                self.spec.model, self.spec.monitored_module, inputs
            )
            cached = (patterns, labels, logits.argmax(axis=1))
            self._pattern_cache[split] = cached
        return cached


def _make_datasets(config: ExperimentConfig):
    """Deterministic train/val pair for a config (val uses a shifted seed)."""
    val_seed = config.seed + 10_000
    if config.name == "mnist":
        return (
            generate_mnist(
                config.train_size, seed=config.seed, config=TRAINING_MNIST_CONFIG
            ),
            generate_mnist(
                config.val_size, seed=val_seed, config=TRAINING_MNIST_CONFIG
            ),
        )
    if config.name == "gtsrb":
        classes = config.num_classes or 43
        return (
            generate_gtsrb(
                config.train_size, seed=config.seed,
                config=TRAINING_GTSRB_CONFIG, num_classes=classes,
            ),
            generate_gtsrb(
                config.val_size, seed=val_seed,
                config=TRAINING_GTSRB_CONFIG, num_classes=classes,
            ),
        )
    if config.name == "frontcar":
        return (
            generate_frontcar(config.train_size, seed=config.seed),
            generate_frontcar(config.val_size, seed=val_seed),
        )
    raise KeyError(f"unknown experiment family {config.name!r}")


def _build_spec(config: ExperimentConfig) -> ModelSpec:
    if config.name == "gtsrb" and config.num_classes:
        return build_model("gtsrb", seed=config.seed, num_classes=config.num_classes)
    return build_model(config.name, seed=config.seed)


def train_system(
    config: ExperimentConfig,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    force: bool = False,
    verbose: bool = False,
) -> TrainedSystem:
    """Train (or load from cache) the system described by ``config``."""
    train_ds, val_ds = _make_datasets(config)
    spec = _build_spec(config)

    checkpoint = meta_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        stem = os.path.join(cache_dir, f"{config.name}-{config.cache_key()}")
        checkpoint, meta_path = stem + ".npz", stem + ".json"

    if not force and checkpoint and os.path.exists(checkpoint) and os.path.exists(meta_path):
        load_model(spec.model, checkpoint)
        spec.model.eval()
        with open(meta_path) as fh:
            meta = json.load(fh)
        return TrainedSystem(
            config=config,
            spec=spec,
            train_dataset=train_ds,
            val_dataset=val_ds,
            train_accuracy=meta["train_accuracy"],
            val_accuracy=meta["val_accuracy"],
        )

    trainer = Trainer(spec.model, Adam(spec.model.parameters(), lr=config.learning_rate))
    loader = DataLoader(
        train_ds, batch_size=config.batch_size, shuffle=True, seed=config.seed
    )
    trainer.fit(loader, epochs=config.epochs, verbose=verbose)
    train_accuracy = trainer.evaluate(train_ds)
    val_accuracy = trainer.evaluate(val_ds)

    if checkpoint:
        save_model(spec.model, checkpoint)
        with open(meta_path, "w") as fh:
            json.dump(
                {"train_accuracy": train_accuracy, "val_accuracy": val_accuracy}, fh
            )
    return TrainedSystem(
        config=config,
        spec=spec,
        train_dataset=train_ds,
        val_dataset=val_ds,
        train_accuracy=train_accuracy,
        val_accuracy=val_accuracy,
    )


def sensitivity_for_classes(spec: ModelSpec, classes: Sequence[int]) -> np.ndarray:
    """Aggregate per-neuron sensitivity across the monitored classes.

    Uses the paper's closed form (output-layer weight magnitude) per class
    and takes the maximum across classes, so a neuron important for *any*
    monitored class is kept.
    """
    from repro.monitor import weight_sensitivity

    if spec.output_layer is None:
        raise ValueError(f"model {spec.name!r} has no registered output layer")
    scores = [weight_sensitivity(spec.output_layer, c) for c in classes]
    return np.max(scores, axis=0)


def build_monitor(
    system: TrainedSystem,
    gamma: int = 0,
    classes: Optional[Sequence[int]] = None,
    neuron_fraction: Optional[float] = None,
    selection: str = "gradient",
    selection_seed: int = 0,
    backend: str = DEFAULT_BACKEND,
    indexed: bool = False,
) -> NeuronActivationMonitor:
    """Build a monitor for a trained system (Algorithm 1 + §II selection).

    ``neuron_fraction`` enables partial monitoring: ``selection`` is either
    ``"gradient"`` (paper's method: output-weight sensitivity) or
    ``"random"`` (the ablation control).  ``backend`` picks the zone
    engine (``"bdd"`` or ``"bitset"``), so every experiment can be run
    against either; ``indexed`` arms the bitset engine's multi-index
    Hamming pruner for sub-linear queries over large zones.
    """
    patterns, labels, predictions = system.patterns_of("train")
    if classes is None:
        classes = np.unique(labels).tolist()
    monitored_neurons = None
    if neuron_fraction is not None:
        if selection == "gradient":
            scores = sensitivity_for_classes(system.spec, classes)
            monitored_neurons = select_top_neurons(scores, neuron_fraction)
        elif selection == "random":
            monitored_neurons = select_random_neurons(
                system.spec.monitored_width, neuron_fraction, seed=selection_seed
            )
        else:
            raise ValueError(f"unknown selection {selection!r}")
    monitor = NeuronActivationMonitor(
        layer_width=patterns.shape[1],
        classes=classes,
        gamma=gamma,
        monitored_neurons=monitored_neurons,
        backend=backend,
        indexed=indexed,
    )
    monitor.record(patterns, labels, predictions)
    return monitor


def gamma_sweep(
    system: TrainedSystem,
    monitor: NeuronActivationMonitor,
    gammas: Sequence[int],
) -> List[MonitorEvaluation]:
    """Evaluate the monitor on validation data for each γ (Table II rows).

    Validation patterns are extracted once, and one distance pass capped
    at the largest γ scores every row (:func:`repro.monitor.evaluate_sweep`).
    The monitor's γ is left as it was.
    """
    from repro.monitor import evaluate_sweep

    patterns, labels, predictions = system.patterns_of("val")
    return evaluate_sweep(monitor, patterns, predictions, labels, gammas)
