"""A compact pure-numpy deep-learning framework (the PyTorch substitute).

Provides reverse-mode autograd (:class:`Tensor`), the layer types used by
the paper's Table I architectures, cross-entropy training, data loading and
checkpointing.  Autograd is the training path and the reference forward
pass.  The monitor reads the monitored layer and the logits through
:func:`compile_inference`, which runs an eval-mode ``Sequential`` as plain
numpy ops with no autograd graph; any other model falls back to the
autograd forward with a forward hook (:class:`ActivationTap`), and each
such run is counted in ``repro.nn.inference.FALLBACKS``.
"""

from repro.nn.tensor import Tensor
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.extras import AvgPool2d, Dropout, LeakyReLU, Sigmoid, Tanh
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.data import (
    ArrayDataset,
    DataLoader,
    Dataset,
    Subset,
    random_split,
    stack_dataset,
)
from repro.nn.train import EpochStats, Trainer, predict, predict_logits
from repro.nn.serialize import load_model, save_model
from repro.nn.hooks import ActivationTap
from repro.nn.inference import compile_inference

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm2d",
    "ReLU",
    "Flatten",
    "Sequential",
    "Dropout",
    "AvgPool2d",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "CrossEntropyLoss",
    "MSELoss",
    "Optimizer",
    "SGD",
    "Adam",
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "random_split",
    "stack_dataset",
    "Trainer",
    "EpochStats",
    "predict",
    "predict_logits",
    "save_model",
    "load_model",
    "ActivationTap",
    "compile_inference",
]
