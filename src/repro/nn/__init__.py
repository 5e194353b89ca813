"""Pure-NumPy neural network substrate.

Everything the paper's training methods need, implemented from scratch:
activations, the NLL loss, dense layers with their exact products,
the :class:`~repro.nn.network.MLP` container, optimisers with sparse-column
support, classification metrics, and the convolutional front-end for the
paper's CIFAR-10 setting.
"""

from .activations import Activation, LogSoftmax, ReLU, Sigmoid
from .checkpoint import (
    TrainerCheckpoint,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from .layers import DenseLayer
from .losses import NLLLoss
from .metrics import (
    accuracy,
    confusion_matrix,
    distinct_predictions,
    prediction_distribution,
    prediction_entropy,
)
from .network import MLP, ForwardCache
from .optim import SGD, Adam, Optimizer, get_optimizer

__all__ = [
    "Activation",
    "ReLU",
    "Sigmoid",
    "LogSoftmax",
    "NLLLoss",
    "DenseLayer",
    "MLP",
    "ForwardCache",
    "Optimizer",
    "SGD",
    "Adam",
    "get_optimizer",
    "accuracy",
    "confusion_matrix",
    "prediction_distribution",
    "prediction_entropy",
    "distinct_predictions",
    "TrainerCheckpoint",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
]
