"""Pure-NumPy neural network substrate.

Everything the paper's training methods need, implemented from scratch:
activations, losses, dense layers with their exact products,
the :class:`~repro.nn.network.MLP` container, optimisers with sparse-column
support, classification metrics, and the convolutional front-end for the
paper's CIFAR-10 setting.
"""

from .activations import (
    Activation,
    Identity,
    LeakyReLU,
    LogSoftmax,
    ReLU,
    Sigmoid,
    Softplus,
    Tanh,
    get_activation,
)
from .checkpoint import (
    TrainerCheckpoint,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from .layers import DenseLayer
from .losses import CrossEntropyLoss, Loss, MSELoss, NLLLoss, get_loss
from .metrics import (
    accuracy,
    collapse_report,
    topk_accuracy,
    confusion_matrix,
    distinct_predictions,
    per_class_report,
    prediction_distribution,
    prediction_entropy,
)
from .network import MLP, ForwardCache
from .optim import SGD, Adagrad, Adam, Momentum, Optimizer, get_optimizer
from .schedules import (
    ConstantSchedule,
    CosineSchedule,
    ExponentialDecaySchedule,
    StepDecaySchedule,
    WarmupSchedule,
    get_schedule,
)

__all__ = [
    "Activation",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "Softplus",
    "LogSoftmax",
    "get_activation",
    "Loss",
    "NLLLoss",
    "CrossEntropyLoss",
    "MSELoss",
    "get_loss",
    "DenseLayer",
    "MLP",
    "ForwardCache",
    "Optimizer",
    "SGD",
    "Momentum",
    "Adagrad",
    "Adam",
    "get_optimizer",
    "ConstantSchedule",
    "StepDecaySchedule",
    "ExponentialDecaySchedule",
    "CosineSchedule",
    "WarmupSchedule",
    "get_schedule",
    "accuracy",
    "confusion_matrix",
    "per_class_report",
    "prediction_distribution",
    "prediction_entropy",
    "distinct_predictions",
    "topk_accuracy",
    "collapse_report",
    "TrainerCheckpoint",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
]
