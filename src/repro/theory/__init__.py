"""The paper's §7 theoretical analysis, executable.

Closed-form error-propagation results (Theorem 7.2 and its unbiased
analogue), the Lemma 7.1 recursion simulator, and empirical layerwise
error measurement of the trainers' own sampled forward on live networks.
"""

from .analysis import layerwise_error
from .mc_propagation import relative_variance_growth
from .error_propagation import (
    LinearErrorModel,
    depth_at_error_ratio,
    error_ratio,
    error_ratio_table,
)

__all__ = [
    "error_ratio",
    "error_ratio_table",
    "depth_at_error_ratio",
    "LinearErrorModel",
    "layerwise_error",
    "relative_variance_growth",
]
