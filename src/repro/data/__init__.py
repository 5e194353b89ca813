"""Datasets, loaders, corruptions and drifting streams.

Six synthetic benchmarks matching the paper's image shapes, class counts
and split sizes (§8.2), with a ``scale`` knob for laptop-sized runs — see
DESIGN.md §1 for the substitution rationale.
"""

from .corruptions import (
    with_class_imbalance,
    with_dead_features,
    with_label_noise,
)
from .benchmarks import BENCHMARKS, benchmark_names, get_benchmark_spec, load_benchmark
from .datasets import Dataset
from .loader import BatchLoader
from .streams import DriftingStream
from .synthetic import SyntheticSpec, make_classification_images, make_prototypes

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "make_prototypes",
    "make_classification_images",
    "BENCHMARKS",
    "benchmark_names",
    "get_benchmark_spec",
    "load_benchmark",
    "BatchLoader",
    "with_label_noise",
    "with_dead_features",
    "with_class_imbalance",
    "DriftingStream",
]
