"""Experiment harness: configs, the runner, the sweep executor, text
reporting, analytical FLOP/energy models and result persistence."""

from .config import ExperimentConfig
from .energy import EnergyEstimate, EnergyModel, estimate_training_energy
from .executor import (
    ExecutorError,
    ExperimentExecutor,
    ExperimentTask,
    JsonlSink,
    TaskOutcome,
    derive_task_seeds,
)
from .experiment import ExperimentResult, build_network, run_experiment
from .flops import StepFlops, flops_table, method_step_flops, speedup_vs_standard
from .parallel import (
    ALSH_PHASES,
    PhaseProfile,
    projected_time,
    speedup_curve,
)
from .recommend import Recommendation, recommend_method
from .reporting import (
    format_markdown_table,
    format_series,
    format_table,
    render_confusion,
)
from .roofline import RooflineMachine, RooflinePoint, method_roofline, roofline_table
from .results import result_from_dict, result_to_dict
from .sweeps import Sweep

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "build_network",
    "run_experiment",
    "format_table",
    "format_markdown_table",
    "format_series",
    "render_confusion",
    "StepFlops",
    "method_step_flops",
    "speedup_vs_standard",
    "flops_table",
    "EnergyModel",
    "EnergyEstimate",
    "estimate_training_energy",
    "PhaseProfile",
    "ALSH_PHASES",
    "projected_time",
    "speedup_curve",
    "ExperimentExecutor",
    "ExecutorError",
    "ExperimentTask",
    "JsonlSink",
    "TaskOutcome",
    "derive_task_seeds",
    "Recommendation",
    "recommend_method",
    "result_to_dict",
    "result_from_dict",
    "Sweep",
    "RooflineMachine",
    "RooflinePoint",
    "method_roofline",
    "roofline_table",
]
