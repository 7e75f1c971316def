"""Measurement-based Toffoli and CCZ gates on weighted graph states."""

from .graphstate import InputAssignment, WeightedGraph, build_state
from .mbqc import (
    ByproductOperator,
    MeasurementBasis,
    Pattern,
    PatternStep,
    enumerate_branches,
    frame_compose,
    frame_to_operator,
    run_branch,
)
from .qstate import StateVector, plus_state
from .toffoli import (
    LinkingByproducts,
    LinkingFrames,
    ResourceVariant,
    build_resource,
    measurement_program,
    predicted_sigma,
    run_gate,
    success_probability,
    target_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "ByproductOperator",
    "InputAssignment",
    "LinkingByproducts",
    "LinkingFrames",
    "MeasurementBasis",
    "Pattern",
    "PatternStep",
    "ResourceVariant",
    "StateVector",
    "WeightedGraph",
    "build_resource",
    "build_state",
    "enumerate_branches",
    "frame_compose",
    "frame_to_operator",
    "measurement_program",
    "plus_state",
    "predicted_sigma",
    "run_branch",
    "run_gate",
    "success_probability",
    "target_unitary",
]
