"""Pseudo-spectral simulator for incompressible non-resistive MHD near the
straight-field equilibrium, in Eulerian and Lagrangian flow-map form, with a
temporal-weighted energy ledger that audits the decay structure at runtime."""

from .grid import Grid
from .fields import MatrixField, ScalarField, VectorField
from .geometry import FlowState, construct_initial_map
from .evolution import EulerState, LagrangianStepper, EulerianStepper
from .energy import EnergyEvaluator
from .config import RunConfig, parse_config
from .runner import RunReport, compare_formulations, run_simulation

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "MatrixField",
    "FlowState",
    "EulerState",
    "construct_initial_map",
    "LagrangianStepper",
    "EulerianStepper",
    "EnergyEvaluator",
    "RunConfig",
    "parse_config",
    "RunReport",
    "run_simulation",
    "compare_formulations",
]

__version__ = "0.1.0"
