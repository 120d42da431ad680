"""Staggered-grid simulator and estimate-audit harness for two-dimensional
incompressible magneto-micropolar flow whose micro-rotation field carries no
diffusion (zero angular viscosity).

The package root exports the names of the README's Python example; every
other name is imported from its module.  Importing the root loads every
layer but the command line.
"""

from . import (  # noqa: F401
    config, estimates, evolution, experiments, fields, recipes, snapshots, stokes,
)
from .estimates import energy_audit, w_lq_audit
from .evolution import StepConfig, StepError, march, run_simulation
from .fields import FluidParams, GridSpec
from .recipes import initial_state

__all__ = [
    "FluidParams",
    "GridSpec",
    "StepConfig",
    "StepError",
    "energy_audit",
    "initial_state",
    "march",
    "run_simulation",
    "w_lq_audit",
]

__version__ = "0.1.0"
