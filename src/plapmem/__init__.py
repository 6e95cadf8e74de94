"""1-D finite elements for p-Laplacian diffusion with a Volterra memory term.

The solver advances the coupled pair (u, y) — the solution and its memory
term — with a Crank-Nicolson step whose history integrals use composite
trapezoid weights, and resolves the nonlinear step by Newton's method or
one of two fixed-point linearizations. The root exports the entry points;
the building blocks stay importable from their modules.
"""

from .analysis import (ProblemSpec, RunOutput, convergence_orders, energy,
                       extrema_series, fit_order, l2_error,
                       manufactured_example1, mass_norm, support_gap,
                       waiting_time)
from .assembly import SeparableForcing
from .config import RunConfig, parse_config
from .errors import (ConfigError, FixedPointDivergenceError, IllPosedStepError,
                     LinearSolveError, PlapmemError)
from .memory import KernelSpec
from .mesh import Mesh1D, build_uniform_mesh
from .stepper import SolverConfig, march, step_residuals

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "FixedPointDivergenceError", "IllPosedStepError",
    "KernelSpec", "LinearSolveError", "Mesh1D", "PlapmemError", "ProblemSpec",
    "RunConfig", "RunOutput", "SeparableForcing", "SolverConfig",
    "build_uniform_mesh", "convergence_orders", "energy", "extrema_series",
    "fit_order", "l2_error", "manufactured_example1", "march", "mass_norm",
    "parse_config", "step_residuals", "support_gap", "waiting_time",
]
