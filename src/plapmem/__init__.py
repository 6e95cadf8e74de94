"""1-D finite elements for p-Laplacian diffusion with a Volterra memory term.

The solver advances the coupled pair (u, y) — the solution and its memory
term — with a Crank-Nicolson step whose history integrals use composite
trapezoid weights, and resolves the nonlinear step by one of two fixed-point
linearizations of the gradient-dependent diffusion matrix.
"""

from .analysis import (ProblemSpec, RunOutput, convergence_orders, energy,
                       extrema_series, fit_order, l2_error,
                       manufactured_example1, mass_norm, support_gap,
                       waiting_time)
from .assembly import (FluxParams, assemble_load, assemble_mass, assemble_plap,
                       flux, flux_coefficient, interpolate)
from .banded import BandedSymMatrix
from .config import RunConfig, parse_config
from .errors import (ConfigError, FixedPointDivergenceError, IllPosedStepError,
                     LinearSolveError, PlapmemError)
from .memory import (KernelSpec, MemoryEquation, StateHistory,
                     exponential_kernel, forcing_weights, i_f, memory_equation,
                     q_g, q_gp, volterra_weights)
from .mesh import (Mesh1D, QuadratureRule, ReferenceBasis, basis_eval,
                   build_uniform_mesh, eval_fe, gauss_legendre)
from .stepper import (Assembler, SolverConfig, StepDiagnostics, cn_step,
                      fixed_point_init, march, select_scheme, step_residuals)

__version__ = "0.1.0"

__all__ = [
    "Assembler", "BandedSymMatrix", "ConfigError", "FixedPointDivergenceError",
    "FluxParams", "IllPosedStepError", "KernelSpec", "LinearSolveError",
    "MemoryEquation", "Mesh1D", "PlapmemError", "ProblemSpec", "QuadratureRule",
    "ReferenceBasis", "RunConfig", "RunOutput", "SolverConfig",
    "StateHistory", "StepDiagnostics", "assemble_load", "assemble_mass",
    "assemble_plap", "basis_eval", "build_uniform_mesh", "cn_step",
    "convergence_orders", "energy", "eval_fe", "exponential_kernel",
    "extrema_series", "fit_order", "fixed_point_init", "flux",
    "flux_coefficient", "forcing_weights", "gauss_legendre", "i_f",
    "interpolate", "l2_error", "manufactured_example1", "march", "mass_norm",
    "memory_equation", "parse_config", "q_g", "q_gp", "select_scheme",
    "step_residuals", "support_gap", "volterra_weights",
    "waiting_time",
]
