"""Crank-Nicolson time marching with two fixed-point linearizations.

Each step solves the coupled pair

    (2M + delta*A_mid) U^{k+1} - delta*M Y^{k+1} = (2M - delta*A_mid) U^k
                                                   + delta*M Y^k + 2*delta*F
    alpha*M Y^{k+1} + beta*M U^{k+1} = R            (memory relation)

where A_mid is the gradient-weighted stiffness matrix at the midpoint
state. Scheme "A" keeps the new iterate inside the diffusion term (the
matrix multiplies U_{n+1}); scheme "B" moves the whole diffusion term to
the right-hand side, evaluated at the previous iterate. Both iterations
share the same fixed point.

Y is eliminated through the memory relation: one mass solve per step,
z = M^{-1} R, gives Y = (z - beta*U)/alpha for every iterate. alpha and
beta depend only on delta and the kernel at zero, so the mass factor is
a run constant, and so is the whole U matrix for scheme B and for p = 2.
An iteration does only what depends on the iterate: one p-Laplacian
assembly (none for p = 2), one banded solve and the two increment norms.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import analysis
from .assembly import (ElementTables, FluxParams, assemble_load, assemble_mass,
                       assemble_plap, default_epsilon, interpolate)
from .banded import BandedFactor, BandedSymMatrix
from .errors import ConfigError, FixedPointDivergenceError
from .memory import (KernelSpec, MemoryEquation, StateHistory, memory_equation,
                     memory_residual, QUADRATURE_MODES)
from .mesh import Mesh1D, QuadratureRule, default_quad_points, gauss_legendre

SCHEMES = ("auto", "A", "B")


def select_scheme(p: float) -> str:
    """Default scheme for an exponent: explicit diffusion ("B") only on
    2 < p < 3, implicit diffusion ("A") everywhere else.

    p = 2 takes "A" because the diffusion matrix is then state independent:
    the step is solved exactly in one linear solve and the iteration
    terminates as soon as it repeats itself. The singular range 1 < p < 2
    (regularized) also takes "A": the explicit iteration starts cycling
    once the solution approaches extinction and the coefficient
    |grad u|^(p-2) grows without bound, while the implicit one keeps the
    stiff term inside the solve and marches through.
    """
    if not np.isfinite(p) or p <= 1.0:
        raise ConfigError("p", f"exponent must satisfy p > 1, got {p}")
    if 2.0 < p < 3.0:
        return "B"
    return "A"


def resolve_scheme(p: float, requested: str) -> str:
    """Validate an explicit scheme request against the exponent."""
    if requested not in SCHEMES:
        raise ConfigError("scheme", f"must be one of {SCHEMES}, got {requested!r}")
    if requested == "auto":
        return select_scheme(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ConfigError("p", f"exponent must satisfy p > 1, got {p}")
    if requested == "A" and 2.0 < p < 3.0:
        raise ConfigError("scheme",
                          "scheme A is not available on 2 < p < 3 "
                          f"(got p = {p}); use scheme B there")
    return requested


@dataclass
class SolverConfig:
    """Knobs of one time march."""

    p: float
    delta: float
    n_steps: int
    tol: float = 1e-9
    max_iter: int = 100
    scheme: str = "auto"
    epsilon: Optional[float] = None
    quad_points: Optional[int] = None
    quadrature_mode: str = "consistent"

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta <= 0.0:
            raise ConfigError("delta", f"time step must be positive, got {self.delta}")
        if self.n_steps < 1:
            raise ConfigError("N", f"need at least one step, got {self.n_steps}")
        if not self.tol > 0.0:
            raise ConfigError("tol", f"must be positive, got {self.tol}")
        if self.max_iter < 2:
            raise ConfigError("max_iter", f"must be >= 2, got {self.max_iter}")
        if self.quadrature_mode not in QUADRATURE_MODES:
            raise ConfigError("quadrature_mode",
                              f"must be one of {QUADRATURE_MODES}, "
                              f"got {self.quadrature_mode!r}")
        self.scheme = resolve_scheme(self.p, self.scheme)
        if self.epsilon is None:
            self.epsilon = default_epsilon(self.p)

    def flux_params(self) -> FluxParams:
        return FluxParams(p=self.p, epsilon=self.epsilon)


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record of the fixed-point iteration."""

    iterations: int
    increment_u: float          # final squared M-norm increment
    increment_y: float
    ratios: tuple = field(default_factory=tuple)


class Assembler:
    """Mesh + quadrature + flux bundle used by the stepping loop; keeps
    what depends on these alone: basis tables, mass matrix and factors."""

    def __init__(self, mesh: Mesh1D, quad: QuadratureRule,
                 params: FluxParams, load_fn):
        self.mesh = mesh
        self.quad = quad
        self.params = params
        self.load_fn = load_fn
        self.tables = ElementTables(mesh, quad)
        self._system_factors = {}

    @cached_property
    def mass(self) -> BandedSymMatrix:
        return assemble_mass(self.mesh, self.quad, tables=self.tables)

    @cached_property
    def mass_factor(self) -> BandedFactor:
        return self.mass.factor()

    def plap(self, state: np.ndarray) -> BandedSymMatrix:
        return assemble_plap(self.mesh, state, self.params, self.quad,
                             tables=self.tables)

    def load(self, t: float) -> np.ndarray:
        return assemble_load(self.mesh, self.load_fn, t, self.quad,
                             tables=self.tables)

    def system_factor(self, mass_coef: float, stiff_coef: float) -> BandedFactor:
        """Factor of mass_coef*M + stiff_coef*A(0), kept per coefficient pair;
        a run constant only where A cannot change (stiff_coef = 0 or p = 2)."""
        key = (mass_coef, stiff_coef)
        if key not in self._system_factors:
            matrix = mass_coef * self.mass
            if stiff_coef != 0.0:
                matrix = matrix + stiff_coef * self.plap(np.zeros(self.mesh.n_interior))
            self._system_factors[key] = matrix.factor()
        return self._system_factors[key]


class BlockSystem:
    """One step's coupled pair with Y eliminated through the memory relation.

    Substituting M Y = (R - beta*M U)/alpha into the U-block S U - delta*M Y
    = b leaves (S + shift*M) U = b + rhs_share; z = M^{-1} R, solved once,
    gives Y = (z - beta*U)/alpha for every iterate U, relaxed ones included.
    """

    def __init__(self, mem: MemoryEquation, mass_factor: BandedFactor,
                 delta: float):
        self.mem = mem
        self.shift = delta * mem.beta / mem.alpha
        self.rhs_share = (delta / mem.alpha) * mem.rhs
        self.z = mass_factor.solve(mem.rhs)

    def memory_state(self, u: np.ndarray) -> np.ndarray:
        return (self.z - self.mem.beta * u) / self.mem.alpha


def fixed_point_init(hist: StateHistory):
    """Seed both iterate sequences with the previous time level."""
    return hist.u[hist.k].copy(), hist.y[hist.k].copy()


#: Iterations granted to the plain iteration before a stall check.
_STALL_GRACE = 5
#: A ratio this close to 1 (or above) after the grace period means the
#: plain iteration is cycling; updates are then halved.
_STALL_RATIO = 0.98


def cn_step(hist: StateHistory, kernel: KernelSpec, cfg: SolverConfig,
            asm: Assembler):
    """Advance one level: iterate the chosen scheme until both squared
    M-norm increments drop below tol, then append the pair to the history.

    Large time steps can drive the plain iteration into a period-two
    cycle (update eigenvalue at -1). When the increment stops contracting
    after a few iterations, subsequent updates are relaxed by 1/2, which
    maps a -1 eigenvalue to 0 and leaves the fixed point untouched; Y is
    re-derived from the relaxed U through the memory relation so every
    iterate satisfies it exactly.
    """
    k = hist.k
    delta = cfg.delta
    hist.set_half_load(k, asm.load((k + 0.5) * delta))
    mass = asm.mass
    block = BlockSystem(memory_equation(hist, kernel, mass, cfg.quadrature_mode),
                        asm.mass_factor, delta)
    u_prev, y_prev = hist.u[k], hist.y[k]
    # the U-block's right-hand side, less its diffusion term
    rhs_step = (mass.matvec(2.0 * u_prev + delta * y_prev)
                + 2.0 * delta * hist.loads[k + 1] + block.rhs_share)
    mass_coef = 2.0 + block.shift
    implicit = cfg.scheme == "A"
    linear = asm.params.p == 2.0      # diffusion matrix independent of the state
    # scheme B never puts the diffusion matrix on the left
    constant = not implicit or linear
    if constant:
        factor = asm.system_factor(mass_coef, delta if implicit else 0.0)
    if linear:
        a_mid = asm.plap(u_prev)

    u_it, y_it = fixed_point_init(hist)
    ratios = []
    prev_total = None
    relax = 1.0
    inc_u = inc_y = np.inf
    for iteration in range(1, cfg.max_iter + 1):
        if not linear:
            a_mid = asm.plap(0.5 * (u_it + u_prev))
        rhs = rhs_step - delta * a_mid.matvec(u_prev if implicit else u_it + u_prev)
        if constant:
            u_next = factor.solve(rhs)
        else:
            u_next = (mass_coef * mass + delta * a_mid).solve(rhs)
        if relax < 1.0:
            u_next = u_it + relax * (u_next - u_it)
        y_next = block.memory_state(u_next)
        du = u_next - u_it
        dy = y_next - y_it
        inc_u = float(du @ mass.matvec(du))
        inc_y = float(dy @ mass.matvec(dy))
        total = inc_u + inc_y
        if prev_total is not None and prev_total > 0.0:
            ratios.append(total / prev_total)
        prev_total = total
        u_it, y_it = u_next, y_next
        if inc_u < cfg.tol and inc_y < cfg.tol:
            hist.append(u_it, y_it)
            return u_it, y_it, StepDiagnostics(iterations=iteration,
                                               increment_u=inc_u,
                                               increment_y=inc_y,
                                               ratios=tuple(ratios))
        if (relax == 1.0 and iteration >= _STALL_GRACE
                and ratios[-1] >= _STALL_RATIO):
            relax = 0.5
    raise FixedPointDivergenceError(step=k, iterations=cfg.max_iter,
                                    last_ratio=ratios[-1] if ratios else np.inf,
                                    increment_u=inc_u, increment_y=inc_y)


def march(problem: "analysis.ProblemSpec", mesh: Mesh1D,
          cfg: SolverConfig) -> "analysis.RunOutput":
    """Run the full time loop and collect the diagnostic series.

    Deterministic: identical inputs produce bitwise-identical histories.
    """
    if mesh.n_interior < 1:
        raise ConfigError("m", "mesh has no interior degrees of freedom; "
                          "increase m or r")
    if abs(mesh.a - problem.a) > 1e-12 or abs(mesh.b - problem.b) > 1e-12:
        raise ConfigError("domain", f"mesh [{mesh.a}, {mesh.b}] does not match "
                          f"problem domain [{problem.a}, {problem.b}]")
    horizon = cfg.delta * cfg.n_steps
    if abs(horizon - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
        raise ConfigError("N", f"delta * N = {horizon} does not reach the "
                          f"horizon T = {problem.horizon}")

    quad = gauss_legendre(default_quad_points(mesh.r, cfg.quad_points))
    asm = Assembler(mesh, quad, cfg.flux_params(), problem.f)
    hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
    hist.set_initial(interpolate(mesh, problem.u0), asm.load(0.0))

    diagnostics = []
    for _ in range(cfg.n_steps):
        _, _, diag = cn_step(hist, problem.kernel, cfg, asm)
        diagnostics.append(diag)
    return analysis.build_run_output(problem, mesh, cfg, asm, hist, diagnostics)


def step_residuals(hist: StateHistory, k: int, kernel: KernelSpec,
                   cfg: SolverConfig, asm: Assembler):
    """Galerkin residual vectors of the two weak equations across step k.

    Evaluates the averaged (non-rearranged) forms with the stored pair, so
    any sign or bookkeeping slip in the step solver shows up here.
    """
    if k >= hist.k:
        raise ValueError(f"step {k} not completed yet (history at {hist.k})")
    delta = hist.delta
    mass = asm.mass
    u_new, u_old = hist.u[k + 1], hist.u[k]
    y_new, y_old = hist.y[k + 1], hist.y[k]
    u_mid = 0.5 * (u_new + u_old)
    a_mid = asm.plap(u_mid)
    res_evolution = (mass.matvec((u_new - u_old) / delta)
                     + a_mid.matvec(u_mid)
                     - mass.matvec(0.5 * (y_new + y_old))
                     - hist.loads[k + 1])
    res_memory = memory_residual(hist, k, kernel, mass, cfg.quadrature_mode)
    return res_evolution, res_memory
