"""Crank-Nicolson time marching: Newton's method and two fixed-point
linearizations.

Each step solves the coupled pair

    (2M + delta*A_mid) U^{k+1} - delta*M Y^{k+1} = (2M - delta*A_mid) U^k
                                                   + delta*M Y^k + 2*delta*F
    alpha*M Y^{k+1} + beta*M U^{k+1} = R            (memory relation)

where A_mid is the gradient-weighted stiffness matrix at the midpoint
state. Scheme "A" keeps the new iterate inside the diffusion term (the
matrix multiplies U_{n+1}); scheme "B" moves the whole diffusion term to
the right-hand side, evaluated at the previous iterate. Scheme "N" is
Newton's method on the same equation: with Y eliminated a step solves
G(U) = c*M U + delta*A(w)(U + U^k) - b = 0, w = (U + U^k)/2, whose
Jacobian c*M + delta*K_T(w) takes the flux slope a'(w_x) in place of A's
coefficient. All three share the same fixed point.

Y is eliminated through the memory relation: one mass solve per step,
z = M^{-1} R, gives Y = (z - beta*U)/alpha. The iteration therefore runs
on U alone; Y's increment is -(beta/alpha) times U's, and Y itself is
formed once, from the accepted U. alpha and beta depend only on delta and
the kernel at zero, so the mass factor is a run constant, and so is the
whole U matrix for scheme B and for p = 2. For p = 2 the stiffness matrix
is a run constant too, and with scheme A (or N, which is then the same
iteration) so is the step's right-hand side. An iteration does only what
depends on the iterate: one p-Laplacian assembly (with the tangent for
scheme N), one matrix-vector product for the right-hand side (none for
p = 2 with scheme A after the first iteration, two for N with eps > 0),
one banded solve (a single LAPACK call) and one product for the squared
M-norm of U's increment.

Newton starts a step from the extrapolation 3(U^k - U^{k-1}) + U^{k-2} of
the last three levels where that extrapolation has been reliable, which
brings it within tol after one iteration on a smooth trajectory; the
fixed-point schemes start from U^k.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import analysis
from .assembly import (ElementTables, FluxParams, SeparableForcing,
                       assemble_load, assemble_mass, assemble_plap,
                       default_epsilon, interpolate)
from .banded import BandedFactor, BandedSymMatrix
from .errors import ConfigError, FixedPointDivergenceError, LinearSolveError
from .memory import (ExponentialSums, KernelSpec, MemoryEquation, StateHistory,
                     check_mode, memory_equation, memory_residual)
from .mesh import Mesh1D, QuadratureRule, default_quad_points, gauss_legendre

SCHEMES = ("auto", "A", "B", "N")


def select_scheme(p: float) -> str:
    """Default scheme for an exponent: Newton ("N") for p > 2, implicit
    diffusion ("A") for p <= 2.

    For p > 2 the fixed-point iterations contract slowly, or not at all
    once the solution grows, while Newton converges in two iterations from
    the previous level and in one from a predicted start (see cn_step) on
    a smooth trajectory. p = 2 takes "A" because the diffusion matrix is
    then state independent: the step is solved exactly in one linear solve
    and the iteration terminates as soon as it repeats itself. The singular
    range 1 < p < 2 (regularized) also takes "A": there the flux slope
    reaches eps^(p-2), and Newton needs several times scheme A's iterations
    (up to 27 in one step of example 2's dome at p = 1.5), while the
    explicit iteration starts cycling near extinction.
    """
    if not np.isfinite(p) or p <= 1.0:
        raise ConfigError("p", f"exponent must satisfy p > 1, got {p}")
    return "N" if p > 2.0 else "A"


def resolve_scheme(p: float, requested: str) -> str:
    """Validate an explicit scheme request against the exponent."""
    if requested not in SCHEMES:
        raise ConfigError("scheme", f"must be one of {SCHEMES}, got {requested!r}")
    default = select_scheme(p)
    if requested == "auto":
        return default
    if requested == "A" and 2.0 < p < 3.0:
        raise ConfigError("scheme",
                          "scheme A is not available on 2 < p < 3 "
                          f"(got p = {p}); use scheme N or B there")
    return requested


@dataclass
class SolverConfig:
    """Knobs of one time march; builds (and so checks) its FluxParams."""

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
        check_mode(self.quadrature_mode)
        self.scheme = resolve_scheme(self.p, self.scheme)
        if self.epsilon is None:
            self.epsilon = default_epsilon(self.p)
        self._flux = FluxParams(p=self.p, epsilon=self.epsilon)

    def flux_params(self) -> FluxParams:
        return self._flux


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record of the fixed-point iteration."""

    iterations: int
    increment_u: float          # final squared M-norm increment, unrelaxed
    increment_y: float          # (beta/alpha)^2 * increment_u
    ratios: tuple = field(default_factory=tuple)
    relaxed: int = 0            # first iteration with a relaxed update; 0: none
    restarted: int = 0          # first iteration after an abandoned predicted
                                # start, run from the previous level; 0: none


class Assembler:
    """Mesh + quadrature + flux bundle used by the stepping loop; keeps
    what depends on these alone: basis tables, mass matrix and factors,
    and the integrals of a SeparableForcing's space profiles."""

    def __init__(self, mesh: Mesh1D, quad: QuadratureRule,
                 params: FluxParams, load_fn):
        self.mesh = mesh
        self.quad = quad
        self.params = params
        self.load_fn = load_fn
        self.tables = ElementTables(mesh, quad)
        self._system_factors = {}
        self._profile_loads = None

    @cached_property
    def mass(self) -> BandedSymMatrix:
        return assemble_mass(self.mesh, self.quad, tables=self.tables)

    @cached_property
    def mass_factor(self) -> BandedFactor:
        return self.mass.factor()

    def plap(self, state: np.ndarray, tangent: bool = False):
        return assemble_plap(self.mesh, state, self.params, self.quad,
                             tables=self.tables, tangent=tangent)

    def load(self, t: float) -> np.ndarray:
        """Interior load vector at t. A SeparableForcing's profiles are
        integrated at the first call (a singular one is reported with that
        call's t) and later calls only combine them; any other f is
        assembled anew."""
        if not isinstance(self.load_fn, SeparableForcing):
            return assemble_load(self.mesh, self.load_fn, t, self.quad,
                                 tables=self.tables)
        if self._profile_loads is None:
            self._profile_loads = np.array(
                [assemble_load(self.mesh, lambda x, _: space(x), t, self.quad,
                               tables=self.tables)
                 for space, _ in self.load_fn.terms]).reshape(-1, self.mesh.n_interior)
        return self.load_fn.coefficients(t) @ self._profile_loads

    @cached_property
    def stiffness(self) -> BandedSymMatrix:
        """A(0); the diffusion matrix at every state when p = 2."""
        return self.plap(np.zeros(self.mesh.n_interior))

    def system_factor(self, mass_coef: float, stiff_coef: float) -> BandedFactor:
        """Factor of mass_coef*M + stiff_coef*A(0), kept per coefficient pair;
        a run constant only where A cannot change (stiff_coef = 0 or p = 2)."""
        key = (mass_coef, stiff_coef)
        if key not in self._system_factors:
            matrix = mass_coef * self.mass
            if stiff_coef != 0.0:
                matrix = matrix + stiff_coef * self.stiffness
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


def fixed_point_init(hist: StateHistory) -> np.ndarray:
    """Seed the iterate with (a copy of) the previous time level's U."""
    return hist.u[hist.k].copy()


def predicted_start(hist: StateHistory) -> Optional[np.ndarray]:
    """The next level extrapolated from the last three, 3(U_k - U_{k-1})
    + U_{k-2} (O(delta^3) from U_{k+1} on a smooth trajectory), or None.

    None before level 3, and wherever the same extrapolation from levels
    k-1..k-3 missed U_k by no less, in max-norm, than U_{k-1} did: there the
    trajectory is not smooth on the scale of a step, and U_k is the safer
    start.
    """
    k = hist.k
    if k < 3:
        return None
    u = hist.u
    miss = u[k] - 3.0 * u[k - 1] + 3.0 * u[k - 2] - u[k - 3]
    if np.max(np.abs(miss)) >= np.max(np.abs(u[k] - u[k - 1])):
        return None
    return 3.0 * (u[k] - u[k - 1]) + u[k - 2]


#: The first iteration with an increment ratio, where the stall check starts.
_STALL_GRACE = 2
#: A ratio this close to 1 (or above) means the iteration is cycling or
#: expanding; the update is then relaxed (again).
_STALL_RATIO = 0.98


@np.errstate(over="ignore", invalid="ignore")   # inf/nan: diverged
def cn_step(hist: StateHistory, kernel: KernelSpec, cfg: SolverConfig,
            asm: Assembler, sums: Optional[ExponentialSums] = None):
    """Advance one level: iterate the chosen scheme on U until both squared
    M-norm increments drop below tol, then append the pair to the history.

    sums are the march's running history sums for an exponential kernel;
    without them each call replays the sums from level 0 (the same numbers
    at O(k) cost per step).

    A Newton iteration solves (c*M + delta*K_T) U_next = J U - G(U)
    = b + delta*(K_T U - A (U + U^k)) with A and K_T at the iterate's
    midpoint (with eps = 0, K_T = (p-1)*A and the right-hand side is
    b + delta*A ((p-2) U - U^k), one product); scheme A solves
    (c*M + delta*A) U_next = b - delta*A U^k.

    Y is not iterated: each iterate U stands for (U, Y(U)) with
    Y(U) = (z - beta*U)/alpha, so Y's squared increment is (beta/alpha)^2
    times U's, and Y is formed once, from the accepted U. A step started
    from U^k thus measures its first increment against Y(U^k), not against
    the stored Y^k, which satisfies the previous step's memory relation.

    Newton starts from predicted_start(hist) where that gives a start
    (from level 3 on, while the extrapolation keeps predicting well); every
    other iteration starts from U^k. If the iteration from a predicted
    start stalls, it restarts once from U^k instead of relaxing, with
    omega = 1 and the stall check's grace counted from the restart; the
    abandoned iterations count toward max_iter, and the diagnostics record
    the first iteration after the restart.

    Large time steps can drive the plain iteration into an oscillating
    mode (update eigenvalue mu near -sqrt(rho), rho the ratio of squared
    increments). Whenever an increment does not contract (rho >= 0.98),
    later updates u + omega*(u_next - u) take omega /= 1 + sqrt(rho): the
    relaxed map sends that mode to 1 - omega + omega*mu = 0 (omega = 1/2 on
    a -1 cycle), compounding if a relaxed iteration stalls again. The fixed
    point is untouched, and tol bounds the plain map's increments (u_next - u
    before relaxing) whatever omega is; the ratios are those of the steps
    taken. The diagnostics record the first relaxed iteration. An iterate
    that overflows ends the step as divergence, without numpy warnings: the
    step runs under np.errstate.
    """
    k = hist.k
    delta = cfg.delta
    hist.set_half_load(k, asm.load((k + 0.5) * delta))
    mass = asm.mass
    block = BlockSystem(memory_equation(hist, kernel, mass, cfg.quadrature_mode,
                                        sums),
                        asm.mass_factor, delta)
    # dY = -(beta/alpha) dU between any two iterates
    y_gain = (block.mem.beta / block.mem.alpha) ** 2
    u_prev, y_prev = hist.u[k], hist.y[k]
    # the U-block's right-hand side, less its diffusion term
    rhs_step = (mass.matvec(2.0 * u_prev + delta * y_prev)
                + 2.0 * delta * hist.loads[k + 1] + block.rhs_share)
    mass_coef = 2.0 + block.shift
    linear = asm.params.p == 2.0      # diffusion matrix independent of the state
    implicit = cfg.scheme != "B"      # for p = 2, Newton is scheme A
    newton = cfg.scheme == "N" and not linear
    # with eps = 0, K_T = (p-1)*A, so K_T U - A (U + U^k) = A ((p-2) U - U^k)
    one_product = asm.params.epsilon == 0.0
    # scheme B never puts the diffusion matrix on the left
    constant = not implicit or linear
    if constant:
        factor = asm.system_factor(mass_coef, delta if implicit else 0.0)
    else:
        shifted_mass = mass_coef * mass
    # a_mid is A at the iterate's midpoint; lhs_stiff the stiffness matrix
    # of the solved system: A, or its Jacobian K_T for Newton
    if linear:
        a_mid = lhs_stiff = asm.stiffness

    start = predicted_start(hist) if newton else None
    u_it = fixed_point_init(hist) if start is None else start
    ratios = []
    prev_total = None
    relaxed = restarted = begun = 0     # begun: iterations before this start
    omega = 1.0
    overflow = None
    for iteration in range(1, cfg.max_iter + 1):
        if newton:
            a_mid, lhs_stiff = asm.plap(0.5 * (u_it + u_prev), tangent=True)
            if one_product:
                rhs = rhs_step + delta * a_mid.matvec((asm.params.p - 2.0) * u_it - u_prev)
            else:
                rhs = rhs_step + delta * (lhs_stiff.matvec(u_it)
                                          - a_mid.matvec(u_it + u_prev))
        else:
            if not linear:
                a_mid = lhs_stiff = asm.plap(0.5 * (u_it + u_prev))
            if iteration == 1 or not (linear and implicit):  # else rhs is unchanged
                rhs = rhs_step - delta * a_mid.matvec(u_prev if implicit else u_it + u_prev)
        try:
            u_next = (factor if constant else shifted_mass + delta * lhs_stiff).solve(rhs)
        except LinearSolveError as exc:
            # divergence only if an iterate grew until the system overflowed
            if (iteration == 1 or np.isfinite(rhs).all()
                    and np.isfinite(lhs_stiff.data).all()):
                raise
            overflow = exc
            break
        du = u_next - u_it      # the plain map's increment, compared with tol
        inc_u = float(du @ mass.matvec(du))
        inc_y = y_gain * inc_u
        total = omega * omega * (inc_u + inc_y)     # those of the steps taken
        if not np.isfinite(total):
            break
        if prev_total is not None and prev_total > 0.0:
            ratios.append(total / prev_total)
        prev_total = total
        u_it = u_it + omega * du if relaxed else u_next
        if inc_u < cfg.tol and inc_y < cfg.tol:
            y_new = block.memory_state(u_it)
            hist.append(u_it, y_new)
            return u_it, y_new, StepDiagnostics(iterations=iteration,
                                                increment_u=inc_u,
                                                increment_y=inc_y,
                                                ratios=tuple(ratios),
                                                relaxed=relaxed,
                                                restarted=restarted)
        if iteration - begun >= _STALL_GRACE and ratios[-1] >= _STALL_RATIO:
            if start is not None:       # restart once, from the previous level
                start = None
                u_it = fixed_point_init(hist)
                omega, prev_total = 1.0, None
                begun, restarted = iteration, iteration + 1
            else:
                omega /= 1.0 + np.sqrt(ratios[-1])
                relaxed = relaxed or iteration + 1
    raise FixedPointDivergenceError(step=k, iterations=iteration,
                                    last_ratio=ratios[-1] if ratios else np.inf,
                                    increment_u=inc_u, increment_y=inc_y) from overflow


def march(problem: "analysis.ProblemSpec", mesh: Mesh1D,
          cfg: SolverConfig) -> "analysis.RunOutput":
    """Run the full time loop and collect the diagnostic series.

    Deterministic: identical inputs produce bitwise-identical histories.
    """
    if mesh.n_interior < 1:
        raise ConfigError("m", "mesh has no interior degrees of freedom; "
                          "increase m or r")
    if problem.p != cfg.p:
        raise ConfigError("p", f"solver exponent {cfg.p} does not match the "
                          f"problem's {problem.p}")
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

    sums = ExponentialSums()
    diagnostics = []
    for _ in range(cfg.n_steps):
        _, _, diag = cn_step(hist, problem.kernel, cfg, asm, sums)
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
