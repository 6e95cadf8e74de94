"""Crank-Nicolson time marching: one iteration for Newton's method and the
paper's two fixed-point linearizations.

Each step solves the coupled pair

    (2M + delta*A_mid) U^{k+1} - delta*M Y^{k+1} = (2M - delta*A_mid) U^k
                                                   + delta*M Y^k + 2*delta*L
    alpha*Y^{k+1} + beta*U^{k+1} = z = s - M^{-1}F   (memory relation)

with A_mid the gradient-weighted stiffness matrix at the midpoint state
and L the load at t_{k+1/2}. With Y = (z - beta*U)/alpha eliminated, a step
solves G(U) = c*M U + delta*A(w)(U + U^k) - b = 0 on U alone, with
w = (U + U^k)/2 and c = 2 + delta*beta/alpha, and every scheme iterates

    (c*M + delta*slope*A(w)) U_next = b + delta*A(w)((slope - 1) U - U^k)

    scheme "A"  slope 1      the new iterate inside the diffusion term
    scheme "B"  slope 0      the diffusion term at the previous iterate
    scheme "N"  slope p - 1  Newton: its Jacobian K_T(w) is (p-1)*A(w) at eps = 0

Newton with eps > 0 alone assembles K_T(w) and solves with c*M + delta*K_T,
right-hand side b + delta*(K_T U - A(w)(U + U^k)). All three share the
same fixed point, and Y is formed once, from the accepted U.

An Assembler only assembles, for one (mesh, quadrature, flux, f): its
one cache is M, and its load is that of f itself at any t. Per run, a
StepPlan forms every constant the steps share: M's factor, A(0) when
p = 2, alpha, beta, the slope and the scheme's flags, c*M, the factored
system where it cannot change (p = 2, slope 0), and the memory block of
the kernel lam*exp(-s) (see memory), with M^{-1}L_0 and, for a
SeparableForcing (the plan alone tells one from any other f), its profile
loads in one mass solve, and its time coefficients at every half-step
time; the block tabulates its coefficient matrices 64 steps at a time.
Per step: one small dense product of that block, with the step's matrix
from its table, into the block's spare buffer, where Y is then formed by
three in-place elementwise operations and U copied, allocating nothing;
one banded product, M*v; one mass solve for a forcing that is not a
SeparableForcing. Per iteration: one p-Laplacian assembly (two bands for
Newton with eps > 0, none for p = 2), one product for the right-hand
side (two for Newton with eps > 0) and one banded solve (one LAPACK
driver call on the assembled band, or a solve with the run's factor),
and one product for U's squared M-norm increment, which one ddot call
reduces.
A product is one dsbmv call that takes its scale and the vector it adds
onto, so the right-hand side M*v + delta*A(w)(...) is formed inside the
call. For p = 2 with slope 1 the first solve is the step's exact
solution, so the later iterations form no right-hand side, solve nothing
and take no product: their increment is exactly 0. Such a step, done in
two iterations, makes three products: M*v and the first iteration's two.
Newton's predicted start keeps its extrapolation in the plan for the next
step's guard, whose two max-norms are one idamax call each, and march
builds its plan and runs every step under one np.errstate that lets a
system or an iterate overflow silently into the tests that report it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import analysis
from .assembly import (ElementTables, FluxParams, SeparableForcing,
                       assemble_load, assemble_mass, assemble_plap, interpolate)
from .banded import BandedSymMatrix, all_finite, ddot, max_norm
from .errors import ConfigError, FixedPointDivergenceError, LinearSolveError
from .memory import (KernelSpec, MemoryBlock, StateHistory, check_mode,
                     memory_residual)
from .mesh import (MAX_QUAD_POINTS, Mesh1D, QuadratureRule, count, default_quad_points,
                   finite_real, gauss_legendre)

SCHEMES = ("auto", "A", "B", "N")


def resolve_scheme(p: float, requested: str) -> str:
    """The scheme a march runs for a request: "auto" takes Newton ("N") for
    p > 2 and implicit diffusion ("A") for p <= 2; an explicit "A" is refused
    on 2 < p < 3. The exponent itself is FluxParams' to check.

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
    if requested not in SCHEMES:
        raise ConfigError("scheme", f"must be one of {SCHEMES}, got {requested!r}")
    if requested == "auto":
        return "N" if p > 2.0 else "A"
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
        finite_real("p", self.p)
        if not finite_real("delta", self.delta) > 0.0:
            raise ConfigError("delta", f"time step must be positive, got {self.delta}")
        self.n_steps = count("N", self.n_steps, 1)
        if not finite_real("tol", self.tol) > 0.0:
            raise ConfigError("tol", f"must be positive, got {self.tol}")
        self.max_iter = count("max_iter", self.max_iter, 2)
        if self.quad_points is not None:
            self.quad_points = count("quadrature_points", self.quad_points, 1, MAX_QUAD_POINTS)
        check_mode(self.quadrature_mode)
        self.scheme = resolve_scheme(self.p, self.scheme)
        self._flux = FluxParams(p=self.p, epsilon=self.epsilon)
        self.epsilon = self._flux.epsilon

    def flux_params(self) -> FluxParams:
        return self._flux


class StepDiagnostics(NamedTuple):
    """Per-step record of the fixed-point iteration; immutable (a named
    tuple, the cheapest record to build once per step)."""

    iterations: int
    increment_u: float          # final squared M-norm increment, unrelaxed
    increment_y: float          # (beta/alpha)^2 * increment_u
    ratios: tuple = ()
    relaxed: int = 0            # first iteration with a relaxed update; 0: none
    restarted: int = 0          # first iteration after an abandoned predicted
                                # start, run from the previous level; 0: none


class Assembler:
    """The assembler of one (mesh, quadrature, flux, f): basis tables, the
    mass matrix (its one cache, which the march, its output and the oracle
    all read), the p-Laplacian at a state and the load of f itself at t,
    assembled anew at every call whatever f is. The run's constants built
    from these are the StepPlan's."""

    def __init__(self, mesh: Mesh1D, quad: QuadratureRule,
                 params: FluxParams, load_fn):
        self.mesh = mesh
        self.quad = quad
        self.params = params
        self.load_fn = load_fn
        self.tables = ElementTables(mesh, quad)

    @cached_property
    def mass(self) -> BandedSymMatrix:
        return assemble_mass(self.mesh, self.quad, tables=self.tables)

    def plap(self, state: np.ndarray, tangent: bool = False):
        return assemble_plap(self.mesh, state, self.params, self.quad,
                             tables=self.tables, tangent=tangent)

    def load(self, t: float) -> np.ndarray:
        """Interior load vector of f(., t)."""
        return assemble_load(self.mesh, self.load_fn, t, self.quad, tables=self.tables)


class StepPlan:
    """What every step of a march shares, set up once at level 0 of the
    history it advances: the run's constants, which the Assembler does not
    keep. mass_factor is M's factor and stiffness A(0), the diffusion
    matrix at every state when p = 2 (else None); alpha, beta, the slope
    and the scheme's flags; system = c*M, plus delta*slope*A(0) and
    factored where it cannot change (p = 2, slope 0; else factor is None).
    The plan alone tells a SeparableForcing from any other f: for one,
    loads holds L_0 = coefficients(0) @ profiles and below it the profile
    loads, each integrated once, and coefficients its time coefficients at
    t_{k+1/2} = (k + 1/2)*delta, row k for step k; for any other f, loads
    is L_0 alone and coefficients None. block is the MemoryBlock of
    g = kernel.lam*exp(-s), with the loads solved with M into it;
    prediction, the last P_k that predicted_start formed (None until
    then)."""

    def __init__(self, hist: StateHistory, kernel: KernelSpec, cfg: SolverConfig,
                 asm: Assembler):
        if hist.k:
            raise ValueError(f"a step plan starts at level 0, not {hist.k}")
        self.hist, self.cfg, self.asm = hist, cfg, asm
        delta, p, forcing, n = cfg.delta, asm.params.p, asm.load_fn, asm.mesh.n_interior
        self.mass_factor = asm.mass.factor()
        if isinstance(forcing, SeparableForcing):
            # t = 0 first, so that an f bad there is named at t = 0
            first = forcing.coefficients(0.0)
            profiles = np.array([assemble_load(asm.mesh, lambda x, _: space(x), 0.0,
                                               asm.quad, tables=asm.tables)
                                 for space, _ in forcing.terms]).reshape(-1, n)
            self.coefficients = forcing.coefficients((np.arange(hist.n_steps) + 0.5) * delta)
            self.loads = np.vstack((first @ profiles, profiles))
        else:
            self.coefficients, self.loads = None, asm.load(0.0)[None]
        # M^{-1} of every row in one solve; for f = 0, M^{-1}L_0 = L_0 = 0
        loads = (self.mass_factor.solve(self.loads.T).T
                 if self.coefficients is None or forcing.terms else self.loads)
        self.block = block = MemoryBlock(
            kernel.lam, delta, cfg.quadrature_mode, hist.u[0], hist.y[0],
            np.ones((hist.n_steps, 1)) if self.coefficients is None else self.coefficients,
            loads)
        self.alpha, self.beta = block.alpha, block.beta
        self.y_gain = (self.beta / self.alpha) ** 2   # dY = -(beta/alpha) dU
        self.linear = p == 2.0      # diffusion matrix independent of the state
        self.stiffness = asm.plap(np.zeros(n)) if self.linear else None
        self.slope = {"A": 1.0, "B": 0.0, "N": p - 1.0}[cfg.scheme]
        # the map U -> U_next does not depend on U: one solve is the step
        self.one_solve = self.linear and self.slope == 1.0
        self.predict = cfg.scheme == "N" and not self.linear
        # only Newton with eps > 0 solves with a band other than slope*A(w): K_T
        self.tangent = self.predict and asm.params.epsilon != 0.0
        self.stiff_coef = delta if self.tangent else delta * self.slope
        data = (2.0 + delta * self.beta / self.alpha) * asm.mass.data
        constant = self.linear or self.slope == 0.0
        if constant and self.slope != 0.0:
            data = data + self.stiff_coef * self.stiffness.data
        self.system = BandedSymMatrix(data)
        try:
            self.factor = self.system.factor() if constant else None
        except LinearSolveError as exc:     # the system of every step, from step 0
            raise type(exc)(f"step 0: {exc}") from exc
        self.prediction = None


def step_relation(plan: StepPlan):
    """(z, v) of step plan.hist.k: alpha*Y^{k+1} + beta*U^{k+1} = z is the
    memory relation, and M*v the U-block's right-hand side less its diffusion
    term, both from the plan's MemoryBlock. A SeparableForcing's load is
    row k of the plan's coefficients times its solved profiles; any other
    f's load L_{k+1/2} is assembled and solved, with the plan's mass
    factor, into the block.
    """
    if plan.coefficients is None:
        plan.block.rows[6] = plan.mass_factor.solve(
            plan.asm.load((plan.hist.k + 0.5) * plan.cfg.delta))
    return plan.block.relation()


def predicted_start(plan: StepPlan) -> Optional[np.ndarray]:
    """The next level extrapolated from the last three, P_k = 3(U_k - U_{k-1})
    + U_{k-2} (O(delta^3) from U_{k+1} on a smooth trajectory), or None.

    From level 2 on, P_k is kept as plan.prediction, the next call's guard.
    None before level 3, and wherever P_{k-1} missed U_k by no less, in
    max-norm, than U_{k-1} did: there the trajectory is not smooth on the
    scale of a step, and U_k is the safer start. Both max-norms are one
    idamax call each (banded.max_norm), exact, so the decision is the one
    np.abs(...).max() gives: the levels are finite, and a prediction that
    overflowed leaves an infinite miss, never a NaN.
    """
    k, u = plan.hist.k, plan.hist.u
    if k < 2:
        return None
    stepped = u[k] - u[k - 1]
    previous, plan.prediction = plan.prediction, 3.0 * stepped + u[k - 2]
    if k == 2 or max_norm(u[k] - previous) >= max_norm(stepped):
        return None
    return plan.prediction


#: The first iteration with an increment ratio, where the stall check starts.
_STALL_GRACE = 2
#: A ratio this close to 1 (or above) means the iteration is cycling or
#: expanding; the update is then relaxed (again).
_STALL_RATIO = 0.98


def cn_step(plan: StepPlan):
    """Advance plan.hist one level; returns (U, Y, StepDiagnostics). The
    scheme iterates on U until both squared M-norm increments drop below
    tol; Y's is (beta/alpha)^2 times U's.

    Newton starts from predicted_start(plan) where that gives a start and
    restarts once from U^k (omega = 1, stall grace counted anew) if the
    iteration from it stalls; every other iteration starts from U^k. From
    iteration _STALL_GRACE on, an increment ratio >= _STALL_RATIO relaxes
    the later updates, u + omega*(u_next - u) with omega /= 1 + sqrt(ratio);
    tol bounds the plain map's increment whatever omega is, and the step
    accepts that map's iterate u_next, relaxed or not. Where the map
    does not depend on the iterate (plan.one_solve: p = 2, slope 1), the
    later iterations keep the first one's u_next: no right-hand side, no
    solve, and an increment of exactly 0 recorded without its product, as
    u_next - u_next would give it. Banded products: one per step for the
    right-hand side, and in each iteration that solves, one for the
    right-hand side (two for Newton with eps > 0) and one for the
    increment, du . M du by one ddot call (bitwise the du @ M du of numpy's
    BLAS on the benchmark's workloads); each right-hand side product adds
    onto rhs_step (or onto the other product) inside its dsbmv call. An iterate that overflows ends
    the step with FixedPointDivergenceError; a failed solve, or an accepted
    U whose Y is not finite, with a LinearSolveError naming the step and
    the iteration. march silences numpy's overflow and invalid warnings for
    its steps; a caller that drives cn_step itself enters that np.errstate
    too, or sees the warnings of an overflowing iterate. The returned U and
    Y are the history's new level, not the memory block's buffers.
    """
    hist, cfg, asm, factor, slope = plan.hist, plan.cfg, plan.asm, plan.factor, plan.slope
    k, delta = hist.k, cfg.delta
    v = step_relation(plan)[1]      # z stays in the block, for its next_y
    mass, u_prev = asm.mass, hist.u[k]
    rhs_step = mass.matvec(v)       # the U-block's right-hand side, less A's term
    # a_mid is A at the iterate's midpoint; lhs_stiff the stiffness band of
    # the solved system: A, or Newton's K_T with eps > 0
    if plan.linear:
        a_mid = lhs_stiff = plan.stiffness

    start = predicted_start(plan) if plan.predict else None
    u_it = u_prev if start is None else start
    ratios = []
    prev_total = None
    relaxed = restarted = begun = 0     # begun: iterations before this start
    omega = 1.0
    overflow = None
    for iteration in range(1, cfg.max_iter + 1):
        if iteration == 1 or not plan.one_solve:    # else u_next is the same
            # rhs = rhs_step + delta*(...), each product adding onto the last
            if plan.tangent:
                a_mid, lhs_stiff = asm.plap(0.5 * (u_it + u_prev), tangent=True)
                rhs = a_mid.matvec(u_it + u_prev, -delta,
                                   lhs_stiff.matvec(u_it, delta, rhs_step))
            else:
                if not plan.linear:
                    a_mid = lhs_stiff = asm.plap(0.5 * (u_it + u_prev))
                if slope == 1.0:        # (slope - 1) U - U^k is exactly -U^k
                    rhs = a_mid.matvec(u_prev, -delta, rhs_step)
                else:
                    rhs = a_mid.matvec((slope - 1.0) * u_it - u_prev, delta, rhs_step)
            try:
                if factor is not None:
                    u_next = factor.solve(rhs)
                else:       # the system, in the band this iteration assembled,
                            # solved once: one driver call
                    lhs_stiff.data *= plan.stiff_coef
                    lhs_stiff.data += plan.system.data
                    u_next = lhs_stiff.solve(rhs)
            except LinearSolveError as exc:
                # divergence only if an iterate grew until the system overflowed
                if (iteration == 1 or all_finite(rhs)
                        and all_finite(lhs_stiff.data)):
                    raise type(exc)(f"step {k}, iteration {iteration}: {exc}") from exc
                overflow = exc
                break
            du = u_next - u_it      # the plain map's increment, compared with tol
            inc_u = ddot(du, mass.matvec(du))
        else:       # u_it is the first iteration's u_next
            inc_u = 0.0
        inc_y = plan.y_gain * inc_u
        total = omega * omega * (inc_u + inc_y)     # those of the steps taken
        if not math.isfinite(total):
            break
        if prev_total is not None and prev_total > 0.0:
            ratios.append(total / prev_total)
        prev_total = total
        if inc_u < cfg.tol and inc_y < cfg.tol:     # accept the iterate tol measured
            y_new = plan.block.next_y(u_next)
            if not all_finite(y_new):
                raise LinearSolveError(f"step {k}, iteration {iteration}: the memory "
                                       "relation gives a non-finite Y")
            hist.append(u_next, y_new)
            plan.block.accept(u_next)
            return u_next, hist.y[k + 1], StepDiagnostics(iteration, inc_u, inc_y,
                                                          tuple(ratios), relaxed, restarted)
        u_it = u_it + omega * du if relaxed else u_next
        if iteration - begun >= _STALL_GRACE and ratios[-1] >= _STALL_RATIO:
            if start is not None:       # restart once, from the previous level
                start = None
                u_it = u_prev
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

    The step plan and the steps run under np.errstate(over="ignore",
    invalid="ignore"): an inf or NaN system (a LinearSolveError naming step
    0) or iterate (a divergence cn_step reports) is an error, not a
    warning. Deterministic: identical inputs produce bitwise-identical
    histories.
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
    hist.set_initial(interpolate(mesh, problem.u0))

    with np.errstate(over="ignore", invalid="ignore"):
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        diagnostics = [cn_step(plan)[2] for _ in range(cfg.n_steps)]
    return analysis.build_run_output(problem, mesh, asm, hist, diagnostics)


def assembled_loads(asm: Assembler, k: int, delta: float) -> np.ndarray:
    """L_0, L_{1/2}, .., L_{k+1/2} as rows, each assembled anew from f(x, t)
    by asm.load, a SeparableForcing's too, not from the plan's split of it:
    the loads the direct sums of steps up to k read, which a march does not
    store."""
    return np.array([asm.load(t) for t in [0.0] + [(j + 0.5) * delta for j in range(k + 1)]])


def step_residuals(hist: StateHistory, k: int, kernel: KernelSpec,
                   cfg: SolverConfig, asm: Assembler):
    """Galerkin residual vectors of the two weak equations across step k.

    Evaluates the averaged (non-rearranged) forms with the stored pair and
    the loads of assembled_loads (a march stores none), so any sign or
    bookkeeping slip in the step solver, its loads and a SeparableForcing's
    split of them included, shows up here.
    """
    if k >= hist.k:
        raise ValueError(f"step {k} not completed yet (history at {hist.k})")
    delta = hist.delta
    loads = assembled_loads(asm, k, delta)
    mass = asm.mass
    u_new, u_old = hist.u[k + 1], hist.u[k]
    y_new, y_old = hist.y[k + 1], hist.y[k]
    u_mid = 0.5 * (u_new + u_old)
    a_mid = asm.plap(u_mid)
    res_evolution = (mass.matvec((u_new - u_old) / delta)
                     + a_mid.matvec(u_mid)
                     - mass.matvec(0.5 * (y_new + y_old))
                     - loads[k + 1])
    res_memory = memory_residual(hist, k, loads, kernel, mass, cfg.quadrature_mode)
    return res_evolution, res_memory
