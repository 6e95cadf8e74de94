"""Error norms, convergence orders, energy/support diagnostics, and the
manufactured verification problem.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from .assembly import SeparableForcing, _sample, assemble_mass
from .errors import ConfigError
from .memory import KernelSpec, StateHistory
from .mesh import Mesh1D, default_quad_points, eval_on_elements, gauss_legendre, is_real


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem: domain, horizon, exponent, kernel and data.

    u0 maps x -> value; f maps (x, t) -> value and must accept numpy
    arrays in x. An f declared as a SeparableForcing has its load vector
    assembled once per run instead of once per step. exact_u / exact_y,
    when given, enable error tables.
    """

    a: float
    b: float
    horizon: float
    p: float
    kernel: KernelSpec
    u0: Callable
    f: Callable
    exact_u: Optional[Callable] = None
    exact_y: Optional[Callable] = None

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b), ("T", self.horizon), ("p", self.p)):
            if not is_real(value):
                raise ConfigError(name, f"expected a real number, got {value!r}")
        if not 0.0 < self.horizon < np.inf:
            raise ConfigError("T", f"horizon must be positive and finite, got {self.horizon}")
        if not self.p > 1.0:
            raise ConfigError("p", f"exponent must satisfy p > 1, got {self.p}")
        if not self.b > self.a:
            raise ConfigError("domain", f"need b > a, got [{self.a}, {self.b}]")


@dataclass
class RunOutput:
    """Everything one march produced.

    The u/y arrays hold the interior coefficient vectors for every time
    level (shape (N+1, n_interior)); support entries are (left, right)
    node coordinates of the around-zero dead zone or None once it closes.
    errors holds the finite L2 errors at T of the fields with an exact
    solution; skipped_errors names each such field whose error was not
    computed, with the reason.
    """

    mesh: Mesh1D
    times: np.ndarray
    u: np.ndarray
    y: np.ndarray
    energies: np.ndarray
    support: List[Optional[Tuple[float, float]]]
    diagnostics: list
    problem: Optional[ProblemSpec] = None
    errors: Optional[dict] = None
    support_threshold: float = 0.0
    skipped_errors: dict = field(default_factory=dict)


def l2_error(mesh: Mesh1D, coeffs: np.ndarray, exact: Callable) -> float:
    """L2 norm of (u_h - exact) by per-element (r + 3)-point Gauss quadrature.

    An exact solution that is not finite at a quadrature point, where the
    rule cannot measure the error, is a ConfigError on `exact` naming the
    first such point.
    """
    quad = gauss_legendre(mesh.r + 3)
    x, vals = eval_on_elements(mesh, coeffs, quad.points)
    diff = vals - _sample(exact, x, "exact",
                          "non-finite values at x={x}, {count} quadrature points")
    total = mesh.h * float(np.einsum("q,mq->", quad.weights, diff * diff))
    return float(np.sqrt(total))


def energy(mesh: Mesh1D, coeffs: np.ndarray) -> float:
    """Squared L2 norm of the finite-element function, U^T M U, with the
    mass matrix of the default quadrature (mass_norm takes a caller's)."""
    coeffs = np.asarray(coeffs, dtype=float)
    mass = assemble_mass(mesh, gauss_legendre(default_quad_points(mesh.r)))
    return float(coeffs @ mass.matvec(coeffs))


def mass_norm(coeffs: np.ndarray, mass) -> float:
    """Discrete L2 norm sqrt(v^T M v)."""
    coeffs = np.asarray(coeffs, dtype=float)
    return float(np.sqrt(coeffs @ mass.matvec(coeffs)))


def _refinement(errors, steps):
    """errors and steps as float arrays, or a ValueError: they must be
    1-D lists of one length >= 2 of positive finite values, the steps
    strictly decreasing."""
    errors = np.asarray(errors, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if errors.ndim != 1 or errors.shape != steps.shape or len(errors) < 2:
        raise ValueError("need matching error/step lists of length >= 2")
    for name, values in (("errors", errors), ("steps", steps)):
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError(f"{name} must be strictly positive and finite")
    if np.any(np.diff(steps) >= 0.0):
        raise ValueError("steps must be strictly decreasing")
    return errors, steps


def convergence_orders(errors, steps) -> np.ndarray:
    """Pairwise observed orders log(e_i/e_{i+1}) / log(s_i/s_{i+1})."""
    errors, steps = _refinement(errors, steps)
    return np.log(errors[:-1] / errors[1:]) / np.log(steps[:-1] / steps[1:])


def fit_order(errors, steps) -> float:
    """Least-squares slope of log(error) against log(step); the same
    inputs as convergence_orders."""
    errors, steps = _refinement(errors, steps)
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


def support_gap(mesh: Mesh1D, coeffs: np.ndarray, eta: float):
    """Contiguous run of below-threshold nodes around x = 0.

    Returns the (left, right) coordinates of the extreme nodes of the run,
    or None when the node nearest zero already carries |u| >= eta. Reported
    at node resolution only.
    """
    return support_series(mesh, np.asarray(coeffs, dtype=float)[None], eta)[0]


def support_series(mesh: Mesh1D, levels: np.ndarray, eta: float) -> list:
    """support_gap of every row of a block of coefficient vectors, interior
    or full length, in one pass."""
    if not eta > 0.0:
        raise ValueError(f"threshold must be positive, got {eta}")
    levels = np.asarray(levels, dtype=float)
    n = mesh.n_nodes
    first = {n: 1, mesh.n_interior: 2}.get(levels.shape[-1])
    if first is None:
        raise ValueError(f"coefficient vectors of length {levels.shape[-1]} do not "
                         f"match a mesh with {n} nodes / {mesh.n_interior} interior dofs")
    # column 1 + j marks node j below eta, between two stop columns that are
    # not; the zero boundary values are below every eta > 0
    below = np.zeros((len(levels), n + 2), dtype=bool)
    below[:, [1, n]] = True
    # |u| < eta as u < eta and u > -eta, in bool arrays alone (NaN is neither)
    inner = np.less(levels, eta, out=below[:, first:n + 2 - first])
    inner &= levels > -eta
    center = int(np.argmin(np.abs(mesh.nodes)))
    # length of the below-threshold run from the centre outwards on each
    # side, the centre included: argmin finds the first node at or above eta
    left = np.argmin(below[:, center + 1::-1], axis=1)
    right = np.argmin(below[:, center + 1:], axis=1)
    found = left > 0
    gaps = zip(mesh.nodes[center + 1 - left[found]].tolist(),
               mesh.nodes[center - 1 + right[found]].tolist())
    return [next(gaps) if n_left else None for n_left in left.tolist()]


def default_support_threshold(u0_coeffs: np.ndarray) -> float:
    """1e-6 times the largest nodal magnitude of the initial datum."""
    return 1e-6 * float(np.max(np.abs(u0_coeffs)))


def extrema_series(run: RunOutput) -> np.ndarray:
    """(N+1, 2) array of per-step nodal (min, max) of u."""
    lo = run.u.min(axis=1)
    hi = run.u.max(axis=1)
    return np.column_stack([lo, hi])


def waiting_time(run: RunOutput) -> Optional[float]:
    """First time either dead-zone endpoint leaves its initial node.

    "Leaves" means a move of more than one node spacing; the value carries
    an implicit +- delta uncertainty. None when the boundary never moves
    (or there is no dead zone at t = 0).
    """
    if not run.support or run.support[0] is None:
        return None
    # slack absorbs roundoff so an exactly-one-node move does not count
    spacing = (run.mesh.h / run.mesh.r) * (1 + 1e-9)
    left0, right0 = run.support[0]
    for k, gap in enumerate(run.support):
        if gap is None:
            return float(run.times[k])
        if abs(gap[0] - left0) > spacing or abs(gap[1] - right0) > spacing:
            return float(run.times[k])
    return None


#: build_run_output takes the support series in blocks of about this many
#: bytes of bools, one per node and level, with a second such array as the
#: temporary of the threshold test. The blocks add to the run's peak RSS:
#: on a 2001-level, 257-node run (8 blocks), build_run_output peaks at 0.25
#: MB of allocations at this size and at 0.60 MB at four times it; a
#: 1201-level, 41-node run is one block, and peaks at 0.13 MB.
_BLOCK_BYTES = 64 * 1024


def build_run_output(problem: ProblemSpec, mesh: Mesh1D, asm, hist: StateHistory,
                     diagnostics: list) -> RunOutput:
    """Assemble the output record from a completed history.

    The energies U^T M U of all levels are one band quadratic form, a
    row-wise sum per diagonal of the mass band with no mass product; the
    support series is one pass per block of levels.
    """
    data, u = asm.mass.data, hist.u
    n = u.shape[1]
    # M_ii u_i^2 + 2 M_i,i+d u_i u_i+d summed per level: einsum's
    # three-operand loop forms no (levels, n) temporary
    energies = np.einsum("ij,j,ij->i", u, data[0], u)
    for d in range(1, min(len(data), n)):
        energies += 2.0 * np.einsum("ij,j,ij->i", u[:, :n - d], data[d, :n - d], u[:, d:])
    eta = default_support_threshold(u[0])
    support = []
    block = max(1, _BLOCK_BYTES // mesh.n_nodes)
    for lo in range(0, len(u), block):
        levels = u[lo:lo + block]
        support += (support_series(mesh, levels, eta) if eta > 0.0
                    else [None] * len(levels))
    errors, skipped = None, {}
    if problem.exact_u is not None:
        errors = {}
        for name, exact, coeffs in (("u", problem.exact_u, hist.u[-1]),
                                    ("y", problem.exact_y, hist.y[-1])):
            if exact is None:
                continue
            try:
                errors[name] = l2_error(mesh, coeffs,
                                        lambda x: exact(x, problem.horizon))
            except ConfigError as exc:
                skipped[name] = str(exc)
    return RunOutput(mesh=mesh, times=hist.times, u=hist.u, y=hist.y,
                     energies=energies, support=support,
                     diagnostics=list(diagnostics), problem=problem,
                     errors=errors, support_threshold=eta, skipped_errors=skipped)


# ---------------------------------------------------------------------------
# manufactured verification problem
# ---------------------------------------------------------------------------

def _bump(x):
    return (x * (1.0 - x)) ** 2


def _bump_dx(x):
    return 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


def _bump_dxx(x):
    return 2.0 - 12.0 * x + 12.0 * x * x


def plap_of_bump(x, p: float):
    """div(|w'|^(p-2) w') for w = (x(1-x))^2: (p-1)|w'|^(p-2) w''.

    The absolute value keeps fractional powers real; at the interior zeros
    of w' the factor vanishes for p > 2.
    """
    x = np.asarray(x, dtype=float)
    return (p - 1.0) * np.abs(_bump_dx(x)) ** (p - 2.0) * _bump_dxx(x)


def _memory_growth(t, p: float):
    """(e^{(2-p)t} - 1) / (2 - p), continuously extended to t at p = 2."""
    t = np.asarray(t, dtype=float)
    if p == 2.0:
        return t
    return np.expm1((2.0 - p) * t) / (2.0 - p)


def manufactured_example1(p: float, lam: float, horizon: float = 0.1) -> ProblemSpec:
    """Verification problem on (0, 1) with a known smooth solution.

    u(x,t) = (x(1-x))^2 e^{-t} with the exponential kernel lam*e^{-s}; the
    forcing is chosen so that u solves the full equation, and the memory
    term has the closed form lam * psi(x) * e^{-t} * (e^{(2-p)t}-1)/(2-p)
    with psi = div(|u0'|^{p-2} u0') of the spatial profile.

    psi has |u0'|^(p-2), so for p <= 1.5 and lam != 0 y is not
    square-integrable (its square goes as |x - 1/2|^(2p-4)), and its L2
    error is infinite: exact_y then raises a ConfigError on `exact` saying
    so, which a run lists in skipped_errors instead of a quadrature's
    finite value.
    """

    def exact_u(x, t):
        return _bump(np.asarray(x, dtype=float)) * np.exp(-t)

    def exact_y(x, t):
        if p <= 1.5 and lam != 0.0:
            raise ConfigError("exact", f"y is not square-integrable at p = {p} <= 1.5, "
                              "its square going as |x - 1/2|^(2p-4): the L2 error "
                              "is infinite")
        psi = plap_of_bump(x, p)
        return lam * psi * np.exp(-t) * _memory_growth(t, p)

    # f = u_t - div(|u_x|^(p-2) u_x) - y, with both spatial factors fixed
    forcing = SeparableForcing((
        (_bump, lambda t: -np.exp(-t)),
        (partial(plap_of_bump, p=p),
         lambda t: -np.exp(-(p - 1.0) * t) - lam * np.exp(-t) * _memory_growth(t, p)),
    ))
    return ProblemSpec(a=0.0, b=1.0, horizon=horizon, p=p,
                       kernel=KernelSpec(lam),
                       u0=_bump, f=forcing,
                       exact_u=exact_u, exact_y=exact_y)
