"""The benchmark's workloads: problem sizes, the seeded λ draw and the oracle bounds.

Nothing here imports plapmem or numpy at module level: a child process
imports this file before it starts its set-up clock, and set-up time must
include the package import.
"""

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str            # "manufactured" (exact solution known) or "dome"
    p: float
    lam: float              # nominal kernel amplitude
    lam_spread: float       # the seed draws λ uniformly from lam * (1 ± lam_spread)
    m: int
    r: int
    delta: float
    n_steps: int
    tol: float
    # Oracle bounds on the L2 errors at T (manufactured workloads only).
    max_err_u: Optional[float] = None
    max_err_y: Optional[float] = None

    @property
    def horizon(self) -> float:
        return self.delta * self.n_steps


# Sizes keep the named layer dominant (README.md has the measured shares).
# The oracle bounds were set on the seed code over each λ range and checked
# against deliberately broken copies (README.md, "Oracle").
#
# history_long: p = 2, so the matrix is constant and every step takes exactly
#   two iterations; the O(k) history sums in memory_equation dominate and grow
#   with the step index. The seed gives err_u = 1.04e-6 (set by the mesh) and
#   err_y = 0.0154-0.0157 over the λ range. The u bound adds sqrt(tol) = 1e-6,
#   the change a converged iterate may make; the y bound adds 5 %.
# fine_mesh: p = 4 on 1023 degree-4 unknowns; gradient-dependent assembly and
#   banded solves dominate, memory is a few per cent. The quartic profile is
#   exact in space, so the errors (0.97e-5 to 1.44e-5 on the seed, varying
#   with λ) come from the fixed-point stopping rule accumulated over the
#   steps; the bounds leave room for another converged iterate while a
#   dropped or sign-flipped history term moves y by 8e-4 or more.
# growth_damped: example 2's dome at λ = -10, p = 4 with a finer δ and mesh,
#   the oscillatory-growth regime where the ½-relaxation fires on most steps
#   and per-call overhead of the many small solves dominates. No exact
#   solution: checked by step residuals and against reference energies.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="history_long",
        why="p=2 constant matrix, N=2000 steps: the O(N^2) memory-history "
            "sums dominate; fixed-point changes should not move it",
        problem="manufactured", p=2.0, lam=1.0, lam_spread=0.01,
        m=256, r=1, delta=1e-4, n_steps=2000, tol=1e-12,
        max_err_u=2.1e-6, max_err_y=0.0165),
    Workload(
        name="fine_mesh",
        why="p=4 on n=1023 degree-4 dofs: p-Laplacian assembly and banded "
            "solves dominate, memory history is a few per cent",
        problem="manufactured", p=4.0, lam=1.0, lam_spread=0.01,
        m=256, r=4, delta=1e-4, n_steps=200, tol=1e-12,
        max_err_u=1e-4, max_err_y=1e-4),
    Workload(
        name="growth_damped",
        why="dome at lambda=-10, p=4, n=39: ~9 fixed-point iterations and a "
            "relaxed update most steps; per-call overhead of small solves",
        problem="dome", p=4.0, lam=-10.0, lam_spread=0.005,
        m=40, r=1, delta=5e-4, n_steps=1200, tol=1e-9),
)}


def draw_lambda(workload: Workload, seed: int) -> float:
    """λ for this seed: uniform on lam * (1 ± lam_spread), reproducible."""
    u = random.Random(f"{workload.name}/{seed}").random()
    return workload.lam * (1.0 + workload.lam_spread * (2.0 * u - 1.0))


def build(workload: Workload, lam: float):
    """Problem, mesh and solver config through plapmem's public modules."""
    from plapmem.analysis import manufactured_example1
    from plapmem.experiments import asymptotics_problem
    from plapmem.mesh import build_uniform_mesh
    from plapmem.stepper import SolverConfig

    if workload.problem == "manufactured":
        problem = manufactured_example1(workload.p, lam, horizon=workload.horizon)
    else:
        problem = asymptotics_problem(workload.p, lam, horizon=workload.horizon)
    mesh = build_uniform_mesh(problem.a, problem.b, workload.m, workload.r)
    cfg = SolverConfig(p=workload.p, delta=workload.delta,
                       n_steps=workload.n_steps, tol=workload.tol)
    return problem, mesh, cfg


def snapshot_times(workload: Workload):
    """The `plapmem solve` default: start, middle and end of the run."""
    return [0.0, workload.horizon / 2.0, workload.horizon]
