"""The direct memory march, the tests' oracle for the carried MemoryBlock.

`memory_equation` forms step k's memory relation by the direct O(k)
trapezoid sums of plapmem.memory for any kernel with g and gp (a `Kernel`
of two callables, or a KernelSpec), over loads such as `assembled_loads`
gives, and `direct_relation` is a drop-in for stepper.step_relation that
takes z and v from those sums and one mass solve, so one cn_step drives
both marches:

    monkeypatch.setattr(stepper, "step_relation", direct_relation)
"""

from typing import Callable, NamedTuple

import numpy as np

from plapmem.memory import (KernelSpec, StateHistory, history_sum, i_f,
                            relation_coefficients)
from plapmem.stepper import StepPlan, step_relation


class Kernel(NamedTuple):
    """An arbitrary memory kernel g and its derivative gp, functions of the
    time lag (scalar-only callables are sampled point by point)."""

    g: Callable
    gp: Callable


def relation_rhs(state, forcing, mass):
    """R = M*s - F of alpha*M*Y + beta*M*U = R, from the nodal form."""
    return mass.matvec(state) - forcing


def coefficients(kernel, delta):
    """(alpha, beta) of the kernel's memory relation, from g(0) and g'(0)."""
    return relation_coefficients(float(kernel.g(0.0)), float(kernel.gp(0.0)), delta)


def assembled_loads(asm, k: int, delta: float) -> np.ndarray:
    """L_0, L_{1/2}, .., L_{k+1/2}, each assembled anew by asm.load: the
    loads the direct sums of steps up to k read, which a march does not
    store."""
    return np.array([asm.load(t) for t in
                     [0.0] + [(j + 0.5) * delta for j in range(k + 1)]])


def memory_equation(hist: StateHistory, k: int, loads, kernel,
                    mode: str = "consistent"):
    """(state, forcing) of the memory relation at step k by the direct
    trapezoid sums over hist's levels 0..k and loads' rows 0..k+1: every
    history term lands in state (a nodal combination of stored levels) or
    forcing (the loads' share F), so alpha*M*Y^{k+1} + beta*M*U^{k+1} =
    M*state - forcing, with alpha and beta those of relation_coefficients."""
    g0, delta = float(kernel.g(0.0)), hist.delta
    t_half = (k + 0.5) * delta
    state = (-0.5 * hist.y[k] + 0.5 * g0 * hist.u[k]
             - float(kernel.g(t_half)) * hist.u[0]
             - history_sum(hist.y, k, delta, kernel.g, g0)[0]
             + history_sum(hist.u, k, delta, kernel.gp, float(kernel.gp(0.0)))[0])
    return state, i_f(loads, k, delta, kernel, mode)


def direct_relation(plan: StepPlan):
    """step_relation's (z, v) by the direct sums: the step's load
    L_{k+1/2} (L_0 too at k = 0) goes into plan.hist.loads, memory_equation
    over the kernel lam*exp(-s) of the plan's block, and one mass solve of
    the loads' share and L_{k+1/2}. The real step_relation runs first, so
    that the block cn_step accepts into stays in step; its z and v are
    dropped."""
    step_relation(plan)
    hist, asm, table = plan.hist, plan.asm, plan.coefficients
    k, delta = hist.k, plan.cfg.delta
    t = (k + 0.5) * delta
    if k == 0:
        hist.loads[0] = asm.load(0.0)
    hist.loads[k + 1] = asm.load(t) if table is None else table[k] @ asm.profiles(t)
    state, load_share = memory_equation(hist, k, hist.loads, KernelSpec(plan.block.lam),
                                        plan.cfg.quadrature_mode)
    solved = asm.mass_factor.solve(np.stack((load_share, hist.loads[k + 1]), axis=1))
    z = state - solved[:, 0]
    v = (2.0 * hist.u[k] + delta * hist.y[k] + (delta / plan.alpha) * z
         + 2.0 * delta * solved[:, 1])
    return z, v
