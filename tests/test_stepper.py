import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from fe_oracles import to_dense
from memory_oracles import coefficients, direct_relation, memory_equation, relation_rhs
from plapmem import stepper
from plapmem import (ConfigError, FixedPointDivergenceError, IllPosedStepError,
                     KernelSpec, ProblemSpec, SolverConfig, build_uniform_mesh,
                     manufactured_example1, march, mass_norm, step_residuals)
from plapmem.banded import BandedFactor, BandedSymMatrix
from plapmem.assembly import SeparableForcing, assemble_mass, interpolate
from plapmem.errors import LinearSolveError
from plapmem.experiments import asymptotics_problem, propagation_problem
from plapmem.memory import MemoryBlock, StateHistory
from plapmem.mesh import default_quad_points, gauss_legendre
from plapmem.stepper import (_STALL_GRACE, _STALL_RATIO, Assembler,
                             StepDiagnostics, StepPlan, assembled_loads, cn_step,
                             predicted_start, resolve_scheme, step_relation)


def zero_f(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def free_decay(p, lam, u0, a=-1.0, b=1.0, horizon=1.0):
    return ProblemSpec(a=a, b=b, horizon=horizon, p=p,
                       kernel=KernelSpec(lam), u0=u0, f=zero_f)


def sine_bump(x):
    x = np.asarray(x, dtype=float)
    return np.sin(np.pi * (x + 1) / 2)


class TestSchemeSelection:
    def test_high_exponent_implicit(self):
        # Newton keeps the diffusion's Jacobian on the left
        assert resolve_scheme(3.0, "auto") == "N"
        assert resolve_scheme(4.0, "auto") == "N"

    def test_intermediate_exponent_newton(self):
        # where scheme A is unavailable, Newton and not the explicit scheme B
        assert resolve_scheme(2.5, "auto") == "N"
        assert resolve_scheme(2.0 + 1e-9, "auto") == "N"

    def test_linear_exponent_implicit(self):
        # state-independent diffusion: the step is one exact linear solve
        assert resolve_scheme(2.0, "auto") == "A"

    def test_singular_exponent_implicit(self):
        # explicit-diffusion iterations cycle near extinction for p < 2;
        # the implicit route is the one that completes those runs
        assert resolve_scheme(1.5, "auto") == "A"
        cfg = SolverConfig(p=1.5, delta=0.1, n_steps=10)
        assert cfg.scheme == "A"
        assert cfg.epsilon == 1e-8

    def test_invalid_exponent(self):
        # the exponent is FluxParams' rule, reached through SolverConfig
        for p in (1.0, 0.5):
            with pytest.raises(ConfigError) as err:
                SolverConfig(p=p, delta=0.1, n_steps=10)
            assert err.value.field == "p"

    def test_override_rules(self):
        assert resolve_scheme(3.0, "B") == "B"
        assert resolve_scheme(1.5, "B") == "B"
        assert resolve_scheme(2.0, "A") == "A"
        assert resolve_scheme(3.0, "A") == "A"
        assert resolve_scheme(2.5, "N") == "N"
        assert resolve_scheme(1.5, "N") == "N"
        with pytest.raises(ConfigError):
            resolve_scheme(2.5, "A")
        with pytest.raises(ConfigError):
            resolve_scheme(3.0, "C")

    @pytest.mark.parametrize("p, requested, field", [
        (1.0, "A", "p"), (float("nan"), "B", "p"), (0.5, "auto", "p"),
        (2.5, "A", "scheme"), (0.5, "C", "scheme"),
    ])
    def test_rejections_name_their_field(self, p, requested, field):
        # an unknown scheme is reported before a bad exponent
        with pytest.raises(ConfigError) as err:
            SolverConfig(p=p, delta=0.1, n_steps=10, scheme=requested)
        assert err.value.field == field


class TestNumberRule:
    @pytest.mark.parametrize("entry, name, value", [
        ("SolverConfig", "p", "2"), ("SolverConfig", "delta", "a"),
        ("SolverConfig", "delta", True), ("SolverConfig", "tol", "x"),
        ("SolverConfig", "tol", True), ("SolverConfig", "epsilon", "1e-8"),
        ("ProblemSpec", "a", "0"), ("ProblemSpec", "b", None),
        ("ProblemSpec", "horizon", "1"), ("ProblemSpec", "p", "3"),
    ], ids=lambda value: repr(value) if not isinstance(value, str) else None)
    def test_not_a_real_number(self, entry, name, value):
        # mesh.is_real is the number rule of both entry points: a string,
        # None or a bool is a ConfigError naming its field, not a TypeError
        # from a comparison, and True is not read as 1
        with pytest.raises(ConfigError) as err:
            if entry == "SolverConfig":
                SolverConfig(**{"p": 2.0, "delta": 0.1, "n_steps": 10, name: value})
            else:
                dataclasses.replace(manufactured_example1(3.0, 1.0), **{name: value})
        assert err.value.field == {"horizon": "T"}.get(name, name)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=10)
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 100
        assert cfg.scheme == "N"
        assert cfg.epsilon == 0.0

    INVALID = [
        (dict(p=3.0, delta=-0.1, n_steps=10), "delta"),
        (dict(p=3.0, delta=0.1, n_steps=0), "N"),
        (dict(p=3.0, delta=0.1, n_steps=10, tol=0.0), "tol"),
        (dict(p=3.0, delta=0.1, n_steps=10, max_iter=1), "max_iter"),
        (dict(p=3.0, delta=0.1, n_steps=10, quadrature_mode="verbatim"),
         "quadrature_mode"),
        (dict(p=3.0, delta=0.1, n_steps=2.5), "N"),
        (dict(p=3.0, delta=0.1, n_steps=True), "N"),
        (dict(p=3.0, delta=0.1, n_steps=10, max_iter=2.5), "max_iter"),
        (dict(p=3.0, delta=0.1, n_steps=10, max_iter=True), "max_iter"),
        (dict(p=3.0, delta=0.1, n_steps=10, tol=np.inf), "tol"),
        (dict(p=3.0, delta=0.1, n_steps=10, tol=np.nan), "tol"),
        (dict(p=3.0, delta=0.1, n_steps=10, quad_points=2.5), "quadrature_points"),
        (dict(p=3.0, delta=0.1, n_steps=10, quad_points=0), "quadrature_points"),
        (dict(p=3.0, delta=0.1, n_steps=10, quad_points=True), "quadrature_points"),
    ]

    @pytest.mark.parametrize("kwargs,field", INVALID,
                             ids=[f"kwargs{i}" for i in range(len(INVALID))])
    def test_validation(self, kwargs, field):
        with pytest.raises(ConfigError) as err:
            SolverConfig(**kwargs)
        assert err.value.field == field

    @pytest.mark.parametrize("kwargs", [
        dict(n_steps=np.int64(3), max_iter=np.int32(5)),
        dict(n_steps=3, quad_points=np.int64(4)),
    ])
    def test_numpy_integers_accepted(self, kwargs):
        cfg = SolverConfig(p=3.0, delta=0.1, **kwargs)
        assert cfg.n_steps == 3


def make_assembler(problem, mesh, cfg):
    quad = gauss_legendre(default_quad_points(mesh.r, cfg.quad_points))
    return Assembler(mesh, quad, cfg.flux_params(), problem.f)


def fresh_history(problem, mesh, cfg):
    hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
    hist.set_initial(interpolate(mesh, problem.u0))
    return hist


class TestFixedPoint:
    def test_discrete_steady_state_converges_in_one_iteration(self):
        # u solving K u = F is a fixed point of the heat step; seeding with
        # it makes the very first increment vanish
        mesh = build_uniform_mesh(0, 1, 9, 1)
        cfg = SolverConfig(p=2.0, delta=0.02, n_steps=5)
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.1, p=2.0,
                              kernel=KernelSpec(0.0),
                              u0=lambda x: np.zeros_like(np.asarray(x)),
                              f=lambda x, t: np.ones_like(np.asarray(x)))
        asm = make_assembler(problem, mesh, cfg)
        stiff = np.diag(np.full(mesh.n_interior, 2 / mesh.h)) \
            + np.diag(np.full(mesh.n_interior - 1, -1 / mesh.h), 1) \
            + np.diag(np.full(mesh.n_interior - 1, -1 / mesh.h), -1)
        steady = np.linalg.solve(stiff, asm.load(0.0))
        hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
        hist.set_initial(steady)
        _, _, diag = cn_step(StepPlan(hist, problem.kernel, cfg, asm))
        assert diag.iterations == 1

    def test_linear_step_terminates_at_two_iterations(self):
        # iterate-independent system: the second solve repeats the first
        for lam in (0.0, 1.0, -1.0):
            problem = free_decay(2.0, lam, sine_bump)
            mesh = build_uniform_mesh(-1, 1, 10, 1)
            cfg = SolverConfig(p=2.0, delta=0.01, n_steps=3)
            asm = make_assembler(problem, mesh, cfg)
            hist = fresh_history(problem, mesh, cfg)
            plan = StepPlan(hist, problem.kernel, cfg, asm)
            _, _, diag = cn_step(plan)
            assert diag.iterations == 2
            assert diag.increment_u < 1e-24
            assert diag.increment_y < 1e-24

    def test_step_record_is_immutable(self):
        # keyword and positional construction agree, defaults included, and
        # no field can be reassigned or added
        fields = ("iterations", "increment_u", "increment_y", "ratios", "relaxed",
                  "restarted")
        values = (3, 1e-12, 4e-13, (0.5, 0.25), 2, 0)
        record = StepDiagnostics(**dict(zip(fields, values)))
        assert StepDiagnostics._fields == fields
        assert StepDiagnostics(*values) == record
        assert tuple(getattr(record, name) for name in fields) == values
        assert StepDiagnostics(3, 1e-12, 4e-13) == StepDiagnostics(
            iterations=3, increment_u=1e-12, increment_y=4e-13, ratios=(),
            relaxed=0, restarted=0)
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
        assert record == StepDiagnostics(*values)     # as it was

    def test_divergence_error_reports_step(self):
        problem = manufactured_example1(4.0, 1.0)
        mesh = build_uniform_mesh(0, 1, 10, 4)
        cfg = SolverConfig(p=4.0, delta=0.01, n_steps=10, tol=1e-30, max_iter=3)
        with pytest.raises(FixedPointDivergenceError) as exc:
            march(problem, mesh, cfg)
        assert exc.value.iterations == 3
        assert np.isfinite(exc.value.last_ratio)

    def test_stalled_cycle_recovered_by_damping(self):
        # the coarsest time step drives the plain iteration into a 2-cycle;
        # the relaxed updates must still find the true fixed point
        problem = manufactured_example1(4.0, 1.0)
        mesh = build_uniform_mesh(0, 1, 10, 4)
        cfg = SolverConfig(p=4.0, delta=0.01, n_steps=10, tol=1e-14,
                           max_iter=100, scheme="A")
        run = march(problem, mesh, cfg)
        assert run.errors["u"] < 1e-6


class TestSolveBlock:
    def test_dense_oracle_small_system(self):
        rng = np.random.default_rng(31)
        n, bw, delta = 5, 1, 0.05
        mdata = rng.uniform(0.5, 1.0, size=(bw + 1, n))
        mdata[0] += 2.0
        mdata[1, -1] = 0.0
        mass = BandedSymMatrix(mdata)
        sdata = rng.uniform(0.1, 0.5, size=(bw + 1, n))
        sdata[0] += 3.0
        sdata[1, -1] = 0.0
        matrix = BandedSymMatrix(sdata)
        rhs = rng.standard_normal(n)
        # the memory relation alpha*Y + beta*U = z in nodal form, eliminated
        # as in the step: (S + delta*beta/alpha*M) U = rhs + delta/alpha*M z
        alpha, beta, z = 0.6, -0.3, rng.standard_normal(n)
        shift = delta * beta / alpha
        u = BandedSymMatrix(sdata + shift * mdata).solve(
            rhs + (delta / alpha) * mass.matvec(z))
        y = (z - beta * u) / alpha
        # independent dense solve of the coupled 2x2 block system
        md, sd = to_dense(mass), to_dense(matrix)
        big = np.block([[sd, -delta * md],
                        [beta * md, alpha * md]])
        sol = np.linalg.solve(big, np.concatenate([rhs, md @ z]))
        assert np.allclose(u, sol[:n], atol=1e-12)
        assert np.allclose(y, sol[n:], atol=1e-12)
        # residuals of both original blocks
        r1 = sd @ u - delta * (md @ y) - rhs
        r2 = beta * (md @ u) + alpha * (md @ y) - md @ z
        assert np.max(np.abs(r1)) < 1e-10 * max(1, np.max(np.abs(rhs)))
        assert np.max(np.abs(r2)) < 1e-10 * max(1, np.max(np.abs(md @ z)))

    def test_vanishing_alpha_guard(self):
        # alpha = 1/2 + delta*g(0)/8 vanishes for delta*g(0) = -4: the
        # coefficients and the block refuse it
        with pytest.raises(IllPosedStepError):
            coefficients(KernelSpec(-8.0), 0.5)
        with pytest.raises(IllPosedStepError):
            MemoryBlock(-8.0, 0.5, "consistent", np.ones(3), np.zeros(3),
                        np.zeros((1, 0)), np.zeros((0, 3)))


class TestMarch:
    def test_zero_data_zero_trajectory(self):
        problem = free_decay(3.0, 2.0, lambda x: np.zeros_like(np.asarray(x)),
                             horizon=0.2)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=20)
        run = march(problem, mesh, cfg)
        assert np.max(np.abs(run.u)) == 0.0
        assert np.max(np.abs(run.y)) == 0.0

    def test_single_step_matches_cn_step(self):
        problem = free_decay(3.0, 1.0, sine_bump, horizon=0.01)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=1)
        run = march(problem, mesh, cfg)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        u1, y1, _ = cn_step(plan)
        assert np.array_equal(run.u[1], u1)
        assert np.array_equal(run.y[1], y1)

    def test_null_kernel_memory_stays_zero(self):
        problem = free_decay(3.0, 0.0, sine_bump, horizon=0.1)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=10)
        run = march(problem, mesh, cfg)
        assert np.max(np.abs(run.y)) == 0.0

    def test_deterministic_rerun(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.01)
        mesh = build_uniform_mesh(0, 1, 6, 2)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=10)
        run1 = march(problem, mesh, cfg)
        run2 = march(problem, mesh, cfg)
        assert np.array_equal(run1.u, run2.u)
        assert np.array_equal(run1.y, run2.y)

    def test_domain_mismatch_rejected(self):
        problem = manufactured_example1(3.0, 1.0)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        with pytest.raises(ConfigError):
            march(problem, mesh, SolverConfig(p=3.0, delta=1e-3, n_steps=100))

    def test_exponent_mismatch_rejected(self):
        # a p = 4 solve of the p = 3 problem would run to a wrong answer
        problem = manufactured_example1(3.0, 1.0)
        mesh = build_uniform_mesh(0, 1, 16, 2)
        with pytest.raises(ConfigError) as err:
            march(problem, mesh, SolverConfig(p=4.0, delta=1e-3, n_steps=100))
        assert err.value.field == "p"

    def test_horizon_mismatch_rejected(self):
        problem = manufactured_example1(3.0, 1.0)   # horizon 0.1
        mesh = build_uniform_mesh(0, 1, 8, 1)
        with pytest.raises(ConfigError):
            march(problem, mesh, SolverConfig(p=3.0, delta=1e-3, n_steps=50))

    def test_infinite_horizon_rejected(self):
        # march's horizon check reads nan > inf, so 5 steps of 1e-3 "reached" it
        with pytest.raises(ConfigError) as err:
            manufactured_example1(3.0, 1.0, horizon=np.inf)
        assert err.value.field == "T"

    def test_unallocatable_history_rejected(self):
        # N = 10**300 passes every other check; numpy refuses the history's
        # shape before allocating anything
        n_steps = 10**300
        problem = manufactured_example1(3.0, 1.0, horizon=1.0)
        mesh = build_uniform_mesh(0, 1, 4, 1)
        with pytest.raises(ConfigError) as err:
            march(problem, mesh, SolverConfig(p=3.0, delta=1.0 / n_steps, n_steps=n_steps))
        assert err.value.field == "N"
        assert "shape (1e+300, 3)" in str(err.value)

    def test_no_interior_dofs_rejected(self):
        problem = free_decay(2.0, 0.0, lambda x: np.zeros_like(np.asarray(x)),
                             a=0.0, b=1.0, horizon=0.1)
        mesh = build_uniform_mesh(0, 1, 1, 1)
        with pytest.raises(ConfigError):
            march(problem, mesh, SolverConfig(p=2.0, delta=0.01, n_steps=10))

    @pytest.mark.parametrize("u0, f, field, shape, points", [
        (lambda x: np.ones(3), zero_f, "u0", (3,), (5,)),
        (None, lambda x, t: np.ones(5), "forcing", (5,), (4, 3)),
        (None, SeparableForcing(((lambda x: np.ones(5), np.cos),)), "forcing",
         (5,), (4, 3)),
    ], ids=["u0", "callable-f", "separable-f"])
    def test_result_that_does_not_broadcast_rejected(self, u0, f, field, shape, points):
        # m = 4, r = 1: 5 nodes, and 3 quadrature points on each of 4 elements
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.02, p=3.0,
                              kernel=KernelSpec(1.0),
                              u0=u0 or (lambda x: x * (1 - x)), f=f)
        with pytest.raises(ConfigError, match=re.escape(
                f"shape {shape}, which does not broadcast to the {points} points")) as err:
            march(problem, build_uniform_mesh(0, 1, 4, 1),
                  SolverConfig(p=3.0, delta=0.01, n_steps=2))
        assert err.value.field == field

    def test_failed_solve_names_its_step(self, monkeypatch):
        # scheme A at p = 3 solves each iteration's assembled band
        problem = free_decay(3.0, 1.0, sine_bump, horizon=0.05)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=5, scheme="A")
        fail_at = march(problem, mesh, cfg).diagnostics[0].iterations + 2
        solve = BandedSymMatrix.solve
        calls = []

        def fail_once(self, rhs):
            calls.append(1)
            if len(calls) == fail_at:
                raise LinearSolveError("injected failure")
            return solve(self, rhs)

        monkeypatch.setattr(BandedSymMatrix, "solve", fail_once)
        with pytest.raises(LinearSolveError) as err:
            march(problem, mesh, cfg)
        assert str(err.value) == "step 1, iteration 2: injected failure"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p, message", [
        (3.0, "step 0, iteration 1: non-finite entries in banded system"),
        # p = 2 factors its constant system in the step plan
        (2.0, "step 0: non-finite entries in banded system"),
    ])
    def test_overflowing_system_names_step_0_silently(self, p, message):
        # delta*beta overflows in the plan's (2 + delta*beta/alpha)*M, and
        # inf*0 off the band gives NaN: an error, with no RuntimeWarning
        problem = manufactured_example1(p, 1.0, horizon=1e200)
        mesh = build_uniform_mesh(0, 1, 4, 1)
        with pytest.raises(LinearSolveError) as err:
            march(problem, mesh, SolverConfig(p=p, delta=1e200, n_steps=1))
        assert str(err.value) == message


class CountingTerm:
    """A (space, time) pair that counts its evaluations."""

    def __init__(self, space, time):
        self.space_calls = self.time_calls = 0
        self._space, self._time = space, time

    def space(self, x):
        self.space_calls += 1
        return self._space(x)

    def time(self, t):
        self.time_calls += 1
        return self._time(t)


def sine_01(x):
    return np.sin(np.pi * np.asarray(x, dtype=float))


def separable_case(time):
    """(problem, mesh, cfg) of a 20-step p = 2 run forced by x(1-x) time(t),
    with the kernel 2 exp(-s)."""
    problem = ProblemSpec(a=0.0, b=1.0, horizon=0.2, p=2.0, kernel=KernelSpec(2.0),
                          u0=sine_01,
                          f=SeparableForcing(((lambda x: x * (1 - x), time),)))
    return problem, build_uniform_mesh(0, 1, 6, 2), SolverConfig(p=2.0, delta=0.01,
                                                                  n_steps=20)


class TestSeparableLoad:
    def test_profiles_integrated_once_per_run(self):
        terms = [CountingTerm(lambda x: x * (1 - x), np.cos),
                 CountingTerm(np.sin, lambda t: np.exp(-t))]
        forcing = SeparableForcing(tuple((c.space, c.time) for c in terms))
        n_steps = 12
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.12, p=3.0,
                              kernel=KernelSpec(1.0), u0=sine_01,
                              f=forcing)
        march(problem, build_uniform_mesh(0, 1, 6, 2),
              SolverConfig(p=3.0, delta=0.01, n_steps=n_steps))
        for term in terms:
            assert term.space_calls == 1
            assert term.time_calls == 2     # the t = 0 load, then all half steps

    def test_package_problems_declare_separable_forcing(self):
        # a plain callable would silently fall back to per-step assembly
        problems = (manufactured_example1(3.0, 1.0), asymptotics_problem(4.0, -10.0),
                    propagation_problem(3.0, 1.0, 2, 1.0, 0.5))
        for problem in problems:
            assert isinstance(problem.f, SeparableForcing)
        assert [len(problem.f.terms) for problem in problems] == [2, 0, 0]

    def test_nonfinite_time_coefficient_stops_march(self):
        # finite at t = 0, 0.005 and 0.015; infinite from the third half step
        forcing = SeparableForcing(((lambda x: x * (1 - x),
                                     lambda t: 1.0 if t < 0.02 else np.inf),))
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.05, p=2.0,
                              kernel=KernelSpec(1.0), u0=sine_01,
                              f=forcing)
        with pytest.raises(ConfigError, match=r"t=0\.025") as err:
            march(problem, build_uniform_mesh(0, 1, 6, 1),
                  SolverConfig(p=2.0, delta=0.01, n_steps=5))
        assert err.value.field == "forcing"

    @pytest.mark.parametrize("declared", [True, False])
    @pytest.mark.parametrize("time", [
        math.cos, lambda t: math.cos(t) if t >= 0.0 else math.nan,
    ], ids=["math.cos", "scalar-only-branch"])
    def test_scalar_time_function_matches_array_one(self, monkeypatch, declared, time):
        # a time function that cannot take an array is called per time, and
        # gives the march np.cos gives, bit for bit; declared: the march's
        # memory block, else the direct sums (memory_oracles.direct_relation)
        if not declared:
            monkeypatch.setattr(stepper, "step_relation", direct_relation)
        runs = [march(*separable_case(fn)) for fn in (np.cos, time)]
        for name in ("u", "y", "energies"):
            assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))
        assert runs[0].diagnostics == runs[1].diagnostics

    def test_constant_time_function_broadcasts(self):
        runs = [march(*separable_case(fn))
                for fn in (lambda t: 2.0, lambda t: np.full(np.shape(t), 2.0))]
        assert np.array_equal(runs[0].u, runs[1].u)
        forcing = SeparableForcing(((np.sin, lambda t: 2.0), (np.sin, np.cos)))
        table = forcing.coefficients(np.array([0.5, 1.5, 2.5]))
        assert table.shape == (3, 2) and np.all(table[:, 0] == 2.0)
        assert np.array_equal(table[:, 1], np.cos([0.5, 1.5, 2.5]))
        assert np.array_equal(forcing.coefficients(1.5), table[1])

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_time_coefficient_found_before_any_step(self, monkeypatch):
        # exp(1e3 t) overflows past t = 0.7098: first at the half step
        # t = 0.7105 of a 1000-step run, with no step taken and no warning
        steps = []
        monkeypatch.setattr(stepper, "cn_step",
                            lambda plan: steps.append(plan) or cn_step(plan))
        forcing = SeparableForcing(((sine_01, np.cos),
                                    (sine_01, lambda t: np.exp(1e3 * np.asarray(t)))))
        problem = ProblemSpec(a=0.0, b=1.0, horizon=1.0, p=2.0,
                              kernel=KernelSpec(1.0), u0=sine_01, f=forcing)
        with pytest.raises(ConfigError, match=r"^forcing: non-finite time coefficient "
                                              r"at t=0\.7105 \(term 1\); ") as err:
            march(problem, build_uniform_mesh(0, 1, 6, 1),
                  SolverConfig(p=2.0, delta=1e-3, n_steps=1000))
        assert err.value.field == "forcing" and steps == []


class TestLeanStep:
    """The per-run factors and the once-per-step Y recovery against the
    oracles: the memory relation itself and the unrearranged residuals."""

    # (scheme, p, lambda, m, r, delta, tol, bound on the relative evolution
    # residual); increments below tol bound the residual only through the
    # contraction of the iteration, so each bound is 4-12x the residual the
    # stopping rule leaves in that case (8e-15, 2.6e-5, 1.6e-3, 8.2e-12)
    CASES = {
        # p = 2, scheme A: one run-constant factor, linear step
        "p2-A": ("A", 2.0, 1.0, 8, 2, 0.01, 1e-14, 1e-13),
        # p = 2.5, scheme B: run-constant factor, assembled right-hand side
        "p2.5-B": ("B", 2.5, 1.0, 8, 1, 1e-3, 1e-14, 1e-4),
        # p = 4, scheme A at a coarse step: the relaxation fires
        "p4-A-relaxed": ("A", 4.0, 1.0, 10, 4, 0.01, 1e-14, 1e-2),
        # the same step under Newton: assembled tangent, no relaxation
        "p4-N": ("N", 4.0, 1.0, 10, 4, 0.01, 1e-14, 1e-10),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_steps_satisfy_oracles(self, case):
        scheme, p, lam, m, r, delta, tol, bound = self.CASES[case]
        n_steps = 10
        problem = manufactured_example1(p, lam, horizon=delta * n_steps)
        mesh = build_uniform_mesh(0, 1, m, r)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=tol,
                           scheme=scheme)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        diags = [cn_step(plan)[2] for _ in range(n_steps)]
        if case == "p4-A-relaxed":
            # updates are relaxed after a ratio >= 0.98 from the grace on
            assert any(max(d.ratios[_STALL_GRACE - 2:-1], default=0.0) >= 0.98
                       for d in diags)
            assert any(d.relaxed for d in diags)
        if scheme == "N":
            # two iterations from U_k, then one from the predicted start
            assert [d.iterations for d in diags] == [2, 2, 2, 1, 1, 1, 1, 1, 1, 1]
            assert not any(d.relaxed for d in diags)
        mass = asm.mass
        loads = assembled_loads(asm, n_steps - 1, delta)
        alpha, beta = coefficients(problem.kernel, delta)
        for k in range(n_steps):
            rhs = relation_rhs(*memory_equation(hist, k, loads, problem.kernel), mass)
            my = alpha * mass.matvec(hist.y[k + 1])
            mu = beta * mass.matvec(hist.u[k + 1])
            scale = max(np.max(np.abs(t)) for t in (my, mu, rhs))
            assert np.max(np.abs(my + mu - rhs)) <= 1e-12 * scale
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            u_mid = 0.5 * (hist.u[k + 1] + hist.u[k])
            terms = (mass.matvec(hist.u[k + 1] - hist.u[k]) / delta,
                     asm.plap(u_mid).matvec(u_mid),
                     mass.matvec(0.5 * (hist.y[k + 1] + hist.y[k])))
            scale = max(np.max(np.abs(t)) for t in terms)
            assert np.max(np.abs(res_ev)) <= bound * scale
            assert np.max(np.abs(res_mem)) < 1e-10
        rerun = march(problem, mesh, cfg)
        assert np.array_equal(rerun.u, hist.u)
        assert np.array_equal(rerun.y, hist.y)

    def test_relaxed_records_first_halved_iteration(self, tmp_path):
        from plapmem.experiments import write_outputs
        from plapmem.stepper import _STALL_GRACE, _STALL_RATIO
        scheme, p, lam, m, r, delta, tol, _ = self.CASES["p4-A-relaxed"]
        n_steps = 10
        problem = manufactured_example1(p, lam, horizon=delta * n_steps)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=tol,
                           scheme=scheme)
        run = march(problem, build_uniform_mesh(0, 1, m, r), cfg)
        for d in run.diagnostics:
            # ratios[i] is the ratio seen after iteration i + 2; the stall
            # check runs after every non-final iteration from the grace on
            stalled = [it for it in range(_STALL_GRACE, d.iterations)
                       if d.ratios[it - 2] >= _STALL_RATIO]
            assert d.relaxed == (stalled[0] + 1 if stalled else 0)
        assert any(d.relaxed for d in run.diagnostics)
        lines = write_outputs(run, tmp_path)["diagnostics"].read_text().splitlines()
        assert lines[0] == "k,iterations,increment_u,increment_y,relaxed"
        assert [int(line.split(",")[-1]) for line in lines[1:]] == \
            [d.relaxed for d in run.diagnostics]

    def test_tabulations_independent_of_step_count(self, monkeypatch):
        from plapmem.mesh import ReferenceBasis
        original = ReferenceBasis.tabulate
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ReferenceBasis, "tabulate", counting)
        counts = []
        for n_steps in (5, 20):
            calls.clear()
            problem = manufactured_example1(3.0, 1.0, horizon=1e-3 * n_steps)
            mesh = build_uniform_mesh(0, 1, 6, 2)
            march(problem, mesh, SolverConfig(p=3.0, delta=1e-3, n_steps=n_steps))
            counts.append(len(calls))
        assert counts[0] == counts[1]


    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_linear_run_assembles_stiffness_once(self, scheme, monkeypatch):
        import plapmem.stepper as stepper
        calls = []
        original = stepper.assemble_plap

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(stepper, "assemble_plap", counting)
        problem = manufactured_example1(2.0, 1.0, horizon=0.02)
        cfg = SolverConfig(p=2.0, delta=1e-3, n_steps=20, scheme=scheme, tol=1e-14)
        run = march(problem, build_uniform_mesh(0, 1, 8, 2), cfg)
        assert len(calls) == 1
        if scheme == "A":
            # the step is exact after one solve; the second confirms it
            assert all(d.iterations == 2 for d in run.diagnostics)
            assert all(d.increment_u < 1e-24 and d.increment_y < 1e-24
                       for d in run.diagnostics)


class TestRelaxation:
    """The stall rule: relax from the first increment ratio >= 0.98 on, by a
    factor matched to that ratio, compounding while the iteration stalls."""

    def test_relaxes_at_first_expansion(self):
        scheme, p, lam, m, r, delta, tol, _ = TestLeanStep.CASES["p4-A-relaxed"]
        n_steps = 10
        problem = manufactured_example1(p, lam, horizon=delta * n_steps)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=tol,
                           scheme=scheme)
        run = march(problem, build_uniform_mesh(0, 1, m, r), cfg)
        relaxed = [d for d in run.diagnostics if d.relaxed]
        assert relaxed
        # a fixed 1/2 from iteration 6 on needs 9-10 iterations on these steps
        assert all(d.relaxed <= 5 and d.iterations <= 6 for d in relaxed)
        assert run.errors["u"] <= 1.3e-7

    # p = 2.5 (scheme B), r = 2, delta = 1e-3: the explicit-diffusion
    # iteration expands from the first step on
    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_expanding_scheme_b_run_completes(self, lam):
        problem = manufactured_example1(2.5, lam)
        cfg = SolverConfig(p=2.5, delta=1e-3, n_steps=100, scheme="B")
        run = march(problem, build_uniform_mesh(0, 1, 16, 2), cfg)
        assert run.errors["u"] < 5e-5
        stalls = [[it for it in range(_STALL_GRACE, d.iterations)
                   if d.ratios[it - 2] >= _STALL_RATIO] for d in run.diagnostics]
        # relaxed records the first stall, also where the factor compounds
        assert [d.relaxed for d in run.diagnostics] == \
            [s[0] + 1 if s else 0 for s in stalls]
        if lam == 1.0:
            assert sum(len(s) > 1 for s in stalls) > 0

    def test_stalled_scheme_b_run_reports_divergence(self):
        problem = manufactured_example1(2.5, 1.0)
        cfg = SolverConfig(p=2.5, delta=1e-3, n_steps=100, scheme="B")
        with pytest.raises(FixedPointDivergenceError) as err:
            march(problem, build_uniform_mesh(0, 1, 48, 2), cfg)
        assert err.value.step == 1
        assert err.value.iterations == cfg.max_iter
        assert cfg.tol < err.value.increment_u < np.inf
        assert cfg.tol < err.value.increment_y < np.inf

    def test_stalled_scheme_b_run_completes_under_newton(self):
        # the run above, with Newton: two iterations per step, never relaxed
        problem = manufactured_example1(2.5, 1.0)
        cfg = SolverConfig(p=2.5, delta=1e-3, n_steps=100, scheme="N")
        run = march(problem, build_uniform_mesh(0, 1, 48, 2), cfg)
        assert all(d.iterations <= 3 and not d.relaxed for d in run.diagnostics)
        assert run.errors["u"] < 5e-6      # 1.5e-6; m = 16 gives 1.6e-5

    def test_stagnating_step_is_not_accepted(self):
        # ratios alternate ~1 and ~1/4: omega halves every second iteration
        # while the plain map's increment stays put, so the increments of
        # the relaxed steps fall below tol far from the fixed point
        p, delta, n_steps = 2.4, 1e-2, 10
        problem = forced_sine(p, -1.0, horizon=delta * n_steps)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, scheme="B")
        with pytest.raises(FixedPointDivergenceError) as err:
            march(problem, build_uniform_mesh(0, 1, 10, 2), cfg)
        assert (err.value.step, err.value.iterations) == (0, cfg.max_iter)
        assert err.value.increment_u > 1e3 * cfg.tol

    @pytest.mark.parametrize("p, m, delta, step, solve_failed", [
        (4.0, 64, 1e-2, 0, False),  # an increment norm overflows
        (6.0, 32, 5e-2, 1, True),   # the assembled system overflows first
    ])
    def test_overflowing_iteration_reports_divergence(self, p, m, delta, step,
                                                      solve_failed):
        n_steps = 10
        problem = manufactured_example1(p, 1.0, horizon=delta * n_steps)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, scheme="B")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FixedPointDivergenceError) as err:
            march(problem, build_uniform_mesh(0, 1, m, 2), cfg)
        assert err.value.step == step
        assert err.value.iterations < cfg.max_iter
        assert isinstance(err.value.__cause__, LinearSolveError) == solve_failed

    @pytest.mark.filterwarnings("error")
    def test_march_silences_overflow_and_restores_errstate(self):
        # test_overflowing_assembly_warns_nothing's run (p = 6, scheme B),
        # with no errstate around the call: march enters its own
        before = np.geterr()
        problem = manufactured_example1(6.0, 1.0, horizon=0.5)
        cfg = SolverConfig(p=6.0, delta=0.05, n_steps=10, scheme="B")
        with pytest.raises(FixedPointDivergenceError) as err:
            march(problem, build_uniform_mesh(0, 1, 32, 2), cfg)
        assert err.value.step == 1
        assert np.geterr() == before

    def test_solver_failure_on_finite_iterate_is_not_divergence(self, monkeypatch):
        # p = 4 (scheme A) solves each iteration's assembled matrix
        calls = []
        solve = BandedSymMatrix.solve

        def fail_second(self, rhs):
            calls.append(1)
            if len(calls) == 2:
                raise LinearSolveError("injected failure")
            return solve(self, rhs)

        monkeypatch.setattr(BandedSymMatrix, "solve", fail_second)
        scheme, p, lam, m, r, delta, tol, _ = TestLeanStep.CASES["p4-A-relaxed"]
        problem = manufactured_example1(p, lam, horizon=delta * 10)
        cfg = SolverConfig(p=p, delta=delta, n_steps=10, tol=tol, scheme=scheme)
        with pytest.raises(LinearSolveError, match="injected failure"):
            march(problem, build_uniform_mesh(0, 1, m, r), cfg)


def guard_levels(miss, stepped):
    """Four levels whose U_3 - P_2 is miss and U_3 - U_2 is stepped, exactly
    (small integers), P_2 = 3(U_2 - U_1) + U_0 the prediction of U_3."""
    miss, stepped = np.array(miss, dtype=float), np.array(stepped, dtype=float)
    u1, u2 = np.zeros_like(miss), np.ones_like(miss)
    u3 = u2 + stepped
    return np.array([u3 - miss - 3.0 * (u2 - u1), u1, u2, u3])


class TestPredictedStart:
    """Newton starts from the extrapolation 3(U_k - U_{k-1}) + U_{k-2} where
    it predicted U_k better than U_{k-1} did, and restarts once from U_k if
    that start stalls."""

    @staticmethod
    def starts(levels):
        """predicted_start at every level of levels, called once per level
        as a march calls it, with the prediction it keeps."""
        hist = StateHistory(levels.shape[1], len(levels), 0.1)
        hist.set_initial(levels[0])
        plan = types.SimpleNamespace(hist=hist, prediction=None)
        out = [predicted_start(plan)]
        for u in levels[1:]:
            hist.append(u, np.zeros_like(u))
            out.append(predicted_start(plan))
        return out

    def test_extrapolation_exact_on_quadratic_trajectories(self):
        t = np.arange(6)[:, None]
        levels = 1.0 + 0.5 * t - 0.25 * t**2 * np.array([1.0, 2.0, -3.0])
        starts = self.starts(levels)
        assert starts[:3] == [None] * 3
        for k in range(3, 5):
            assert np.allclose(starts[k], levels[k + 1], rtol=0, atol=1e-13)

    def test_guard_rejects_rough_trajectories(self):
        # U_{k-1} predicts U_k better than the extrapolation from k-1..k-3
        levels = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert self.starts(levels)[3] is None
        smooth = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert np.allclose(self.starts(smooth)[3], [4.0])

    @staticmethod
    def old_guard_start(levels):
        """The start at the last of four levels as the guard took it by
        np.abs(...).max(), the oracle of the idamax max-norms."""
        u, k = levels, 3
        stepped = u[k] - u[k - 1]
        previous = 3.0 * (u[k - 1] - u[k - 2]) + u[k - 3]
        if np.abs(u[k] - previous).max() >= np.abs(stepped).max():
            return None
        return 3.0 * stepped + u[k - 2]

    # (levels, whether the guard passes)
    GUARD_CASES = {
        # ties: equal magnitudes, of opposite sign within or across the two
        "tie-opposite-signs": (guard_levels([2, -2], [-2, 2]), False),
        "tie-across-indices": (guard_levels([-2, 1], [1, 2]), False),
        "tie-first-and-last": (guard_levels([-3, 0, 3], [3, 1, -3]), False),
        # the largest magnitude at index 0 or n - 1
        "miss-at-0": (guard_levels([3, 0, 0], [0, 0, -4]), True),
        "miss-at-end": (guard_levels([0, 0, -5], [4, 0, 0]), False),
        "stepped-at-end": (guard_levels([1, -1, 1], [0, 0, 2]), True),
        "n1-tie": (guard_levels([1], [-1]), False),
        "n1-smaller-miss": (guard_levels([-1], [2]), True),
        "n1-larger-miss": (guard_levels([3], [2]), False),
        # P_2 overflowed to +inf or -inf: an infinite miss
        "prediction-inf": (np.array([[0.0, 1.0], [-1e308, 0.0], [1e308, 1.0],
                                     [1e308, 2.0]]), False),
        "prediction-minus-inf": (np.array([[0.0], [1e308], [-1e308], [-1e308]]), False),
        # U_3 - U_2 overflowed: the guard passes, the start is infinite
        "stepped-inf": (np.array([[1e308, 0.0], [-1e308, 0.0], [-1e308, 0.0],
                                  [1e308, 1.0]]), True),
    }

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_guard_decides_as_the_absolute_maximum(self, case):
        levels, passes = self.GUARD_CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            start, ref = self.starts(levels)[3], self.old_guard_start(levels)
        assert (start is not None) == (ref is not None) == passes
        if passes:
            assert np.array_equal(start, ref)

    def test_stalled_prediction_restarts_from_previous_level(self, monkeypatch):
        import copy
        import plapmem.stepper as stepper
        # step 5 of this run: the predicted start's second ratio is 3.9
        p, lam, r, m, delta = 5.555, 9.41, 2, 7, 0.0286
        problem = forced_sine(p, lam, horizon=delta * 40)
        mesh = build_uniform_mesh(0, 1, m, r)
        cfg = SolverConfig(p=p, delta=delta, n_steps=40, tol=1e-12, scheme="N")
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        early = [cn_step(plan)[2] for _ in range(5)]
        assert [d.restarted for d in early] == [0] * 5
        plain = copy.deepcopy(plan)
        u, y, diag = cn_step(plan)
        monkeypatch.setattr(stepper, "predicted_start", lambda plan: None)
        u_plain, y_plain, diag_plain = cn_step(plain)
        # after the restart the step repeats the iteration from U_k exactly:
        # omega back at 1, no relaxation from a ratio seen before the restart
        assert diag.restarted > _STALL_GRACE
        assert diag.iterations == diag.restarted - 1 + diag_plain.iterations
        assert diag.relaxed == diag_plain.relaxed == 0
        assert np.array_equal(u, u_plain) and np.array_equal(y, y_plain)
        # the abandoned iterations' ratios, then those after the restart
        # (none across it: the restart clears the previous increment)
        assert diag.ratios[diag.restarted - 2:] == diag_plain.ratios


def forced_sine(p, lam, horizon):
    """A smooth problem for every p > 1 (the manufactured forcing is
    singular at x = 1/2 for p < 2)."""
    return ProblemSpec(a=0.0, b=1.0, horizon=horizon, p=p,
                       kernel=KernelSpec(lam),
                       u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
                       f=lambda x, t: np.asarray(x) * (1 - np.asarray(x)) * np.cos(t))


def plain_increments(hist, k, kernel, cfg, asm):
    """Squared M-norm increments of one plain iteration from step k's stored
    pair: with Y eliminated, the iteration matrix S (the Jacobian for
    Newton) maps U - G(U) to 2*delta times the evolution residual, so this
    needs neither omega nor the loop."""
    res_ev, _ = step_residuals(hist, k, kernel, cfg, asm)
    alpha, beta = coefficients(kernel, cfg.delta)
    mass = to_dense(asm.mass)
    matrix = (2.0 + cfg.delta * beta / alpha) * mass
    u_mid = 0.5 * (hist.u[k + 1] + hist.u[k])
    if cfg.scheme == "A":
        matrix += cfg.delta * to_dense(asm.plap(u_mid))
    elif cfg.scheme == "N":
        matrix += cfg.delta * to_dense(asm.plap(u_mid, tangent=True)[1])
    du = np.linalg.solve(matrix, 2.0 * cfg.delta * res_ev)
    inc_u = du @ mass @ du
    return inc_u, (beta / alpha) ** 2 * inc_u


PROPERTY_CASES = dict(p=st.floats(1.0, 6.0, exclude_min=True),
                      lam=st.floats(-10.0, 10.0), r=st.integers(1, 3),
                      m=st.integers(4, 12), log_delta=st.floats(-4.0, -2.0))


class TestNonlinearSolveProperties:
    """Random exponents, amplitudes, meshes and time steps: every run either
    completes at the fixed point or stops with a typed divergence."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**PROPERTY_CASES)
    def test_run_completes_or_diverges(self, p, lam, r, m, log_delta):
        # the fixed-point schemes: B where A is unavailable, A elsewhere
        self.check_run(p, lam, r, m, 10.0 ** log_delta,
                       "B" if 2.0 < p < 3.0 else "A")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**PROPERTY_CASES)
    def test_newton_run_completes_or_diverges(self, p, lam, r, m, log_delta):
        self.check_run(p, lam, r, m, 10.0 ** log_delta, "N")

    # a draw the Newton property test once made at random: step 0 relaxes
    # from iteration 21 and meets tol at 25; accepting u + omega*du there,
    # not the plain iterate tol measured, left the pair 7.6e-13 from the
    # next plain iterate, against the 16*tol bound
    def test_newton_run_at_small_p_accepts_the_plain_iterate(self):
        diags = self.check_run(1.4279151778081682, 0.0, 2, 12,
                               10.0 ** -3.2136396481224754, "N")
        assert (diags[0].iterations, diags[0].relaxed) == (25, 21)

    # (p, lambda, r, m, delta): without the guard the predicted start takes
    # up to 13 iterations in a step of the first (315 in all, against 205
    # from U_k) and 9 in the second (148, against 133)
    @pytest.mark.parametrize("p, lam, r, m, delta", [
        (5.555, 9.41, 2, 7, 0.0286),
        (5.921, -7.64, 2, 6, 0.00781),
    ])
    def test_predicted_newton_start_stays_bounded(self, p, lam, r, m, delta):
        diags = self.check_run(p, lam, r, m, delta, "N", n_steps=40, tol=1e-12)
        assert diags is not None
        assert max(d.iterations for d in diags) <= 10

    @staticmethod
    def check_run(p, lam, r, m, delta, scheme, n_steps=10, tol=1e-14):
        """Run to completion and check the accepted pairs against the step
        oracles (returning the step diagnostics), or check that a divergence
        repeats on rerun (returning None)."""
        problem = forced_sine(p, lam, horizon=delta * n_steps)
        mesh = build_uniform_mesh(0, 1, m, r)
        # a tight tol, so the residuals measure the fixed point rather than
        # the absolute stopping rule
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=tol,
                           scheme=scheme)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                diags = [cn_step(plan)[2] for _ in range(n_steps)]
            except FixedPointDivergenceError as err:
                with pytest.raises(FixedPointDivergenceError) as again:
                    march(problem, mesh, cfg)
                assert (again.value.step, again.value.iterations) == \
                    (err.step, err.iterations)
                return None
        assert np.isfinite(hist.u).all() and np.isfinite(hist.y).all()
        rerun = march(problem, mesh, cfg)
        assert np.array_equal(rerun.u, hist.u)
        assert np.array_equal(rerun.y, hist.y)
        mass = asm.mass
        for k in range(n_steps):
            # the accepted pair is a fixed point to within tol: one more plain
            # iteration moves it about as far as the last tested increment.
            # A mode the plain map expands can make it several times that
            # (up to 4 tol in 7500 random runs); an omega that shrank until
            # the relaxed steps fell below tol leaves 10 to 1e7 tol.
            assert max(plain_increments(hist, k, problem.kernel, cfg, asm)) \
                <= 16.0 * cfg.tol
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            memory_terms = (mass.matvec(hist.y[k + 1]), mass.matvec(hist.u[k + 1]))
            scale = max(np.max(np.abs(t)) for t in memory_terms)
            assert np.max(np.abs(res_mem)) <= 1e-10 * scale
            if p < 1.5:
                # the regularized flux's slope (up to eps^(p-2)) multiplies
                # the last increment, which the absolute tol does not scale
                continue
            u_mid = 0.5 * (hist.u[k + 1] + hist.u[k])
            terms = (mass.matvec(hist.u[k + 1] - hist.u[k]) / delta,
                     asm.plap(u_mid).matvec(u_mid),
                     mass.matvec(0.5 * (hist.y[k + 1] + hist.y[k])),
                     asm.load((k + 0.5) * delta))
            scale = max(np.max(np.abs(t)) for t in terms)
            assert np.max(np.abs(res_ev)) <= 1e-2 * scale
        return diags


class TestHeatReduction:
    def test_single_step_matches_textbook_form(self):
        # p = 2, null kernel: (2M + dK) U1 = (2M - dK) U0 + 2d F
        mesh = build_uniform_mesh(0, 1, 12, 1)
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.1, p=2.0,
                              kernel=KernelSpec(0.0),
                              u0=lambda x: np.sin(np.pi * np.asarray(x)),
                              f=lambda x, t: np.ones_like(np.asarray(x)))
        cfg = SolverConfig(p=2.0, delta=0.01, n_steps=10)
        run = march(problem, mesh, cfg)
        h = mesh.h
        n = mesh.n_interior
        M = np.diag(np.full(n, 2 * h / 3)) + np.diag(np.full(n - 1, h / 6), 1) \
            + np.diag(np.full(n - 1, h / 6), -1)
        K = np.diag(np.full(n, 2 / h)) + np.diag(np.full(n - 1, -1 / h), 1) \
            + np.diag(np.full(n - 1, -1 / h), -1)
        F = h * np.ones(n)
        d = cfg.delta
        u = np.sin(np.pi * mesh.nodes[1:-1])
        for k in range(cfg.n_steps):
            u = np.linalg.solve(2 * M + d * K, (2 * M - d * K) @ u + 2 * d * F)
            assert np.allclose(run.u[k + 1], u, atol=1e-12)


class TestSchemeEquivalence:
    def test_linear_case_identical_limits(self):
        problem = free_decay(2.0, 1.0, sine_bump, horizon=0.05)
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        runs = {}
        for scheme in ("A", "B"):
            cfg = SolverConfig(p=2.0, delta=1e-3, n_steps=50, tol=1e-22,
                               max_iter=200, scheme=scheme)
            runs[scheme] = march(problem, mesh, cfg)
        diff = np.max(np.abs(runs["A"].u - runs["B"].u))
        assert diff < 1e-10

    def test_degenerate_case_same_fixed_points(self):
        # slopes 1, 0 and p - 1 of one iteration: the same fixed point,
        # on both sides of p = 2
        mesh = build_uniform_mesh(0, 1, 8, 1)
        mass = assemble_mass(mesh, gauss_legendre(3))
        for p in (3.0, 1.5, 4.0):
            problem = manufactured_example1(p, 1.0, horizon=0.02)
            runs = {}
            for scheme in ("A", "B", "N"):
                cfg = SolverConfig(p=p, delta=1e-3, n_steps=20, tol=1e-20,
                                   max_iter=300, scheme=scheme)
                runs[scheme] = march(problem, mesh, cfg)
            for other in ("B", "N"):
                worst = max(mass_norm(runs["A"].u[k] - runs[other].u[k], mass)
                            for k in range(21))
                assert worst < 1e-8, (p, other)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=st.floats(1.5, 5.0), lam=st.floats(-5.0, 5.0), r=st.integers(1, 2),
           m=st.integers(4, 10), delta=st.floats(1e-4, 5e-3),
           n_steps=st.integers(10, 20))
    def test_schemes_agree_on_random_problems(self, p, lam, r, m, delta, n_steps):
        # every scheme p allows, each to its fixed point; an example where
        # fewer than two complete is discarded (A and B stop at max_iter or
        # overflow for some p > 2: 109 of 1000 uniform draws, and 1 of the
        # 26 derandomized draws here). Over the 891 kept uniform draws the
        # largest M-norm gap between two schemes at any level was 9.9e-10,
        # with squared increments below 1e-20 at every accepted step.
        problem = forced_sine(p, lam, horizon=delta * n_steps)
        mesh = build_uniform_mesh(0, 1, m, r)
        runs = {}
        for scheme in ("B", "N") if 2.0 < p < 3.0 else ("A", "B", "N"):
            cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=1e-20,
                               max_iter=300, scheme=scheme)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    runs[scheme] = march(problem, mesh, cfg)
            except (FixedPointDivergenceError, LinearSolveError):
                pass
        event(f"completed: {' '.join(runs) or 'none'}")
        assume(len(runs) >= 2)
        mass = assemble_mass(mesh, gauss_legendre(r + 2))
        first, *others = runs.values()
        for other in others:
            worst = max(mass_norm(first.u[k] - other.u[k], mass)
                        for k in range(n_steps + 1))
            assert worst < 1e-8


class TestEnergyDissipation:
    def test_exact_identity_linear_case(self):
        # 2(E+ - E-) = -delta * s^T K s with s the level sum, when f = 0
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        problem = free_decay(2.0, 0.0, sine_bump, horizon=0.05)
        cfg = SolverConfig(p=2.0, delta=1e-3, n_steps=50)
        run = march(problem, mesh, cfg)
        n = mesh.n_interior
        h = mesh.h
        K = np.diag(np.full(n, 2 / h)) + np.diag(np.full(n - 1, -1 / h), 1) \
            + np.diag(np.full(n - 1, -1 / h), -1)
        for k in range(cfg.n_steps):
            s = run.u[k + 1] + run.u[k]
            lhs = 2 * (run.energies[k + 1] - run.energies[k])
            assert lhs == pytest.approx(-cfg.delta * s @ K @ s, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_energy_nonincreasing_free_decay(self, p):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        problem = free_decay(p, 0.0, sine_bump, horizon=0.05)
        cfg = SolverConfig(p=p, delta=1e-3, n_steps=50)
        run = march(problem, mesh, cfg)
        assert np.all(np.diff(run.energies) <= 10 * cfg.tol)


class TestContraction:
    def test_ratios_below_one_in_converged_runs(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.02)
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=20, tol=1e-18,
                           max_iter=100)
        run = march(problem, mesh, cfg)
        seen = 0
        for diag in run.diagnostics:
            for ratio in diag.ratios:
                assert ratio < 1.0
                seen += 1
        assert seen > 0


class TestStability:
    def test_halving_delta_keeps_bounds(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        mass = assemble_mass(mesh, gauss_legendre(3))
        bounds = {}
        for n_steps in (250, 500):
            problem = free_decay(4.0, 1.0, lambda x: 1 - np.asarray(x) ** 4,
                                 horizon=0.25)
            cfg = SolverConfig(p=4.0, delta=0.25 / n_steps, n_steps=n_steps)
            run = march(problem, mesh, cfg)
            bounds[n_steps] = (
                max(mass_norm(run.u[k], mass) for k in range(n_steps + 1)),
                max(mass_norm(run.y[k], mass) for k in range(n_steps + 1)))
        for i in range(2):
            coarse, fine = bounds[250][i], bounds[500][i]
            assert abs(coarse - fine) <= 0.10 * max(coarse, 1e-30)


class TestQuadratureInsensitivity:
    def test_doubling_points_barely_moves_errors(self):
        # the diffusion integrand is not polynomial; the default r + 2
        # points must already be in the quadrature-converged regime
        errors = {}
        for q_scale in (1, 2):
            problem = manufactured_example1(3.0, 1.0, horizon=0.05)
            mesh = build_uniform_mesh(0, 1, 8, 2)
            cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=50, tol=1e-14,
                               quad_points=q_scale * (mesh.r + 2))
            errors[q_scale] = march(problem, mesh, cfg).errors["u"]
        assert abs(errors[2] - errors[1]) < 0.01 * errors[1]


class TestRoundTrip:
    @pytest.mark.parametrize("separable", [True, False], ids=["separable", "callable"])
    def test_step_residuals_small_after_convergence(self, separable):
        problem = manufactured_example1(3.0, 1.0, horizon=0.02)
        if not separable:
            # the same f as a plain callable, which asm.load assembles at
            # every time it is given
            forcing = problem.f
            problem = dataclasses.replace(problem, f=lambda x, t: forcing(x, t))
        mesh = build_uniform_mesh(0, 1, 6, 1)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=20, tol=1e-10)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        for _ in range(cfg.n_steps):
            cn_step(plan)
        # the march stores no load, and step_residuals assembles the loads
        # it reads: a step that used a wrong load shows here
        assert np.abs(problem.f(0.5, 0.0)) > 0.0
        assert "loads" not in vars(hist)        # never allocated
        bound = max(1e-9, 10 * np.sqrt(cfg.tol))
        for k in range(cfg.n_steps):
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            assert np.max(np.abs(res_ev)) < bound
            assert np.max(np.abs(res_mem)) < 1e-10

    def test_residuals_of_an_uncompleted_step_rejected(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.002)
        mesh = build_uniform_mesh(0, 1, 4, 1)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=2)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        cn_step(StepPlan(hist, problem.kernel, cfg, asm))
        step_residuals(hist, 0, problem.kernel, cfg, asm)
        for k in (1, 2):
            with pytest.raises(ValueError, match=f"step {k} not completed yet "
                                                 r"\(history at 1\)"):
                step_residuals(hist, k, problem.kernel, cfg, asm)


class TestIterationOnU:
    """The step iterates on U alone: Y's increment follows from U's through
    the memory relation, and Y is formed once, from the accepted U."""

    RESTART = ("N", 5.555, 9.41, 7, 2, 0.0286, 1e-12)   # restarts at step 5

    def test_memory_increment_is_scaled_u_increment(self):
        problem = manufactured_example1(3.0, -2.0, horizon=0.05)
        mesh = build_uniform_mesh(0, 1, 6, 2)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=5)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        z, _ = step_relation(plan)
        alpha, beta = plan.alpha, plan.beta
        rng = np.random.default_rng(5)
        for _ in range(5):
            u1, u2 = rng.standard_normal((2, mesh.n_interior))
            du = u1 - u2
            dy = (z - beta * u1) / alpha - (z - beta * u2) / alpha
            inc_u = du @ asm.mass.matvec(du)
            assert dy @ asm.mass.matvec(dy) == pytest.approx(
                (beta / alpha) ** 2 * inc_u, rel=1e-12)

    def test_returned_level_is_the_stored_one(self):
        # the memory block forms Y in one of two buffers it swaps each step:
        # what cn_step returns must be the history's row, not that buffer
        problem = manufactured_example1(3.0, -2.0, horizon=0.05)
        mesh = build_uniform_mesh(0, 1, 6, 2)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=5)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, make_assembler(problem, mesh, cfg))
        u, y, _ = cn_step(plan)
        assert np.array_equal(u, hist.u[1]) and np.array_equal(y, hist.y[1])
        kept = u.copy(), y.copy()
        cn_step(plan)
        cn_step(plan)
        assert np.array_equal(u, kept[0]) and np.array_equal(y, kept[1])
        assert np.array_equal(y, hist.y[1]) and not np.array_equal(y, hist.y[3])

    @pytest.mark.parametrize("case", list(TestLeanStep.CASES) + ["p5.555-N-restarted"])
    def test_increments_and_memory_relation(self, case):
        if case in TestLeanStep.CASES:
            scheme, p, lam, m, r, delta, tol, _ = TestLeanStep.CASES[case]
            problem = manufactured_example1(p, lam, horizon=delta * 10)
            n_steps = 10
        else:
            scheme, p, lam, m, r, delta, tol = self.RESTART
            problem = forced_sine(p, lam, horizon=delta * 40)
            n_steps = 6
        mesh = build_uniform_mesh(0, 1, m, r)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=tol, scheme=scheme)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        mass = asm.mass
        alpha, beta = coefficients(problem.kernel, delta)
        diags = []
        for k in range(n_steps):
            _, _, diag = cn_step(plan)
            diags.append(diag)
            rhs = relation_rhs(*memory_equation(hist, k, assembled_loads(asm, k, delta),
                                                problem.kernel), mass)
            assert diag.increment_y == (beta / alpha) ** 2 * diag.increment_u
            my = alpha * mass.matvec(hist.y[k + 1])
            mu = beta * mass.matvec(hist.u[k + 1])
            scale = max(np.max(np.abs(t)) for t in (my, mu, rhs))
            assert np.max(np.abs(my + mu - rhs)) <= 1e-12 * scale
        if case == "p4-A-relaxed":
            assert any(d.relaxed for d in diags)
        if case == "p5.555-N-restarted":
            assert diags[5].restarted > 0

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_newton_right_hand_side_in_one_product(self, p, r):
        # J U - A (U + U^k) = A ((slope-1) U - U^k) for J = slope*A; at eps = 0
        # Newton's K_T is (p-1) A, and slopes 0 and 1 (schemes B and A) give
        # the former products -A (U + U^k) and -A U^k bitwise
        mesh = build_uniform_mesh(0, 1, 7, r)
        asm = Assembler(mesh, gauss_legendre(default_quad_points(r)),
                        SolverConfig(p=p, delta=0.01, n_steps=1).flux_params(), zero_f)
        rng = np.random.default_rng(int(10 * p) + r)
        for _ in range(5):
            u, u_prev = rng.standard_normal((2, mesh.n_interior))
            a_mid, k_t = asm.plap(0.5 * (u + u_prev), tangent=True)
            for slope, jacobian_u, before in (
                    (0.0, 0.0 * a_mid.matvec(u), -a_mid.matvec(u + u_prev)),
                    (1.0, a_mid.matvec(u), -a_mid.matvec(u_prev)),
                    (p - 1.0, k_t.matvec(u), None)):
                one = a_mid.matvec((slope - 1.0) * u - u_prev)
                two = jacobian_u - a_mid.matvec(u + u_prev)
                scale = max(np.max(np.abs(jacobian_u)),
                            np.max(np.abs(a_mid.matvec(u + u_prev))))
                assert np.max(np.abs(one - two)) <= 1e-13 * scale
                if before is not None:
                    assert np.array_equal(one, before)

    def test_regularized_newton_run_completes(self):
        # eps > 0 keeps the two-product right-hand side
        problem = forced_sine(4.0, 1.0, horizon=0.1)
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=4.0, delta=0.01, n_steps=10, tol=1e-12, scheme="N",
                           epsilon=1e-2)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        for _ in range(cfg.n_steps):
            cn_step(plan)
        for k in range(cfg.n_steps):
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            assert np.max(np.abs(res_ev)) < 1e-8
            assert np.max(np.abs(res_mem)) < 1e-10


class TestProductCounts:
    """Work per step of a hand-driven loop. Banded matrix-vector products:
    one per step (the step's right-hand side), then per iteration one for
    the right-hand side A(w)((slope-1) U - U^k) (two for Newton with
    eps > 0) and one for the increment; none at set-up, and none after the
    first iteration for p = 2 with slope 1, whose later increments are
    exactly 0. Solves with the step's system: one per iteration, and one
    per step for p = 2 with slope 1, whose first solve is the step. Mass
    solves: one per step for a forcing that is not a SeparableForcing, none
    for one (its profiles are solved once, with L_0, at set-up). Bands
    built: the ones the iteration assembles, and the run constants at
    set-up."""

    @pytest.mark.parametrize("scheme, p, epsilon, per_iteration", [
        ("A", 4.0, None, 2), ("B", 2.5, None, 2), ("N", 4.0, None, 2),
        ("N", 3.0, None, 2), ("N", 4.0, 1e-2, 3),
    ])
    def test_products_per_step(self, monkeypatch, scheme, p, epsilon, per_iteration):
        setup, counts = self.count(monkeypatch, BandedSymMatrix, "matvec", scheme, p,
                                   epsilon)
        assert setup == 0
        assert all(calls == 1 + per_iteration * diag.iterations
                   for calls, diag in counts)

    def test_linear_step_takes_three(self, monkeypatch):
        _, counts = self.count(monkeypatch, BandedSymMatrix, "matvec", "A", 2.0, None)
        assert [(calls, diag.iterations) for calls, diag in counts] == [(3, 2)] * 10

    @pytest.mark.parametrize("scheme, p, one_solve", [
        ("A", 2.0, True), ("N", 2.0, True), ("B", 2.0, False), ("N", 4.0, False),
        ("N", 3.0, False), ("A", 4.0, False),
    ])
    def test_system_solves_per_step(self, monkeypatch, scheme, p, one_solve):
        # a SeparableForcing takes no mass solve per step: every solve
        # counted is one with the step's system, by the run's factor or by
        # one driver call on the band an iteration assembled
        forcing = SeparableForcing(((lambda x: x * (1 - x), np.cos),))
        _, counts = self.count(monkeypatch, BandedFactor, "solve", scheme, p, None,
                               forcing=forcing, also=(BandedSymMatrix, "solve"))
        if one_solve:
            assert [(calls, diag.iterations) for calls, diag in counts] == [(1, 2)] * 10
        else:
            assert all(calls == diag.iterations for calls, diag in counts)
            assert max(diag.iterations for _, diag in counts) >= 2

    @pytest.mark.parametrize("forcing, solves", [      # at set-up, then per step
        (SeparableForcing(), [0] + [0] * 10),
        (SeparableForcing(((lambda x: x * (1 - x), np.cos),)), [1] + [0] * 10),
        (None, [1] + [1] * 10),       # forced_sine's f, a plain callable
    ])
    def test_mass_solves_per_step(self, monkeypatch, forcing, solves):
        setup, counts = self.count(monkeypatch, BandedFactor, "solve", "N", 4.0, None,
                                   forcing=forcing, mass_only=True)
        assert [setup] + [calls for calls, _ in counts] == solves

    # run constants: M and c*M, and A(0) for p = 2
    @pytest.mark.parametrize("scheme, p, epsilon, per_iteration, constants", [
        ("A", 4.0, None, 1, 2), ("B", 2.5, None, 1, 2), ("N", 4.0, None, 1, 2),
        ("N", 4.0, 1e-2, 2, 2), ("A", 2.0, None, 0, 3),
    ])
    def test_bands_built_per_step(self, monkeypatch, scheme, p, epsilon,
                                  per_iteration, constants):
        # the solved system is formed in the band its iteration assembled
        setup, counts = self.count(monkeypatch, BandedSymMatrix, "__init__", scheme, p,
                                   epsilon)
        assert setup == constants
        assert [calls for calls, _ in counts] == [per_iteration * diag.iterations
                                                  for _, diag in counts]

    @staticmethod
    def count(monkeypatch, owner, name, scheme, p, epsilon, forcing=None,
              mass_only=False, also=None):
        """The calls of owner.name (and of also, another (owner, name) pair)
        in the StepPlan's set-up, and (calls, diagnostics) of each of 10
        steps; forcing replaces forced_sine's f, and mass_only counts only
        the calls on the mass factor."""
        problem = forced_sine(p, 1.0, horizon=0.01)
        if forcing is not None:
            problem = dataclasses.replace(problem, f=forcing)
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=p, delta=1e-3, n_steps=10, tol=1e-12, scheme=scheme,
                           epsilon=epsilon)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        calls = [0]

        def counting(method):
            def wrapper(self, *args):
                if not mass_only or self is vars(asm).get("mass_factor"):
                    calls[0] += 1
                return method(self, *args)
            return wrapper

        for site in ((owner, name),) + ((also,) if also else ()):
            monkeypatch.setattr(*site, counting(getattr(*site)))
        plan = StepPlan(hist, problem.kernel, cfg, asm)
        setup, out = calls[0], []
        for _ in range(cfg.n_steps):
            calls[0] = 0
            diag = cn_step(plan)[2]
            out.append((calls[0], diag))
        return setup, out


class TestStepPlan:
    def test_refuses_a_history_past_level_zero(self):
        problem = free_decay(3.0, 1.0, sine_bump, horizon=0.02)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=2)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        cn_step(StepPlan(hist, problem.kernel, cfg, asm))
        with pytest.raises(ValueError, match="level 0, not 1"):
            StepPlan(hist, problem.kernel, cfg, asm)

    @pytest.mark.parametrize("p, scheme", [(2.0, "auto"), (2.5, "B")])
    def test_factors_per_march_do_not_grow_with_steps(self, monkeypatch, p, scheme):
        # the solved system is a run constant here, factored once like M
        built = []
        init = BandedFactor.__init__

        def counting(self, matrix):
            built[-1] += 1
            init(self, matrix)

        monkeypatch.setattr(BandedFactor, "__init__", counting)
        for n_steps in (5, 50):
            built.append(0)
            march(forced_sine(p, 1.0, horizon=1e-3 * n_steps),
                  build_uniform_mesh(0, 1, 8, 2),
                  SolverConfig(p=p, delta=1e-3, n_steps=n_steps, scheme=scheme))
        assert built == [2, 2]


class TestNodalMemoryRelation:
    """step_relation's z and M*v against the dense reduction they replace:
    z = M^{-1}(M*s - F) and M(2U_k + delta Y_k + (delta/alpha) z) +
    2 delta L_{k+1/2}, with F summed directly over load vectors assembled
    anew (stepper.assembled_loads); through the carried block
    ("running-sums") and through the direct sums and one mass solve ("direct": step_relation
    replaced by memory_oracles.direct_relation)."""

    FORCINGS = {
        "zero": SeparableForcing(),
        "separable": SeparableForcing(((lambda x: x * (1 - x), np.cos),)),
        "callable": lambda x, t: np.asarray(x) * (1 - np.asarray(x)) * np.cos(t),
    }

    @pytest.mark.parametrize("mode", ["consistent", "literal"])
    @pytest.mark.parametrize("running", [True, False], ids=["running-sums", "direct"])
    @pytest.mark.parametrize("forcing", list(FORCINGS))
    def test_z_matches_solved_relation(self, monkeypatch, forcing, running, mode):
        kernel = KernelSpec(-3.0)
        relation = step_relation if running else direct_relation
        monkeypatch.setattr(stepper, "step_relation", relation)
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.08, p=3.0, kernel=kernel,
                              u0=sine_01, f=self.FORCINGS[forcing])
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=8, tol=1e-12,
                           quadrature_mode=mode)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg)
        plan = StepPlan(hist, kernel, cfg, asm)
        mass = asm.mass
        delta = cfg.delta
        for k in range(cfg.n_steps):
            z, v = relation(plan)
            alpha, beta = plan.alpha, plan.beta
            ref = memory_equation(hist, k, assembled_loads(asm, k, delta), kernel, mode)
            assert (alpha, beta) == coefficients(kernel, delta)
            z_ref = np.linalg.solve(to_dense(mass), relation_rhs(*ref, mass))
            mv_ref = (mass.matvec(2.0 * hist.u[k] + delta * hist.y[k]
                                  + (delta / alpha) * z_ref)
                      + 2.0 * delta * asm.load((k + 0.5) * delta))
            assert np.max(np.abs(z - z_ref)) <= 1e-12 * np.max(np.abs(z_ref))
            assert (np.max(np.abs(mass.matvec(v) - mv_ref))
                    <= 1e-12 * np.max(np.abs(mv_ref)))
            cn_step(plan)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_forcing_paths_agree(self, monkeypatch, p):
        # one f as a plain callable and declared as a SeparableForcing, each
        # through the memory block and through the direct sums: four load
        # and history paths, one trajectory
        runs = []
        for f in (self.FORCINGS["callable"], self.FORCINGS["separable"]):
            for relation in (step_relation, direct_relation):
                monkeypatch.setattr(stepper, "step_relation", relation)
                problem = ProblemSpec(a=0.0, b=1.0, horizon=0.1, p=p,
                                      kernel=KernelSpec(-3.0), u0=sine_01, f=f)
                runs.append(march(problem, build_uniform_mesh(0, 1, 8, 2),
                                  SolverConfig(p=p, delta=2e-3, n_steps=50, tol=1e-13)))
        ref = runs[0]
        for run in runs[1:]:
            assert ([d.iterations for d in run.diagnostics]
                    == [d.iterations for d in ref.diagnostics])
            for name in ("u", "y"):
                a, b = getattr(run, name), getattr(ref, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def four_level_start(hist):
    """The predicted start with its guard formed from the stored levels
    alone: 3(U_k - U_{k-1}) + U_{k-2} where U_k - 3U_{k-1} + 3U_{k-2} -
    U_{k-3} is smaller in max-norm than U_k - U_{k-1}."""
    k, u = hist.k, hist.u
    if k < 3:
        return None
    miss = u[k] - 3.0 * u[k - 1] + 3.0 * u[k - 2] - u[k - 3]
    if np.max(np.abs(miss)) >= np.max(np.abs(u[k] - u[k - 1])):
        return None
    return 3.0 * (u[k] - u[k - 1]) + u[k - 2]


class TestIncrementalStart:
    """predicted_start's starts, guard decisions and iterations are those
    of the four-level formula on the regression trajectories."""

    @pytest.mark.parametrize("case", ["p4-N", "p5.555-N-restarted"])
    def test_matches_four_level_formula(self, monkeypatch, case):
        import plapmem.stepper as stepper
        if case == "p4-N":
            scheme, p, lam, m, r, delta, tol, _ = TestLeanStep.CASES[case]
            problem = manufactured_example1(p, lam, horizon=delta * 10)
            n_steps = 10
        else:   # guard passes at k = 4, 5 only; restarts at step 5
            scheme, p, lam, m, r, delta, tol = TestIterationOnU.RESTART
            problem = forced_sine(p, lam, horizon=delta * 40)
            n_steps = 40
        mesh = build_uniform_mesh(0, 1, m, r)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=tol, scheme=scheme)
        incremental = stepper.predicted_start
        decisions = []

        def compare(plan):
            start, ref = incremental(plan), four_level_start(plan.hist)
            decisions.append((start is None, ref is None))
            if ref is not None and start is not None:
                assert np.max(np.abs(start - ref)) <= 1e-14 * np.max(np.abs(ref))
            return start

        monkeypatch.setattr(stepper, "predicted_start", compare)
        run = march(problem, mesh, cfg)
        monkeypatch.setattr(stepper, "predicted_start",
                            lambda plan: four_level_start(plan.hist))
        ref = march(problem, mesh, cfg)
        assert all(new == old for new, old in decisions)
        assert len(decisions) == n_steps
        assert ([(d.iterations, d.restarted) for d in run.diagnostics]
                == [(d.iterations, d.restarted) for d in ref.diagnostics])
