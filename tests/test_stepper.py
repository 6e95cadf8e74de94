import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plapmem import (ConfigError, FixedPointDivergenceError, IllPosedStepError,
                     ProblemSpec, SolverConfig, build_uniform_mesh,
                     exponential_kernel, manufactured_example1, march,
                     mass_norm, step_residuals)
from plapmem.banded import BandedSymMatrix
from plapmem.assembly import SeparableForcing, assemble_mass, interpolate
from plapmem.errors import LinearSolveError
from plapmem.experiments import asymptotics_problem, propagation_problem
from plapmem.memory import (ExponentialSums, MemoryEquation, StateHistory,
                            memory_equation)
from plapmem.mesh import default_quad_points, gauss_legendre
from plapmem.stepper import (_STALL_GRACE, _STALL_RATIO, Assembler, BlockSystem,
                             cn_step, fixed_point_init, predicted_start,
                             resolve_scheme, select_scheme)


def zero_f(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def free_decay(p, lam, u0, a=-1.0, b=1.0, horizon=1.0):
    return ProblemSpec(a=a, b=b, horizon=horizon, p=p,
                       kernel=exponential_kernel(lam), u0=u0, f=zero_f)


def sine_bump(x):
    x = np.asarray(x, dtype=float)
    return np.sin(np.pi * (x + 1) / 2)


class TestSchemeSelection:
    def test_high_exponent_implicit(self):
        # Newton keeps the diffusion's Jacobian on the left
        assert select_scheme(3.0) == "N"
        assert select_scheme(4.0) == "N"

    def test_intermediate_exponent_newton(self):
        # where scheme A is unavailable, Newton and not the explicit scheme B
        assert select_scheme(2.5) == "N"
        assert select_scheme(2.0 + 1e-9) == "N"

    def test_linear_exponent_implicit(self):
        # state-independent diffusion: the step is one exact linear solve
        assert select_scheme(2.0) == "A"

    def test_singular_exponent_implicit(self):
        # explicit-diffusion iterations cycle near extinction for p < 2;
        # the implicit route is the one that completes those runs
        assert select_scheme(1.5) == "A"
        cfg = SolverConfig(p=1.5, delta=0.1, n_steps=10)
        assert cfg.scheme == "A"
        assert cfg.epsilon == 1e-8

    def test_invalid_exponent(self):
        with pytest.raises(ConfigError):
            select_scheme(1.0)
        with pytest.raises(ConfigError):
            select_scheme(0.5)

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
        with pytest.raises(ConfigError) as err:
            resolve_scheme(p, requested)
        assert err.value.field == field


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=10)
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 100
        assert cfg.scheme == "N"
        assert cfg.epsilon == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(p=3.0, delta=-0.1, n_steps=10),
        dict(p=3.0, delta=0.1, n_steps=0),
        dict(p=3.0, delta=0.1, n_steps=10, tol=0.0),
        dict(p=3.0, delta=0.1, n_steps=10, max_iter=1),
        dict(p=3.0, delta=0.1, n_steps=10, quadrature_mode="verbatim"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)


def make_assembler(problem, mesh, cfg):
    quad = gauss_legendre(default_quad_points(mesh.r, cfg.quad_points))
    return Assembler(mesh, quad, cfg.flux_params(), problem.f)


def fresh_history(problem, mesh, cfg, asm):
    hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
    hist.set_initial(interpolate(mesh, problem.u0), asm.load(0.0))
    return hist


class TestFixedPoint:
    def test_init_copies_latest_level(self):
        problem = free_decay(2.0, 0.0, sine_bump)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=2.0, delta=0.01, n_steps=5)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        u0 = fixed_point_init(hist)
        assert np.array_equal(u0, hist.u[0])
        u0 += 1.0                      # must not alias the stored level
        assert not np.array_equal(u0, hist.u[0])

    def test_discrete_steady_state_converges_in_one_iteration(self):
        # u solving K u = F is a fixed point of the heat step; seeding with
        # it makes the very first increment vanish
        mesh = build_uniform_mesh(0, 1, 9, 1)
        cfg = SolverConfig(p=2.0, delta=0.02, n_steps=5)
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.1, p=2.0,
                              kernel=exponential_kernel(0.0),
                              u0=lambda x: np.zeros_like(np.asarray(x)),
                              f=lambda x, t: np.ones_like(np.asarray(x)))
        asm = make_assembler(problem, mesh, cfg)
        stiff = np.diag(np.full(mesh.n_interior, 2 / mesh.h)) \
            + np.diag(np.full(mesh.n_interior - 1, -1 / mesh.h), 1) \
            + np.diag(np.full(mesh.n_interior - 1, -1 / mesh.h), -1)
        steady = np.linalg.solve(stiff, asm.load(0.0))
        hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
        hist.set_initial(steady, asm.load(0.0))
        _, _, diag = cn_step(hist, problem.kernel, cfg, asm)
        assert diag.iterations == 1

    def test_linear_step_terminates_at_two_iterations(self):
        # iterate-independent system: the second solve repeats the first
        for lam in (0.0, 1.0, -1.0):
            problem = free_decay(2.0, lam, sine_bump)
            mesh = build_uniform_mesh(-1, 1, 10, 1)
            cfg = SolverConfig(p=2.0, delta=0.01, n_steps=3)
            asm = make_assembler(problem, mesh, cfg)
            hist = fresh_history(problem, mesh, cfg, asm)
            _, _, diag = cn_step(hist, problem.kernel, cfg, asm)
            assert diag.iterations == 2
            assert diag.increment_u < 1e-24
            assert diag.increment_y < 1e-24

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
        mem = MemoryEquation(alpha=0.6, beta=-0.3, rhs=rng.standard_normal(n))
        block = BlockSystem(mem, mass.factor(), delta)
        u = (matrix + block.shift * mass).solve(rhs + block.rhs_share)
        y = block.memory_state(u)
        # independent dense solve of the coupled 2x2 block system
        md, sd = mass.to_dense(), matrix.to_dense()
        big = np.block([[sd, -delta * md],
                        [mem.beta * md, mem.alpha * md]])
        sol = np.linalg.solve(big, np.concatenate([rhs, mem.rhs]))
        assert np.allclose(u, sol[:n], atol=1e-12)
        assert np.allclose(y, sol[n:], atol=1e-12)
        # residuals of both original blocks
        r1 = sd @ u - delta * (md @ y) - rhs
        r2 = mem.beta * (md @ u) + mem.alpha * (md @ y) - mem.rhs
        assert np.max(np.abs(r1)) < 1e-10 * max(1, np.max(np.abs(rhs)))
        assert np.max(np.abs(r2)) < 1e-10 * max(1, np.max(np.abs(mem.rhs)))

    def test_vanishing_alpha_guard(self):
        # alpha = 1/2 + delta*g(0)/8 vanishes for delta*g(0) = -4
        mass = BandedSymMatrix(np.array([[1.0]]))
        hist = StateHistory(1, 5, 0.5)
        hist.set_initial(np.array([1.0]), np.array([0.0]))
        with pytest.raises(IllPosedStepError):
            memory_equation(hist, exponential_kernel(-8.0), mass)


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
        hist = fresh_history(problem, mesh, cfg, asm)
        u1, y1, _ = cn_step(hist, problem.kernel, cfg, asm)
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

    def test_no_interior_dofs_rejected(self):
        problem = free_decay(2.0, 0.0, lambda x: np.zeros_like(np.asarray(x)),
                             a=0.0, b=1.0, horizon=0.1)
        mesh = build_uniform_mesh(0, 1, 1, 1)
        with pytest.raises(ConfigError):
            march(problem, mesh, SolverConfig(p=2.0, delta=0.01, n_steps=10))


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


class TestSeparableLoad:
    def test_profiles_integrated_once_per_run(self):
        terms = [CountingTerm(lambda x: x * (1 - x), np.cos),
                 CountingTerm(np.sin, lambda t: np.exp(-t))]
        forcing = SeparableForcing(tuple((c.space, c.time) for c in terms))
        n_steps = 12
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.12, p=3.0,
                              kernel=exponential_kernel(1.0), u0=sine_01,
                              f=forcing)
        march(problem, build_uniform_mesh(0, 1, 6, 2),
              SolverConfig(p=3.0, delta=0.01, n_steps=n_steps))
        for term in terms:
            assert term.space_calls == 1
            assert term.time_calls == n_steps + 1

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
                              kernel=exponential_kernel(1.0), u0=sine_01,
                              f=forcing)
        with pytest.raises(ConfigError, match=r"t=0\.025") as err:
            march(problem, build_uniform_mesh(0, 1, 6, 1),
                  SolverConfig(p=2.0, delta=0.01, n_steps=5))
        assert err.value.field == "forcing"


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
        hist = fresh_history(problem, mesh, cfg, asm)
        diags = [cn_step(hist, problem.kernel, cfg, asm)[2]
                 for _ in range(n_steps)]
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
        for k in range(n_steps):
            mem = memory_equation(hist.truncated(k), problem.kernel, mass)
            my = mem.alpha * mass.matvec(hist.y[k + 1])
            mu = mem.beta * mass.matvec(hist.u[k + 1])
            scale = max(np.max(np.abs(t)) for t in (my, mu, mem.rhs))
            assert np.max(np.abs(my + mu - mem.rhs)) <= 1e-12 * scale
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


class TestPredictedStart:
    """Newton starts from the extrapolation 3(U_k - U_{k-1}) + U_{k-2} where
    it predicted U_k better than U_{k-1} did, and restarts once from U_k if
    that start stalls."""

    @staticmethod
    def history(levels):
        hist = StateHistory(levels.shape[1], len(levels), 0.1)
        hist.set_initial(levels[0], np.zeros(levels.shape[1]))
        for u in levels[1:]:
            hist.append(u, np.zeros_like(u))
        return hist

    def test_extrapolation_exact_on_quadratic_trajectories(self):
        t = np.arange(6)[:, None]
        levels = 1.0 + 0.5 * t - 0.25 * t**2 * np.array([1.0, 2.0, -3.0])
        for k in range(3):
            assert predicted_start(self.history(levels[:k + 1])) is None
        for k in range(3, 5):
            hist = self.history(levels[:k + 1])
            assert np.allclose(predicted_start(hist), levels[k + 1],
                               rtol=0, atol=1e-13)

    def test_guard_rejects_rough_trajectories(self):
        # U_{k-1} predicts U_k better than the extrapolation from k-1..k-3
        levels = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert predicted_start(self.history(levels)) is None
        smooth = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert np.allclose(predicted_start(self.history(smooth)), [4.0])

    def test_stalled_prediction_restarts_from_previous_level(self, monkeypatch):
        import copy
        import plapmem.stepper as stepper
        # step 5 of this run: the predicted start's second ratio is 3.9
        p, lam, r, m, delta = 5.555, 9.41, 2, 7, 0.0286
        problem = forced_sine(p, lam, horizon=delta * 40)
        mesh = build_uniform_mesh(0, 1, m, r)
        cfg = SolverConfig(p=p, delta=delta, n_steps=40, tol=1e-12, scheme="N")
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        early = [cn_step(hist, problem.kernel, cfg, asm)[2] for _ in range(5)]
        assert [d.restarted for d in early] == [0] * 5
        plain = copy.deepcopy(hist)
        u, y, diag = cn_step(hist, problem.kernel, cfg, asm)
        monkeypatch.setattr(stepper, "predicted_start", lambda hist: None)
        u_plain, y_plain, diag_plain = cn_step(plain, problem.kernel, cfg, asm)
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
                       kernel=exponential_kernel(lam),
                       u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
                       f=lambda x, t: np.asarray(x) * (1 - np.asarray(x)) * np.cos(t))


def plain_increments(hist, k, kernel, cfg, asm):
    """Squared M-norm increments of one plain iteration from step k's stored
    pair: with Y eliminated, the iteration matrix S (the Jacobian for
    Newton) maps U - G(U) to 2*delta times the evolution residual, so this
    needs neither omega nor the loop."""
    res_ev, _ = step_residuals(hist, k, kernel, cfg, asm)
    mem = memory_equation(hist.truncated(k), kernel, asm.mass, cfg.quadrature_mode)
    mass = asm.mass.to_dense()
    matrix = (2.0 + cfg.delta * mem.beta / mem.alpha) * mass
    u_mid = 0.5 * (hist.u[k + 1] + hist.u[k])
    if cfg.scheme == "A":
        matrix += cfg.delta * asm.plap(u_mid).to_dense()
    elif cfg.scheme == "N":
        matrix += cfg.delta * asm.plap(u_mid, tangent=True)[1].to_dense()
    du = np.linalg.solve(matrix, 2.0 * cfg.delta * res_ev)
    inc_u = du @ mass @ du
    return inc_u, (mem.beta / mem.alpha) ** 2 * inc_u


PROPERTY_CASES = dict(p=st.floats(1.0, 6.0, exclude_min=True),
                      lam=st.floats(-10.0, 10.0), r=st.integers(1, 3),
                      m=st.integers(4, 12), log_delta=st.floats(-4.0, -2.0))


class TestNonlinearSolveProperties:
    """Random exponents, amplitudes, meshes and time steps: every run either
    completes at the fixed point or stops with a typed divergence."""

    @settings(max_examples=40, deadline=None)
    @given(**PROPERTY_CASES)
    def test_run_completes_or_diverges(self, p, lam, r, m, log_delta):
        # the fixed-point schemes: B where A is unavailable, A elsewhere
        self.check_run(p, lam, r, m, 10.0 ** log_delta,
                       "B" if 2.0 < p < 3.0 else "A")

    @settings(max_examples=40, deadline=None)
    @given(**PROPERTY_CASES)
    def test_newton_run_completes_or_diverges(self, p, lam, r, m, log_delta):
        self.check_run(p, lam, r, m, 10.0 ** log_delta, "N")

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
        hist = fresh_history(problem, mesh, cfg, asm)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                diags = [cn_step(hist, problem.kernel, cfg, asm)[2]
                         for _ in range(n_steps)]
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
                     hist.loads[k + 1])
            scale = max(np.max(np.abs(t)) for t in terms)
            assert np.max(np.abs(res_ev)) <= 1e-2 * scale
        return diags


class TestHeatReduction:
    def test_single_step_matches_textbook_form(self):
        # p = 2, null kernel: (2M + dK) U1 = (2M - dK) U0 + 2d F
        mesh = build_uniform_mesh(0, 1, 12, 1)
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.1, p=2.0,
                              kernel=exponential_kernel(0.0),
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
        problem = manufactured_example1(3.0, 1.0, horizon=0.02)
        mesh = build_uniform_mesh(0, 1, 8, 1)
        mass = assemble_mass(mesh, gauss_legendre(3))
        runs = {}
        for scheme in ("A", "B"):
            cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=20, tol=1e-20,
                               max_iter=300, scheme=scheme)
            runs[scheme] = march(problem, mesh, cfg)
        worst = max(mass_norm(runs["A"].u[k] - runs["B"].u[k], mass)
                    for k in range(21))
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
    def test_step_residuals_small_after_convergence(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.02)
        mesh = build_uniform_mesh(0, 1, 6, 1)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=20, tol=1e-10)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        for _ in range(cfg.n_steps):
            cn_step(hist, problem.kernel, cfg, asm)
        bound = max(1e-9, 10 * np.sqrt(cfg.tol))
        for k in range(cfg.n_steps):
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            assert np.max(np.abs(res_ev)) < bound
            assert np.max(np.abs(res_mem)) < 1e-10


class TestIterationOnU:
    """The step iterates on U alone: Y's increment follows from U's through
    the memory relation, and Y is formed once, from the accepted U."""

    RESTART = ("N", 5.555, 9.41, 7, 2, 0.0286, 1e-12)   # restarts at step 5

    def test_memory_increment_is_scaled_u_increment(self):
        problem = manufactured_example1(3.0, -2.0, horizon=0.05)
        mesh = build_uniform_mesh(0, 1, 6, 2)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=5)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        mem = memory_equation(hist, problem.kernel, asm.mass)
        block = BlockSystem(mem, asm.mass_factor, cfg.delta)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u1, u2 = rng.standard_normal((2, mesh.n_interior))
            du, dy = u1 - u2, block.memory_state(u1) - block.memory_state(u2)
            inc_u = du @ asm.mass.matvec(du)
            assert dy @ asm.mass.matvec(dy) == pytest.approx(
                (mem.beta / mem.alpha) ** 2 * inc_u, rel=1e-12)

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
        hist = fresh_history(problem, mesh, cfg, asm)
        mass, sums = asm.mass, ExponentialSums()
        diags = []
        for k in range(n_steps):
            _, _, diag = cn_step(hist, problem.kernel, cfg, asm, sums)
            diags.append(diag)
            mem = memory_equation(hist.truncated(k), problem.kernel, mass)
            assert diag.increment_y == (mem.beta / mem.alpha) ** 2 * diag.increment_u
            my = mem.alpha * mass.matvec(hist.y[k + 1])
            mu = mem.beta * mass.matvec(hist.u[k + 1])
            scale = max(np.max(np.abs(t)) for t in (my, mu, mem.rhs))
            assert np.max(np.abs(my + mu - mem.rhs)) <= 1e-12 * scale
        if case == "p4-A-relaxed":
            assert any(d.relaxed for d in diags)
        if case == "p5.555-N-restarted":
            assert diags[5].restarted > 0

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_newton_right_hand_side_in_one_product(self, p, r):
        # eps = 0: K_T = (p-1) A, so K_T U - A (U + U^k) = A ((p-2) U - U^k)
        mesh = build_uniform_mesh(0, 1, 7, r)
        asm = Assembler(mesh, gauss_legendre(default_quad_points(r)),
                        SolverConfig(p=p, delta=0.01, n_steps=1).flux_params(), zero_f)
        rng = np.random.default_rng(int(10 * p) + r)
        for _ in range(5):
            u, u_prev = rng.standard_normal((2, mesh.n_interior))
            a_mid, k_t = asm.plap(0.5 * (u + u_prev), tangent=True)
            two = k_t.matvec(u) - a_mid.matvec(u + u_prev)
            one = a_mid.matvec((p - 2.0) * u - u_prev)
            scale = max(np.max(np.abs(k_t.matvec(u))),
                        np.max(np.abs(a_mid.matvec(u + u_prev))))
            assert np.max(np.abs(one - two)) <= 1e-13 * scale

    def test_regularized_newton_run_completes(self):
        # eps > 0 keeps the two-product right-hand side
        problem = forced_sine(4.0, 1.0, horizon=0.1)
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=4.0, delta=0.01, n_steps=10, tol=1e-12, scheme="N",
                           epsilon=1e-2)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        for _ in range(cfg.n_steps):
            cn_step(hist, problem.kernel, cfg, asm)
        for k in range(cfg.n_steps):
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            assert np.max(np.abs(res_ev)) < 1e-8
            assert np.max(np.abs(res_mem)) < 1e-10


class TestProductCounts:
    """Banded matrix-vector products per step of a hand-driven loop: two per
    step (the step's right-hand side and the memory relation's), then per
    iteration one for the right-hand side (two for Newton with eps > 0,
    none after the first for p = 2 with scheme A) and one for the increment."""

    @pytest.mark.parametrize("scheme, p, epsilon, per_iteration", [
        ("A", 4.0, None, 2), ("B", 2.5, None, 2), ("N", 4.0, None, 2),
        ("N", 3.0, None, 2), ("N", 4.0, 1e-2, 3),
    ])
    def test_products_per_step(self, monkeypatch, scheme, p, epsilon, per_iteration):
        counts = self.count(monkeypatch, scheme, p, epsilon)
        assert all(calls == 2 + per_iteration * diag.iterations
                   for calls, diag in counts)

    def test_linear_step_takes_five(self, monkeypatch):
        counts = self.count(monkeypatch, "A", 2.0, None)
        assert [(calls, diag.iterations) for calls, diag in counts] == [(5, 2)] * 10

    @staticmethod
    def count(monkeypatch, scheme, p, epsilon):
        """(products, diagnostics) of each of 10 steps."""
        problem = forced_sine(p, 1.0, horizon=0.01)
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=p, delta=1e-3, n_steps=10, tol=1e-12, scheme=scheme,
                           epsilon=epsilon)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        sums = ExponentialSums()
        calls = [0]
        matvec = BandedSymMatrix.matvec

        def counting(self, x):
            calls[0] += 1
            return matvec(self, x)

        monkeypatch.setattr(BandedSymMatrix, "matvec", counting)
        out = []
        for _ in range(cfg.n_steps):
            calls[0] = 0
            diag = cn_step(hist, problem.kernel, cfg, asm, sums)[2]
            out.append((calls[0], diag))
        return out
