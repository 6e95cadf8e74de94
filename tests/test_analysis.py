import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from fe_oracles import to_dense
from plapmem import (ConfigError, RunOutput, build_uniform_mesh,
                     convergence_orders, energy, extrema_series, fit_order,
                     l2_error, manufactured_example1, march, support_gap,
                     waiting_time)
from plapmem import analysis
from plapmem.analysis import plap_of_bump
from plapmem.assembly import assemble_mass, interpolate
from plapmem.experiments import _front_profile, asymptotics_problem, propagation_problem
from plapmem.memory import StateHistory
from plapmem.mesh import default_quad_points, full_coefficients, gauss_legendre
from plapmem.stepper import Assembler, SolverConfig, StepPlan, cn_step


class TestL2Error:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_interpolant_of_low_degree_polynomial(self, r):
        mesh = build_uniform_mesh(0, 1, 5, r)
        rng = np.random.default_rng(r)
        coeff = rng.uniform(-1, 1, size=r + 1)
        poly = np.polynomial.Polynomial(coeff)
        nodal = poly(mesh.nodes)
        assert l2_error(mesh, nodal, poly) < 1e-12

    def test_constant_disagreement(self):
        mesh = build_uniform_mesh(0, 1, 8, 1)
        err = l2_error(mesh, np.zeros(mesh.n_interior),
                       lambda x: np.ones_like(x))
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_interpolation_error_order_two(self):
        errs = []
        for m in (8, 16):
            mesh = build_uniform_mesh(0, 1, m, 1)
            nodal = np.sin(np.pi * mesh.nodes)
            errs.append(l2_error(mesh, nodal, lambda x: np.sin(np.pi * x)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_scalar_exact_solution_matches_array_one(self):
        # an exact solution that cannot take an array is called per point
        mesh = build_uniform_mesh(0, 1, 5, 2)
        coeffs = np.random.default_rng(0).uniform(-1, 1, mesh.n_interior)
        scalar_only = lambda x: x * (1 - x) if x >= 0.0 else np.nan
        assert (l2_error(mesh, coeffs, scalar_only)
                == l2_error(mesh, coeffs, lambda x: x * (1 - x)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_exact_value_rejected(self):
        # 5 Gauss points on each of 3 elements: the middle one of the middle
        # element is x = 1/2, where |x - 1/2|^(-0.3) divides by zero
        mesh = build_uniform_mesh(0, 1, 3, 2)
        with pytest.raises(ConfigError, match=r"^exact: non-finite values at x=0\.5, "
                                              r"1 of 15 quadrature points$"):
            l2_error(mesh, np.zeros(mesh.n_interior), lambda x: np.abs(x - 0.5) ** -0.3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_keeps_only_finite_errors(self):
        # p < 2: the exact y of the manufactured problem is unbounded at x = 1/2
        problem = manufactured_example1(1.7, 1.0, horizon=0.01)
        run = march(problem, build_uniform_mesh(0, 1, 3, 2),
                    SolverConfig(p=1.7, delta=1e-3, n_steps=10))
        assert list(run.errors) == ["u"] and np.isfinite(run.errors["u"])
        assert run.skipped_errors == {
            "y": "exact: non-finite values at x=0.5, 1 of 15 quadrature points"}


class TestEnergy:
    def test_zero_vector(self):
        mesh = build_uniform_mesh(-1, 1, 6, 1)
        assert energy(mesh, np.zeros(mesh.n_interior)) == 0.0

    def test_plateau_approaches_interval_length(self):
        mesh = build_uniform_mesh(-1, 1, 100, 1)
        ones = np.ones(mesh.n_interior)
        # interpolated indicator ramps to zero over one boundary element
        assert energy(mesh, ones) == pytest.approx(2.0, abs=2 * mesh.h)

    def test_quartic_profile_exact_value(self):
        mesh = build_uniform_mesh(0, 1, 4, 2)
        nodal = mesh.nodes * (1 - mesh.nodes)
        # integral of x^2 (1-x)^2 over (0, 1)
        assert energy(mesh, nodal[1:-1]) == pytest.approx(1 / 30, abs=1e-12)

    def test_matches_direct_quadrature_for_random_fields(self):
        from plapmem.mesh import eval_on_elements, gauss_legendre
        mesh = build_uniform_mesh(-1, 1, 7, 3)
        rng = np.random.default_rng(21)
        quad = gauss_legendre(8)
        for _ in range(5):
            coeffs = rng.standard_normal(mesh.n_interior)
            _, vals = eval_on_elements(mesh, coeffs, quad.points)
            direct = mesh.h * float(np.einsum("q,mq->", quad.weights,
                                              vals * vals))
            assert energy(mesh, coeffs) == pytest.approx(direct, abs=1e-13)


class TestConvergenceOrders:
    def test_single_pair(self):
        assert convergence_orders([1e-2, 2.5e-3], [0.2, 0.1]) == pytest.approx([2.0])

    def test_cubic_sequence(self):
        steps = np.array([0.4, 0.2, 0.1])
        errs = 5.0 * steps ** 3
        assert convergence_orders(errs, steps) == pytest.approx([3.0, 3.0])

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.7, 5.0])
    def test_synthetic_power_law(self, q):
        steps = np.array([0.8, 0.37, 0.11, 0.05])
        errs = 2.3 * steps ** q
        assert convergence_orders(errs, steps) == pytest.approx([q, q, q])
        assert fit_order(errs, steps) == pytest.approx(q)

    @pytest.mark.parametrize("estimate", [convergence_orders, fit_order])
    @pytest.mark.parametrize("errors, steps", [
        pytest.param([1e-2, 0.0], [0.2, 0.1], id="zero-error"),
        pytest.param([1e-2, -1e-3], [0.2, 0.1], id="negative-error"),
        pytest.param([1e-2, np.nan], [0.2, 0.1], id="nan-error"),
        pytest.param([np.inf, 1e-3], [0.2, 0.1], id="inf-error"),
        pytest.param([1e-2, 1e-3], [0.1, 0.2], id="increasing-steps"),
        pytest.param([1e-2, 1e-3], [0.1, 0.1], id="equal-steps"),
        pytest.param([1e-2, 1e-3], [0.1, np.nan], id="nan-step"),
        pytest.param([1e-2, 1e-3], [np.inf, 0.1], id="inf-step"),
        pytest.param([1e-2, 1e-3], [0.1, 0.0], id="zero-step"),
        pytest.param([1e-2, 1e-3], [0.1, -0.1], id="negative-step"),
        pytest.param([1e-2], [0.1], id="one-point"),
        pytest.param([1e-2, 1e-3, 1e-4], [0.2, 0.1], id="mismatched-lengths"),
        pytest.param([[1e-2, 1e-3]], [[0.2, 0.1]], id="2-d"),
    ])
    def test_invalid_inputs(self, estimate, errors, steps):
        with pytest.raises(ValueError):
            estimate(errors, steps)


class TestSupportGap:
    def test_front_datum_dead_zone(self):
        mesh = build_uniform_mesh(-1, 1, 100, 1)
        nodal = interpolate(mesh, lambda x: _front_profile(x, 2, 10.0))
        eta = 1e-6 * np.max(np.abs(nodal))
        gap = support_gap(mesh, nodal, eta)
        assert gap is not None
        assert gap[0] == pytest.approx(-0.5, abs=mesh.h + 1e-12)
        assert gap[1] == pytest.approx(0.5, abs=mesh.h + 1e-12)

    def test_zero_field_spans_domain(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        gap = support_gap(mesh, np.zeros(mesh.n_interior), 1e-8)
        assert gap == (-1.0, 1.0)

    def test_supported_center_gives_none(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        ones = np.ones(mesh.n_interior)
        assert support_gap(mesh, ones, 1e-8) is None

    def test_supported_centre_at_the_last_node_gives_none(self):
        mesh = build_uniform_mesh(-1, 0, 4, 1)
        assert support_gap(mesh, np.ones(mesh.n_nodes), 1e-8) is None

    @pytest.mark.parametrize("value", [1e-3, -1e-3, np.nextafter(1e-3, 0.0),
                                       -np.nextafter(1e-3, 0.0), 0.0, -0.0,
                                       np.inf, -np.inf, np.nan])
    def test_threshold_test_is_strict_magnitude(self, value):
        # support_series' u < eta and u > -eta against |u| < eta, at eta =
        # 1e-3, for the value at the centre node and at its right neighbour
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        levels = np.zeros((2, mesh.n_interior))
        centre = int(np.argmin(np.abs(mesh.nodes))) - 1
        levels[0, centre] = levels[1, centre + 1] = value
        below = bool(np.abs(value) < 1e-3)
        gaps = analysis.support_series(mesh, levels, 1e-3)
        assert (gaps[0] is not None) == below
        assert gaps[1] == (-1.0, 1.0 if below else 0.0)

    @pytest.mark.parametrize("length", [8, 10, 12])
    def test_wrong_length_names_nodes_and_interior_dofs(self, length):
        # 11 nodes, 9 interior dofs: any other length is neither layout
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        with pytest.raises(ValueError, match=f"length {length} do not match a mesh "
                                             "with 11 nodes / 9 interior dofs"):
            analysis.support_series(mesh, np.zeros((2, length)), 1e-3)

    def test_threshold_must_be_positive(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        with pytest.raises(ValueError):
            support_gap(mesh, np.zeros(mesh.n_interior), 0.0)


def fake_run(mesh, support, delta=0.1):
    n = len(support)
    return RunOutput(mesh=mesh, times=delta * np.arange(n),
                     u=np.zeros((n, mesh.n_interior)),
                     y=np.zeros((n, mesh.n_interior)),
                     energies=np.zeros(n), support=support, diagnostics=[])


class TestWaitingTime:
    def test_stationary_then_moving(self):
        mesh = build_uniform_mesh(-1, 1, 100, 1)
        support = [(-0.5, 0.5)] * 5 + [(-0.44, 0.44)] * 3
        run = fake_run(mesh, support)
        assert waiting_time(run) == pytest.approx(0.5)

    def test_never_moving(self):
        mesh = build_uniform_mesh(-1, 1, 100, 1)
        run = fake_run(mesh, [(-0.5, 0.5)] * 6)
        assert waiting_time(run) is None

    def test_one_node_wiggle_ignored(self):
        mesh = build_uniform_mesh(-1, 1, 100, 1)
        h = mesh.h
        run = fake_run(mesh, [(-0.5, 0.5), (-0.5 + h, 0.5), (-0.5, 0.5 - h)])
        assert waiting_time(run) is None

    def test_closed_gap_counts_as_moved(self):
        mesh = build_uniform_mesh(-1, 1, 100, 1)
        run = fake_run(mesh, [(-0.5, 0.5), (-0.5, 0.5), None])
        assert waiting_time(run) == pytest.approx(0.2)

    def test_no_dead_zone_at_start(self):
        mesh = build_uniform_mesh(-1, 1, 100, 1)
        run = fake_run(mesh, [None, (-0.5, 0.5)])
        assert waiting_time(run) is None


class TestExtrema:
    def test_zero_trajectory(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        run = fake_run(mesh, [None] * 4)
        ext = extrema_series(run)
        assert np.array_equal(ext, np.zeros((4, 2)))

    def test_heat_run_respects_maximum_principle_slack(self):
        # nonnegative datum under pure diffusion: nodal minima may only dip
        # by the fixed-point tolerance
        from plapmem import SolverConfig, march
        from plapmem.experiments import asymptotics_problem
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        problem = asymptotics_problem(2.0, 0.0, horizon=0.2)
        cfg = SolverConfig(p=2.0, delta=1e-3, n_steps=200, tol=1e-9)
        run = march(problem, mesh, cfg)
        assert extrema_series(run)[:, 0].min() >= -10 * cfg.tol


class TestManufacturedProblem:
    """The forcing is validated against an oracle that never touches the
    closed forms: u_t by central differences of the exact solution, the
    diffusion term by differencing the scalar flux of a differenced
    gradient, and the memory term by adaptive quadrature."""

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_forcing_against_finite_difference_oracle(self, p):
        lam = 1.0
        problem = manufactured_example1(p, lam)
        rng = np.random.default_rng(41)
        dx, dt = 1e-4, 1e-6

        def u(x, t):
            return (x * (1 - x)) ** 2 * np.exp(-t)

        def diffusion_profile(x):
            # d/dx of |u_x|^(p-2) u_x at t = 0, by nested central
            # differences of the scalar flux of the differenced gradient
            def a_of_ux(xx):
                ux = (u(xx + dx, 0.0) - u(xx - dx, 0.0)) / (2 * dx)
                return np.abs(ux) ** (p - 2) * ux
            return (a_of_ux(x + dx) - a_of_ux(x - dx)) / (2 * dx)

        worst = 0.0
        for _ in range(100):
            x = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform(0.01, 0.09))
            u_t = (u(x, t + dt) - u(x, t - dt)) / (2 * dt)
            # u separates as phi(x) e^{-t}, so the diffusion term factors
            # into the t=0 profile times e^{-(p-1)s}; the s-integrand is
            # then smooth and the quadrature noise-free
            prof = diffusion_profile(x)
            mem, _ = scipy_quad(
                lambda s: lam * np.exp(-(t - s)) * np.exp(-(p - 1) * s),
                0.0, t, epsabs=1e-13, epsrel=1e-12)
            expected = u_t - prof * np.exp(-(p - 1) * t) - prof * mem
            got = float(problem.f(x, t))
            worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst < 1e-6

    def test_memory_free_amplitude(self):
        p = 3.0
        prob0 = manufactured_example1(p, 0.0)
        prob1 = manufactured_example1(p, 1.0)
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=20)
        t = 0.07
        assert np.allclose(prob0.exact_y(x, t), 0.0)
        # dropping the kernel removes exactly the memory share of the forcing
        assert np.allclose(prob0.f(x, t) - prob1.f(x, t), prob1.exact_y(x, t),
                           atol=1e-15)

    def test_memory_term_vanishes_initially(self):
        problem = manufactured_example1(3.5, 2.0)
        x = np.linspace(0, 1, 11)
        assert np.allclose(problem.exact_y(x, 0.0), 0.0)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_memory_term_volterra_identity(self, p):
        # y + int g(t-s) y(s) ds equals the nonlocal combination
        # u g(0) - u0 g(t) + int g'(t-s) u ds - int g(t-s) f ds
        lam = 1.5
        problem = manufactured_example1(p, lam)
        g = lambda s: lam * np.exp(-s)
        gp = lambda s: -lam * np.exp(-s)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform(0.01, 0.1))
            lhs = problem.exact_y(x, t) + scipy_quad(
                lambda s: g(t - s) * problem.exact_y(x, s), 0, t,
                epsabs=1e-12)[0]
            rhs = (problem.exact_u(x, t) * g(0.0)
                   - problem.exact_u(x, 0.0) * g(t)
                   + scipy_quad(lambda s: gp(t - s) * problem.exact_u(x, s),
                                0, t, epsabs=1e-12)[0]
                   - scipy_quad(lambda s: g(t - s) * problem.f(x, s), 0, t,
                                epsabs=1e-12)[0])
            assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_diffusion_profile_against_differenced_flux(self, p):
        # psi must equal d/dx[|phi'|^(p-2) phi'] for phi = (x(1-x))^2
        rng = np.random.default_rng(3)
        dx = 1e-6

        def z(x):
            d = 2 * x * (1 - x) * (1 - 2 * x)
            return np.abs(d) ** (p - 2) * d

        # keep clear of the kinks of |phi'| at 0, 1/2, 1
        xs = np.concatenate([rng.uniform(0.05, 0.45, 50),
                             rng.uniform(0.55, 0.95, 50)])
        numeric = (z(xs + dx) - z(xs - dx)) / (2 * dx)
        assert np.allclose(plap_of_bump(xs, p), numeric, rtol=1e-6, atol=1e-8)

    def test_invalid_exponent(self):
        with pytest.raises(ConfigError):
            manufactured_example1(0.5, 1.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(manufactured_example1(3.0, 1.0), b=0.0)
        assert err.value.field == "domain"


def walked_support_gap(mesh, coeffs, eta):
    """The dead zone around x = 0 found node by node: the reference for the
    run-length pass."""
    full = np.abs(full_coefficients(mesh, coeffs))
    center = int(np.argmin(np.abs(mesh.nodes)))
    if full[center] >= eta:
        return None
    left = right = center
    while left > 0 and full[left - 1] < eta:
        left -= 1
    while right < mesh.n_nodes - 1 and full[right + 1] < eta:
        right += 1
    return float(mesh.nodes[left]), float(mesh.nodes[right])


class TestRunRecord:
    """build_run_output's blocked energies and support series against the
    same quantities taken level by level."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        # the dome's extinction: supported centre, then a dead zone that
        # spans the domain; the front datum's dead zone shrinks and closes
        for name, problem, mesh, cfg in [
            ("dome", asymptotics_problem(1.5, 0.0, horizon=1.5),
             build_uniform_mesh(-1, 1, 10, 1),
             SolverConfig(p=1.5, delta=1e-2, n_steps=150, tol=1e-9)),
            ("front", propagation_problem(3.0, 0.0, 2, 10.0, horizon=0.2),
             build_uniform_mesh(-1, 1, 40, 1),
             SolverConfig(p=3.0, delta=1e-2, n_steps=20, tol=1e-9, scheme="A")),
        ]:
            quad = gauss_legendre(default_quad_points(mesh.r))
            asm = Assembler(mesh, quad, cfg.flux_params(), problem.f)
            hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
            hist.set_initial(interpolate(mesh, problem.u0))
            plan = StepPlan(hist, problem.kernel, cfg, asm)
            diags = [cn_step(plan)[2] for _ in range(cfg.n_steps)]
            out[name] = (problem, mesh, cfg, asm, hist, diags)
        return out

    @pytest.mark.parametrize("name", ["dome", "front"])
    @pytest.mark.parametrize("block_levels", [1, 4, 7, None])
    def test_blocked_record_matches_levels(self, runs, monkeypatch, name,
                                           block_levels):
        problem, mesh, cfg, asm, hist, diags = runs[name]
        blocks, series = [], analysis.support_series
        monkeypatch.setattr(analysis, "support_series", lambda mesh, levels, eta: (
            blocks.append(len(levels)) or series(mesh, levels, eta)))
        if block_levels is not None:
            # one byte per node and level: 151 levels end in a partial block
            # of 3 (4 levels a block) or 4 (7 a block), 21 in one of 1 (4)
            monkeypatch.setattr(analysis, "_BLOCK_BYTES", mesh.n_nodes * block_levels)
        run = analysis.build_run_output(problem, mesh, asm, hist, diags)
        assert sum(blocks) == len(hist.u)
        if block_levels is not None:
            full, rest = divmod(len(hist.u), block_levels)
            assert blocks == [block_levels] * full + [rest] * (rest > 0)
        # the band form rounds differently from a product and a dot per level
        energies = np.array([float(u @ asm.mass.matvec(u)) for u in hist.u])
        assert np.allclose(run.energies, energies, rtol=1e-13, atol=0.0)
        eta = run.support_threshold
        assert run.support == [walked_support_gap(mesh, u, eta) for u in hist.u]
        assert None in run.support
        assert any(gap is not None for gap in run.support)
        if name == "front":
            assert len({gap for gap in run.support if gap is not None}) > 2

    # bandwidths 1-4; m = 1 gives n = 1 under a bandwidth-2 band and n = 3
    # under a bandwidth-4 one, where fewer diagonals than the band's fit n
    @pytest.mark.parametrize("m,r", [(5, 1), (4, 2), (3, 3), (2, 4), (1, 2), (1, 4)])
    def test_energies_match_dense_form(self, monkeypatch, m, r):
        mesh = build_uniform_mesh(-1, 1, m, r)
        mass = assemble_mass(mesh, gauss_legendre(default_quad_points(r)))
        u = np.random.default_rng(10 * m + r).standard_normal((7, mesh.n_interior))
        # 3 levels per block: 7 levels end in a partial block
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", mesh.n_nodes * 3)
        hist = SimpleNamespace(u=u, y=u, times=np.arange(7.0))
        run = analysis.build_run_output(asymptotics_problem(2.0, 0.0), mesh,
                                        SimpleNamespace(mass=mass), hist, [])
        dense = np.einsum("ij,jk,ik->i", u, to_dense(mass), u)
        assert np.allclose(run.energies, dense, rtol=1e-13, atol=0.0)
        assert run.support == [walked_support_gap(mesh, v, run.support_threshold)
                               for v in u]
