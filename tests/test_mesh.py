import numpy as np
import pytest

from fe_oracles import basis_eval, eval_fe
from plapmem import ConfigError, build_uniform_mesh
from plapmem.mesh import ReferenceBasis, eval_on_elements, full_coefficients, gauss_legendre


class TestBuildUniformMesh:
    def test_unit_interval_linear(self):
        mesh = build_uniform_mesh(0, 1, 4, 1)
        assert np.allclose(mesh.nodes, [0, 0.25, 0.5, 0.75, 1])
        assert mesh.n_interior == 3
        assert mesh.h == 0.25

    def test_symmetric_quadratic(self):
        mesh = build_uniform_mesh(-1, 1, 10, 2)
        assert mesh.n_nodes == 21
        assert mesh.n_interior == 19
        assert mesh.h == pytest.approx(0.2)
        assert mesh.nodes[0] == -1 and mesh.nodes[-1] == 1
        assert np.all(np.diff(mesh.nodes) > 0)

    @pytest.mark.parametrize("args", [(0, 1, 0, 1), (0, 1, 4, 0), (1, 0, 4, 1),
                                      (0, 0, 4, 1), (0, 1, True, 1), (0, 1, 4, True)])
    def test_degenerate_inputs_rejected(self, args):
        with pytest.raises(ConfigError):
            build_uniform_mesh(*args)

    @pytest.mark.parametrize("r", [1, 2])
    def test_unallocatable_node_count_rejected(self, r):
        # numpy refuses 2**62 r + 1 nodes before allocating, with a ValueError
        # (r = 1) or an IndexError (r = 2)
        with pytest.raises(ConfigError) as err:
            build_uniform_mesh(0, 1, 2**62, r)
        assert err.value.field == "m"
        assert f"{2**62 * r + 1} nodes" in str(err.value)

    def test_out_of_memory_is_config_error(self, monkeypatch):
        linspace = np.linspace

        def out_of_memory(start, stop, num, *args, **kwargs):
            if num > 1000:
                raise MemoryError(f"Unable to allocate an array with shape ({num},)")
            return linspace(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", out_of_memory)
        with pytest.raises(ConfigError) as err:
            build_uniform_mesh(0, 1, 10**6, 1)
        assert err.value.field == "m"
        assert "1000001 nodes" in str(err.value)
        assert isinstance(err.value.__cause__, MemoryError)

    def test_element_dofs_contiguous(self):
        mesh = build_uniform_mesh(0, 1, 5, 3)
        dofs = mesh.element_dofs()
        assert dofs.shape == (5, 4)
        # neighbouring elements share exactly the joint node
        assert np.all(dofs[1:, 0] == dofs[:-1, -1])


class TestGaussLegendre:
    def test_midpoint_rule(self):
        rule = gauss_legendre(1)
        assert rule.points == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])

    def test_two_point_classical(self):
        rule = gauss_legendre(2)
        # map back to [-1, 1] for the textbook values
        assert sorted(2 * rule.points - 1) == pytest.approx(
            [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert 2 * rule.weights == pytest.approx([1.0, 1.0])

    def test_three_point_classical(self):
        rule = gauss_legendre(3)
        assert sorted(2 * rule.points - 1) == pytest.approx(
            [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
        assert sorted(2 * rule.weights) == pytest.approx(
            sorted([8 / 9, 5 / 9, 5 / 9]))

    @pytest.mark.parametrize("q", range(1, 17))
    def test_exactness_up_to_2q_minus_1(self, q):
        rule = gauss_legendre(q)
        assert np.all(rule.weights > 0)
        for d in range(2 * q):
            approx = float(rule.weights @ rule.points ** d)
            assert approx == pytest.approx(1.0 / (d + 1), rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 4, 8])
    def test_inexact_one_degree_past(self, q):
        rule = gauss_legendre(q)
        d = 2 * q
        err = abs(float(rule.weights @ rule.points ** d) - 1.0 / (d + 1))
        assert err > 1e-13 / (d + 1)

    @pytest.mark.parametrize("q", [0, 17, -3, True])
    def test_out_of_range(self, q):
        with pytest.raises(ConfigError):
            gauss_legendre(q)


class TestReferenceBasis:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_kronecker_property(self, r):
        basis = ReferenceBasis(r)
        vals = basis.tabulate(basis.nodes, order=0)
        assert np.allclose(vals, np.eye(r + 1), atol=1e-12)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_partition_of_unity(self, r):
        rng = np.random.default_rng(7)
        xi = rng.uniform(0, 1, size=200)
        basis = ReferenceBasis(r)
        assert np.max(np.abs(basis.tabulate(xi, 0).sum(axis=1) - 1)) < 1e-12
        assert np.max(np.abs(basis.tabulate(xi, 1).sum(axis=1))) < 1e-10

    @pytest.mark.parametrize("r", range(1, 7))
    def test_tables_reproduce_monomials(self, r):
        # an oracle independent of the basis: the interpolant of x^j, j <= r,
        # is x^j itself, so the tables map its nodal values to x^j and j x^(j-1)
        xi = np.random.default_rng(r).uniform(0, 1, size=50)
        basis = ReferenceBasis(r)
        values, derivs = basis.tabulate(xi, 0), basis.tabulate(xi, 1)
        for j in range(r + 1):
            nodal = basis.nodes ** j
            assert np.max(np.abs(values @ nodal - xi ** j)) < 1e-11
            assert np.max(np.abs(derivs @ nodal - j * xi ** max(j - 1, 0))) < 1e-11

    def test_basis_eval_hat(self):
        basis = ReferenceBasis(1)
        assert basis_eval(basis, 0, 0.25, 0) == pytest.approx(0.75)

    def test_basis_eval_kronecker_quadratic(self):
        basis = ReferenceBasis(2)
        assert basis_eval(basis, 1, 0.5, 0) == pytest.approx(1.0)

    def test_basis_eval_out_of_range(self):
        basis = ReferenceBasis(2)
        with pytest.raises(ValueError):
            basis_eval(basis, 3, 0.5, 0)
        with pytest.raises(ValueError):
            basis_eval(basis, 0, 1.5, 0)

    @pytest.mark.parametrize("order", [-1, 2])
    def test_tabulate_order_out_of_range(self, order):
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            ReferenceBasis(2).tabulate(np.array([0.5]), order)

    def test_degree_bounds(self):
        with pytest.raises(ConfigError):
            ReferenceBasis(0)
        with pytest.raises(ConfigError):
            ReferenceBasis(7)


class TestEvalFe:
    def test_quadratic_reproduced_exactly(self):
        mesh = build_uniform_mesh(0, 1, 3, 2)
        coeffs = mesh.nodes * (1 - mesh.nodes)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 1, size=50):
            assert eval_fe(mesh, coeffs, x) == pytest.approx(x * (1 - x), abs=1e-14)

    def test_zero_coefficients(self):
        mesh = build_uniform_mesh(0, 1, 4, 1)
        assert eval_fe(mesh, np.zeros(mesh.n_interior), 0.3) == 0.0
        assert eval_fe(mesh, np.zeros(mesh.n_interior), 0.3, order=1) == 0.0

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_polynomial_interpolant_reproduced(self, r):
        rng = np.random.default_rng(11)
        coeff = rng.uniform(-1, 1, size=r + 1)
        poly = np.polynomial.Polynomial(coeff)
        mesh = build_uniform_mesh(-1, 2, 5, r)
        nodal = poly(mesh.nodes)
        for x in rng.uniform(-1, 2, size=100):
            assert abs(eval_fe(mesh, nodal, x) - poly(x)) < 1e-12

    def test_left_limit_derivative_at_kink(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        nodal = np.abs(mesh.nodes)
        assert eval_fe(mesh, nodal, 0.0, order=1) == pytest.approx(-1.0)

    def test_outside_domain_rejected(self):
        mesh = build_uniform_mesh(0, 1, 4, 1)
        with pytest.raises(ValueError):
            eval_fe(mesh, np.zeros(mesh.n_interior), 1.5)

    def test_interior_vector_padded(self):
        mesh = build_uniform_mesh(0, 1, 4, 1)
        interior = np.ones(mesh.n_interior)
        assert eval_fe(mesh, interior, 0.5) == pytest.approx(1.0)
        assert eval_fe(mesh, interior, 0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("length", [4, 6])
    def test_coefficients_of_another_mesh_rejected(self, length):
        # 5 nodes, 3 of them interior
        with pytest.raises(ValueError, match="does not match"):
            full_coefficients(build_uniform_mesh(0, 1, 4, 1), np.zeros(length))

    def test_eval_on_elements_matches_pointwise(self):
        mesh = build_uniform_mesh(0, 2, 6, 2)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(mesh.n_nodes)
        pts = np.array([0.2, 0.7])
        x, vals = eval_on_elements(mesh, coeffs, pts)
        for e in range(mesh.m):
            for j, xi in enumerate(pts):
                assert vals[e, j] == pytest.approx(eval_fe(mesh, coeffs, x[e, j]),
                                                   abs=1e-12)
