import numpy as np
import pytest

from solitonlab.radial import (apply_operator, assemble_channel_operator,
                               bisect, integrate, make_grid, solve_shifted)
from solitonlab.solitons import aubin_dphi_da, aubin_values
from solitonlab.spectral import count_eigenvalues_below, eigenvalue_by_index

from oracles import dense_matrix, quad_oracle


def test_make_grid_uniform_nodes():
    g = make_grid(1.0, 100)
    assert g.nodes[0] == pytest.approx(0.01)
    assert g.nodes[99] == pytest.approx(1.0)
    assert np.all(np.diff(g.nodes) > 0)


def test_make_grid_coarse():
    g = make_grid(10.0, 16)
    assert g.n == 16
    assert g.h == pytest.approx(0.625)


def test_weights_sum_to_r_max():
    g = make_grid(50.0, 4000)
    assert integrate(g, np.ones(g.n)) == pytest.approx(50.0, abs=1e-10)
    assert np.all(g.weights > 0)


def test_make_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        make_grid(-1.0, 100)
    with pytest.raises(ValueError):
        make_grid(1.0, 8)


def test_dirichlet_laplacian_first_eigenvalue():
    g = make_grid(np.pi, 2000)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    e1 = eigenvalue_by_index(op, 0)
    assert e1 == pytest.approx(1.0, abs=1e-5)


def test_centrifugal_channel_nonnegative(rng):
    g = make_grid(20.0, 400)
    op = assemble_channel_operator(g, 1, np.zeros(g.n))
    for _ in range(20):
        v = rng.standard_normal(g.n)
        assert np.dot(v, apply_operator(op, v)) >= 0.0


def test_nlw_potential_has_one_negative_eigenvalue(grid50, aubin50):
    op = assemble_channel_operator(grid50, 0, aubin50["potential"])
    assert count_eigenvalues_below(op, 0.0) == 1


def test_potential_length_mismatch(grid50):
    with pytest.raises(ValueError):
        assemble_channel_operator(grid50, 0, np.zeros(grid50.n - 1))


def test_apply_operator_zero(grid50, aubin50):
    op = assemble_channel_operator(grid50, 0, aubin50["potential"])
    assert np.all(apply_operator(op, np.zeros(grid50.n)) == 0.0)


def test_apply_operator_sine_eigenfunction():
    g = make_grid(np.pi, 2000)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    w = np.sin(g.nodes)
    res = apply_operator(op, w) - w
    assert np.abs(res[: g.n - 2]).max() < 50.0 * g.h ** 2


def test_apply_operator_resonance_residual(grid50, aubin50):
    op = assemble_channel_operator(grid50, 0, aubin50["potential"])
    w = grid50.nodes * aubin50["dphi_da"]
    res = apply_operator(op, w)
    assert np.abs(res[: grid50.n // 2]).max() < 5.0 * grid50.h ** 2


def test_integrate_rational_tail_vs_quad():
    g = make_grid(60.0, 6000)
    val = integrate(g, g.nodes ** 2 / (1 + g.nodes ** 2) ** 3)
    oracle, err = quad_oracle(lambda r: r * r / (1 + r * r) ** 3, 0.0, np.inf)
    assert err < 1e-7
    assert oracle == pytest.approx(np.pi / 16, abs=1e-10)
    assert val == pytest.approx(np.pi / 16, abs=1e-4)


def test_quadratic_form_identity():
    # <H phi, phi> = -4 int phi^6 over R^3 via the same quadrature
    g = make_grid(60.0, 6000)
    phi6_integral = 4 * np.pi * 3.0 ** 1.5 * integrate(
        g, g.nodes ** 2 / (1 + g.nodes ** 2) ** 3)
    oracle = 4 * np.pi * 3.0 ** 1.5 * np.pi / 16
    assert phi6_integral == pytest.approx(oracle, rel=1e-4)
    assert -4 * phi6_integral == pytest.approx(-4 * oracle, rel=1e-4)


def test_operator_symmetry(rng, grid50, aubin50):
    op = assemble_channel_operator(grid50, 0, aubin50["potential"])
    for _ in range(10):
        u = rng.standard_normal(grid50.n)
        v = rng.standard_normal(grid50.n)
        a = np.dot(apply_operator(op, u), v)
        b = np.dot(u, apply_operator(op, v))
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)
        # quadrature pairing agrees once the boundary nodes (where the
        # trapezoid weights deviate from h) carry no data
        u[0] = u[-1] = v[0] = v[-1] = 0.0
        u[-2] = v[-2] = 0.0
        a = integrate(grid50, apply_operator(op, u) * v)
        b = integrate(grid50, u * apply_operator(op, v))
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_eigenvalue_convergence_order():
    errs = []
    hs = []
    for n in (500, 1000, 2000):
        g = make_grid(np.pi, n)
        op = assemble_channel_operator(g, 0, np.zeros(g.n))
        errs.append(abs(eigenvalue_by_index(op, 0) - 1.0))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_solve_shifted_inverts(grid40, rng):
    V = aubin_values(1.0, grid40)["potential"]
    op = assemble_channel_operator(grid40, 0, V)
    rhs = rng.standard_normal(grid40.n)
    x = solve_shifted(op, -2.5, rhs)
    assert np.abs(apply_operator(op, x) + 2.5 * x - rhs).max() < 1e-7


def test_dense_matrix_matches_apply(grid40, rng):
    g = make_grid(10.0, 64)
    op = assemble_channel_operator(g, 2, np.exp(-g.nodes))
    A = dense_matrix(op)
    v = rng.standard_normal(g.n)
    assert np.allclose(A @ v, apply_operator(op, v), rtol=1e-13, atol=1e-10)


@pytest.mark.parametrize("lo, hi, c, tol", [
    (0.0, 1.0, 0.5, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (-3.0, -2.0, -2.5, 0.0),
    (-3.0, -2.0, -3.0, 0.0),
    (-1e300, 1e300, 0.5, 0.0),
    (-1e300, 1e300, 0.0, 0.0),
    (5e-324, 1e-300, 1e-310, 0.0),
    (5e-324, 1e-300, 5e-324, 0.0),
    # a root whose ulp (7.3e-12) exceeds the tolerance
    (1e4, 5e4, 42849.8404009237, 1e-12),
])
def test_bisect_ends_at_tol_or_float_resolution(lo, hi, c, tol):
    calls = []

    def pred(x):
        calls.append(x)
        if len(calls) > 2100:
            raise AssertionError("bisect is still halving")
        return x >= c

    x = bisect(pred, lo, hi, tol)
    assert abs(x - c) <= max(tol, np.spacing(abs(c)))


@pytest.mark.parametrize("tol", [np.nan, -1.0])
def test_bisect_rejects_nan_or_negative_tol(tol):
    def pred(x):
        raise AssertionError("a bad tol must be rejected before any call")

    with pytest.raises(ValueError, match="tol"):
        bisect(pred, 0.0, 1.0, tol)
