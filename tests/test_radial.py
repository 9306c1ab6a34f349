import numpy as np
import pytest

from solitonlab.radial import (apply_operator, assemble_channel_operator,
                               bracketed_root, integrate, make_grid,
                               solve_shifted)
from solitonlab.solitons import aubin_values
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

    x = bracketed_root(lambda x: (pred(x), None), lo, hi, tol)[0]
    assert abs(x - c) <= max(tol, np.spacing(abs(c)))


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_bisect_rejects_nan_or_negative_tol(tol):
    def pred(x):
        raise AssertionError("a bad tol must be rejected before any call")

    with pytest.raises(ValueError, match="tol"):
        bracketed_root(lambda x: (pred(x), None), 0.0, 1.0, tol)


def _counted(f, cap=2100):
    """f with a call log; more than cap calls fail the test."""
    calls = []

    def g(x):
        calls.append(x)
        if len(calls) > cap:
            raise AssertionError("bracketed_root is still searching")
        return f(x)
    return g, calls


@pytest.mark.parametrize("lo, hi, c, tol", [
    (0.0, 1.0, 0.3, 0.0),
    (0.0, 1.0, 0.123456789, 0.0),
    (-3.0, -2.0, -2.7, 0.0),
    (-1.0, 1.0, 0.0, 0.0),
    (1e4, 5e4, 42849.8404009237, 1e-12),
])
def test_bracketed_root_exact_estimate_ends_in_three_calls(lo, hi, c, tol):
    def f(x):
        d = x - c
        return (None if d == 0.0 else d > 0.0), d

    f, calls = _counted(f)
    x, _, n_steered = bracketed_root(f, lo, hi, tol)
    assert x == c
    assert len(calls) <= 3
    assert n_steered == len(calls) - 1


@pytest.mark.parametrize("lo, hi, c, tol", [
    (-1e300, 1e300, 0.5, 0.0),
    (-1e300, 1e300, 0.0, 0.0),
    (-1e6, 1e6, 0.3, 1e-12),
])
def test_bracketed_root_biased_estimate_beats_bisection(lo, hi, c, tol):
    # the estimates carry the root to within the bias 1e-3/1.3 from a wide
    # bracket; the side of each call, not its d, decides the final bracket
    steered, calls = _counted(lambda x: (x >= c, 1.3 * (x - c) + 1e-3))
    x = bracketed_root(steered, lo, hi, tol)[0]
    assert abs(x - c) <= max(tol, np.spacing(abs(c)))
    plain, bisect_calls = _counted(lambda x: (x >= c, None))
    bracketed_root(plain, lo, hi, tol)
    assert len(calls) < len(bisect_calls)


@pytest.mark.parametrize("lo, hi, c", [
    (0.0, 1.0, 0.3),
    (0.0, 1.0, 0.123456789),
    (-3.0, -2.0, -2.7),
    (-1.0, 1.0, 0.0),
])
def test_bracketed_root_minimum_step_ends_a_right_estimate(lo, hi, c):
    # the estimate never accepts a point, so the bracket must close on the
    # root: the candidate at the root is followed by one tol/2 away
    f, calls = _counted(lambda x: (x >= c, x - c))
    x, (lo, hi), _ = bracketed_root(f, lo, hi, 1e-3)
    assert len(calls) <= 3
    assert lo <= c <= hi and hi - lo <= 1e-3 and x == 0.5 * (lo + hi)


def test_bracketed_root_one_sided_estimate_still_ends():
    # the secant on a cube stays above the root, so after three calls on
    # one side the next is the midpoint
    c = 0.3
    f, calls = _counted(lambda x: (x >= c, (x - c) ** 3))
    x, bracket, _ = bracketed_root(f, 0.0, 1.0, 0.0)
    assert abs(x - c) <= np.spacing(c)
    lo, hi, sides, forced = 0.0, 1.0, [], 0
    for x in calls:
        if len(sides) >= 3 and len(set(sides[-3:])) == 1:
            assert x == 0.5 * (lo + hi)
            forced += 1
        sides.append(x >= c)
        lo, hi = (lo, x) if x >= c else (x, hi)
    assert forced > 0 and bracket == (lo, hi)


def test_bracketed_root_nan_estimate_bisects():
    c = 0.3
    f, calls = _counted(lambda x: (x >= c, np.nan))
    plain, bisect_calls = _counted(lambda x: (x >= c, None))
    result = bracketed_root(f, 0.0, 1.0, 0.0)
    assert result == bracketed_root(plain, 0.0, 1.0, 0.0)
    assert result[2] == 0 and calls == bisect_calls


def test_bracketed_root_accepts_undecided_point():
    f, calls = _counted(lambda x: (None, 0.25))
    assert bracketed_root(f, -1.0, 3.0, 0.0) == (1.0, (-1.0, 3.0), 0)
    assert calls == [1.0]
