import numpy as np
import pytest

from solitonlab.errors import (NotAZeroModeError, SingularSolveError,
                               ZeroEnergyObstruction)
from solitonlab.radial import (assemble_channel_operator, dense_matrix,
                               make_grid, solve_shifted)
from solitonlab.resolvent import (LaurentCoefficients, classify_zero_mode,
                                  free_resolvent_kernel, halfline_free_kernel,
                                  jensen_nenciu_invert, laurent_fit,
                                  singular_family, symmetric_resolvent,
                                  zero_energy_green_matrix)
from solitonlab.solitons import aubin_dphi_da, aubin_dphi_dr, aubin_values


def _random_family(rng, dim, rank):
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    vals = np.concatenate([np.zeros(rank), rng.uniform(0.5, 3.0, dim - rank)])
    A0 = Q @ np.diag(vals) @ Q.T
    A0 = 0.5 * (A0 + A0.T)
    B = rng.standard_normal((dim, dim))
    B = 0.5 * (B + B.T)
    return singular_family(A0, lambda z, B=B: B)


def test_jn_diagonal_hand_case():
    # A0 = diag(0, 1), A1 = I, S = diag(1, 0), z = 0.1: inverse is
    # diag(1/0.1, 1/1.1)
    A0 = np.diag([0.0, 1.0])
    fam = singular_family(A0, lambda z: np.eye(2))
    res = jensen_nenciu_invert(fam, 0.1)
    assert np.allclose(res["A_inv"], np.diag([10.0, 1.0 / 1.1]), atol=1e-12)


def test_jn_random_families_match_direct(rng):
    for _ in range(10):
        dim = int(rng.integers(10, 50))
        rank = int(rng.integers(1, 4))
        fam = _random_family(rng, dim, rank)
        z = 10.0 ** rng.uniform(-4, -2)
        res = jensen_nenciu_invert(fam, z)
        direct = np.linalg.inv(fam.A(z))
        err = np.abs(res["A_inv"] - direct).max() / np.abs(direct).max()
        assert err <= 1e-9


def test_jn_uniform_boundedness_identity(rng):
    for _ in range(20):
        fam = _random_family(rng, int(rng.integers(10, 40)), 2)
        defect = np.abs(
            fam.S - fam.S @ np.linalg.inv(fam.A0 + fam.S) @ fam.S).max()
        assert defect <= 1e-12


def test_jn_b_singular_iff_a_singular(rng):
    # construct A(z) = A0 + z B with A(z) singular at the probe z by design
    for trial in range(10):
        dim, rank = 16, 1
        Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        vals = np.concatenate([np.zeros(rank),
                               rng.uniform(0.5, 3.0, dim - rank)])
        A0 = Q @ np.diag(vals) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
        q = Q[:, 0]
        # B q = 0 along the kernel direction makes A(z) q = 0 for every z
        B = rng.standard_normal((dim, dim))
        B = 0.5 * (B + B.T)
        B = B - np.outer(B @ q, q) - np.outer(q, B @ q) \
            + (q @ B @ q) * np.outer(q, q)
        fam = singular_family(A0, lambda z, B=B: B)
        with pytest.raises(SingularSolveError):
            jensen_nenciu_invert(fam, 1e-3)


def test_jn_rejects_zero_z():
    fam = singular_family(np.diag([0.0, 1.0]), lambda z: np.eye(2))
    with pytest.raises(ValueError):
        jensen_nenciu_invert(fam, 0.0)


def test_symmetric_resolvent_zero_potential():
    g = make_grid(20.0, 200)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    z = 0.5j
    R0 = np.linalg.inv(dense_matrix(op) - (z ** 2).real * np.eye(g.n))
    out = symmetric_resolvent(R0, np.zeros(g.n), z)
    assert np.allclose(out, R0, atol=1e-14)


def test_symmetric_resolvent_matches_direct(rng):
    g = make_grid(25.0, 300)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    T = dense_matrix(op)
    for _ in range(5):
        V = -rng.uniform(0.5, 2.0) * np.exp(-(g.nodes / rng.uniform(1, 3)) ** 2)
        z = 1j * rng.uniform(0.3, 1.0)
        R0 = np.linalg.inv(T - z.real ** 2 * np.eye(g.n) + (z.imag ** 2) * np.eye(g.n))
        out = symmetric_resolvent(R0, V, z)
        direct = np.linalg.inv(T + np.diag(V) + (z.imag ** 2) * np.eye(g.n))
        err = np.abs(out - direct).max() / np.abs(direct).max()
        assert err <= 1e-8


def test_symmetric_resolvent_flags_resonant_potential():
    g = make_grid(60.0, 1200)
    V = aubin_values(1.0, g)["potential"]
    R0 = zero_energy_green_matrix(g)
    with pytest.raises(ZeroEnergyObstruction):
        symmetric_resolvent(R0, V, 0.0)


def test_symmetric_resolvent_generic_potential_at_zero_ok():
    g = make_grid(60.0, 1200)
    V = -1.5 * np.exp(-g.nodes ** 2 / 4.0)
    R0 = zero_energy_green_matrix(g)
    out = symmetric_resolvent(R0, V, 0.0)
    assert np.all(np.isfinite(out))


def test_laurent_fit_synthetic_exact(rng):
    c = rng.standard_normal((3, 3))
    D = rng.standard_normal((3, 3))

    def sampler(z):
        return c / z ** 2 + D

    zs = 1j * np.geomspace(5e-3, 5e-2, 6)
    co = laurent_fit(sampler, zs)
    assert np.abs(co.c_minus2 - c).max() <= 1e-10
    assert np.abs(co.c_minus1).max() <= 1e-10
    assert np.abs(co.c0 - D).max() <= 1e-10


def test_laurent_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        laurent_fit(lambda z: np.eye(2), [1j * 0.1, 1j * 0.2])


def test_laurent_free_d1_kernel():
    xs = np.linspace(0.5, 5.0, 10)

    def sampler(z):
        return np.array([[np.exp(1j * z * abs(x - y)) / (2j * z)
                          for y in xs] for x in xs])

    co = laurent_fit(sampler, 1j * np.geomspace(1e-5, 1e-4, 8))
    assert np.abs(co.c_minus2).max() <= 1e-8
    assert np.abs(co.c_minus1 - 1.0 / 2j).max() <= 1e-8


def test_laurent_free_d3_reduced_kernel():
    xs = np.linspace(0.5, 5.0, 10)

    def sampler(z):
        return np.array([[halfline_free_kernel(z, x, y) for y in xs]
                         for x in xs])

    co = laurent_fit(sampler, 1j * np.geomspace(1e-5, 1e-4, 8))
    assert np.abs(co.c_minus2).max() <= 1e-8
    assert np.abs(co.c_minus1).max() <= 1e-8


def test_laurent_nlw_resonant_residue(grid50, aubin50):
    # the 1/z residue of (H - z^2)^{-1} is rank one along r d_a phi
    op = assemble_channel_operator(grid50, 0, aubin50["potential"])
    n = grid50.n
    sub = np.arange(0, n // 2, 20)

    def sampler(z):
        rho2 = (-z ** 2).real
        cols = np.empty((len(sub), len(sub)))
        for jj, j in enumerate(sub):
            e = np.zeros(n)
            e[j] = 1.0
            cols[:, jj] = solve_shifted(op, -rho2, e)[sub]
        return cols

    co = laurent_fit(sampler, 1j * np.geomspace(1e-2, 1e-1, 8))
    sing = np.linalg.svd(co.c_minus1, compute_uv=False)
    assert sing[0] > 100.0 * sing[1]
    U = np.linalg.svd(co.c_minus1)[0][:, 0]
    Ur = U.real if np.abs(U.real).max() >= np.abs(U.imag).max() else U.imag
    ref = grid50.nodes[sub] * aubin_dphi_da(grid50.nodes[sub], 1.0)
    cos = abs(np.dot(Ur, ref)) / (np.linalg.norm(Ur) * np.linalg.norm(ref))
    assert cos >= 0.99
    # c_minus2 carries no eigenspace content in the radial sector (the
    # small remainder is curvature of the O(1) part leaking into the fit)
    assert np.abs(co.c_minus2).max() <= 1e-2 * np.abs(co.c_minus1).max()


def test_free_kernel_values():
    assert free_resolvent_kernel(1, 1j, 0.3, 0.3) == pytest.approx(-0.5)
    val = free_resolvent_kernel(3, 1j, 0.0, 1.0)
    assert val == pytest.approx(np.exp(-1.0) / (4 * np.pi))
    with pytest.raises(ValueError):
        free_resolvent_kernel(3, 1j, 1.0, 1.0)
    with pytest.raises(ValueError):
        free_resolvent_kernel(1, 1.0 + 0j, 0.0, 1.0)
    with pytest.raises(ValueError):
        free_resolvent_kernel(2, 1j, 0.0, 1.0)


def test_free_kernel_d1_regularized_part():
    # kernel - 1/(2iz) stays bounded as z -> 0
    for rho in (1e-2, 1e-4, 1e-6):
        z = 1j * rho
        val = free_resolvent_kernel(1, z, 0.0, 2.0) - 1.0 / (2j * z)
        assert abs(val) < 2.0


def test_halfline_kernel_zero_energy_limit():
    assert halfline_free_kernel(0.0, 2.0, 5.0) == pytest.approx(2.0)
    small = halfline_free_kernel(1e-8j, 2.0, 5.0)
    assert abs(small - 2.0) < 1e-6


def test_classify_dilation_mode_resonance(grid50, aubin50):
    res = classify_zero_mode(aubin50["potential"], aubin50["dphi_da"], grid50)
    assert res["kind"] == "resonance"
    assert abs(res["v_integral"]) > 1.0
    assert res["tail_exponent"] == pytest.approx(-1.0, abs=0.05)


def test_classify_translation_mode_eigenvalue(grid50, aubin50):
    f = aubin_dphi_dr(grid50.nodes, 1.0)
    res = classify_zero_mode(aubin50["potential"], f, grid50, ell=1)
    assert res["kind"] == "eigenvalue"
    assert res["v_integral"] == 0.0
    assert res["tail_exponent"] == pytest.approx(-2.0, abs=0.1)


def test_classify_rejects_non_mode(grid50, aubin50, rng):
    junk = rng.standard_normal(grid50.n)
    with pytest.raises(NotAZeroModeError):
        classify_zero_mode(aubin50["potential"], junk, grid50)
