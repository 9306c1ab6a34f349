import numpy as np
import pytest

from solitonlab import linearized
from solitonlab.errors import BracketError
from solitonlab.linearized import (SigmaStarConfig, assemble_linearized_pair,
                                   gap_holds_at, gap_scan,
                                   instability_criterion, mu0, sigma_star,
                                   weinstein_h, weinstein_h_from_scaling)
from solitonlab.radial import apply_operator, integrate, make_grid
from solitonlab.solitons import d_alpha_ground_state, nls_ground_state
from solitonlab.spectral import (count_eigenvalues_below as count_below,
                                 eigenvalue_by_index, negative_eigenpairs)

from oracles import dense_matrix, dense_mu0, symmetrized_quadratic_form


@pytest.fixture(scope="module")
def cubic_pair(cubic_profile):
    return assemble_linearized_pair(cubic_profile, (0, 1))


def test_l_minus_ground_state_is_phi(cubic_pair, cubic_profile):
    op = cubic_pair.L_minus[0]
    g = cubic_profile.grid
    e0 = eigenvalue_by_index(op, 0)
    assert abs(e0) < 50.0 * g.h ** 2
    w = g.nodes * cubic_profile.samples
    res = apply_operator(op, w)
    assert np.abs(res[: g.n // 2]).max() < 500.0 * g.h ** 2


def test_l_plus_one_negative_radial_eigenvalue(cubic_pair):
    pairs = negative_eigenpairs(cubic_pair.L_plus[0])
    assert len(pairs) == 1


def test_l_plus_kernel_in_ell1(cubic_pair, cubic_profile):
    op = cubic_pair.L_plus[1]
    g = cubic_profile.grid
    e0 = eigenvalue_by_index(op, 0)
    assert abs(e0) < 50.0 * g.h ** 2
    # eigenvector ~ r phi'
    dphi = np.gradient(cubic_profile.samples, g.nodes)
    w = g.nodes * dphi
    res = apply_operator(op, w)
    assert np.abs(res[g.n // 100: g.n // 2]).max() < 2e3 * g.h ** 2


def test_gap_holds_at_cubic(cubic_pair):
    report = gap_scan(cubic_pair)
    assert report.gap_holds
    assert all(not v for ch in report.edge_resonance.values()
               for v in ch.values())
    assert all(not v for ch in report.eigenvalues.values()
               for v in ch.values())


def test_gap_fails_below_critical_exponent():
    g = make_grid(40.0, 3000)
    p = nls_ground_state(0.8, 1.0, 3, g)
    report = gap_scan(assemble_linearized_pair(p, (0, 1)))
    assert not report.gap_holds
    # the breakdown lives in the radial channel of L_plus
    assert report.eigenvalues["L_plus"][0]
    ev = report.eigenvalues["L_plus"][0][0]
    assert 0.0 < ev < report.alpha_sq


def test_gap_scan_eigenvalue_matches_dense_eigvalsh():
    # below sigma* the radial L_plus has one eigenvalue in the gap; the scan
    # reports the operator's own eigenvalue
    g = make_grid(40.0, 1200)
    pair = assemble_linearized_pair(nls_ground_state(0.87, 1.0, 3, g), (0, 1))
    found = gap_scan(pair).eigenvalues["L_plus"][0]
    ev = np.linalg.eigvalsh(dense_matrix(pair.L_plus[0]))
    ev = ev[(ev > 0.01 * pair.alpha_sq) & (ev < pair.alpha_sq)]
    assert len(found) == len(ev) == 1
    assert abs(found[0] - ev[0]) <= 1e-10


def test_root_space_identities(cubic_profile, cubic_pair):
    # L_plus(r d_alpha phi) = -2 alpha (r phi) in the radial channel
    p = cubic_profile
    g = p.grid
    dphi = d_alpha_ground_state(p)
    res = apply_operator(cubic_pair.L_plus[0], g.nodes * dphi) \
        + 2.0 * p.alpha * g.nodes * p.samples
    assert np.abs(res[: g.n // 2]).max() < 500.0 * g.h ** 2


def test_sigma_star_default_grid():
    val = sigma_star((0.8, 1.0), 1e-3)
    assert 0.905 <= val <= 0.925


def test_sigma_star_bad_bracket():
    with pytest.raises(BracketError):
        sigma_star((0.95, 1.0), 1e-2)


def test_sigma_star_single_crossing_coarse():
    # gap_holds flips exactly once over a sigma sweep
    cfg = SigmaStarConfig(n=1500)
    flags = [gap_holds_at(s, cfg) for s in np.linspace(0.82, 0.98, 9)]
    flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    assert flips == 1
    assert not flags[0] and flags[-1]


def test_sigma_star_zero_tol_ends_at_adjacent_floats(monkeypatch):
    calls = []

    def fake_gap_holds_at(sigma, config):
        calls.append(sigma)
        if len(calls) > 200:
            raise AssertionError("sigma_star is still bisecting")
        return sigma >= 0.9

    monkeypatch.setattr(linearized, "gap_holds_at", fake_gap_holds_at)
    val = sigma_star((0.8, 1.0), 0.0)
    lo = max(s for s in calls if s < 0.9)
    hi = min(s for s in calls if s >= 0.9)
    assert np.nextafter(lo, np.inf) == hi
    assert lo <= val <= hi


@pytest.mark.parametrize("tol", [np.nan, -1e-3])
def test_sigma_star_rejects_nan_or_negative_tol(monkeypatch, tol):
    def no_gap_evaluation(sigma, config):
        raise AssertionError("a bad tol must be rejected before any run")

    monkeypatch.setattr(linearized, "gap_holds_at", no_gap_evaluation)
    with pytest.raises(ValueError, match="tol"):
        sigma_star((0.8, 1.0), tol)


@pytest.mark.slow
def test_sigma_star_stable_under_domain_doubling():
    a = sigma_star((0.88, 0.95), 5e-4, SigmaStarConfig(n=6000))
    b = sigma_star((0.88, 0.95), 5e-4,
                   SigmaStarConfig(r_max_over_alpha=80.0, n=12000))
    assert abs(a - b) <= 2e-3


def test_weinstein_h_monotone(cubic_pair):
    mus = [-1.0, -0.3, 0.0, 0.3, 0.6]
    hs = [weinstein_h(cubic_pair, m) for m in mus]
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_weinstein_h_positive_at_zero_cubic(cubic_pair):
    assert weinstein_h(cubic_pair, 0.0) > 0.0


def test_weinstein_h_window_validation(cubic_pair):
    with pytest.raises(ValueError):
        weinstein_h(cubic_pair, 1.5)
    with pytest.raises(ValueError):
        weinstein_h(cubic_pair, -50.0)


def test_weinstein_h_singular_at_interior_eigenvalue():
    # below the gap-breakdown exponent L_plus has a radial eigenvalue inside
    # (0, alpha^2); solving exactly there must be refused
    g = make_grid(40.0, 1500)
    p = nls_ground_state(0.8, 1.0, 3, g)
    pair = assemble_linearized_pair(p, (0, 1))
    ev = gap_scan(pair).eigenvalues["L_plus"][0][0]
    from solitonlab.errors import SingularSolveError
    from solitonlab.spectral import eigenvalue_by_index
    exact = eigenvalue_by_index(pair.L_plus[0],
                                count_below(pair.L_plus[0], ev + 1e-6) - 1)
    with pytest.raises(SingularSolveError):
        weinstein_h(pair, exact)


def test_weinstein_h_two_routes_agree():
    g = make_grid(40.0, 6000)
    p = nls_ground_state(1.0, 1.0, 3, g)
    pair = assemble_linearized_pair(p, (0,))
    a = weinstein_h(pair, 0.0)
    b = weinstein_h_from_scaling(pair)
    assert a == pytest.approx(b, rel=1e-3)


@pytest.mark.parametrize("sigma,expect_neg", [(0.5, False), (1.0, True)])
def test_mu0_sign(sigma, expect_neg):
    g = make_grid(40.0, 1200)
    p = nls_ground_state(sigma, 1.0, 3, g)
    pair = assemble_linearized_pair(p, (0,))
    val = mu0(pair)
    assert (val < 0.0) == expect_neg


def test_mu0_sign_matches_h0():
    for sigma in (0.5, 1.0):
        g = make_grid(40.0, 1200)
        p = nls_ground_state(sigma, 1.0, 3, g)
        pair = assemble_linearized_pair(p, (0,))
        assert np.sign(mu0(pair)) == -np.sign(weinstein_h(pair, 0.0))


@pytest.mark.parametrize("sigma", [0.5, 2.0 / 3.0 - 0.05, 2.0 / 3.0 + 0.05, 1.0])
def test_mu0_matches_dense_oracle(sigma):
    # criterion 5's sigma values and grid; the secular root against the
    # dense deflated eigensolve
    g = make_grid(40.0, 1200)
    pair = assemble_linearized_pair(nls_ground_state(sigma, 1.0, 3, g), (0,))
    assert abs(mu0(pair) - dense_mu0(pair)) <= 1e-9


def test_instability_criterion_values():
    res = instability_criterion(1.0, 3)
    assert res["unstable"] and res["mass_scaling_exponent"] == pytest.approx(-1.0)
    res = instability_criterion(2.0 / 3.0, 3)
    assert not res["unstable"]
    assert res["mass_scaling_exponent"] == pytest.approx(0.0, abs=1e-12)
    res = instability_criterion(0.5, 3)
    assert not res["unstable"] and res["mass_scaling_exponent"] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        instability_criterion(-0.1, 3)


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_quadratic_form_equivalence(sigma):
    # sign of the constrained infimum mu0 equals the sign of the smallest
    # eigenvalue of sqrt(L-) L+ sqrt(L-) on the phi-orthogonal sector
    g = make_grid(30.0, 700)
    p = nls_ground_state(sigma, 1.0, 3, g)
    pair = assemble_linearized_pair(p, (0,))
    M = symmetrized_quadratic_form(pair)
    q = g.nodes * p.samples
    q = q / np.linalg.norm(q)
    P = np.eye(g.n) - np.outer(q, q)
    Mp = P @ M @ P + 10.0 * np.outer(q, q)
    smallest = np.linalg.eigvalsh(0.5 * (Mp + Mp.T))[0]
    assert (smallest < -1e-10) == (mu0(pair) < 0.0)
