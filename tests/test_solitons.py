import numpy as np
import pytest

from solitonlab import solitons
from solitonlab.errors import ConvergenceError
from solitonlab.radial import (apply_operator, assemble_channel_operator,
                               integrate, make_grid)
from solitonlab.solitons import (aubin_dphi_da, aubin_phi, aubin_potential,
                                 aubin_values, d_alpha_ground_state,
                                 nls_ground_state)

from oracles import (find_bracket_reference, ground_state_mass,
                     profile_tail_slope, rescale_ground_state,
                     rk2_shoot_ground_state)


def test_aubin_center_values():
    g = make_grid(10.0, 100)
    av = aubin_values(1.0, g)
    assert aubin_phi(0.0, 1.0) == pytest.approx(3.0 ** 0.25, abs=1e-12)
    # V(0) = -5 phi(0)^4 = -5 * 3 = -15 (phi(0)^4 = 3, not sqrt(3))
    assert -5.0 * aubin_phi(0.0, 1.0) ** 4 == pytest.approx(-15.0, abs=1e-12)
    assert aubin_potential(0.0, 1.0) == pytest.approx(-15.0, abs=1e-12)
    assert av["potential"][0] == pytest.approx(
        -15.0 / (1.0 + g.h ** 2) ** 2, rel=1e-12)


def test_aubin_rejects_nonpositive_a():
    g = make_grid(10.0, 100)
    with pytest.raises(ValueError):
        aubin_values(-1.0, g)


def test_aubin_scaling_identity(rng):
    # phi(r, a) = a^(1/4) phi(sqrt(a) r, 1)
    for _ in range(50):
        r = rng.uniform(0.0, 30.0)
        a = rng.uniform(0.2, 5.0)
        lhs = aubin_phi(r, a)
        rhs = a ** 0.25 * aubin_phi(np.sqrt(a) * r, 1.0)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_aubin_static_residual_order():
    # discrete radial Laplacian residual of -Lap phi - phi^5 = 0 is O(h^2)
    sups = []
    hs = []
    for n in (1000, 2000, 4000):
        g = make_grid(30.0, n)
        w = g.nodes * aubin_phi(g.nodes, 1.0)
        op = assemble_channel_operator(g, 0, np.zeros(g.n))
        res = apply_operator(op, w) - (w / g.nodes) ** 5 * g.nodes
        sups.append(np.abs(res[: g.n // 2]).max())
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_linearized_action_on_soliton():
    # H phi = -Delta phi + V phi = -4 phi^5 pointwise (V = -5 phi^4 and the
    # static identity); checked through the discrete operator
    g = make_grid(50.0, 4000)
    av = aubin_values(1.0, g)
    op = assemble_channel_operator(g, 0, av["potential"])
    w = g.nodes * av["phi"]
    res = apply_operator(op, w) + 4.0 * g.nodes * av["phi"] ** 5
    assert np.abs(res[: g.n // 2]).max() < 10.0 * g.h ** 2
    # so <H phi, phi> = -4 int phi^6 over R^3
    lhs = 4 * np.pi * integrate(
        g, np.where(g.nodes <= 25.0, apply_operator(op, w) * w, 0.0))
    rhs = -4.0 * 4 * np.pi * integrate(
        g, np.where(g.nodes <= 25.0, (av["phi"] * g.nodes) ** 2 * av["phi"] ** 4, 0.0))
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_aubin_tail_exponents():
    g = make_grid(80.0, 4000)
    av = aubin_values(1.0, g)
    assert profile_tail_slope(g, av["phi"]) == pytest.approx(-1.0, abs=0.05)
    assert profile_tail_slope(g, av["dphi_da"]) == pytest.approx(-1.0, abs=0.05)


def test_dilation_derivative_ratio_identity():
    # d_a phi(., a1) = (a2/a1)^(5/4) d_a phi(., a2) + O(|a1 - a2| <r>^-3)
    g = make_grid(50.0, 2000)
    r = g.nodes
    for a1, a2 in ((0.8, 1.0), (1.0, 1.25), (0.6, 0.75)):
        diff = aubin_dphi_da(r, a1) - (a2 / a1) ** 1.25 * aubin_dphi_da(r, a2)
        weighted = np.abs(diff) * (1.0 + r ** 2) ** 1.5
        assert weighted.max() <= 6.0 * abs(a1 - a2)


def test_d1_ground_state_matches_sech():
    g = make_grid(40.0, 3000)
    # the closed form sqrt(2) sech(r) solves phi'' = phi - phi^3: check by
    # finite differences before trusting it as the oracle
    r = g.nodes[1:-1]
    f = np.sqrt(2.0) / np.cosh(g.nodes)
    fpp = (f[2:] - 2 * f[1:-1] + f[:-2]) / g.h ** 2
    assert np.abs(fpp - (f[1:-1] - f[1:-1] ** 3)).max() < 2e-4
    p = nls_ground_state(1.0, 1.0, 1, g)
    assert p.center_value == pytest.approx(np.sqrt(2.0), abs=1e-6)
    assert np.abs(p.samples - np.sqrt(2.0) / np.cosh(g.nodes)).max() < 1e-5
    assert p.decay_rate == pytest.approx(1.0, rel=1e-6)


def test_d3_ground_state_vs_independent_oracle(cubic_profile):
    # frozen: Richardson-extrapolated RK2 oracle (n = 12000/24000) gives
    # 4.33738730; the raw coarse oracle run below rechecks consistency
    assert cubic_profile.center_value == pytest.approx(4.33738730, rel=1e-4)
    oracle = rk2_shoot_ground_state(1.0, 1.0, 3, 40.0, 12000)
    assert cubic_profile.center_value == pytest.approx(oracle, rel=3e-4)


def test_ground_state_alpha_scaling():
    g1 = make_grid(40.0, 3000)
    g2 = make_grid(20.0, 3000)
    p1 = nls_ground_state(1.0, 1.0, 3, g1)
    p2 = nls_ground_state(1.0, 2.0, 3, g2)
    assert p2.center_value == pytest.approx(2.0 * p1.center_value, rel=1e-4)


def test_ground_state_positive_decaying(cubic_profile):
    assert np.all(cubic_profile.samples > 0.0)
    assert cubic_profile.decay_rate == pytest.approx(
        cubic_profile.alpha, rel=1e-2)


def test_ground_state_ode_residual_order():
    sups = []
    hs = []
    for n in (1500, 3000, 6000):
        g = make_grid(40.0, n)
        p = nls_ground_state(1.0, 1.0, 3, g)
        op = assemble_channel_operator(g, 0, 1.0 - p.samples ** 2)
        res = apply_operator(op, g.nodes * p.samples)
        sups.append(np.abs(res[: g.n // 2]).max())
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_d1_ground_state_when_first_shot_overshoots():
    # at sigma = 40 the first shot, 1.05 alpha^(1/sigma), already crosses
    # zero, so the bracket comes from the downward scan
    p = nls_ground_state(40.0, 1.0, 1, make_grid(40.0, 1500))
    assert 1.05 / 1.02 < p.center_value < 1.05
    assert np.all(p.samples > 0.0)


@pytest.mark.parametrize("sigma, d", [(1.0, 3), (0.5, 3), (1.9, 3),
                                      (1.0, 1), (40.0, 1), (50.0, 1)])
def test_find_bracket_matches_two_loop_reference(monkeypatch, sigma, d):
    g = make_grid(40.0, 1500)
    fric = solitons.rk4_friction(float(d), g.h, g.n)
    shots, ref_shots = [], []
    shoot = solitons._shoot_once

    def recorded_shoot(b, *args):
        shots.append(b)
        return shoot(b, *args)

    def overshoots(b):
        ref_shots.append(b)
        return shoot(b, 1.0, sigma, d, g.h, fric)[1] == 1

    expected = find_bracket_reference(overshoots, 1.0, sigma)
    monkeypatch.setattr(solitons, "_shoot_once", recorded_shoot)
    assert solitons._find_bracket(1.0, sigma, d, g.h, fric) == expected
    assert shots == ref_shots


def test_ground_state_rejects_bad_args():
    g = make_grid(40.0, 3000)
    with pytest.raises(ValueError):
        nls_ground_state(1.0, -1.0, 3, g)
    with pytest.raises(ValueError):
        nls_ground_state(2.5, 1.0, 3, g)
    with pytest.raises(ValueError):
        nls_ground_state(1.0, 1.0, 2, g)


@pytest.mark.parametrize("sigma, alpha, n", [
    (1.0, 5.0, 100),             # a shot's power overflows on the coarse grid
    (1.0, np.float64(5.0), 100),  # the same as a numpy scalar
    (0.001, 10.0, 3000),         # the rest value alpha^(1/sigma) overflows
], ids=["shot", "numpy-scalar", "rest-value"])
def test_ground_state_overflow_is_convergence_error(sigma, alpha, n):
    with pytest.raises(ConvergenceError, match="h=.*alpha="):
        nls_ground_state(sigma, alpha, 3, make_grid(40.0, n))


def test_ground_state_ends_when_ulp_of_center_exceeds_tol(monkeypatch):
    # phi(0) ~ 4.3e4 has an ulp of 7.3e-12, above the 1e-12 bisection width
    calls = []
    shoot = solitons._shoot_once

    def counted_shoot(*args):
        calls.append(args[0])
        if len(calls) > 500:
            raise AssertionError("nls_ground_state is still bisecting")
        return shoot(*args)

    monkeypatch.setattr(solitons, "_shoot_once", counted_shoot)
    p = nls_ground_state(0.25, 10.0, 3, make_grid(40.0, 1000))
    assert np.all(p.samples > 0.0)
    assert p.decay_rate == pytest.approx(10.0, rel=1e-3)


def test_rescale_identity(cubic_profile):
    same = rescale_ground_state(cubic_profile, cubic_profile.alpha)
    assert np.allclose(same.samples, cubic_profile.samples, rtol=1e-14)
    assert same.grid.r_max == pytest.approx(cubic_profile.grid.r_max)


def test_rescale_rejects_nonpositive():
    g = make_grid(40.0, 3000)
    p = nls_ground_state(1.0, 1.0, 3, g)
    with pytest.raises(ValueError):
        rescale_ground_state(p, 0.0)


def test_rescale_mass_scaling_supercritical(cubic_profile):
    m1 = ground_state_mass(cubic_profile)
    m2 = ground_state_mass(rescale_ground_state(cubic_profile, 2.0))
    assert m2 / m1 == pytest.approx(0.5, abs=1e-6)


def test_rescale_mass_invariance_critical():
    g = make_grid(40.0, 3000)
    p = nls_ground_state(2.0 / 3.0, 1.0, 3, g)
    m1 = ground_state_mass(p)
    m2 = ground_state_mass(rescale_ground_state(p, 2.0))
    assert m2 / m1 == pytest.approx(1.0, abs=1e-6)


def test_l_plus_alpha_derivative_identity(cubic_profile):
    # L_plus (d_alpha phi) = -2 alpha phi at O(h^2), d_alpha phi by
    # centered differencing of shot profiles
    p = cubic_profile
    g = p.grid
    dphi = d_alpha_ground_state(p)
    op = assemble_channel_operator(g, 0, 1.0 - 3.0 * p.samples ** 2)
    res = apply_operator(op, g.nodes * dphi) + 2.0 * g.nodes * p.samples
    assert np.abs(res[: g.n // 2]).max() < 500.0 * g.h ** 2
