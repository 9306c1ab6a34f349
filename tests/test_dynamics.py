import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from solitonlab import dynamics
from solitonlab.dynamics import (RadialState, _classify,
                                 _WaveFlow, project_to_sigma0,
                                 evolve_nlw, evolve_unstable_mode, fit_decay,
                                 find_stable_h, linear_propagate, sine_split,
                                 stability_initial_condition,
                                 static_background, unstable_mode)
from solitonlab.errors import BracketError, NumericsError
from solitonlab.radial import assemble_channel_operator, integrate, make_grid
from solitonlab.solitons import aubin_phi, aubin_potential, aubin_values
from solitonlab.spectral import negative_eigenpairs

from oracles import (dense_propagate, dense_sine_split,
                     full_run_stable_h_search, mode_decompose, nonlinearity_N,
                     quad_oracle, trajectory_observables_reference,
                     wave_flow_twice_b_reference)

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def dyn_grid():
    return make_grid(40.0, 2000)


@pytest.fixture(scope="module")
def mode40(dyn_grid):
    return unstable_mode(dyn_grid)


def test_nonlinearity_values(rng):
    assert nonlinearity_N(0.0, 2.3) == 0.0
    assert nonlinearity_N(1.7, 0.0) == pytest.approx(1.7 ** 5)
    for _ in range(50):
        u = rng.uniform(-2, 2)
        phi = rng.uniform(-2, 2)
        lhs = (phi + u) ** 5 - phi ** 5 - 5.0 * phi ** 4 * u
        assert lhs == pytest.approx(nonlinearity_N(u, phi), abs=1e-12 * max(1, abs(lhs)))


def test_static_background_converges_like_h2():
    devs = []
    hs = []
    for n in (1000, 2000, 4000):
        g = make_grid(40.0, n)
        w = static_background(g)
        devs.append(np.abs(w - g.nodes * aubin_phi(g.nodes, 1.0)).max())
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_unstable_mode_reproducible(dyn_grid, mode40):
    assert mode40.k == pytest.approx(1.9056, abs=2e-3)
    nrm = 4 * np.pi * integrate(dyn_grid, (dyn_grid.nodes * mode40.g) ** 2)
    assert nrm == pytest.approx(1.0, abs=1e-10)


def test_zero_data_full_frame_stays_zero(dyn_grid):
    st = RadialState(dyn_grid, np.zeros(dyn_grid.n), np.zeros(dyn_grid.n), "full")
    traj = evolve_nlw(st, 5.0)
    assert max(np.abs(s.u).max() for s in traj.snapshots) == 0.0


def test_zero_perturbation_is_stationary(dyn_grid):
    st = RadialState(dyn_grid, np.zeros(dyn_grid.n), np.zeros(dyn_grid.n),
                     "perturbation")
    traj = evolve_nlw(st, 20.0)
    assert traj.outcome == "stationary"
    assert traj.sup_norms.max() == 0.0


def test_soliton_start_stationary(dyn_grid):
    # data (phi, 0) on the grid: the perturbation frame holds it exactly for
    # any horizon (v = 0 is an exact fixed point), and the profile is the
    # closed-form soliton to O(h^2)
    st = RadialState(dyn_grid, np.zeros(dyn_grid.n), np.zeros(dyn_grid.n),
                     "perturbation")
    traj = evolve_nlw(st, 20.0)
    assert traj.outcome == "stationary"
    w_bg = traj.background
    dev = np.abs(w_bg / dyn_grid.nodes - aubin_phi(dyn_grid.nodes, 1.0)).max()
    assert dev < 10.0 * dyn_grid.h ** 2
    # the full-frame update holds the profile too, for as long as float64
    # rounding seeds stay below threshold under the e^{kt} amplification
    # (k ~ 1.9: about t ~ ln(tol/eps)/k ~ 10)
    st = RadialState(dyn_grid, w_bg / dyn_grid.nodes, np.zeros(dyn_grid.n), "full")
    traj = evolve_nlw(st, 8.0)
    assert traj.outcome == "stationary"
    drift = max(np.abs(s.u - w_bg / dyn_grid.nodes).max() for s in traj.snapshots)
    assert drift < 1e-2


def test_amplified_soliton_blows_up(dyn_grid):
    st = RadialState(dyn_grid, 1.3 * aubin_phi(dyn_grid.nodes, 1.0),
                     np.zeros(dyn_grid.n), "full")
    traj = evolve_nlw(st, 20.0)
    assert traj.outcome == "blowup"
    assert np.isfinite(traj.blowup_time)


def test_frame_equivalence(dyn_grid):
    # same data evolved as the full field and as the deviation agree to 1e-8
    w_bg = static_background(dyn_grid)
    r = dyn_grid.nodes
    # small enough that the run stays near the soliton through t = 10 (the
    # tangent-plane data sit ~ eps^2 off the manifold and exit after
    # ~ log(1/eps^2)/k time units)
    u0 = 1e-4 * np.exp(-(r - 2.0) ** 2)
    ut0 = 5e-5 * np.exp(-r ** 2)
    mode = unstable_mode(dyn_grid)
    u0, ut0 = project_to_sigma0(u0, ut0, dyn_grid, mode)
    full = RadialState(dyn_grid, w_bg / r + u0, ut0, "full")
    pert = RadialState(dyn_grid, u0, ut0, "perturbation")
    t_full = evolve_nlw(full, 10.0)
    t_pert = evolve_nlw(pert, 10.0)
    # the two frames run different arithmetic around the same discrete
    # equilibrium; their difference is the equilibrium's residual (a few
    # eps/h^2) amplified by e^{kt}
    for sf, sp in zip(t_full.snapshots, t_pert.snapshots):
        assert np.abs(sf.u - sp.u).max() < 1e-8
        assert np.abs(sf.ut - sp.ut).max() < 1e-7


@pytest.mark.parametrize("frame, n, t_final", [
    ("perturbation", 2000, 10.0), ("full", 2000, 10.0),
    ("perturbation", 4000, 30.0), ("full", 4000, 30.0)],
    ids=["perturbation", "full", "perturbation-n4000", "full-n4000"])
def test_evolve_nlw_memory_peak(frame, n, t_final):
    # a run keeps one record block of u and u_t, and its observables pass
    # uses a few chunk scratch arrays of about _CHUNK_BYTES each: with 40
    # snapshots at n = 2000 that is within 3 snapshot matrices plus O(n)
    g = make_grid(40.0, n)
    r = g.nodes
    mode = unstable_mode(g)
    static_background(g)
    u0, ut0 = project_to_sigma0(1e-4 * np.exp(-(r - 2.0) ** 2),
                                5e-5 * np.exp(-r ** 2), g, mode)
    if frame == "full":
        u0 = static_background(g) / r + u0
    st = RadialState(g, u0, ut0, frame)
    tracemalloc.start()
    try:
        traj = evolve_nlw(st, t_final)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.outcome == "dispersal"
    assert peak <= 3.5 * len(traj.times) * g.n * 8


def test_evolve_nlw_on_a_grid_with_no_node_in_the_core():
    # h = 4/3: no node lies in r <= 1, so the settle test has no core sup
    # to read and never passes (it used to raise on the empty maximum)
    g = make_grid(40.0, 30)
    st = RadialState(g, 1e-9 * np.exp(-g.nodes ** 2 / 10.0), np.zeros(g.n),
                     "perturbation")
    traj = evolve_nlw(st, 8.0)
    assert traj.sup_norms[0] > 0.0
    assert traj.outcome == "stationary"


def _observables_case(case):
    """(initial, t_final, stride_time) of an observables parity case."""
    n = 4000 if case == "workload" else 2000
    g = make_grid(40.0, n)
    r = g.nodes
    mode = unstable_mode(g)
    u0, ut0 = project_to_sigma0(1e-4 * np.exp(-(r - 2.0) ** 2),
                                5e-5 * np.exp(-r ** 2), g, mode)
    pert = RadialState(g, u0, ut0, "perturbation")
    if case == "dispersal":
        return pert, 10.0, 0.25
    if case == "full":
        return pert.to_full(static_background(g)), 10.0, 0.25
    if case == "blowup":
        return RadialState(g, 1.3 * aubin_phi(r, 1.0), np.zeros(n), "full"), 20.0, 0.25
    if case == "every_step":
        return pert, 1.0, 1e-3
    if case == "ragged_chunks":
        return pert, 4.5, 0.25
    # the evolution benchmark's dispersal family at its shape
    f1, f2 = project_to_sigma0(0.02 * np.exp(-r ** 2), np.zeros(n), g, mode)
    return RadialState(g, f1 - 0.007 * mode.g, f2, "perturbation"), 30.0, 0.25


@pytest.mark.parametrize("case", ["dispersal", "full", "blowup", "every_step",
                                  "ragged_chunks", "workload"])
def test_evolve_nlw_observables_match_per_row_reference(case):
    # the chunked pass over the record gives every observable, the outcome
    # and every snapshot bit for bit as the per-row code does
    initial, t_final, stride_time = _observables_case(case)
    ref = trajectory_observables_reference(initial, t_final, stride_time)
    traj = evolve_nlw(initial, t_final, stride_time)
    rows = max(1, dynamics._CHUNK_BYTES // (8 * initial.grid.n))
    if case == "workload":
        assert (len(traj.times), initial.grid.n) == (120, 4000)
    if case == "blowup":
        assert ref["outcome"] == "blowup" and np.isfinite(ref["blowup_time"])
    if case == "every_step":
        assert np.array_equal(traj.times, np.arange(len(traj.times)) * traj.dt)
    if case == "ragged_chunks":
        assert len(traj.times) > rows and len(traj.times) % rows != 0
    for key in ("times", "sup_norms", "local_energy", "energy_series",
                "n_plus_series"):
        assert np.array_equal(getattr(traj, key), ref[key]), key
    assert traj.outcome == ref["outcome"]
    assert np.array_equal([traj.blowup_time, traj.exit_time],
                          [ref["blowup_time"], ref["exit_time"]], equal_nan=True)
    assert len(traj.snapshots) == len(ref["u"])
    for snap, u, ut in zip(traj.snapshots, ref["u"], ref["ut"]):
        assert np.array_equal(snap.u, u) and np.array_equal(snap.ut, ut)


def test_outside_light_cone_exactness(dyn_grid):
    # data supported in r <= 4: nodes beyond r = 4 + t remain exactly static
    r = dyn_grid.nodes
    u0 = np.where(r <= 4.0, 0.02 * np.sin(np.pi * r / 4.0) ** 2, 0.0)
    st = RadialState(dyn_grid, u0, np.zeros(dyn_grid.n), "perturbation")
    traj = evolve_nlw(st, 10.0)
    w_bg = traj.background
    phi_bg = w_bg / r
    for j, t in enumerate(traj.times):
        # beyond the physical cone only the scheme's tiny dispersive
        # precursor survives (the numerical domain of dependence grows at
        # h/dt = 1/0.9 per unit time, with an Airy-type front)
        outside = r > 4.0 + t + 2 * dyn_grid.h
        dev = np.abs(traj.snapshots[j].u[outside] - phi_bg[outside]).max()
        assert dev <= 1e-6
        # beyond the numerical cone: exactly untouched
        untouched = r > 4.0 + t / 0.9 + 3 * dyn_grid.h
        dev = np.abs(traj.snapshots[j].u[untouched] - phi_bg[untouched]).max()
        assert dev == 0.0
        assert np.abs(traj.snapshots[j].ut[untouched]).max() == 0.0


def test_energy_conservation_dispersal_run(dyn_grid, mode40):
    r = dyn_grid.nodes
    f1 = 0.02 * np.exp(-r ** 2)
    c = 4 * np.pi * integrate(dyn_grid, f1 * mode40.g * r ** 2)
    # nudge onto the dispersal side: the tangent-plane data sits ~c eps^2
    # off the manifold and would exit upward around t ~ 6 otherwise
    st = RadialState(dyn_grid, f1 - c * mode40.g - 0.005 * mode40.g,
                     np.zeros(dyn_grid.n), "perturbation")
    traj = evolve_nlw(st, 15.0)
    assert traj.outcome == "dispersal"
    e = traj.energy_series
    assert np.abs(e - e[0]).max() <= 1e-3 * abs(e[0])


def test_evolution_second_order_convergence():
    # sup error at t = 2 against a fine reference decays like h^2 (dt tied
    # to h by the fixed CFL ratio)
    errs = []
    hs = []
    ref_n = 12000
    g_ref = make_grid(30.0, ref_n)
    r_ref = g_ref.nodes
    u0f = lambda r: 0.05 * np.exp(-(r - 1.5) ** 2)
    st = RadialState(g_ref, u0f(r_ref), np.zeros(ref_n), "perturbation")
    ref = evolve_nlw(st, 2.0, stride_time=2.0)
    uref = ref.snapshots[-1].u
    for n in (750, 1500, 3000):
        g = make_grid(30.0, n)
        st = RadialState(g, u0f(g.nodes), np.zeros(n), "perturbation")
        tr = evolve_nlw(st, 2.0, stride_time=2.0)
        step = ref_n // n
        errs.append(np.abs(tr.snapshots[-1].u - uref[step - 1::step]).max())
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_mode_decompose_basis_states(dyn_grid, mode40):
    g3, k = mode40.g, mode40.k
    plus = RadialState(dyn_grid, g3.copy(), k * g3, "perturbation")
    d = mode_decompose(plus, g3, k)
    assert d.n_plus == pytest.approx(1.0, abs=1e-10)
    assert d.n_minus == pytest.approx(0.0, abs=1e-10)
    assert np.abs(d.u_tilde.u).max() < 1e-10
    minus = RadialState(dyn_grid, g3.copy(), -k * g3, "perturbation")
    d = mode_decompose(minus, g3, k)
    assert d.n_plus == pytest.approx(0.0, abs=1e-10)
    assert d.n_minus == pytest.approx(1.0, abs=1e-10)


def test_mode_decompose_sigma0_condition(dyn_grid, mode40, rng):
    g3, k = mode40.g, mode40.k
    r = dyn_grid.nodes
    f1 = rng.standard_normal() * np.exp(-r ** 2)
    f2 = rng.standard_normal() * np.exp(-(r - 1) ** 2)
    # enforce <k f1 + f2, g> = 0 by correcting f2
    c = 4 * np.pi * integrate(dyn_grid, (k * f1 + f2) * g3 * r ** 2)
    f2 = f2 - c * g3
    d = mode_decompose(RadialState(dyn_grid, f1, f2, "perturbation"), g3, k)
    assert abs(d.n_plus) < 1e-12


def test_mode_decompose_roundtrip(dyn_grid, mode40, rng):
    g3, k = mode40.g, mode40.k
    for _ in range(5):
        u = rng.standard_normal(dyn_grid.n) * np.exp(-dyn_grid.nodes / 5)
        ut = rng.standard_normal(dyn_grid.n) * np.exp(-dyn_grid.nodes / 5)
        d = mode_decompose(RadialState(dyn_grid, u, ut, "perturbation"), g3, k)
        u_back = d.n_plus * g3 + d.n_minus * g3 + d.u_tilde.u
        ut_back = (d.n_plus - d.n_minus) * k * g3 + d.u_tilde.ut
        assert np.abs(u_back - u).max() < 1e-10
        assert np.abs(ut_back - ut).max() < 1e-10
        # remainder is g-orthogonal in both slots
        a = 4 * np.pi * integrate(dyn_grid, d.u_tilde.u * g3 * dyn_grid.nodes ** 2)
        b = 4 * np.pi * integrate(dyn_grid, d.u_tilde.ut * g3 * dyn_grid.nodes ** 2)
        assert abs(a) < 1e-10 and abs(b) < 1e-10


def test_mode_decompose_rejects_unnormalized(dyn_grid, mode40):
    st = RadialState(dyn_grid, mode40.g.copy(), np.zeros(dyn_grid.n),
                     "perturbation")
    with pytest.raises(ValueError):
        mode_decompose(st, 2.0 * mode40.g, mode40.k)


def test_stability_initial_condition_exponential():
    k = 1.0
    ts = np.linspace(0.0, 25.0, 25001)
    val = stability_initial_condition(ts, np.exp(-ts), k)
    assert val == pytest.approx(-0.5, abs=1e-6)


def test_stability_initial_condition_zero_forcing():
    ts = np.linspace(0.0, 25.0, 101)
    assert stability_initial_condition(ts, np.zeros_like(ts), 1.0) == 0.0


def test_stability_initial_condition_vs_quad(mode40):
    k = mode40.k
    ts = np.linspace(0.0, 25.0, 80001)
    val = stability_initial_condition(ts, 1.0 / (1.0 + ts ** 2), k)
    oracle, _ = quad_oracle(lambda s: np.exp(-k * s) / (1 + s * s), 0.0, 25.0)
    assert val == pytest.approx(-oracle, abs=1e-8)


def test_stability_initial_condition_short_horizon_warns():
    ts = np.linspace(0.0, 2.0, 100)
    with pytest.warns(UserWarning):
        stability_initial_condition(ts, np.exp(-ts), 1.0)


def test_mode_ode_needs_two_samples():
    with pytest.raises(ValueError, match="two time samples"):
        stability_initial_condition(np.zeros(1), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="two time samples"):
        evolve_unstable_mode(np.zeros(1), np.ones(1), 1.0, 0.0)


def test_mode_ode_rejects_times_out_of_order():
    # backwards, repeated or non-finite times used to integrate backwards
    # or give nan; both entry points reject them
    for ts in ([1.0, 0.0], [0.0, 1.0, 1.0], [0.0, np.nan, 30.0],
               [0.0, np.inf]):
        F = np.ones(len(ts))
        with pytest.raises(ValueError, match="strictly increasing"):
            stability_initial_condition(ts, F, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve_unstable_mode(ts, F, 1.0, 0.0)


def test_mode_ode_rejects_forcing_of_another_shape():
    # a longer F_plus used to be cut short and a shorter one raised a bare
    # IndexError
    ts = np.linspace(0.0, 25.0, 11)
    for F in (np.ones(12), np.ones(10), np.ones((11, 1))):
        with pytest.raises(ValueError, match="shape"):
            stability_initial_condition(ts, F, 1.0)
        with pytest.raises(ValueError, match="shape"):
            evolve_unstable_mode(ts, F, 1.0, 0.0)


@pytest.mark.parametrize("k", [np.nan, np.inf])
def test_mode_rate_must_be_positive_and_finite(dyn_grid, mode40, k):
    ts = np.linspace(0.0, 25.0, 101)
    with pytest.raises(ValueError, match="positive and finite"):
        stability_initial_condition(ts, np.exp(-ts), k)
    with pytest.raises(ValueError, match="positive and finite"):
        evolve_unstable_mode(ts, np.exp(-ts), k, 0.0)
    st = RadialState(dyn_grid, mode40.g.copy(), mode40.g.copy(), "perturbation")
    with pytest.raises(ValueError, match="positive and finite"):
        mode_decompose(st, mode40.g, k)


def test_evolve_unstable_mode_trivial():
    ts = np.linspace(0.0, 10.0, 1001)
    out = evolve_unstable_mode(ts, np.zeros_like(ts), 1.3, 0.0)
    assert np.all(out == 0.0)


def test_evolve_unstable_mode_pure_exponential():
    k = 1.3
    ts = np.linspace(0.0, 10.0, 1001)
    out = evolve_unstable_mode(ts, np.zeros_like(ts), k, 1e-4)
    ref = 1e-4 * np.exp(k * ts)
    assert np.abs(out / ref - 1.0).max() < 1e-8


def test_mode_ode_dichotomy(mode40):
    k = mode40.k
    T = 20.0 / k
    ts = np.linspace(0.0, T, int(round(T / 1e-3)) + 1)
    F = 1.0 / (1.0 + ts ** 2)
    n0 = stability_initial_condition(ts, F, k)
    center = evolve_unstable_mode(ts, F, k, n0)
    assert np.abs(center * (1.0 + ts ** 2)).max() <= 10.0
    for off in (1e-6, -1e-6):
        series = evolve_unstable_mode(ts, F, k, n0 + off)
        assert np.abs(series).max() > 1.0


def test_mode_ode_dichotomy_random_forcings(mode40, rng):
    # the stability-condition value is the unique initial value (within the
    # probed bracket) that keeps n_plus bounded by 10x its envelope
    k = mode40.k
    T = 20.0 / k
    ts = np.linspace(0.0, T, 8001)
    for _ in range(5):
        beta = rng.uniform(0.8, 2.5)
        amp = rng.uniform(0.3, 2.0)
        F = amp / (1.0 + ts) ** beta
        n0 = stability_initial_condition(ts, F, k)
        env = 10.0 * amp / (1.0 + ts) ** beta
        assert np.all(np.abs(evolve_unstable_mode(ts, F, k, n0)) <= env)
        for off in (1e-5, -1e-5):
            out = np.abs(evolve_unstable_mode(ts, F, k, n0 + off))
            assert np.any(out > env)


def test_fit_decay_power_laws():
    ts = np.linspace(1.0, 40.0, 400)
    assert fit_decay(ts, 7.0 / ts, (2.0, 35.0)) == pytest.approx(-1.0, abs=1e-10)
    assert fit_decay(ts, 3.0 * ts ** -1.5, (2.0, 35.0)) == pytest.approx(-1.5, abs=1e-10)


def test_fit_decay_error_types():
    # a non-positive observable is a numeric failure (exit 3); a window
    # with too few samples is a configuration error (exit 2)
    ts = np.linspace(1.0, 40.0, 400)
    with pytest.raises(NumericsError, match="positive values"):
        fit_decay(ts, 1.0 - ts / 20.0, (2.0, 35.0))
    with pytest.raises(ValueError, match="fewer than 3 samples"):
        fit_decay(ts, 1.0 / ts, (2.0, 2.1))


def test_linear_propagate_t0_identity(dyn_grid, rng):
    op = assemble_channel_operator(
        dyn_grid, 0, aubin_values(1.0, dyn_grid)["potential"])
    f = rng.standard_normal(dyn_grid.n) * np.exp(-dyn_grid.nodes / 8)
    out = linear_propagate(op, f, np.zeros(dyn_grid.n), 0.0)
    assert np.abs(out - f).max() < 1e-10


def test_linear_propagate_free_eigenmode():
    g = make_grid(np.pi, 600)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    from scipy.linalg import eigh_tridiagonal
    lam, vec = eigh_tridiagonal(op.diagonal, op.off_diagonal)
    f = vec[:, 0]
    for t in (0.7, 2.0, 5.0):
        out = linear_propagate(op, f, np.zeros(g.n), t)
        assert np.abs(out - np.cos(t * np.sqrt(lam[0])) * f).max() < 1e-10


def test_sine_split_orthogonal_input_no_rank_one(dyn_grid):
    av = aubin_values(1.0, dyn_grid)
    op = assemble_channel_operator(dyn_grid, 0, av["potential"])
    r = dyn_grid.nodes
    f = np.exp(-r ** 2 / 2)
    # pre-orthogonalize against d_a phi over the evaluation window
    w_res = r * av["dphi_da"]
    w_f = r * f
    window = r <= dyn_grid.r_max / 4
    coef = np.dot(w_f[window], w_res[window]) / np.dot(w_res[window], w_res[window])
    w_f2 = w_f - coef * w_res * np.where(window, 1.0, 0.0)
    f_orth = w_f2 / r
    res = sine_split(op, av["dphi_da"], f_orth, [5.0, 10.0, 15.0])
    res_plain = sine_split(op, av["dphi_da"], f, [5.0, 10.0, 15.0])
    assert np.abs(res["rank_one_coeff"]).max() < 0.35 * np.abs(
        res_plain["rank_one_coeff"]).max()


@pytest.fixture(scope="module")
def h1_800():
    """H(1) on (0, 40] with 800 nodes (one negative eigenvalue) and its
    Aubin values."""
    g = make_grid(40.0, 800)
    av = aubin_values(1.0, g)
    return assemble_channel_operator(g, 0, av["potential"]), av


@pytest.mark.parametrize("t", [0.5, 3.0, 8.0])
def test_linear_propagate_matches_dense_oracle(h1_800, t):
    op, _ = h1_800
    assert len(negative_eigenpairs(op)) == 1
    rng = np.random.default_rng(11)
    decay = np.exp(-op.grid.nodes / 4.0)
    f = rng.standard_normal(op.grid.n) * decay
    g0 = rng.standard_normal(op.grid.n) * decay
    out = linear_propagate(op, f, g0, t)
    ref = dense_propagate(op, f, g0, t)
    assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()


def test_sine_split_matches_dense_oracle(h1_800):
    op, av = h1_800
    f = np.exp(-op.grid.nodes ** 2 / 2.0)
    times = np.arange(2.0, op.grid.r_max / 2.0 + 1e-9, 1.0)
    res = sine_split(op, av["dphi_da"], f, times)
    ref = dense_sine_split(op, av["dphi_da"], f, times)
    for key in ("rank_one_coeff", "remainder_sup"):
        assert np.all(np.abs(res[key] - ref[key]) <= 1e-8 * np.abs(ref[key]))


def test_sine_split_steps_stay_orthogonal_to_g(h1_800):
    # sine_split's projection: the stepped state keeps no component along
    # the negative eigenvector, so e^{kt} never enters
    op, _ = h1_800
    g = negative_eigenpairs(op)[0].vector
    g = g / np.linalg.norm(g)
    flow = _WaveFlow(op)
    x = np.zeros((2, op.grid.n))
    x[1] = op.grid.nodes * np.exp(-op.grid.nodes ** 2 / 2.0)
    for dt in [2.0] + [1.0] * 18:
        x = flow(x, dt, negative=False)
        assert np.all(np.abs(x @ g) <= 1e-15 * np.abs(x).max(axis=1))


def _flow_operator(name):
    if name == "h1":
        g = make_grid(40.0, 800)
        return assemble_channel_operator(g, 0, aubin_potential(g.nodes, 1.0))
    if name == "free":
        return assemble_channel_operator(make_grid(50.0, 500), 0, np.zeros(500))
    g = make_grid(30.0, 600)
    return assemble_channel_operator(g, 0, 4.0 * aubin_potential(g.nodes, 1.0))


@pytest.mark.parametrize("name, n_negative", [("h1", 1), ("free", 0),
                                              ("aubin4", 3)])
def test_wave_flow_matches_broadcast_reference(monkeypatch, name, n_negative):
    # the flat-layout matvec with buffered deflation products gives the
    # propagators bit for bit as the row-broadcast one does
    op = _flow_operator(name)
    assert len(negative_eigenpairs(op)) == n_negative
    r = op.grid.nodes
    f, g0 = np.exp(-r ** 2 / 2.0), r * np.exp(-(r - 3.0) ** 2)
    times = np.arange(2.0, op.grid.r_max / 2.0 + 1e-9, 1.0)

    def outputs():
        res = sine_split(op, np.exp(-r), f, times)
        return [res["rank_one_coeff"], res["remainder_sup"],
                linear_propagate(op, f, g0, 3.7),
                linear_propagate(op, np.zeros_like(f), g0, 0.3)]

    got = outputs()
    # the propagators feed it blocks orthogonal to the g_j, whose deflation
    # terms are rounding-sized: a generic block shows their order
    flow = _WaveFlow(op)
    y = np.random.default_rng(5).standard_normal((2, op.grid.n))
    assert np.array_equal(flow._twice_b(y), wave_flow_twice_b_reference(flow, y))
    monkeypatch.setattr(_WaveFlow, "_twice_b", wave_flow_twice_b_reference)
    for a, b in zip(got, outputs()):
        assert np.array_equal(a, b)


def test_propagators_reject_bad_input(h1_800):
    op, av = h1_800
    n = op.grid.n
    f = np.exp(-op.grid.nodes ** 2)
    bad = assemble_channel_operator(
        op.grid, 0, np.where(op.grid.nodes < 1.0, np.nan, av["potential"]))
    with pytest.raises(ValueError, match="non-finite"):
        linear_propagate(bad, f, f, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        sine_split(bad, av["dphi_da"], f, [1.0, 2.0])
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            linear_propagate(op, f, f, t)
    with pytest.raises(ValueError, match="shape"):
        linear_propagate(op, f[:-1], f[:-1], 1.0)
    with pytest.raises(ValueError, match="shape"):
        linear_propagate(op, f, np.zeros((2, n)), 1.0)
    for times in ([1.0, np.nan], [1.0, np.inf], [-1.0, 2.0], [3.0, 2.0]):
        with pytest.raises(ValueError, match="nondecreasing"):
            sine_split(op, av["dphi_da"], f, times)
    # e^{kt} beyond float range is a numeric failure, not an overflow
    # warning, and so is a step whose expansion would not fit in memory
    with pytest.raises(NumericsError, match="overflows"):
        linear_propagate(op, f, f, 400.0)
    with pytest.raises(NumericsError, match="Chebyshev terms"):
        sine_split(op, av["dphi_da"], f, [1e6])


def test_evolve_nlw_rejects_nonpositive_t_final(dyn_grid):
    state = RadialState(dyn_grid, np.zeros(dyn_grid.n), np.zeros(dyn_grid.n),
                        "perturbation")
    for t_final in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_final"):
            evolve_nlw(state, t_final)


def test_evolve_nlw_rejects_bad_stride_time(dyn_grid):
    state = RadialState(dyn_grid, np.zeros(dyn_grid.n), np.zeros(dyn_grid.n),
                        "perturbation")
    for stride_time in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="stride_time"):
            evolve_nlw(state, 1.0, stride_time)
    # a positive stride below half a step records every step
    g = make_grid(20.0, 400)
    traj = evolve_nlw(RadialState(g, np.zeros(g.n), np.zeros(g.n),
                                  "perturbation"), 1.0, 1e-300)
    assert len(traj.times) == round(1.0 / traj.dt) + 1 == 23


def test_find_stable_h_zero_data_gives_zero(dyn_grid):
    res = find_stable_h(np.zeros(dyn_grid.n), np.zeros(dyn_grid.n), dyn_grid,
                        bracket_width=0.02, tol=1e-9, t_horizon=25.0)
    assert abs(res.h_star) <= 2e-9
    assert res.below_outcome != res.above_outcome


def test_find_stable_h_bracket_error(dyn_grid):
    r = dyn_grid.nodes
    with pytest.raises(BracketError):
        find_stable_h(0.01 * np.exp(-r ** 2), np.zeros(dyn_grid.n), dyn_grid,
                      bracket_width=1e-12, tol=0.0, t_horizon=20.0)


def _full_run_bisection(f1, f2, grid, bracket_width, tol, t_horizon):
    """find_stable_h's bisection with every candidate classified by a full
    evolve_nlw run: (h_star, bracket_final, below, above, n_runs)."""
    mode = unstable_mode(grid)
    f1p, f2p = project_to_sigma0(f1, f2, grid, mode)

    def outcome(hc):
        st = RadialState(grid, f1p + hc * mode.g, f2p, "perturbation")
        return evolve_nlw(st, t_horizon).outcome

    lo, hi = -bracket_width, bracket_width
    below, above = outcome(lo), outcome(hi)
    runs = 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        out = outcome(mid)
        runs += 1
        if out == "undecided":
            break
        if out == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi), below, above, runs + 1


def test_find_stable_h_matches_full_run_bisection():
    g = make_grid(30.0, 1000)
    f1 = 0.02 * np.exp(-g.nodes ** 2)
    res = find_stable_h(f1, np.zeros(g.n), g, bracket_width=0.05, tol=0.0,
                        t_horizon=20.0)
    # early exit never changes the search: its twin runs every candidate,
    # and measures every offset, to the horizon
    h_star, bracket, below, above, runs, n_est, _ = full_run_stable_h_search(
        f1, np.zeros(g.n), g, 0.05, 20.0)
    assert res.h_star == h_star
    assert res.bracket_final == bracket
    assert (res.below_outcome, res.above_outcome) == (below, above)
    assert res.n_runs == runs
    assert res.n_estimate_runs == n_est > 0
    lo, hi = res.bracket_final
    assert type(res.h_star) is type(lo) is type(hi) is float
    assert lo < hi and 0.5 * (lo + hi) in (lo, hi)
    # the plain bisection, an independent oracle, finds the same h* in at
    # least twice the runs
    h_bisect, _, below_b, above_b, runs_bisect = _full_run_bisection(
        f1, np.zeros(g.n), g, 0.05, 0.0, 20.0)
    assert (below_b, above_b) == (below, above)
    assert abs(res.h_star - h_bisect) <= 1e-10 * abs(h_bisect)
    assert 2 * res.n_runs <= runs_bisect


def test_find_stable_h_classifies_each_initial_state_once(dyn_grid,
                                                         monkeypatch):
    # late in a tol = 0 search some candidates round to a bracket end's u;
    # they take that end's answer, so no two classification runs step the
    # same state, and the search is still the full-run twin's
    f1 = np.random.default_rng(1).uniform(0.019, 0.021) \
        * np.exp(-dyn_grid.nodes ** 2)
    f2 = np.zeros(dyn_grid.n)
    seen = []

    def spy(initial, t_final):
        seen.append(initial.u)
        return _classify(initial, t_final)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "_classify", spy)
        res = find_stable_h(f1, f2, dyn_grid, bracket_width=0.05, tol=0.0,
                            t_horizon=35.0)
    twin = full_run_stable_h_search(f1, f2, dyn_grid, 0.05, 35.0)
    assert (res.h_star, res.bracket_final, res.n_runs,
            res.n_estimate_runs) == (twin[0], twin[1], twin[4], twin[5])
    mode = unstable_mode(dyn_grid)
    f1p = project_to_sigma0(f1, f2, dyn_grid, mode)[0]
    distinct = []
    for hc, _ in twin[6]:
        u = f1p + hc * mode.g
        if not any(np.array_equal(u, d) for d in distinct):
            distinct.append(u)
    for i, u in enumerate(seen):
        assert not any(np.array_equal(u, s) for s in seen[:i])
    assert len(seen) == len(distinct) < len(twin[6]) == res.n_runs - 1


def test_find_stable_h_reproduces_pinned_records(dyn_grid):
    # the manifold workload's searches at seeds 1201-1205, pinned as float.hex
    # in BENCH_manifold.json (n = 2000, eps drawn as the workload draws it,
    # bracket 0.05, tol 0, horizon 35); a change that moves them on purpose
    # updates the pins with it
    pins = json.loads((REPO / "BENCH_manifold.json").read_text())[
        "pinned_find_stable_h"]["results_nplus"]
    for seed in range(1201, 1206):
        eps = float(np.random.default_rng(seed).uniform(0.019, 0.021))
        res = find_stable_h(eps * np.exp(-dyn_grid.nodes ** 2),
                            np.zeros(dyn_grid.n), dyn_grid, bracket_width=0.05,
                            tol=0.0, t_horizon=35.0)
        got = {"h_star": res.h_star.hex(),
               "bracket_final": [x.hex() for x in res.bracket_final],
               "below_outcome": res.below_outcome,
               "above_outcome": res.above_outcome,
               "decay_fit": res.decay_fit.hex(),
               "decay_window": [float(x).hex() for x in res.decay_window],
               "n_runs": res.n_runs, "n_estimate_runs": res.n_estimate_runs}
        want = pins[f"manifold-seed{seed}"]
        assert got == {key: want[key] for key in got}, seed


def test_find_stable_h_undecided_candidate_ends_search():
    # at horizon 8 the first estimate is too near h* to exit before the end
    g = make_grid(30.0, 1000)
    mode = unstable_mode(g)
    f1 = 0.02 * np.exp(-g.nodes ** 2)
    res = find_stable_h(f1, np.zeros(g.n), g, bracket_width=0.05, tol=0.0,
                        t_horizon=8.0)
    twin = full_run_stable_h_search(f1, np.zeros(g.n), g, 0.05, 8.0)
    assert twin[6][-1][1] == "undecided"
    assert (res.h_star, res.bracket_final, res.n_runs,
            res.n_estimate_runs) == (twin[0], twin[1], twin[4], twin[5])
    assert res.trajectory.outcome == "undecided"
    lo, hi = res.bracket_final
    assert lo < res.h_star < hi
    f1p, f2p = project_to_sigma0(f1, np.zeros(g.n), g, mode)
    ends = [evolve_nlw(RadialState(g, f1p + hc * mode.g, f2p, "perturbation"),
                       8.0).outcome for hc in (lo, hi)]
    assert ends == [res.below_outcome, res.above_outcome]


def test_find_stable_h_midpoint_without_estimate(monkeypatch):
    # far from the manifold: the first candidate, 0, is past the linear
    # regime at its first snapshot, so it gives no offset and the next
    # candidate is the midpoint
    g = make_grid(30.0, 1000)
    mode = unstable_mode(g)
    f1 = 0.5 * np.exp(-g.nodes ** 2)
    f1p, f2p = project_to_sigma0(f1, np.zeros(g.n), g, mode)
    first = RadialState(g, f1p, f2p, "perturbation")
    assert abs(evolve_nlw(first, 20.0).n_plus_series[1]) > 2e-3
    seen = []

    def spy(initial, t_final):
        seen.append((initial.u, _classify(initial, t_final)))
        return seen[-1][1]

    monkeypatch.setattr(dynamics, "_classify", spy)
    res = find_stable_h(f1, np.zeros(g.n), g, bracket_width=0.05, tol=0.0,
                        t_horizon=20.0)
    assert np.array_equal(seen[2][0], f1p + 0.0 * mode.g)
    assert seen[2][1] == (res.above_outcome, None)
    assert np.array_equal(seen[3][0], f1p - 0.025 * mode.g)
    lo, hi = res.bracket_final
    assert lo < hi and 0.5 * (lo + hi) in (lo, hi)
    assert 0 < res.n_estimate_runs < res.n_runs - 3
    twin = full_run_stable_h_search(f1, np.zeros(g.n), g, 0.05, 20.0)
    assert (res.h_star, res.bracket_final, res.n_runs,
            res.n_estimate_runs) == (twin[0], twin[1], twin[4], twin[5])


def test_early_stopped_outcome_matches_evolve_nlw(dyn_grid, mode40):
    r = dyn_grid.nodes
    f1, f2 = project_to_sigma0(0.02 * np.exp(-r ** 2), np.zeros(dyn_grid.n),
                               dyn_grid, mode40)
    res = find_stable_h(0.02 * np.exp(-r ** 2), np.zeros(dyn_grid.n), dyn_grid,
                        bracket_width=0.05, tol=1e-7, t_horizon=25.0)
    lo, hi = res.bracket_final
    candidates = [-0.05, 0.05, lo, hi, lo - 1e-4, hi + 1e-4, lo - 1e-2, hi + 1e-2]
    outcomes = set()
    for hc in candidates:
        st = RadialState(dyn_grid, f1 + hc * mode40.g, f2, "perturbation")
        out = _classify(st, 25.0)[0]
        assert out == evolve_nlw(st, 25.0).outcome
        outcomes.add(out)
    assert outcomes == {"blowup", "dispersal"}


def test_classify_full_frame_matches_perturbation_frame(dyn_grid, mode40):
    # the early exit reads n_plus of psi - phi in either frame, not the full
    # field's (the background's amplitude alone is past the exit level)
    r = dyn_grid.nodes
    f1, f2 = project_to_sigma0(0.02 * np.exp(-r ** 2), np.zeros(dyn_grid.n),
                               dyn_grid, mode40)
    state = RadialState(dyn_grid, f1 - 3e-6 * mode40.g, f2, "perturbation")
    full = state.to_full(static_background(dyn_grid))
    out, offset = _classify(full, 35.0)
    out_p, offset_p = _classify(state, 35.0)
    assert out == evolve_nlw(full, 35.0).outcome == out_p
    assert offset == pytest.approx(offset_p, rel=1e-7)
