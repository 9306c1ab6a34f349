"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria with runtime budgets assert those budgets too.
"""

import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from solitonlab.dynamics import (RadialState, evolve_nlw, evolve_unstable_mode,
                                 find_stable_h, linear_propagate,
                                 project_to_sigma0, sine_split,
                                 stability_initial_condition,
                                 static_background, unstable_mode)
from solitonlab.errors import SingularSolveError
from solitonlab.linearized import (SigmaStarConfig, assemble_linearized_pair,
                                   instability_criterion, mu0, sigma_star,
                                   weinstein_h, weinstein_h_from_scaling)
from solitonlab.radial import assemble_channel_operator, make_grid
from solitonlab.resolvent import (classify_zero_mode, halfline_free_kernel,
                                  jensen_nenciu_invert, laurent_fit,
                                  singular_family)
from solitonlab.solitons import (aubin_dphi_da, aubin_dphi_dr, aubin_values,
                                 nls_ground_state)
from solitonlab.spectral import (birman_schwinger_count, eigenvalue_by_index,
                                 negative_eigenpairs, zero_energy_diagnosis)

from oracles import mode_decompose

pytestmark = pytest.mark.acceptance

_RESULTS = []


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _RESULTS.append(line)
    print("\n" + line, flush=True)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    print("\n" + "\n".join(_RESULTS), flush=True)


def test_criterion_01_sigma_star_reproduction():
    t0 = time.time()
    base = sigma_star((0.8, 1.0), 1e-3, SigmaStarConfig(n=3000))
    in_window = 0.905 <= base <= 0.925
    # the refinement trend needs sigma resolved finer than the h^2 bias it
    # tracks, so the refinement estimates search to 1e-4
    seq = [sigma_star((0.9, 0.93), 1e-4, SigmaStarConfig(n=n))
           for n in (3000, 6000, 12000)]
    elapsed = time.time() - t0
    gaps = [abs(s - 0.914) for s in seq]
    monotone = gaps[0] > gaps[1] > gaps[2]
    shrinking = abs(seq[0] - seq[1]) > abs(seq[1] - seq[2])
    ok = in_window and monotone and shrinking and elapsed < 600.0
    _report(1, "sigma-star", ok,
            f"estimate {base:.5f} in [0.905, 0.925]; refinements "
            f"{seq[0]:.5f} -> {seq[1]:.5f} -> {seq[2]:.5f} toward 0.914, "
            f"{elapsed:.1f}s")


def test_criterion_02_birman_schwinger_count():
    t0 = time.time()
    g = make_grid(60.0, 1500)
    V = aubin_values(1.0, g)["potential"]
    rep = birman_schwinger_count(V, 3, g, 1e-3)
    elapsed = time.time() - t0
    ok = (rep.channel_counts == [2, 1, 0, 0]
          and rep.total_with_multiplicity == 5 and elapsed < 60.0)
    _report(2, "birman-schwinger count", ok,
            f"channels {rep.channel_counts}, total {rep.total_with_multiplicity}, "
            f"{elapsed:.1f}s")


def test_criterion_03_radial_spectrum_of_h1():
    g = make_grid(50.0, 4000)
    op = assemble_channel_operator(g, 0, aubin_values(1.0, g)["potential"])
    pairs = negative_eigenpairs(op)
    d = zero_energy_diagnosis(op)
    # analytic dilation-mode profile r d_a phi = 3^(1/4) r (1-r^2)/(4(1+r^2)^(3/2));
    # the criterion's printed formula -3^(1/4) r^2 (1+r^2)^(-3/2) (the radial
    # derivative instead of the dilation derivative) solves nothing and has
    # no interior zero, so the dilation mode is the tested target
    r = g.nodes
    ref = r * aubin_dphi_da(r, 1.0)
    win = r <= g.r_max / 2
    scale = np.dot(d.solution[win], ref[win]) / np.dot(d.solution[win], d.solution[win])
    err = np.abs(scale * d.solution[win] - ref[win]).max() / np.abs(ref[win]).max()
    signs = np.sign(d.solution[np.abs(d.solution) > 1e-9])
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    ok = len(pairs) == 1 and err <= 1e-3 and crossings == 1
    _report(3, "radial spectrum of H(1)", ok,
            f"{len(pairs)} negative eigenvalue(s), zero-mode sup rel err "
            f"{err:.2e}, {crossings} interior sign change(s)")


def test_criterion_04_spectral_scaling():
    ks = {}
    for a, rmax in ((0.25, 50.0), (1.0, 50.0), (4.0, 25.0)):
        g = make_grid(rmax, 4000)
        op = assemble_channel_operator(g, 0, aubin_values(a, g)["potential"])
        ks[a] = -eigenvalue_by_index(op, 0)
    err4 = abs(ks[4.0] - 4.0 * ks[1.0]) / (4.0 * ks[1.0])
    err14 = abs(ks[0.25] - 0.25 * ks[1.0]) / (0.25 * ks[1.0])
    ok = err4 <= 1e-3 and err14 <= 1e-3
    _report(4, "spectral scaling k(a)^2 = a k(1)^2", ok,
            f"rel errors a=4: {err4:.2e}, a=1/4: {err14:.2e}")


def test_criterion_05_weinstein_suite():
    sigmas = (0.5, 2.0 / 3.0 - 0.05, 2.0 / 3.0 + 0.05, 1.0)
    details = []
    ok = True
    for s in sigmas:
        g = make_grid(40.0, 6000)
        p = nls_ground_state(s, 1.0, 3, g)
        pair = assemble_linearized_pair(p, (0,))
        h0 = weinstein_h(pair, 0.0)
        h0b = weinstein_h_from_scaling(pair)
        rel = abs(h0 - h0b) / abs(h0b)
        gc = make_grid(40.0, 1200)
        pc = nls_ground_state(s, 1.0, 3, gc)
        m0 = mu0(assemble_linearized_pair(pc, (0,)))
        ok = ok and np.sign(m0) == -np.sign(h0) and rel <= 1e-3
        details.append(f"s={s:.3f}: h0={h0:+.3f} agree {rel:.1e} mu0={m0:+.3f}")
    flips = [instability_criterion(s, 3)["unstable"]
             for s in (2 / 3 - 0.05, 2 / 3, 2 / 3 + 0.05)]
    ok = ok and flips == [False, False, True]
    _report(5, "weinstein suite", ok, "; ".join(details))


def test_criterion_06_jensen_nenciu_lemma():
    rng = np.random.default_rng(1234)
    worst_inv = 0.0
    worst_bound = 0.0
    for _ in range(200):
        dim = int(rng.integers(10, 51))
        rank = int(rng.integers(1, 4))
        Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        vals = np.concatenate([np.zeros(rank),
                               rng.uniform(0.5, 3.0, dim - rank)])
        A0 = Q @ np.diag(vals) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
        B = rng.standard_normal((dim, dim))
        B = 0.5 * (B + B.T)
        fam = singular_family(A0, lambda z, B=B: B)
        z = 10.0 ** rng.uniform(-4, -2)
        res = jensen_nenciu_invert(fam, z)
        direct = np.linalg.inv(fam.A(z))
        worst_inv = max(worst_inv,
                        np.abs(res["A_inv"] - direct).max() / np.abs(direct).max())
        worst_bound = max(worst_bound, float(np.abs(
            fam.S - fam.S @ np.linalg.inv(fam.A0 + fam.S) @ fam.S).max()))
    # degenerate instances: force A(z) q = 0 along a kernel direction
    degenerate_caught = 0
    n_degenerate = 25
    for _ in range(n_degenerate):
        dim = 16
        Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        vals = np.concatenate([[0.0], rng.uniform(0.5, 3.0, dim - 1)])
        A0 = Q @ np.diag(vals) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
        q = Q[:, 0]
        B = rng.standard_normal((dim, dim))
        B = 0.5 * (B + B.T)
        B = B - np.outer(B @ q, q) - np.outer(q, B @ q) \
            + (q @ B @ q) * np.outer(q, q)
        fam = singular_family(A0, lambda z, B=B: B)
        try:
            jensen_nenciu_invert(fam, 1e-3)
        except SingularSolveError:
            degenerate_caught += 1
    ok = (worst_inv <= 1e-9 and worst_bound <= 1e-12
          and degenerate_caught == n_degenerate)
    _report(6, "jensen-nenciu lemma", ok,
            f"200 instances, worst inversion err {worst_inv:.1e}, worst "
            f"uniform-bound defect {worst_bound:.1e}, "
            f"{degenerate_caught}/{n_degenerate} singular instances caught")


def test_criterion_07_laurent_coefficients():
    xs = np.linspace(0.5, 5.0, 10)
    zs = 1j * np.geomspace(1e-5, 1e-4, 8)

    def d1(z):
        return np.array([[np.exp(1j * z * abs(x - y)) / (2j * z)
                          for y in xs] for x in xs])

    def d3(z):
        return np.array([[halfline_free_kernel(z, x, y) for y in xs]
                         for x in xs])

    c1 = laurent_fit(d1, zs)
    c3 = laurent_fit(d3, zs)
    e_d1 = np.abs(c1.c_minus1 - 1.0 / 2j).max()
    ok = (e_d1 <= 1e-8 and np.abs(c1.c_minus2).max() <= 1e-8
          and np.abs(c3.c_minus2).max() <= 1e-8
          and np.abs(c3.c_minus1).max() <= 1e-8)
    _report(7, "laurent coefficients", ok,
            f"d=1: |c-1 - 1/2i| = {e_d1:.1e}, d=3: |c-2| = "
            f"{np.abs(c3.c_minus2).max():.1e}, |c-1| = {np.abs(c3.c_minus1).max():.1e}")


def test_criterion_08_resonance_classification():
    g = make_grid(50.0, 4000)
    av = aubin_values(1.0, g)
    res = classify_zero_mode(av["potential"], av["dphi_da"], g, ell=0)
    eig = classify_zero_mode(av["potential"], aubin_dphi_dr(g.nodes, 1.0),
                             g, ell=1)
    ok = (res["kind"] == "resonance"
          and abs(res["tail_exponent"] + 1.0) <= 0.05
          and eig["kind"] == "eigenvalue"
          and abs(eig["tail_exponent"] + 2.0) <= 0.1)
    _report(8, "resonance classification", ok,
            f"dilation: {res['kind']} exponent {res['tail_exponent']:.3f}; "
            f"translation: {eig['kind']} exponent {eig['tail_exponent']:.3f}")


def test_criterion_09_mode_ode_dichotomy():
    g = make_grid(40.0, 3000)
    k = unstable_mode(g).k
    T = 20.0 / k
    ts = np.linspace(0.0, T, int(round(T / 1e-3)) + 1)
    F = 1.0 / (1.0 + ts ** 2)
    n0 = stability_initial_condition(ts, F, k)
    center = np.abs(evolve_unstable_mode(ts, F, k, n0)) * (1.0 + ts ** 2)
    bounded = center.max() <= 10.0
    escapes = []
    for off in (1e-6, -1e-6):
        out = np.abs(evolve_unstable_mode(ts, F, k, n0 + off))
        escapes.append(bool((out > 1.0).any()))
    ok = bounded and all(escapes)
    _report(9, "mode-ode dichotomy", ok,
            f"k={k:.4f}, centered max |n+|<t>^2 = {center.max():.3f}, "
            f"offsets +-1e-6 exceed 1 before T: {escapes}")


@pytest.mark.slow
def test_criterion_10_stable_manifold_experiment():
    t0 = time.time()
    g = make_grid(40.0, 4000)
    r = g.nodes
    results = {}
    for eps in (0.01, 0.02, 0.04):
        f1 = eps * np.exp(-r ** 2)
        results[eps] = find_stable_h(f1, np.zeros(g.n), g,
                                     bracket_width=0.05, t_horizon=35.0)
    elapsed = time.time() - t0
    ratios = [abs(results[e].h_star) / e ** 2 for e in (0.01, 0.02, 0.04)]
    spread = max(ratios) / min(ratios)
    outcomes_ok = all(res.below_outcome != res.above_outcome
                      and "undecided" not in (res.below_outcome, res.above_outcome)
                      for res in results.values())
    decay = results[0.02].decay_fit
    window = results[0.02].decay_window
    ok = (outcomes_ok and spread < 3.0 and -1.3 <= decay <= -0.8
          and elapsed < 1800.0)
    _report(10, "stable-manifold experiment", ok,
            f"h* = {[f'{results[e].h_star:.2e}' for e in (0.01, 0.02, 0.04)]}, "
            f"|h*|/eps^2 spread {spread:.2f}, decay {decay:.3f} on "
            f"t in [{window[0]:.0f}, {window[1]:.1f}] (near-manifold span; "
            f"the e^kt bracket amplification caps it), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_11_linear_propagator_identities():
    # near-kernel identities need the truncation level (pi/r_max)^2 below
    # 2e-3/t^2, hence the long domain
    g = make_grid(900.0, 12000)
    op = assemble_channel_operator(g, 0, aubin_values(1.0, g)["potential"])
    # psi_h is the eigenvector of smallest |lambda| (about -3.3e-6 here)
    lam, vec = eigh_tridiagonal(op.diagonal, op.off_diagonal, select="v",
                                select_range=(-1e-4, 1e-4))
    psi_h = vec[:, int(np.argmin(np.abs(lam)))]
    errs = []
    for t in (5.0, 10.0):
        cos_out = linear_propagate(op, psi_h, np.zeros(g.n), t)
        sin_out = linear_propagate(op, np.zeros(g.n), psi_h, t)
        errs.append(np.abs(cos_out - psi_h).max() / np.abs(psi_h).max())
        errs.append(np.abs(sin_out - t * psi_h).max() / (t * np.abs(psi_h).max()))

    g2 = make_grid(60.0, 6000)
    av = aubin_values(1.0, g2)
    op2 = assemble_channel_operator(g2, 0, av["potential"])
    f = np.exp(-g2.nodes ** 2 / 2.0)
    times = np.arange(2.0, 30.0 + 1e-9, 1.0)
    split = sine_split(op2, av["dphi_da"], f, times)
    settled = times >= g2.r_max / 4.0 + 3.0
    coeffs = split["rank_one_coeff"][settled]
    variation = (coeffs.max() - coeffs.min()) / abs(coeffs).max()
    fitwin = (times >= 5.0)
    slope = np.polyfit(np.log(times[fitwin]),
                       np.log(split["remainder_sup"][fitwin]), 1)[0]
    ok = max(errs) <= 1e-3 and variation <= 0.2 and slope <= -0.8
    _report(11, "linear propagator identities", ok,
            f"near-kernel cos/sin rel errs {[f'{e:.1e}' for e in errs]}, "
            f"rank-one coeff variation {variation:.2%} (settled window), "
            f"remainder decay slope {slope:.2f}")


def test_criterion_12_property_suites():
    details = []
    # energy conservation 0.1% on a dispersal run
    g = make_grid(40.0, 2000)
    r = g.nodes
    mode = unstable_mode(g)
    f1 = 0.02 * np.exp(-r ** 2)
    f1p, _ = project_to_sigma0(f1, np.zeros(g.n), g, mode)
    st = RadialState(g, f1p - 0.005 * mode.g, np.zeros(g.n), "perturbation")
    traj = evolve_nlw(st, 15.0)
    e = traj.energy_series
    drift = np.abs(e - e[0]).max() / abs(e[0])
    ok = traj.outcome == "dispersal" and drift <= 1e-3
    details.append(f"energy drift {drift:.2e}")

    # frame equivalence 1e-8 for t <= 10
    w_bg = static_background(g)
    u0 = 1e-4 * np.exp(-(r - 2.0) ** 2)
    ut0 = 5e-5 * np.exp(-r ** 2)
    u0, ut0 = project_to_sigma0(u0, ut0, g, mode)
    t_full = evolve_nlw(RadialState(g, w_bg / r + u0, ut0, "full"), 10.0)
    t_pert = evolve_nlw(RadialState(g, u0, ut0, "perturbation"), 10.0)
    frame_dev = max(np.abs(sf.u - sp.u).max()
                    for sf, sp in zip(t_full.snapshots, t_pert.snapshots))
    ok = ok and frame_dev <= 1e-8
    details.append(f"frame dev {frame_dev:.2e}")

    # outside-light-cone exactness (numerical cone at h/dt = 1/0.9)
    u0 = np.where(r <= 4.0, 0.02 * np.sin(np.pi * r / 4.0) ** 2, 0.0)
    traj = evolve_nlw(RadialState(g, u0, np.zeros(g.n), "perturbation"), 10.0)
    phi_bg = traj.background / r
    cone_dev = 0.0
    for j, t in enumerate(traj.times):
        untouched = r > 4.0 + t / 0.9 + 3 * g.h
        cone_dev = max(cone_dev,
                       np.abs(traj.snapshots[j].u[untouched]
                              - phi_bg[untouched]).max())
    ok = ok and cone_dev == 0.0
    details.append(f"outside-cone dev {cone_dev:.1e}")

    # decomposition round-trip 1e-10
    rng = np.random.default_rng(7)
    u = rng.standard_normal(g.n) * np.exp(-r / 5)
    ut = rng.standard_normal(g.n) * np.exp(-r / 5)
    d = mode_decompose(RadialState(g, u, ut, "perturbation"), mode.g, mode.k)
    back_u = d.n_plus * mode.g + d.n_minus * mode.g + d.u_tilde.u
    back_ut = (d.n_plus - d.n_minus) * mode.k * mode.g + d.u_tilde.ut
    round_dev = max(np.abs(back_u - u).max(), np.abs(back_ut - ut).max())
    ok = ok and round_dev <= 1e-10
    details.append(f"decomposition round-trip {round_dev:.1e}")

    # h-convergence order 2.0 +- 0.2: eigenvalues and evolution
    errs = []
    hs = []
    for n in (500, 1000, 2000):
        gg = make_grid(np.pi, n)
        opg = assemble_channel_operator(gg, 0, np.zeros(gg.n))
        errs.append(abs(eigenvalue_by_index(opg, 0) - 1.0))
        hs.append(gg.h)
    slope_eig = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = ok and 1.8 <= slope_eig <= 2.2
    details.append(f"eigenvalue order {slope_eig:.2f}")

    errs = []
    hs = []
    ref_n = 12000
    g_ref = make_grid(30.0, ref_n)
    u0f = lambda rr: 0.05 * np.exp(-(rr - 1.5) ** 2)
    ref = evolve_nlw(RadialState(g_ref, u0f(g_ref.nodes), np.zeros(ref_n),
                                 "perturbation"), 2.0,
                     stride_time=2.0)
    uref = ref.snapshots[-1].u
    for n in (750, 1500, 3000):
        gg = make_grid(30.0, n)
        tr = evolve_nlw(RadialState(gg, u0f(gg.nodes), np.zeros(n),
                                    "perturbation"), 2.0,
                        stride_time=2.0)
        step = ref_n // n
        errs.append(np.abs(tr.snapshots[-1].u - uref[step - 1::step]).max())
        hs.append(gg.h)
    slope_evo = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = ok and 1.8 <= slope_evo <= 2.2
    details.append(f"evolution order {slope_evo:.2f}")

    _report(12, "property suites", ok, "; ".join(details))
