"""The kernels against independent oracles (LAPACK, dense solves, scipy's
integrator, leading minors), and the buffered leapfrog against its
allocating reference."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal

from oracles import (leapfrog_numpy_reference, rk4_shoot_reference,
                     shoot_solution_reference, sturm_count_reference)
from solitonlab import _kernels as K
from solitonlab.errors import SingularSolveError
from solitonlab.radial import assemble_channel_operator, make_grid
from solitonlab.solitons import aubin_values


@pytest.fixture(scope="module")
def op():
    g = make_grid(30.0, 600)
    return assemble_channel_operator(g, 0, aubin_values(1.0, g)["potential"])


def test_sturm_count_parity(op, rng):
    # parity with the eigenvalue count of LAPACK's tridiagonal eigensolver
    evals = eigvalsh_tridiagonal(op.diagonal, op.off_diagonal)
    for x in rng.uniform(-10.0, 10.0, 25):
        assert K.sturm_count(op.diagonal, op.off_diagonal, x) \
            == np.sum(evals < x)


def test_sturm_count_zero_pivot_stays_finite():
    # x = diag[0] makes the first pivot exactly zero; with e^2 = 1e12 the
    # old -1e-300 nudge overflowed e^2/d on the next row
    n = 64
    diag = np.full(n, 2e6)
    off = np.full(n - 1, -1e6)
    evals = eigvalsh_tridiagonal(diag, off)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = K.sturm_count(diag, off, diag[0])
    assert count == np.sum(evals < diag[0]) == n // 2


def test_sturm_count_matches_reference(op, rng):
    # the tuned loop does the reference's float operations in its order;
    # x = diag[0] and a huge e^2 take the pivmin branch
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 25), [op.diagonal[0]]])
    for x in xs:
        assert K.sturm_count(op.diagonal, op.off_diagonal, x) \
            == sturm_count_reference(op.diagonal, op.off_diagonal, x)
    diag, off = np.full(64, 2e6), np.full(63, -1e6)
    assert K.sturm_count(diag, off, 2e6) == sturm_count_reference(diag, off, 2e6)


def _sign_flips(w):
    s = np.signbit(w)
    return int(np.count_nonzero(s[1:] != s[:-1]))


def test_shoot_count_parity(op, rng):
    # sign flips of w[0..m-1] count the eigenvalues of the leading
    # (m-1) x (m-1) block, m = n - 1 interior rows (discrete oscillation)
    h2 = op.grid.h ** 2
    d = op.diagonal[:-1] * h2
    evals = eigvalsh_tridiagonal(op.diagonal[:-2], op.off_diagonal[:-2])
    for x in rng.uniform(-10.0, 10.0, 25):
        assert _sign_flips(K.shoot_solution(d, x * h2)) == np.sum(evals < x)


def test_shoot_solution_parity(rng):
    # w[j] is the j-th leading principal minor of the matrix with diagonal
    # h2_diag - E and off-diagonal -1 (the continuant recurrence)
    m = 30
    d = rng.uniform(1.5, 2.5, m)
    t = np.diag(d - 0.3) - np.eye(m, k=1) - np.eye(m, k=-1)
    minors = np.array([1.0] + [np.linalg.det(t[:j, :j]) for j in range(1, m)])
    assert np.allclose(K.shoot_solution(d, 0.3), minors, rtol=1e-12, atol=1e-12)


def test_shoot_solution_matches_reference(op):
    # bit for bit, signs of underflowed zeros included; the deeply negative
    # energies renormalize many times
    h2 = op.grid.h ** 2
    d = op.diagonal * h2
    for x in (-1e6, -1e4, -3.0, 0.0, 0.5, 7.0):
        w = K.shoot_solution(d, x * h2)
        ref = shoot_solution_reference(d, x * h2)
        assert np.array_equal(w, ref)
        assert np.array_equal(np.signbit(w), np.signbit(ref))


def _assert_solves(diag, off, rhs):
    # normwise agreement with a dense solve, to the conditioning's bound
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.solve(dense, rhs)
    x = K.tridiag_solve(diag, off, rhs)
    tol = 10.0 * np.finfo(float).eps * np.linalg.cond(dense)
    assert np.abs(x - ref).max() <= tol * np.abs(ref).max()


def test_tridiag_solve_parity(op, rng):
    # parity with a dense solve, on the operator and on a system with zero
    # diagonal entries that needs pivoting
    _assert_solves(op.diagonal, op.off_diagonal, rng.standard_normal(op.grid.n))
    diag = rng.standard_normal(40)
    diag[::3] = 0.0
    _assert_solves(diag, rng.uniform(0.5, 1.5, 39), rng.standard_normal(40))


def test_tridiag_solve_singular_raises():
    # the leading 2 x 2 block [[1, 1], [1, 1]] is exactly singular
    with pytest.raises(SingularSolveError):
        K.tridiag_solve(np.array([1.0, 1.0, 2.0]), np.array([1.0, 0.0]),
                        np.ones(3))


def test_rk4_shoot_parity():
    # parity with scipy's DOP853 on phi'' + (2/r) phi' = phi - phi^3 from the
    # same series start, up to RK4's O(h^4) error
    n, h, b = 800, 0.05, 4.2
    phi = np.empty(n)
    status, stop = K.rk4_shoot(b, 1.0, 1.0, 3.0, h, K.rk4_friction(3.0, h, n),
                               phi)
    assert status == 2 and 1 < stop < n - 1  # b = 4.2 turns upward

    def rhs(r, y):
        return [y[1], y[0] - abs(y[0]) ** 2 * y[0] - 2.0 / r * y[1]]

    f0 = b - b ** 3
    r = h * np.arange(1, stop + 1)
    ref = solve_ivp(rhs, (h, r[-1]), [b + 0.5 * h * h * f0 / 3.0, h * f0 / 3.0],
                    method="DOP853", t_eval=r, rtol=1e-12, atol=1e-12)
    assert np.abs(phi[:stop] - ref.y[0]).max() < 1e-4


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("sigma", [0.5, 0.9, 1.0])
def test_rk4_shoot_matches_reference(d, sigma):
    # the friction table and the hoisted constants leave every float of a
    # shot as the plain loop makes it; 1.05 b0 reaches the last node, the
    # scan over b overshoots and undershoots, and sigma = 0.5 (2 sigma = 1)
    # is the power that keeps the sign of a zero
    n, h = 1200, 0.025
    fric = K.rk4_friction(float(d), h, n)
    statuses = set()
    for b in [1.05] + list(np.linspace(1.2, 6.0, 13)):
        phi = np.zeros(n)
        ref = np.zeros(n)
        status, stop = K.rk4_shoot(b, 1.0, sigma, float(d), h, fric, phi)
        assert (status, stop) == rk4_shoot_reference(b, 1.0, sigma, float(d),
                                                     h, n, ref)
        assert np.array_equal(phi[:stop + 1], ref[:stop + 1])
        statuses.add(status)
    assert statuses == {0, 1, 2}


def _leapfrog_case(mode, n=400, n_steps=200, stride=20):
    # mode 0 steps the full field (about a zero background), mode 1 the
    # deviation from the profile w_bg; the last entry is the n_plus record's
    # (weights, k, shift), the shift taking w_bg's amplitude off in mode 0
    g = make_grid(20.0, n)
    r = g.nodes
    w_bg = r * 3 ** 0.25 / np.sqrt(1 + r * r)
    w0 = 0.01 * r * np.exp(-(r - 3) ** 2) + (w_bg if mode == 0 else 0.0)
    v0 = 0.005 * r * np.exp(-r ** 2)
    bg = w_bg if mode == 1 else np.zeros(n)
    args = (1.0 / r, 1.0 / r ** 4, bg, 1.0 / g.h ** 2, 0.9 * g.h,
            n_steps, stride)
    p = 4 * np.pi * r * np.exp(-r) * g.weights
    shift = 0.5 * np.dot(w_bg, p) if mode == 0 else 0.0
    return g, w0, v0, w_bg, args, (p, 1.7, shift)


def _run_leapfrog(fn, case, psi_cap=1e3, exit_n_plus=None):
    g, w0, v0, _, args, n_plus_args = case
    n_snap = args[5] // args[6] + 1
    w_snap = np.zeros((n_snap, g.n))
    v_snap = np.zeros((n_snap, g.n))
    n_plus = np.zeros(n_snap)
    w_snap[0] = w0
    v_snap[0] = v0
    exit_args = () if exit_n_plus is None else (exit_n_plus,)
    res = fn(w0.copy(), v0.copy(), *args, psi_cap, w_snap, v_snap, n_plus,
             *n_plus_args, *exit_args)
    return res, w_snap, v_snap, n_plus


def _reference(mode):
    """The allocating oracle in its own mode, called as the kernel is: its
    mode 0 is the full-field equation, which never reads the background."""
    def ref(*args):
        return leapfrog_numpy_reference(*args[:9], mode, *args[9:])
    return ref


@pytest.mark.parametrize("mode", [0, 1])
def test_leapfrog_parity_early_exit(mode):
    # the exit level sits halfway between a mid-run record of |n_plus| and
    # the largest value before it, so the run must stop at that snapshot
    case = _leapfrog_case(mode, n_steps=50, stride=4)
    _, _, _, _, args, (p, k, shift) = case
    full, w_full, v_full, n_full = _run_leapfrog(K.leapfrog, case)
    assert full[2] == 0
    # the record and the exit read n_plus of the stepped field, less shift
    assert np.array_equal(n_full, [0.5 * (np.dot(w, p) + np.dot(v, p) / k)
                                   - shift for w, v in zip(w_full, v_full)])
    n_plus = np.abs(n_full)
    records = [i for i in range(1, len(n_plus)) if n_plus[i] > n_plus[:i].max()]
    j = records[len(records) // 2]
    assert 1 <= j < len(n_plus) - 1
    level = 0.5 * (n_plus[j] + n_plus[:j].max())
    res, w, v, n = _run_leapfrog(K.leapfrog, case, exit_n_plus=level)
    assert res == (j + 1, j * args[6], 3)
    # the early-stopped run and its record are the prefix of the full one
    assert np.array_equal(w[:j + 1], w_full[:j + 1])
    assert np.array_equal(v[:j + 1], v_full[:j + 1])
    assert np.array_equal(n[:j + 1], n_full[:j + 1])
    # an initial state already past the level stops before the first step
    res, _, _, n = _run_leapfrog(K.leapfrog, case, exit_n_plus=0.5 * n_plus[0])
    assert res == (1, 0, 3)
    assert n[0] == n_full[0]


@pytest.mark.parametrize("mode", [0, 1])
def test_leapfrog_long_run_matches_reference(mode):
    # 2100 steps and 151 snapshots, so the level blocks rotate 700 times
    # over the phantom slot and the snapshot writes; a negative bump keeps
    # the run below the cap to the horizon
    stride = 14
    case = _leapfrog_case(mode, n=400, n_steps=2100, stride=stride)
    g, w0 = case[:2]
    w0 -= 0.02 * g.nodes * np.exp(-(g.nodes - 3) ** 2)
    new = _run_leapfrog(K.leapfrog, case)
    ref = _run_leapfrog(_reference(mode), case)
    assert new[0] == ref[0] == (151, 2100, 0)
    for a, b in zip(new[1:], ref[1:]):
        assert np.array_equal(a, b)
    # a level halfway between the last record of |n_plus| and the largest
    # value before it stops the run at that record, late in the run
    n_plus = np.abs(ref[3])
    j = max(i for i in range(1, len(n_plus)) if n_plus[i] > n_plus[:i].max())
    assert 1000 <= j * stride < 2100
    level = 0.5 * (n_plus[j] + n_plus[:j].max())
    res, w, v, n = _run_leapfrog(K.leapfrog, case, exit_n_plus=level)
    assert res == (j + 1, j * stride, 3)
    for a, b in zip((w, v, n), ref[1:]):
        assert np.array_equal(a[:j + 1], b[:j + 1])


@pytest.mark.parametrize("mode, amp, psi_cap", [
    (0, 0.0, 1e3),      # runs to the horizon
    (1, 0.0, 1e3),
    (0, 1.0, 10.0),     # stops at the amplitude cap
    (1, 1.0, 10.0),
    (0, 1.0, np.inf),   # no cap: stops when the field overflows
    (1, 1.0, np.inf),
])
def test_leapfrog_numpy_matches_reference(mode, amp, psi_cap):
    g, w0, v0, w_bg, args, _ = case = _leapfrog_case(mode, n=1000, n_steps=120,
                                                      stride=10)
    w0 += amp * w_bg  # amp = 1 puts twice the profile in: quintic runaway
    with np.errstate(over="ignore", invalid="ignore"):
        new = _run_leapfrog(K.leapfrog, case, psi_cap)
        ref = _run_leapfrog(_reference(mode), case, psi_cap)
    assert new[0] == ref[0]
    assert new[0][2] == (0 if amp == 0.0 else 1 if np.isfinite(psi_cap) else 2)
    for a, b in zip(new[1:], ref[1:]):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("cap", ["above", "equal", "fine_grid"])
def test_leapfrog_cap_fallback_matches_reference(mode, cap):
    # the fast amplitude test on tot^2 fails at every step of these runs, so
    # each step takes the exact max |psi| <= cap test: at a cap a little
    # above the largest |psi| the run reaches, exactly at it (the test is
    # >, so the run does not stop), and with the default cap on a grid so
    # fine that (cap r_1)^2 is below the background's w^2
    n, n_steps = (20000, 30) if cap == "fine_grid" else (1000, 120)
    case = _leapfrog_case(mode, n=n, n_steps=n_steps, stride=n_steps)
    g, w0, v0, w_bg, args, _ = case
    inv_r = args[0]
    psi_cap = 1e3
    if cap != "fine_grid":
        every = _leapfrog_case(mode, n=n, n_steps=n_steps, stride=1)
        w_all = _run_leapfrog(_reference(mode), every, np.inf)[1]
        tot = w_all[1:, :-1] + (w_bg[:-1] if mode == 1 else 0.0)
        psi_max = float(np.abs(tot * inv_r[:-1]).max())
        psi_cap = psi_max * (1 + 1e-9) if cap == "above" else psi_max
    else:
        tot = w0[:-1] + (w_bg[:-1] if mode == 1 else 0.0)
    assert (tot * tot).max() > (psi_cap * g.nodes[0]) ** 2
    new = _run_leapfrog(K.leapfrog, case, psi_cap)
    ref = _run_leapfrog(_reference(mode), case, psi_cap)
    assert new[0] == ref[0] == (2, n_steps, 0)
    for a, b in zip(new[1:], ref[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", [0, 1])
def test_leapfrog_nan_at_any_node_stops_the_run(mode):
    # a nan among finite values fails the fast amplitude test wherever it
    # sits, so the run stops at step 1 as non-finite, as the reference does
    g, w0, *rest = _leapfrog_case(mode, n=400, n_steps=50, stride=5)
    for j in (0, 1, 7, 8, 200, g.n - 2, g.n - 1):
        w = w0.copy()
        w[j] = np.nan
        case = (g, w, *rest)
        with np.errstate(invalid="ignore"):
            new = _run_leapfrog(K.leapfrog, case)
            ref = _run_leapfrog(_reference(mode), case)
        assert new[0] == ref[0] == (1, 1, 2)
        for a, b in zip(new[1:], ref[1:]):
            assert np.array_equal(a, b, equal_nan=True)


def test_leapfrog_blowup_detection():
    g = make_grid(20.0, 400)
    r = g.nodes
    w_bg = r * 3 ** 0.25 / np.sqrt(1 + r * r)
    w0 = 2.0 * w_bg  # far above the soliton: quintic runaway
    h2 = g.h ** 2
    dt = 0.9 * g.h
    w_snap = np.zeros((11, g.n))
    v_snap = np.zeros((11, g.n))
    w_snap[0] = w0
    snap, step, reason = K.leapfrog(
        w0.copy(), np.zeros(g.n), 1.0 / r, 1.0 / r ** 4, w_bg, 1.0 / h2, dt,
        2000, 200, 10.0, w_snap, v_snap, np.zeros(11), g.weights, 1.0, 0.0)
    assert reason in (1, 2)
    assert step < 2000


def _textbook_leapfrog(case, n_steps):
    """w at step n_steps from the unfolded scheme: the Taylor start
    w + dt v + dt^2 F(w) / 2, then 2w - w- + dt^2 F(w) with
    F(w) = D2 w + ((w + bg)^5 - bg^5) / r^4 and the phantom w(0) = 0."""
    _, w0, v0, _, args, _ = case
    _, inv_r4, bg, inv_h2, dt = args[:5]

    def accel(w):
        ext = np.concatenate(([0.0], w))
        d2w = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) * inv_h2
        return d2w + ((w[:-1] + bg[:-1]) ** 5 - bg[:-1] ** 5) * inv_r4[:-1]

    prev, cur = w0, w0.copy()
    cur[:-1] += dt * v0[:-1] + 0.5 * dt * dt * accel(w0)
    for _ in range(n_steps - 1):
        nxt = cur.copy()
        nxt[:-1] = 2.0 * cur[:-1] - prev[:-1] + dt * dt * accel(cur)
        prev, cur = cur, nxt
    return cur


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("n_steps", [1, 100])
def test_leapfrog_matches_textbook_update(mode, n_steps):
    # the oracle shares the kernel's folded coefficients c2, 2 - 2 c2 and
    # dt^2 / r^4; the unfolded scheme checks them
    case = _leapfrog_case(mode, n=1000, n_steps=n_steps, stride=n_steps)
    res, w = _run_leapfrog(K.leapfrog, case)[:2]
    assert res == (2, n_steps, 0)
    ref = _textbook_leapfrog(case, n_steps)
    assert np.abs(w[1] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_leapfrog_background_zero_but_one_node_is_a_background():
    # one nonzero interior node, where the bump sits, must not be taken
    # for the zero background of the full frame
    g, w0, v0, w_bg, args, n_plus_args = _leapfrog_case(1, n=1000, n_steps=120,
                                                        stride=10)
    bg = np.zeros(g.n)
    j = int(np.searchsorted(g.nodes, 3.0))
    bg[j] = w_bg[j]
    case = (g, w0, v0, w_bg, args[:2] + (bg,) + args[3:], n_plus_args)
    new = _run_leapfrog(K.leapfrog, case)
    ref = _run_leapfrog(_reference(1), case)
    full = _run_leapfrog(_reference(0), case)
    assert new[0] == ref[0] == (13, 120, 0)
    for a, b in zip(new[1:], ref[1:]):
        assert np.array_equal(a, b)
    assert not np.array_equal(new[1], full[1])


@pytest.mark.parametrize("mode", [0, 1])
def test_leapfrog_allocates_no_array_per_step(mode):
    # the traced peak of a call does not grow with its number of steps (a
    # temporary freed within its step hides under the Taylor start's);
    # small data about a zero background disperses, zero data about the
    # profile stays at 0
    n = 1000
    peaks = []
    for n_steps in (100, 1000):
        g, w0, v0, w_bg, args, n_plus_args = _leapfrog_case(
            mode, n=n, n_steps=n_steps, stride=n_steps)
        if mode == 0:
            w0 -= w_bg
        else:
            w0[:] = v0[:] = 0.0
        w_snap, v_snap = np.zeros((2, n)), np.zeros((2, n))
        tracemalloc.start()
        try:
            res = K.leapfrog(w0, v0, *args, 1e3, w_snap, v_snap, np.zeros(2),
                             *n_plus_args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res == (2, n_steps, 0)
    assert abs(peaks[1] - peaks[0]) < n * 8
