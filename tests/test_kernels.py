"""Parity of the numba-compiled kernels with their pure-Python/numpy twins,
and of the buffered numpy leapfrog with its allocating reference."""

import numpy as np
import pytest

from oracles import leapfrog_numpy_reference
from solitonlab import _kernels as K
from solitonlab.radial import assemble_channel_operator, make_grid
from solitonlab.solitons import aubin_values


@pytest.fixture(scope="module")
def op():
    g = make_grid(30.0, 600)
    return assemble_channel_operator(g, 0, aubin_values(1.0, g)["potential"])


def test_paths_report(capsys):
    # informational: which path is active
    print(f"numba active: {K.USING_NUMBA}")


def test_sturm_count_parity(op, rng):
    for x in rng.uniform(-10.0, 10.0, 25):
        assert K.sturm_count(op.diagonal, op.off_diagonal, x) \
            == K.sturm_count_py(op.diagonal, op.off_diagonal, x)


def test_shoot_count_parity(op, rng):
    h2 = op.grid.h ** 2
    d = op.diagonal[:-1] * h2
    for x in rng.uniform(-10.0, 10.0, 25):
        assert K.shoot_count(d, x * h2) == K.shoot_count_py(d, x * h2)


def test_shoot_solution_parity(op):
    h2 = op.grid.h ** 2
    d = op.diagonal * h2
    a = np.empty(op.grid.n)
    b = np.empty(op.grid.n)
    K.shoot_solution(d, 0.0, a)
    K.shoot_solution_py(d, 0.0, b)
    assert np.array_equal(a, b)


def test_tridiag_solve_parity(op, rng):
    rhs = rng.standard_normal(op.grid.n)
    a = np.empty_like(rhs)
    b = np.empty_like(rhs)
    K.tridiag_solve(op.diagonal, op.off_diagonal, rhs, a)
    K.tridiag_solve_py(op.diagonal, op.off_diagonal, rhs, b)
    assert np.array_equal(a, b)


def test_inverse_iteration_parity(op):
    seed = op.grid.nodes * np.exp(-op.grid.nodes)
    a = K.inverse_iteration(op.diagonal, op.off_diagonal, -3.6, seed, 3)
    b = K.inverse_iteration_py(op.diagonal, op.off_diagonal, -3.6, seed, 3)
    assert np.allclose(a, b, rtol=1e-13, atol=1e-15)


def test_rk4_shoot_parity():
    n = 800
    pa = np.empty(n)
    pb = np.empty(n)
    sa = K.rk4_shoot(4.2, 1.0, 1.0, 3.0, 0.05, n, pa)
    sb = K.rk4_shoot_py(4.2, 1.0, 1.0, 3.0, 0.05, n, pb)
    assert sa == sb
    stop = sa[1]
    assert np.array_equal(pa[: stop + 1], pb[: stop + 1])


def _leapfrog_case(mode, n=400, n_steps=200, stride=20):
    g = make_grid(20.0, n)
    r = g.nodes
    w_bg = r * 3 ** 0.25 / np.sqrt(1 + r * r)
    w0 = 0.01 * r * np.exp(-(r - 3) ** 2) + (w_bg if mode == 0 else 0.0)
    v0 = 0.005 * r * np.exp(-r ** 2)
    args = (1.0 / r, 1.0 / r ** 4, w_bg, 1.0 / g.h ** 2, 0.9 * g.h,
            n_steps, stride, mode)
    exit_weights = 4 * np.pi * r * np.exp(-r) * g.weights
    return g, w0, v0, w_bg, args, exit_weights


def _run_leapfrog(fn, case, psi_cap=1e3, exit_args=()):
    g, w0, v0, _, args, _ = case
    n_snap = args[5] // args[6] + 1
    w_snap = np.zeros((n_snap, g.n))
    v_snap = np.zeros((n_snap, g.n))
    w_snap[0] = w0
    v_snap[0] = v0
    wf = np.empty(g.n)
    vf = np.empty(g.n)
    res = fn(w0.copy(), v0.copy(), *args, psi_cap, w_snap, v_snap, wf, vf,
             *exit_args)
    return res, w_snap, v_snap, wf, vf


def _loop_twin():
    return K.leapfrog if K.USING_NUMBA else K._leapfrog_loop


def test_leapfrog_parity(rng):
    outs = [_run_leapfrog(fn, _leapfrog_case(1))
            for fn in (_loop_twin(), K.leapfrog_py)]
    (ra, wa, va, _, _), (rb, wb, vb, _, _) = outs
    assert ra == rb
    assert np.allclose(wa, wb, rtol=1e-12, atol=1e-14)
    assert np.allclose(va, vb, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", [0, 1])
def test_leapfrog_parity_early_exit(mode):
    # the exit level sits halfway between a mid-run record of |n_plus| and
    # the largest value before it, so both twins must stop at that snapshot
    case = _leapfrog_case(mode, n_steps=50, stride=4)
    _, _, _, w_bg, args, p = case
    k = 1.7
    full, w_full, v_full, _, _ = _run_leapfrog(K.leapfrog_py, case)
    assert full[2] == 0
    pert = w_full - w_bg if mode == 0 else w_full
    n_plus = np.abs(0.5 * (pert @ p + (v_full @ p) / k))
    records = [i for i in range(1, len(n_plus)) if n_plus[i] > n_plus[:i].max()]
    j = records[len(records) // 2]
    assert 1 <= j < len(n_plus) - 1
    level = 0.5 * (n_plus[j] + n_plus[:j].max())
    outs = [_run_leapfrog(fn, case, exit_args=(p, k, level))
            for fn in (_loop_twin(), K.leapfrog_py)]
    (ra, wa, va, wfa, vfa), (rb, wb, vb, wfb, vfb) = outs
    assert ra == rb == (j + 1, j * args[6], 3)
    # the early-stopped run is the prefix of the full one
    assert np.array_equal(wb[:j + 1], w_full[:j + 1])
    assert np.array_equal(vb[:j + 1], v_full[:j + 1])
    assert np.array_equal(wfb, wb[j]) and np.array_equal(vfb, vb[j])
    assert np.allclose(wa[:j + 1], wb[:j + 1], rtol=1e-12, atol=1e-14)
    assert np.allclose(va[:j + 1], vb[:j + 1], rtol=1e-12, atol=1e-12)
    assert np.allclose(wfa, wfb, rtol=1e-12, atol=1e-14)
    # an initial state already past the level stops before the first step
    for fn in (_loop_twin(), K.leapfrog_py):
        res, _, _, wf, _ = _run_leapfrog(fn, case,
                                         exit_args=(p, k, 0.5 * n_plus[0]))
        assert res == (1, 0, 3)
        assert np.array_equal(wf, case[1])


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
        new = _run_leapfrog(K._leapfrog_numpy, case, psi_cap)
        ref = _run_leapfrog(leapfrog_numpy_reference, case, psi_cap)
    assert new[0] == ref[0]
    assert new[0][2] == (0 if amp == 0.0 else 1 if np.isfinite(psi_cap) else 2)
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
    wf = np.empty(g.n)
    vf = np.empty(g.n)
    snap, step, reason = K.leapfrog(
        w0.copy(), np.zeros(g.n), 1.0 / r, 1.0 / r ** 4, w_bg, 1.0 / h2, dt,
        2000, 200, 1, 10.0, w_snap, v_snap, wf, vf)
    assert reason in (1, 2)
    assert step < 2000
