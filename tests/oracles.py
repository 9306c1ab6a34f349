"""Independent oracles used to freeze expected values.

These deliberately avoid the package's own integrators: the ground-state
oracle uses a midpoint (RK2) stepper with its own bisection logic, and the
quadrature oracles go through scipy.integrate.quad.  The leapfrog reference
is the straightforward numpy stepper the buffered one must match bit for bit,
and the scalar recurrences (Sturm count, shooting solution, RK4 shot) keep
their plain loops here for the tuned kernels to match bit for bit; the
ground-state bracket scan keeps its two nested loops for the one-loop scan
to match shot for shot.
The dense-matrix oracles (operator matrix, constrained infimum mu0, the
symmetrized quadratic form, the eigendecomposition propagators) are O(n^3)
and meant for small n.  The stable-manifold search twin classifies every
candidate by a full evolve_nlw run instead of an early-stopped one.  The
per-row trajectory observables and the broadcast Chebyshev matvec keep the
plain forms that evolve_nlw's chunked pass and the wave flow's flat-layout
product must match bit for bit.

The paper's formulas that no experiment computes live here too, each
checked against the package by the tests: node counting by the sign flips
of the regular shooting solution, the dense Birman-Schwinger kernel, the
symmetric resolvent identity with the zero-energy Green matrix, the
unstable-mode decomposition, the quintic nonlinearity N(u), and the NLS
ground-state scaling map, mass and tail slope.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from solitonlab.dynamics import (EvolveConfig, RadialState, _step, evolve_nlw,
                                 project_to_sigma0, unstable_mode)
from solitonlab.errors import NumericsError, SingularSolveError
from solitonlab.radial import (ChannelOperator, RadialGrid, fit_loglog_slope,
                               inner_3d, integrate, make_grid)
from solitonlab.solitons import NlsGroundState
from solitonlab.spectral import regular_solution


def quad_oracle(f, a, b, **kw):
    val, err = quad(f, a, b, limit=400, **kw)
    return val, err


def rk2_shoot_ground_state(sigma, alpha, d, r_max, n):
    """Midpoint-method shooting + bisection for the NLS ground state height.

    Completely separate from the package's RK4 path: different stepper,
    different bracket logic (expansion then plain bisection on the sign of
    the first failure mode).
    """
    h = r_max / n
    a2 = alpha * alpha

    def classify(b):
        phi = b
        dphi = 0.0
        # series start across the first step
        f0 = a2 * b - abs(b) ** (2 * sigma) * b
        phi = b + 0.5 * h * h * f0 / d
        dphi = h * f0 / d
        for j in range(1, n):
            r = j * h
            def acc(p, q, rr):
                return a2 * p - abs(p) ** (2 * sigma) * p - (d - 1) / rr * q
            pm = phi + 0.5 * h * dphi
            qm = dphi + 0.5 * h * acc(phi, dphi, r)
            phi = phi + h * qm
            dphi = dphi + h * acc(pm, qm, r + 0.5 * h)
            if phi <= 0.0:
                return 1
            if dphi > 0.0 and phi < 0.5 * b:
                return 2
        return 2

    lo = 1.01 * alpha ** (1.0 / sigma)
    hi = lo
    for _ in range(100):
        hi *= 1.5
        if classify(hi) == 1:
            break
    else:
        raise RuntimeError("oracle bracket search failed")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if classify(mid) == 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sturm_count_reference(diag, off, x):
    """solitonlab._kernels.sturm_count as its loop was written before it
    was tuned (e^2 formed per row, abs in the pivot test, indexed access).
    The kernel must match it bit for bit."""
    n = diag.shape[0]
    pivmin = float(np.finfo(float).tiny
                   * max(1.0, np.max(off * off, initial=0.0)))
    diag, off, x = diag.tolist(), off.tolist(), float(x)
    count = 0
    d = diag[0] - x
    if abs(d) <= pivmin:
        d = -pivmin
    if d < 0.0:
        count += 1
    for i in range(1, n):
        e = off[i - 1]
        d = diag[i] - x - e * e / d
        if abs(d) <= pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def shoot_solution_reference(h2_diag, energy_h2):
    """solitonlab._kernels.shoot_solution as its loop was written before it
    was tuned (a preallocated list written by index, abs in the
    renormalization test).  The kernel must match it bit for bit."""
    m = h2_diag.shape[0]
    h2_diag, energy_h2 = h2_diag.tolist(), float(energy_h2)
    out = [1.0] * m
    events = []
    w_prev = 0.0
    w = 1.0
    for j in range(m - 1):
        w_next = (h2_diag[j] - energy_h2) * w - w_prev
        if w_next == 0.0:
            w_next = -1e-300 if w > 0.0 else 1e-300
        aw = abs(w_next)
        if aw > 1e100:
            inv = 1.0 / aw
            events.append((j + 1, inv))
            w = w * inv
            w_next = w_next * inv
        out[j + 1] = w_next
        w_prev = w
        w = w_next
    out = np.array(out)
    for stop, inv in events:
        out[:stop] *= inv
    return out


def rk4_shoot_reference(b, alpha2, sigma, dim, h, n, phi_out):
    """solitonlab._kernels.rk4_shoot as its loop was written before the
    friction table: (dim-1)/r divided at every stage, 0.5 h and h/6 formed
    at every use, and phi written into phi_out node by node.  Same return
    as the kernel; it must match the kernel bit for bit."""
    two_sig = 2.0 * sigma
    f0 = alpha2 * b - abs(b) ** two_sig * b
    phi = b + 0.5 * h * h * f0 / dim
    dphi = h * f0 / dim
    phi_out[0] = phi
    status = 0
    stop = n - 1
    fric = dim - 1.0
    for j in range(1, n):
        r = j * h
        k1p = dphi
        k1q = alpha2 * phi - abs(phi) ** two_sig * phi - fric / r * dphi
        p2 = phi + 0.5 * h * k1p
        q2 = dphi + 0.5 * h * k1q
        rm = r + 0.5 * h
        k2p = q2
        k2q = alpha2 * p2 - abs(p2) ** two_sig * p2 - fric / rm * q2
        p3 = phi + 0.5 * h * k2p
        q3 = dphi + 0.5 * h * k2q
        k3p = q3
        k3q = alpha2 * p3 - abs(p3) ** two_sig * p3 - fric / rm * q3
        p4 = phi + h * k3p
        q4 = dphi + h * k3q
        re = r + h
        k4p = q4
        k4q = alpha2 * p4 - abs(p4) ** two_sig * p4 - fric / re * q4
        phi = phi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        dphi = dphi + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        phi_out[j] = phi
        if phi <= 0.0:
            status = 1
            stop = j
            break
        if dphi > 0.0 and phi < 0.9 * b:
            status = 2
            stop = j
            break
    return status, stop


def find_bracket_reference(overshoots, alpha, sigma):
    """solitonlab.solitons._find_bracket as two nested scans: up by 1.3 from
    1.05 alpha^(1/sigma) while shots undershoot, and down by 1.02 when the
    first shot overshoots.  overshoots(b) shoots phi(0) = b; returns the
    (under, over) pair, or None where the package raises."""
    base = alpha ** (1.0 / sigma)
    lo = None
    b = 1.05 * base
    for _ in range(200):
        if overshoots(b):
            if lo is not None:
                return lo, b
            hi = b
            b_down = b / 1.02
            for _ in range(400):
                if not overshoots(b_down):
                    return b_down, hi
                hi = b_down
                b_down /= 1.02
            return None
        lo = b
        b *= 1.3
    return None


def leapfrog_numpy_reference(w0, v0, inv_r, inv_r4, w_bg, inv_h2, dt,
                             n_steps, stride, mode, psi_cap,
                             w_snap, v_snap, n_plus, weights, k, shift):
    """Allocating numpy leapfrog with the arguments and return of
    solitonlab._kernels.leapfrog, which it runs to the horizon (it has no
    exit on n_plus, but records n_plus[j] = (<w, p> + <v, p>/k)/2 - shift of
    every slot written, p = weights): one temporary per operation, in the
    kernel's folded update
    w+ = (2 - 2 c2) w - w- + c2 (w_right + w_left) + (dt^2 / r^4) N(w),
    c2 = dt^2 / h^2.  The buffered stepper must match it bit for bit.
    Mode 0 is the full-field equation, N(w) = w^5, which never reads w_bg;
    mode 1 steps the deviation, N(w) = (w + w_bg)^5 - w_bg^5."""
    n = w0.shape[0]
    dt2 = dt * dt
    c2 = dt2 * inv_h2
    force = inv_r4[:-1] * dt2
    ext = np.empty(n + 1)

    def terms(y):
        """c2 (w_right + w_left) and (dt^2 / r^4) N(w) at y."""
        ext[0] = 0.0
        ext[1:] = y
        nbr = (ext[2:] + ext[:-2]) * c2
        if mode == 0:
            w2 = y[:-1] * y[:-1]
            return nbr, w2 * w2 * y[:-1] * force
        tot = w_bg[:-1] + y[:-1]
        t2 = tot * tot
        g2 = w_bg[:-1] * w_bg[:-1]
        return nbr, (t2 * t2 * tot - g2 * g2 * w_bg[:-1]) * force

    def record(j, w, v):
        n_plus[j] = 0.5 * (np.dot(w, weights) + np.dot(v, weights) / k) - shift

    record(0, w0, v0)
    a = w0.copy()
    b = np.empty(n)
    nbr, quintic = terms(a)
    b[:-1] = a[:-1] + dt * v0[:-1] + 0.5 * (nbr - 2.0 * c2 * a[:-1] + quintic)
    b[-1] = a[-1]
    c = np.empty(n)

    snap = 1
    pend = -1
    step = 1
    while True:
        bad = not np.all(np.isfinite(b[:-1]))
        psi = (b[:-1] + w_bg[:-1]) * inv_r[:-1] if mode == 1 else b[:-1] * inv_r[:-1]
        big = False if bad else bool(np.any(np.abs(psi) > psi_cap))
        if bad or big:
            return snap, step, (2 if bad else 1)

        if step % stride == 0 and snap < w_snap.shape[0]:
            w_snap[snap] = b
            pend = snap
            snap += 1

        if step >= n_steps and pend < 0:
            return snap, n_steps, 0

        nbr, quintic = terms(b)
        c[:-1] = (2.0 - 2.0 * c2) * b[:-1] - a[:-1] + nbr + quintic
        c[-1] = b[-1]

        if pend >= 0:
            v_snap[pend] = (c - a) / (2.0 * dt)
            record(pend, w_snap[pend], v_snap[pend])
            pend = -1
        if step >= n_steps:
            return snap, n_steps, 0
        a, b, c = b, c, a
        step += 1


def dense_matrix(op):
    """Dense n x n matrix of a ChannelOperator."""
    a = np.diag(op.diagonal)
    idx = np.arange(op.grid.n - 1)
    a[idx, idx + 1] = op.off_diagonal
    a[idx + 1, idx] = op.off_diagonal
    return a


def dense_mu0(pair):
    """Smallest eigenvalue of the radial L_plus restricted to phi-orthogonal.

    Deflation by explicit projection: the phi direction is projected out of
    the dense matrix and parked at a large shift, so the smallest eigenvalue
    of the modified matrix is the constrained infimum.
    """
    q = pair.profile.grid.nodes * pair.profile.samples
    q = q / np.linalg.norm(q)
    A = dense_matrix(pair.L_plus[0])
    Aq = A @ q
    # P A P + shift q q^T, assembled without forming P explicitly
    A -= np.outer(q, Aq) + np.outer(Aq, q)
    A += (q @ Aq + 10.0 * pair.alpha_sq) * np.outer(q, q)
    return float(np.linalg.eigvalsh(A)[0])


def symmetrized_quadratic_form(pair):
    """sqrt(L_minus) L_plus sqrt(L_minus) on the radial channel (dense).

    The square root uses the positive part of L_minus's eigendecomposition;
    only sign information of the resulting spectrum is consumed by callers.
    """
    lm = dense_matrix(pair.L_minus[0])
    lp = dense_matrix(pair.L_plus[0])
    vals, vecs = np.linalg.eigh(lm)
    root = vecs @ (np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T)
    return root @ lp @ root


def _sinc_weights(lam, t):
    """sin(t sqrt(lam))/sqrt(lam) with hyperbolic and small-|lam| branches."""
    out = np.empty(lam.size)
    pos = lam > 1e-10
    neg = lam < -1e-10
    mid = ~(pos | neg)
    sp = np.sqrt(lam[pos])
    out[pos] = np.sin(t * sp) / sp
    sn = np.sqrt(-lam[neg])
    out[neg] = np.sinh(t * sn) / sn
    out[mid] = t
    return out


def _cos_weights(lam, t):
    out = np.empty(lam.size)
    pos = lam > 1e-10
    neg = lam < -1e-10
    mid = ~(pos | neg)
    out[pos] = np.cos(t * np.sqrt(lam[pos]))
    out[neg] = np.cosh(t * np.sqrt(-lam[neg]))
    out[mid] = 1.0
    return out


def dense_propagate(op, f, g0, t):
    """cos(t sqrt(H)) f + [sin(t sqrt(H))/sqrt(H)] g0 from the full
    eigendecomposition of H."""
    lam, vec = eigh_tridiagonal(op.diagonal, op.off_diagonal)
    return vec @ (_cos_weights(lam, t) * (vec.T @ f)
                  + _sinc_weights(lam, t) * (vec.T @ g0))


def dense_sine_split(op, dphi_da, f, times):
    """solitonlab.dynamics.sine_split from the full eigendecomposition:
    P_g-perp zeroes the coefficients of the negative modes, and each time
    is propagated from 0."""
    r = op.grid.nodes
    lam, vec = eigh_tridiagonal(op.diagonal, op.off_diagonal)
    coef = vec.T @ (r * f)
    coef[lam < -1e-10] = 0.0
    w_res = r * dphi_da
    window = r <= op.grid.r_max / 4.0
    denom = float(np.dot(w_res[window], w_res[window]))
    times = np.asarray(times, dtype=float)
    coeffs = np.empty(times.size)
    rems = np.empty(times.size)
    for i, t in enumerate(times):
        u = vec @ (_sinc_weights(lam, t) * coef)
        c = float(np.dot(u[window], w_res[window])) / denom
        coeffs[i] = c
        rems[i] = np.abs(u[window] - c * w_res[window]).max()
    return {"times": times, "rank_one_coeff": coeffs, "remainder_sup": rems}


def wave_flow_twice_b_reference(flow, y):
    """solitonlab.dynamics._WaveFlow._twice_b on the (2, n) block as two
    rows: the (n,) diagonal and off-diagonal broadcast over them, and one
    allocated deflation product per negative eigenpair.  The flat-layout
    product must match it bit for bit."""
    n = y.shape[1]
    d2, e2 = flow._d2[:n], flow._e2[:n - 1]
    out = d2 * y
    out[:, :-1] += e2 * y[:, 1:]
    out[:, 1:] += e2 * y[:, :-1]
    coef = (y @ flow.g.T) * flow._c2
    for j, g in enumerate(flow.g):
        out += coef[:, j, None] * g
    return out


def _discrete_energy_row(grid, w, wdot):
    """The energy of one (n,) row of the reduced field."""
    r = grid.nodes
    h = grid.h
    ext = np.concatenate(([0.0], w))
    w_r = np.empty(grid.n)
    w_r[:-1] = (ext[2:] - ext[:-2]) / (2.0 * h)
    w_r[-1] = (w[-1] - w[-2]) / h
    dens = 0.5 * (wdot ** 2 + (w_r - w / r) ** 2) - w ** 6 / (6.0 * r ** 4)
    return 4.0 * np.pi * integrate(grid, dens)


def trajectory_observables_reference(initial, t_final, stride_time=0.25):
    """evolve_nlw's observables, outcome and snapshots, row by row from the
    run that solitonlab.dynamics._step records: the local energy and the
    energy one row at a time, the sup norms from a record-sized array, the
    outcome by the rules of dynamics._outcome with the stationary check
    converting every row afresh, and psi = (w + bg)/r, psi_t = v/r as new
    arrays.  The chunked pass must match it bit for bit."""
    run = _step(initial, t_final, stride_time)
    grid, W, V, bg, w_bg = run.grid, run.W, run.V, run.bg, run.w_bg
    r = grid.nodes
    ip = 4.0 * np.pi
    loc = (r <= 5.0).astype(float)
    pert = W if bg is w_bg else [w - w_bg for w in W]
    local_energy = np.array([ip * integrate(grid, 0.5 * loc * (vv ** 2 + ww ** 2))
                             for ww, vv in zip(pert, V)])
    energy = np.array([_discrete_energy_row(grid, ww + bg, vv)
                       for ww, vv in zip(W, V)])

    def sup_deviation(m=None):
        s = np.divide(W[:, :m], r[:m]) if bg is w_bg else (
            (W[:, :m] - w_bg[:m]) / r[:m])
        return np.abs(s).max(axis=1)

    sup_norms = sup_deviation()
    exit_n_plus = EvolveConfig().exit_n_plus
    times = np.arange(len(W)) * run.stride * run.dt
    exited = np.flatnonzero(np.abs(run.n_plus) > exit_n_plus)

    def outcome():
        if run.reason in (1, 2):
            return "blowup", run.stop_step * run.dt, math.nan
        if exited.size:
            j = int(exited[0])
            return ("blowup" if run.n_plus[j] > 0 else "dispersal"), math.nan, times[j]
        if sup_norms[0] > 0.0:
            core = int(np.searchsorted(r, 1.0, side="right"))
            settled = sup_deviation(core) < 0.1 * sup_norms[0]
            need = max(1, int(round(5.0 / (run.stride * run.dt))))
            streak = 0
            for j, s in enumerate(settled):
                streak = streak + 1 if s else 0
                if streak >= need and abs(run.n_plus[j]) < exit_n_plus:
                    return "dispersal", math.nan, times[j]
        psi0 = (W[0] + bg) / r
        if all(np.abs((w + bg) / r - psi0).max() <= 0.01 for w in W):
            return "stationary", math.nan, math.nan
        return "undecided", math.nan, math.nan

    out, blowup_time, exit_time = outcome()
    return {"times": times, "sup_norms": sup_norms, "local_energy": local_energy,
            "energy_series": energy, "n_plus_series": run.n_plus.copy(),
            "outcome": out, "blowup_time": blowup_time, "exit_time": exit_time,
            "u": (W + bg) / r, "ut": V / r}


def full_run_stable_h_search(f1, f2, grid, bracket_width, t_horizon):
    """solitonlab.dynamics.find_stable_h's search with tol = 0, written from
    its specification, with every candidate run to the horizon by evolve_nlw.

    A run's offset h - h* is 2 e^{-k t_j} n_plus(t_j) at the last snapshot
    j >= 1 before the first |n_plus| > exit_n_plus with |n_plus| <= 2e-3.
    The next candidate is the secant root through the last two candidates'
    (h, offset) pairs when both have an offset (none when the offsets are
    equal), else the last candidate minus its offset when it has one, else
    the midpoint; it is the midpoint too when it does not lie strictly
    inside the bracket or the last three candidates all landed on the same
    side.  An undecided candidate ends the search as h_star.  Returns
    (h_star, bracket_final, below, above, n_runs, n_estimate_runs,
    outcomes), outcomes being the candidates' (h, outcome) in order,
    bracket ends first, and n_estimate_runs the candidates that were not
    midpoints.
    """
    mode = unstable_mode(grid)
    f1p, f2p = project_to_sigma0(f1, f2, grid, mode)
    exit_n_plus = EvolveConfig().exit_n_plus
    outcomes = []

    def run(hc):
        traj = evolve_nlw(RadialState(grid, f1p + hc * mode.g, f2p,
                                      "perturbation"), t_horizon)
        outcomes.append((hc, traj.outcome))
        n_plus = traj.n_plus_series
        past = np.flatnonzero(np.abs(n_plus) > exit_n_plus)
        end = int(past[0]) if past.size else len(n_plus)
        for j in range(end - 1, 0, -1):
            if abs(n_plus[j]) <= 2e-3:
                return traj.outcome, 2.0 * math.exp(
                    -mode.k * traj.times[j]) * float(n_plus[j])
        return traj.outcome, None

    lo, hi = -bracket_width, bracket_width
    below, above = run(lo)[0], run(hi)[0]
    n_estimates, sides, measured = 0, [], []
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        hc, estimate = mid, None
        if measured and measured[-1][1] is not None:
            h1, d1 = measured[-1]
            estimate = h1 - d1
            if len(measured) >= 2 and measured[-2][1] is not None:
                h0, d0 = measured[-2]
                estimate = (h1 - d1 * (h1 - h0) / (d1 - d0) if d1 != d0
                            else None)
        if estimate is not None and lo < estimate < hi and not (
                len(sides) >= 3 and len(set(sides[-3:])) == 1):
            hc = estimate
            n_estimates += 1
        out, offset = run(hc)
        measured.append((hc, offset))
        if out == "undecided":
            return (hc, (lo, hi), below, above, len(outcomes) + 1,
                    n_estimates, outcomes)
        sides.append(out == below)
        if out == below:
            lo = hc
        else:
            hi = hc
    return (0.5 * (lo + hi), (lo, hi), below, above, len(outcomes) + 1,
            n_estimates, outcomes)


def count_nodes(op: ChannelOperator, energy: float) -> int:
    """Sign changes of the regular solution of (op - E) w = 0.

    Counts the np.signbit flips of regular_solution, which by discrete
    oscillation theory equal the eigenvalues of the interior Dirichlet
    block below `energy`, as count_eigenvalues_below.  The shooting
    recurrence renormalizes on overflow and signbit keeps the sign of an
    entry that renormalization underflows to +-0, so deeply negative
    energies are safe.
    """
    s = np.signbit(regular_solution(op, energy))
    return int(np.count_nonzero(s[1:] != s[:-1]))


def birman_schwinger_matrix(potential: np.ndarray, ell: int,
                            grid: RadialGrid) -> np.ndarray:
    """Quadrature-symmetrized kernel |V|^(1/2) G_l |V|^(1/2) at zero energy.

    G_l(r,s) = min(r,s)^(l+1) max(r,s)^(-l) / (2l+1) is the reduced
    half-line Green kernel of the free operator in channel l.
    """
    r = grid.nodes
    vh = np.sqrt(np.abs(potential) * grid.weights)
    rmin = np.minimum.outer(r, r)
    rmax = np.maximum.outer(r, r)
    G = rmin ** (ell + 1) * rmax ** float(-ell) / (2 * ell + 1)
    K = vh[:, None] * G * vh[None, :]
    _check_symmetric(K)
    return K


def _check_symmetric(K: np.ndarray):
    """Raise NumericsError unless K is symmetric to 1e-10 of its scale."""
    asym = np.abs(K - K.T).max()
    if not asym <= 1e-10 * max(1.0, np.abs(K).max()):
        raise NumericsError(f"Birman-Schwinger assembly asymmetry {asym:.2e}")


class ZeroEnergyObstruction(SingularSolveError):
    """Zero-energy inversion blocked by an eigenvalue or resonance."""


def symmetric_resolvent(R0: np.ndarray, V: np.ndarray, z) -> np.ndarray:
    """R_V = R0 - R0 v (U + v R0 v)^{-1} v R0 with V = v^2 U, U = sign V.

    R0 is the free resolvent at z as a matrix on the same discretization.
    The inner operator U + v R0 v has its scale anchored at 1 by the sign
    matrix; a smallest singular value below 0.05 signals a zero-energy
    eigenvalue or resonance of -Lap + V (the discrete shadow of the
    inversion obstruction), raised as ZeroEnergyObstruction.
    """
    V = np.asarray(V, dtype=float)
    v = np.sqrt(np.abs(V))
    U = np.sign(V)
    U[U == 0.0] = 1.0
    inner = np.diag(U) + v[:, None] * R0 * v[None, :]
    smin = np.linalg.svd(inner, compute_uv=False)[-1]
    if smin < 0.05:
        raise ZeroEnergyObstruction(
            f"U + v R0 v numerically singular (smallest singular value "
            f"{smin:.2e}): zero energy is an eigenvalue or resonance")
    correction = np.linalg.solve(inner, v[:, None] * R0)
    return R0 - R0 * v[None, :] @ correction


def zero_energy_green_matrix(grid: RadialGrid) -> np.ndarray:
    """min(r, s) with quadrature weights: the ell = 0 kernel of (-d^2/dr^2)^{-1}."""
    r = grid.nodes
    return np.minimum.outer(r, r) * grid.weights[None, :]


def nonlinearity_N(u, phi):
    """The beyond-linear part of (phi + u)^5 - phi^5 - 5 phi^4 u."""
    return 10.0 * u ** 2 * phi ** 3 + 10.0 * u ** 3 * phi ** 2 \
        + 5.0 * u ** 4 * phi + u ** 5


@dataclass(frozen=True)
class ModeDecomposition:
    n_plus: float
    n_minus: float
    u_tilde: RadialState
    k: float
    g: np.ndarray = field(repr=False)


def mode_decompose(state: RadialState, g: np.ndarray, k: float) -> ModeDecomposition:
    """Split a perturbation state along G+- = (g, +-k g) plus the remainder.

    n+- = (<u, g> +- <u_t, g>/k)/2 in the L^2(R^3) pairing; the remainder
    is g-orthogonal in both slots and the reconstruction is exact.
    """
    if state.frame != "perturbation":
        raise ValueError("mode_decompose expects a perturbation-frame state")
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    grid = state.grid
    nrm = 4.0 * np.pi * integrate(grid, (grid.nodes * g) ** 2)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"g is not unit-normalized: |g|^2 = {nrm}")
    a = inner_3d(grid, state.u, g)
    b = inner_3d(grid, state.ut, g)
    n_plus = 0.5 * (a + b / k)
    n_minus = 0.5 * (a - b / k)
    u_t = RadialState(grid, state.u - (n_plus + n_minus) * g,
                      state.ut - (n_plus - n_minus) * k * g, "perturbation")
    return ModeDecomposition(n_plus=n_plus, n_minus=n_minus, u_tilde=u_t,
                             k=k, g=g)


def rescale_ground_state(profile: NlsGroundState,
                         alpha_new: float) -> NlsGroundState:
    """Exact scaling map phi(x, alpha) = alpha^(1/sigma) phi(alpha x, 1).

    The grid is rescaled by alpha/alpha_new so samples map node-to-node
    with no interpolation.
    """
    if not alpha_new > 0.0:
        raise ValueError(f"alpha_new must be positive, got {alpha_new}")
    ratio = alpha_new / profile.alpha
    scale = ratio ** (1.0 / profile.sigma)
    grid = make_grid(profile.grid.r_max / ratio, profile.grid.n)
    return NlsGroundState(sigma=profile.sigma, alpha=float(alpha_new),
                          d=profile.d, grid=grid,
                          samples=scale * profile.samples,
                          center_value=scale * profile.center_value,
                          decay_rate=ratio * profile.decay_rate)


def ground_state_mass(profile: NlsGroundState) -> float:
    """Squared L^2 norm of the profile (d-dimensional radial measure)."""
    g = profile.grid
    if profile.d == 3:
        return inner_3d(g, profile.samples, profile.samples)
    return 2.0 * integrate(g, profile.samples ** 2)


def profile_tail_slope(grid: RadialGrid, samples: np.ndarray) -> float:
    """Log-log tail slope of |samples| over [0.5 r_max, r_max]."""
    win = (grid.nodes >= 0.5 * grid.r_max) & (grid.nodes <= grid.r_max)
    return fit_loglog_slope(grid.nodes[win], samples[win])
