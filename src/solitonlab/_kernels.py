"""Hot inner loops: Sturm counts, shooting recurrences, and leapfrog stepping.

The sequential recurrences (Sturm sign counts, outward shooting, RK4
ground-state integration) and the wave time stepper dominate the runtime of
every experiment in this package, so they are JIT-compiled with numba.
Setting ``SOLITONLAB_DISABLE_NUMBA=1`` (or a failed numba import) selects a
pure-Python/numpy fallback path instead: the time stepper falls back to
vectorized numpy, the recurrences to plain Python loops.  Both paths run the
same floating-point operations in the same order, so results agree to
rounding; ``USING_NUMBA`` records which path is active.  The benchmark
``perfbench/run.py`` times the path that runs, per layer with ``--trace 1``.
"""

import os

import numpy as np

_DISABLE = os.environ.get("SOLITONLAB_DISABLE_NUMBA", "") not in ("", "0")

if not _DISABLE:
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USING_NUMBA = False
else:
    USING_NUMBA = False

_RENORM = 1e100


# ---------------------------------------------------------------------------
# reference (pure Python / numpy) implementations
# ---------------------------------------------------------------------------

def sturm_count_py(diag, off, x):
    """Number of eigenvalues of the symmetric tridiagonal (diag, off) below x.

    Standard Sturm/LDL^T sign count; zero pivots are nudged so the count
    stays well defined when x collides with a Ritz value.
    """
    n = diag.shape[0]
    count = 0
    d = diag[0] - x
    if d == 0.0:
        d = -1e-300
    if d < 0.0:
        count += 1
    for i in range(1, n):
        e = off[i - 1]
        d = diag[i] - x - e * e / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def shoot_count_py(h2_diag, energy_h2):
    """Interior sign changes of the regular shooting solution of (A - E)w = 0.

    ``h2_diag`` holds h^2 * diagonal over the interior rows (the pinned
    truncation row is excluded by the caller).  The three-term recurrence
    w[j+1] = (h2_diag[j] - h^2 E) w[j] - w[j-1] starts from the Dirichlet
    phantom w(-1) = 0, w[0] = 1; the sign-change count equals the number of
    Dirichlet eigenvalues below E (discrete oscillation theorem).
    """
    m = h2_diag.shape[0]
    count = 0
    w_prev = 0.0
    w = 1.0
    for j in range(m - 1):
        w_next = (h2_diag[j] - energy_h2) * w - w_prev
        if w_next == 0.0:
            # grazing zero: one sign change, continue with the flipped sign
            count += 1
            w_next = -1e-300 if w > 0.0 else 1e-300
        elif (w_next < 0.0) != (w < 0.0):
            count += 1
        aw = abs(w_next)
        if aw > _RENORM:
            w = w / aw
            w_next = w_next / aw
        w_prev = w
        w = w_next
    return count


def shoot_solution_py(h2_diag, energy_h2, out):
    """Regular shooting solution of (A - E)w = 0, written into ``out``.

    Same recurrence as shoot_count_py but keeps the whole solution; on
    overflow the already-written prefix is renormalized so the output is one
    consistent scaling of the regular solution.
    """
    m = h2_diag.shape[0]
    out[0] = 1.0
    w_prev = 0.0
    w = 1.0
    for j in range(m - 1):
        w_next = (h2_diag[j] - energy_h2) * w - w_prev
        aw = abs(w_next)
        if aw > _RENORM:
            inv = 1.0 / aw
            for i in range(j + 1):
                out[i] *= inv
            w = w * inv
            w_next = w_next * inv
        out[j + 1] = w_next
        w_prev = w
        w = w_next
    return out


def tridiag_solve_py(diag, off, rhs, out):
    """Thomas solve of the symmetric tridiagonal system A x = rhs."""
    n = diag.shape[0]
    cp = np.empty(n - 1)
    dp = np.empty(n)
    d0 = diag[0]
    if d0 == 0.0:
        d0 = 1e-300
    cp[0] = off[0] / d0
    dp[0] = rhs[0] / d0
    for i in range(1, n - 1):
        denom = diag[i] - off[i - 1] * cp[i - 1]
        if denom == 0.0:
            denom = 1e-300
        cp[i] = off[i] / denom
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / denom
    denom = diag[n - 1] - off[n - 2] * cp[n - 2]
    if denom == 0.0:
        denom = 1e-300
    dp[n - 1] = (rhs[n - 1] - off[n - 2] * dp[n - 2]) / denom
    out[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return out


def inverse_iteration_py(diag, off, shift, v0, iters):
    """Inverse iteration toward the eigenvector of (diag, off) nearest shift.

    The Thomas solve is inlined so the whole loop compiles as one kernel.
    """
    n = diag.shape[0]
    v = v0.copy()
    nrm = np.sqrt(np.sum(v * v))
    if nrm == 0.0:
        v[:] = 1.0
        nrm = np.sqrt(float(n))
    v /= nrm
    shifted = diag - shift
    work = np.empty(n)
    cp = np.empty(n - 1)
    dp = np.empty(n)
    for _ in range(iters):
        d0 = shifted[0]
        if d0 == 0.0:
            d0 = 1e-300
        cp[0] = off[0] / d0
        dp[0] = v[0] / d0
        for i in range(1, n - 1):
            denom = shifted[i] - off[i - 1] * cp[i - 1]
            if denom == 0.0:
                denom = 1e-300
            cp[i] = off[i] / denom
            dp[i] = (v[i] - off[i - 1] * dp[i - 1]) / denom
        denom = shifted[n - 1] - off[n - 2] * cp[n - 2]
        if denom == 0.0:
            denom = 1e-300
        dp[n - 1] = (v[n - 1] - off[n - 2] * dp[n - 2]) / denom
        work[n - 1] = dp[n - 1]
        for i in range(n - 2, -1, -1):
            work[i] = dp[i] - cp[i] * work[i + 1]
        nrm = np.sqrt(np.sum(work * work))
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        v[:] = work / nrm
    return v


def rk4_shoot_py(b, alpha2, sigma, dim, h, n, phi_out):
    """Outward RK4 integration of the radial ground-state equation.

    phi'' + ((dim-1)/r) phi' = alpha2 phi - |phi|^(2 sigma) phi, stepped off
    r = 0 with phi(0) = b, phi'(0) = 0 via the r^2 series through the first
    node.  Writes phi at nodes h, 2h, ..., nh into phi_out and returns
    (status, index):

      status 0  reached the last node still positive and not turning
      status 1  overshoot, phi crossed zero at node ``index``
      status 2  undershoot, phi turned upward (phi' > 0 with phi < 0.9 b)
    """
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


def _n_plus_loop(w, v, w_bg, mode, exit_weights, k):
    """Unstable-mode amplitude n_plus = (<w', p> + <v, p>/k)/2 of one state.

    w' is the perturbation part of the reduced field w (w - w_bg in mode 0,
    w itself in mode 1) and p = exit_weights holds 4 pi r g times the
    quadrature weights.
    """
    sw = 0.0
    sv = 0.0
    for i in range(w.shape[0]):
        wi = w[i] - w_bg[i] if mode == 0 else w[i]
        sw += wi * exit_weights[i]
        sv += v[i] * exit_weights[i]
    return 0.5 * (sw + sv / k)


def _leapfrog_loop(w0, v0, inv_r, inv_r4, w_bg, inv_h2, dt,
                   n_steps, stride, mode, psi_cap,
                   w_snap, v_snap, w_final, v_final,
                   exit_weights=None, k=1.0, exit_n_plus=np.inf):
    """Explicit-loop leapfrog core (the numba-compiled hot path).

    mode 0 steps the full reduced field w (w_tt = w_rr + w^5/r^4); mode 1
    steps the deviation v from the static background w_bg with the
    background's quintic cancelled analytically, making v == 0 an exact
    fixed point.  Last node frozen (Dirichlet truncation), phantom w(0)=0.

    The first step is the Taylor start from (w0, v0); snapshot slot j gets
    the state at step j*stride, with the centered time derivative filled one
    step later (slot 0 is the caller's initial state).  Returns
    (snapshots_written, last_step, reason): reason 0 completed, 1 amplitude
    cap, 2 non-finite, 3 decided.

    With exit_weights (the n_plus weights of _n_plus_loop, with the rate k)
    the run stops with reason 3 at the first snapshot, slot 0 included,
    whose |n_plus| exceeds exit_n_plus: last_step is that snapshot's step
    and the final state is the snapshot with its centered velocity.
    """
    n = w0.shape[0]
    if exit_weights is not None:
        if abs(_n_plus_loop(w0, v0, w_bg, mode, exit_weights, k)) > exit_n_plus:
            for i in range(n):
                w_final[i] = w0[i]
                v_final[i] = v0[i]
            return 1, 0, 3
    dt2 = dt * dt
    a = w0.copy()
    b = np.empty(n)
    c = np.empty(n)
    for i in range(n - 1):
        left = a[i - 1] if i > 0 else 0.0
        lap = (a[i + 1] - 2.0 * a[i] + left) * inv_h2
        if mode == 0:
            wi = a[i]
            w2 = wi * wi
            force = lap + w2 * w2 * wi * inv_r4[i]
        else:
            tot = w_bg[i] + a[i]
            bg = w_bg[i]
            t2 = tot * tot
            g2 = bg * bg
            force = lap + (t2 * t2 * tot - g2 * g2 * bg) * inv_r4[i]
        b[i] = a[i] + dt * v0[i] + 0.5 * dt2 * force
    b[n - 1] = a[n - 1]

    snap = 1
    pend = -1
    step = 1
    reason = 0
    while True:
        bad = False
        big = False
        for i in range(n - 1):
            x = b[i]
            if not np.isfinite(x):
                bad = True
                break
            psi = (x + w_bg[i]) * inv_r[i] if mode == 1 else x * inv_r[i]
            if abs(psi) > psi_cap:
                big = True
        if bad or big:
            reason = 2 if bad else 1
            if pend >= 0:
                for i in range(n):
                    v_snap[pend, i] = (b[i] - w_snap[pend, i]) / dt
            for i in range(n):
                w_final[i] = b[i]
                v_final[i] = (b[i] - a[i]) / dt
            return snap, step, reason

        if step % stride == 0 and snap < w_snap.shape[0]:
            for i in range(n):
                w_snap[snap, i] = b[i]
            pend = snap
            snap += 1

        if step >= n_steps and pend < 0:
            for i in range(n):
                w_final[i] = b[i]
                v_final[i] = (b[i] - a[i]) / dt
            return snap, n_steps, 0

        for i in range(n - 1):
            left = b[i - 1] if i > 0 else 0.0
            lap = (b[i + 1] - 2.0 * b[i] + left) * inv_h2
            if mode == 0:
                wi = b[i]
                w2 = wi * wi
                force = lap + w2 * w2 * wi * inv_r4[i]
            else:
                tot = w_bg[i] + b[i]
                bg = w_bg[i]
                t2 = tot * tot
                g2 = bg * bg
                force = lap + (t2 * t2 * tot - g2 * g2 * bg) * inv_r4[i]
            c[i] = 2.0 * b[i] - a[i] + dt2 * force
        c[n - 1] = b[n - 1]

        if pend >= 0:
            for i in range(n):
                v_snap[pend, i] = (c[i] - a[i]) / (2.0 * dt)
            if exit_weights is not None:
                n_plus = _n_plus_loop(w_snap[pend], v_snap[pend], w_bg, mode,
                                      exit_weights, k)
                if abs(n_plus) > exit_n_plus:
                    for i in range(n):
                        w_final[i] = b[i]
                        v_final[i] = v_snap[pend, i]
                    return snap, step, 3
            pend = -1
        if step >= n_steps:
            for i in range(n):
                w_final[i] = b[i]
                v_final[i] = (c[i] - a[i]) / (2.0 * dt)
            return snap, n_steps, 0
        tmp = a
        a = b
        b = c
        c = tmp
        step += 1


def _leapfrog_numpy(w0, v0, inv_r, inv_r4, w_bg, inv_h2, dt,
                    n_steps, stride, mode, psi_cap,
                    w_snap, v_snap, w_final, v_final,
                    exit_weights=None, k=1.0, exit_n_plus=np.inf):
    """Vectorized numpy twin of _leapfrog_loop (the fallback hot path).

    Each step writes into preallocated buffers and runs the floating-point
    operations of the loop twin in the same order, so trajectories do not
    depend on the buffering.  The amplitude test is one max |psi| <= cap
    per step; only when it fails is the exact reason (cap or non-finite)
    worked out.
    """
    n = w0.shape[0]
    dt2 = dt * dt
    bg, ir, ir4 = w_bg[:-1], inv_r[:-1], inv_r4[:-1]
    if mode == 1:
        g2 = bg * bg
        bg5 = g2 * g2 * bg
    # a sup that is inf or nan must fail the fast test even under an infinite cap
    fast_cap = min(psi_cap, np.finfo(float).max)
    tot, two_y, lap, nl, psi = (np.empty(n - 1) for _ in range(5))

    def prepare(y):
        """|psi| of y into psi; in mode 1 also tot = y + w_bg, which force reads."""
        if mode == 0:
            np.multiply(y[:-1], ir, out=psi)
        else:
            np.add(y[:-1], bg, out=tot)
            np.multiply(tot, ir, out=psi)
        np.abs(psi, out=psi)

    def force(y):
        """w_rr plus the quintic term of y into lap, with 2 y into two_y."""
        np.multiply(y[:-1], 2.0, out=two_y)
        np.subtract(y[1:], two_y, out=lap)
        np.add(lap[1:], y[:-2], out=lap[1:])
        lap[0] += 0.0  # the phantom w(0) = 0, added as every other neighbour
        np.multiply(lap, inv_h2, out=lap)
        if mode == 0:
            np.multiply(y[:-1], y[:-1], out=nl)
            np.multiply(nl, nl, out=nl)
            np.multiply(nl, y[:-1], out=nl)
        else:
            np.multiply(tot, tot, out=nl)
            np.multiply(nl, nl, out=nl)
            np.multiply(nl, tot, out=nl)
            np.subtract(nl, bg5, out=nl)
        np.multiply(nl, ir4, out=nl)
        return np.add(lap, nl, out=lap)

    def decided(w, v):
        if exit_weights is None:
            return False
        pert = w - w_bg if mode == 0 else w
        n_plus = 0.5 * (np.dot(pert, exit_weights) + np.dot(v, exit_weights) / k)
        return abs(n_plus) > exit_n_plus

    if decided(w0, v0):
        w_final[:] = w0
        v_final[:] = v0
        return 1, 0, 3

    a = w0.copy()
    b = np.empty(n)
    c = np.empty(n)
    prepare(a)
    b[:-1] = a[:-1] + dt * v0[:-1] + 0.5 * dt2 * force(a)
    b[-1] = a[-1]

    snap = 1
    pend = -1
    step = 1
    while True:
        prepare(b)
        if not psi.max() <= fast_cap:
            if not np.all(np.isfinite(b[:-1])):
                reason = 2
            else:
                reason = 1 if np.any(psi > psi_cap) else 0
            if reason:
                if pend >= 0:
                    v_snap[pend] = (b - w_snap[pend]) / dt
                w_final[:] = b
                v_final[:] = (b - a) / dt
                return snap, step, reason

        if step % stride == 0 and snap < w_snap.shape[0]:
            w_snap[snap] = b
            pend = snap
            snap += 1

        if step >= n_steps and pend < 0:
            w_final[:] = b
            v_final[:] = (b - a) / dt
            return snap, n_steps, 0

        force(b)
        np.subtract(two_y, a[:-1], out=c[:-1])
        np.multiply(lap, dt2, out=lap)
        np.add(c[:-1], lap, out=c[:-1])
        c[-1] = b[-1]

        if pend >= 0:
            v = v_snap[pend]
            np.subtract(c, a, out=v)
            np.divide(v, 2.0 * dt, out=v)
            if decided(w_snap[pend], v):
                w_final[:] = b
                v_final[:] = v
                return snap, step, 3
            pend = -1
        if step >= n_steps:
            w_final[:] = b
            v_final[:] = (c - a) / (2.0 * dt)
            return snap, n_steps, 0
        a, b, c = b, c, a
        step += 1


# ---------------------------------------------------------------------------
# path selection
# ---------------------------------------------------------------------------

if USING_NUMBA:
    sturm_count = njit(cache=True)(sturm_count_py)
    shoot_count = njit(cache=True)(shoot_count_py)
    shoot_solution = njit(cache=True)(shoot_solution_py)
    tridiag_solve = njit(cache=True)(tridiag_solve_py)
    inverse_iteration = njit(cache=True)(inverse_iteration_py)
    rk4_shoot = njit(cache=True)(rk4_shoot_py)
    # the compiled leapfrog calls the compiled helper
    _n_plus_loop = njit(cache=True)(_n_plus_loop)
    leapfrog = njit(cache=True)(_leapfrog_loop)
else:
    sturm_count = sturm_count_py
    shoot_count = shoot_count_py
    shoot_solution = shoot_solution_py
    tridiag_solve = tridiag_solve_py
    inverse_iteration = inverse_iteration_py
    rk4_shoot = rk4_shoot_py
    leapfrog = _leapfrog_numpy

leapfrog_py = _leapfrog_numpy
