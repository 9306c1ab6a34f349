"""Independent oracles used to freeze expected values.

These deliberately avoid the package's own integrators: the ground-state
oracle uses a midpoint (RK2) stepper with its own bisection logic, and the
quadrature oracles go through scipy.integrate.quad.  The leapfrog reference
is the straightforward numpy stepper the buffered one must match bit for bit.
"""

import numpy as np
from scipy.integrate import quad


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


def leapfrog_numpy_reference(w0, v0, inv_r, inv_r4, w_bg, inv_h2, dt,
                             n_steps, stride, mode, psi_cap,
                             w_snap, v_snap, w_final, v_final):
    """Allocating numpy leapfrog with the arguments and return of
    solitonlab._kernels.leapfrog (without the early exit): one temporary
    per operation.  The buffered stepper must match it bit for bit."""
    n = w0.shape[0]
    dt2 = dt * dt
    ext = np.empty(n + 1)

    def force_of(y):
        ext[0] = 0.0
        ext[1:] = y
        lap = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) * inv_h2
        if mode == 0:
            w2 = y[:-1] * y[:-1]
            return lap + w2 * w2 * y[:-1] * inv_r4[:-1]
        tot = w_bg[:-1] + y[:-1]
        t2 = tot * tot
        g2 = w_bg[:-1] * w_bg[:-1]
        return lap + (t2 * t2 * tot - g2 * g2 * w_bg[:-1]) * inv_r4[:-1]

    a = w0.copy()
    b = np.empty(n)
    b[:-1] = a[:-1] + dt * v0[:-1] + 0.5 * dt2 * force_of(a)
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
            if pend >= 0:
                v_snap[pend] = (b - w_snap[pend]) / dt
            w_final[:] = b
            v_final[:] = (b - a) / dt
            return snap, step, (2 if bad else 1)

        if step % stride == 0 and snap < w_snap.shape[0]:
            w_snap[snap] = b
            pend = snap
            snap += 1

        if step >= n_steps and pend < 0:
            w_final[:] = b
            v_final[:] = (b - a) / dt
            return snap, n_steps, 0

        c[:-1] = 2.0 * b[:-1] - a[:-1] + dt2 * force_of(b)
        c[-1] = b[-1]

        if pend >= 0:
            v_snap[pend] = (c - a) / (2.0 * dt)
            pend = -1
        if step >= n_steps:
            w_final[:] = b
            v_final[:] = (c - a) / (2.0 * dt)
            return snap, n_steps, 0
        a, b, c = b, c, a
        step += 1
