"""Hot inner loops: Sturm counts, the shooting recurrence, RK4 ground-state
integration, the leapfrog stepper and tridiagonal solves.

Each kernel has one implementation.  The sequential recurrences are plain
Python loops over float64 scalars, the time stepper is vectorized numpy
working in preallocated buffers, and tridiagonal solves go to LAPACK
``gtsv`` through scipy.  The benchmark ``perfbench/run.py`` times each of
them with ``--trace 1``.
"""

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .errors import SingularSolveError

_RENORM = 1e100


def sturm_count(diag, off, x):
    """Number of eigenvalues of the symmetric tridiagonal (diag, off) below x.

    Sturm/LDL^T sign count.  A pivot with |d| <= pivmin is replaced by
    -pivmin, pivmin = tiny * max(1, max e^2) (the rule of LAPACK dstebz,
    Kahan 1966), which keeps every quotient e^2/d finite and the count well
    defined when x collides with a Ritz value.  The loop runs over Python
    float copies, which index far faster than numpy arrays.
    """
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


def shoot_solution(h2_diag, energy_h2):
    """Regular shooting solution w of (A - E)w = 0, one value per row.

    ``h2_diag`` holds h^2 * diagonal.  The three-term recurrence
    w[j+1] = (h2_diag[j] - h^2 E) w[j] - w[j-1] starts from the Dirichlet
    phantom w(-1) = 0, w[0] = 1.  An exact zero step becomes -+1e-300,
    opposite in sign to w[j] (a grazing zero is one sign change).  Past
    |w| = 1e100 the running values are renormalized at once and the prefix
    by one slice multiply per event at the end, so the output is one
    consistent scaling of the solution.  Its np.signbit flips, which
    survive entries underflowed to +-0, count the eigenvalues below E of
    the leading (m-1) x (m-1) block (discrete oscillation theorem).
    """
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
        if aw > _RENORM:
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


def tridiag_solve(diag, off, rhs):
    """Solution x of the symmetric tridiagonal system A x = rhs.

    LAPACK gtsv (Gaussian elimination with partial pivoting) through
    scipy's banded solver; an exactly singular A raises SingularSolveError.
    """
    ab = np.zeros((3, diag.shape[0]))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    try:
        return solve_banded((1, 1), ab, rhs, overwrite_ab=True,
                            check_finite=False)
    except LinAlgError as exc:
        raise SingularSolveError("singular tridiagonal system") from exc


def rk4_shoot(b, alpha2, sigma, dim, h, n, phi_out):
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


def leapfrog(w0, v0, inv_r, inv_r4, w_bg, inv_h2, dt,
             n_steps, stride, psi_cap,
             w_snap, v_snap, exit_weights=None, k=1.0, exit_n_plus=np.inf):
    """Leapfrog stepper of the reduced radial quintic wave equation.

    Steps the deviation w from the background w_bg, whose quintic term is
    cancelled analytically so that w == 0 is an exact fixed point; a zero
    w_bg steps the full field (w_tt = w_rr + w^5/r^4) bit for bit, as
    adding 0.0 is exact.  Last node frozen (Dirichlet truncation), phantom
    w(0)=0.

    The run takes n_steps >= 1 steps, the first of them the Taylor start
    from (w0, v0).  Snapshot slot j gets the state at step j*stride, with
    the centered time derivative filled one step later (slot 0 is the
    caller's initial state).  Returns
    (snapshots_written, last_step, reason): reason 0 completed, 1 amplitude
    cap, 2 non-finite, 3 decided.  w0 and v0 are not written.

    With exit_weights (4 pi r g times the quadrature weights, with the rate
    k) the run stops with reason 3 at the first snapshot, slot 0 included,
    whose |n_plus| = |<w, p> + <v, p>/k|/2 of the stepped w exceeds
    exit_n_plus; last_step is then that snapshot's step.

    Each step makes its 15 numpy calls into the run's preallocated
    buffers.  The amplitude test reads the square tot^2 of the field that
    the quintic term needs anyway: max tot^2 <= (cap r_1)^2 (1 - 1e-12),
    with r_1 the smallest radius, bounds |psi| = |tot|/r by the cap at every
    node with a margin for the rounding of both products, and an inf or nan
    fails it.  Only when it fails is the exact test run: max |psi| <= cap,
    then the reason (cap or non-finite) if that fails too.
    """
    n = w0.shape[0]
    dt2 = dt * dt
    bg, ir, ir4 = w_bg[:-1], inv_r[:-1], inv_r4[:-1]
    g2 = bg * bg
    bg5 = g2 * g2 * bg
    # a sup that is inf or nan must fail the fast test even under an infinite cap
    fast_cap = min(psi_cap, np.finfo(float).max)
    edge = float(fast_cap) / float(ir.max())
    # no fast test for a cap that is not positive, or so small that the bound
    # would not be a normal float and could pass an underflowed tot^2
    bound = (min(edge * edge, np.finfo(float).max) * (1.0 - 1e-12)
             if edge >= 1e-150 else -1.0)
    tot, two_y, lap, nl, psi = (np.empty(n - 1) for _ in range(5))
    lap_t = lap[1:]

    def decided(w, v):
        if exit_weights is None:
            return False
        n_plus = 0.5 * (np.dot(w, exit_weights) + np.dot(v, exit_weights) / k)
        return abs(n_plus) > exit_n_plus

    if decided(w0, v0):
        return 1, 0, 3

    # three rotating buffers, each with its [:-1], [1:] and [:-2] views; the
    # frozen last node is written into all of them once
    a, b, c = ((y, y[:-1], y[1:], y[:-2])
               for y in (np.empty(n), w0.copy(), np.empty(n)))
    a[0][-1] = c[0][-1] = w0[-1]

    # step 0 computes the force at w0 for the Taylor start
    snap = 1
    pend = -1
    step = 0
    while True:
        bf, bh, bt, bi = b
        u = np.add(bh, bg, tot)
        np.multiply(u, u, nl)
        if step:
            if not nl.max() <= bound:
                np.multiply(u, ir, psi)
                np.abs(psi, psi)
                if not psi.max() <= fast_cap:
                    if not np.all(np.isfinite(bh)):
                        return snap, step, 2
                    if np.any(psi > psi_cap):
                        return snap, step, 1

            if step % stride == 0 and snap < w_snap.shape[0]:
                w_snap[snap] = bf
                pend = snap
                snap += 1

            if step >= n_steps and pend < 0:
                return snap, n_steps, 0

        np.multiply(nl, nl, nl)
        np.multiply(nl, u, nl)
        np.subtract(nl, bg5, nl)
        np.multiply(nl, ir4, nl)
        np.multiply(bh, 2.0, two_y)
        np.subtract(bt, two_y, lap)
        np.add(lap_t, bi, lap_t)
        lap[0] += 0.0  # the phantom w(0) = 0, added as every other neighbour
        np.multiply(lap, inv_h2, lap)
        np.add(lap, nl, lap)

        ch = c[1]
        if step:
            np.subtract(two_y, a[1], ch)
            np.multiply(lap, dt2, lap)
            np.add(ch, lap, ch)
        else:
            ch[:] = bh + dt * v0[:-1] + 0.5 * dt2 * lap

        if pend >= 0:
            v = v_snap[pend]
            np.subtract(c[0], a[0], v)
            np.divide(v, 2.0 * dt, v)
            if decided(w_snap[pend], v):
                return snap, step, 3
            pend = -1
        if step >= n_steps:
            return snap, n_steps, 0
        a, b, c = b, c, a
        step += 1
