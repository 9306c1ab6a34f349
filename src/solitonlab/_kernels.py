"""Hot inner loops: Sturm counts, shooting recurrences, RK4 ground-state
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
    defined when x collides with a Ritz value.
    """
    n = diag.shape[0]
    pivmin = np.finfo(float).tiny * max(1.0, np.max(off * off, initial=0.0))
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


def shoot_count(h2_diag, energy_h2):
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


def shoot_solution(h2_diag, energy_h2, out):
    """Regular shooting solution of (A - E)w = 0, written into ``out``.

    Same recurrence as shoot_count but keeps the whole solution; on
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


def inverse_iteration(diag, off, shift, v0, iters):
    """Inverse iteration toward the eigenvector of (diag, off) nearest shift.

    Returns the last finite iterate as a unit vector; a zero seed v0 is
    replaced by a constant vector.
    """
    nrm = np.linalg.norm(v0)
    n = v0.shape[0]
    v = v0 / nrm if nrm > 0.0 else np.full(n, 1.0 / np.sqrt(n))
    shifted = diag - shift
    for _ in range(iters):
        work = tridiag_solve(shifted, off, v)
        nrm = np.linalg.norm(work)
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        v = work / nrm
    return v


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
             n_steps, stride, mode, psi_cap,
             w_snap, v_snap, w_final, v_final,
             exit_weights=None, k=1.0, exit_n_plus=np.inf):
    """Leapfrog stepper of the reduced radial quintic wave equation.

    mode 0 steps the full reduced field w (w_tt = w_rr + w^5/r^4); mode 1
    steps the deviation v from the static background w_bg with the
    background's quintic cancelled analytically, making v == 0 an exact
    fixed point.  Last node frozen (Dirichlet truncation), phantom w(0)=0.

    The first step is the Taylor start from (w0, v0); snapshot slot j gets
    the state at step j*stride, with the centered time derivative filled one
    step later (slot 0 is the caller's initial state).  Returns
    (snapshots_written, last_step, reason): reason 0 completed, 1 amplitude
    cap, 2 non-finite, 3 decided.

    With exit_weights (4 pi r g times the quadrature weights, with the rate
    k) the run stops with reason 3 at the first snapshot, slot 0 included,
    whose |n_plus| = |<w', p> + <v, p>/k|/2 exceeds exit_n_plus; w' is the
    perturbation part of the field.  last_step is then that snapshot's step
    and the final state is the snapshot with its centered velocity.

    Each step writes into preallocated buffers.  The amplitude test is one
    max |psi| <= cap per step; only when it fails is the exact reason (cap
    or non-finite) worked out.
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
