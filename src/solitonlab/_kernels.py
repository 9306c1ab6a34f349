"""Hot inner loops: Sturm counts, the shooting recurrence, RK4 ground-state
integration, the leapfrog stepper and tridiagonal solves.

Each kernel has one implementation.  The sequential recurrences are plain
Python loops over float64 scalars that do only the arithmetic of a step:
what depends on the node alone (the Sturm count's e^2, the RK4 friction
terms (dim-1)/r of rk4_friction) is made once, by numpy, and the loops
iterate over Python float lists.  Their plain indexed forms live in the
tests as references that the kernels match bit for bit.  The time stepper
is one three-level update with dt^2 folded into its coefficients, in
vectorized numpy working in preallocated buffers: each level is one (2, n)
block of w and its neighbour sums, so a step makes 12 numpy calls (10 about
a zero background).  Tridiagonal solves go to LAPACK ``gtsv`` through
scipy.  The benchmark ``perfbench/run.py`` times each of them with
``--trace 1``.
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
    defined when x collides with a Ritz value.  The squares e^2 are formed
    once, by numpy, and the loop runs over Python float copies of them and
    of diag, which iterate far faster than numpy arrays.
    """
    e2 = off * off
    pivmin = float(np.finfo(float).tiny * max(1.0, np.max(e2, initial=0.0)))
    rows, x = iter(diag.tolist()), float(x)
    count = 0
    d = next(rows) - x
    if -pivmin <= d <= pivmin:
        d = -pivmin
    if d < 0.0:
        count += 1
    for a, q in zip(rows, e2.tolist()):
        d = a - x - q / d
        if -pivmin <= d <= pivmin:
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
    energy_h2 = float(energy_h2)
    out = [1.0]
    append = out.append
    events = []
    w_prev = 0.0
    w = 1.0
    for a in h2_diag[:m - 1].tolist():
        w_next = (a - energy_h2) * w - w_prev
        if w_next == 0.0:
            w_next = -1e-300 if w > 0.0 else 1e-300
        if w_next > _RENORM or w_next < -_RENORM:
            inv = 1.0 / abs(w_next)
            events.append((len(out), inv))
            w = w * inv
            w_next = w_next * inv
        append(w_next)
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


def rk4_friction(dim, h, n):
    """Friction table of rk4_shoot on the nodes h, 2h, ..., nh.

    Three lists, one entry per step j = 1..n-1: (dim-1)/r at r = jh, at
    r + h/2 and at r + h, each the one IEEE quotient of (dim-1) and a
    radius formed as j*h, j*h + 0.5*h and j*h + h.
    """
    fric = dim - 1.0
    r = np.arange(1, n) * h
    return ((fric / r).tolist(), (fric / (r + 0.5 * h)).tolist(),
            (fric / (r + h)).tolist())


def rk4_shoot(b, alpha2, sigma, dim, h, fric, phi_out):
    """Outward RK4 integration of the radial ground-state equation.

    phi'' + ((dim-1)/r) phi' = alpha2 phi - |phi|^(2 sigma) phi, stepped off
    r = 0 with phi(0) = b, phi'(0) = 0 via the r^2 series through the first
    node.  ``fric`` is rk4_friction(dim, h, n), which fixes the n nodes and
    is made once per grid, so a step does only its own arithmetic: 4
    powers, no division, and the stage constants 0.5 h and h/6 made once
    per shot.  Writes phi at nodes h, 2h, ..., nh into phi_out and returns
    (status, index):

      status 0  reached the last node still positive and not turning
      status 1  overshoot, phi crossed zero at node ``index``
      status 2  undershoot, phi turned upward (phi' > 0 with phi < 0.9 b)

    A power past the float64 range raises OverflowError.
    """
    two_sig = 2.0 * sigma
    f0 = alpha2 * b - abs(b) ** two_sig * b
    phi = b + 0.5 * h * h * f0 / dim
    dphi = h * f0 / dim
    half = 0.5 * h
    sixth = h / 6.0
    floor = 0.9 * b
    out = [phi]
    append = out.append
    status = 0
    for fr, fm, fe in zip(*fric):
        k1q = alpha2 * phi - abs(phi) ** two_sig * phi - fr * dphi
        p2 = phi + half * dphi
        q2 = dphi + half * k1q
        k2q = alpha2 * p2 - abs(p2) ** two_sig * p2 - fm * q2
        p3 = phi + half * q2
        q3 = dphi + half * k2q
        k3q = alpha2 * p3 - abs(p3) ** two_sig * p3 - fm * q3
        p4 = phi + h * q3
        q4 = dphi + h * k3q
        k4q = alpha2 * p4 - abs(p4) ** two_sig * p4 - fe * q4
        phi = phi + sixth * (dphi + 2.0 * q2 + 2.0 * q3 + q4)
        dphi = dphi + sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        append(phi)
        if phi <= 0.0:
            status = 1
            break
        if dphi > 0.0 and phi < floor:
            status = 2
            break
    phi_out[:len(out)] = out
    return status, len(out) - 1


def leapfrog(w0, v0, inv_r, inv_r4, w_bg, inv_h2, dt,
             n_steps, stride, psi_cap,
             w_snap, v_snap, n_plus, weights, k, shift, exit_n_plus=np.inf):
    """Leapfrog stepper of the reduced radial quintic wave equation.

    Steps the deviation w from the background w_bg, whose quintic term is
    cancelled analytically so that w == 0 is an exact fixed point; a zero
    w_bg steps the full field (w_tt = w_rr + w^5/r^4).  Last node frozen
    (Dirichlet truncation), phantom w(0)=0.

    The run takes n_steps >= 1 steps, the first of them the Taylor start
    from (w0, v0).  Snapshot slot j gets the state at step j*stride, with
    the centered time derivative filled one step later (slot 0 is the
    caller's initial state).  Returns
    (snapshots_written, last_step, reason): reason 0 completed, 1 amplitude
    cap, 2 non-finite, 3 decided.  w0 and v0 are not written.

    Every slot written, slot 0 included, also gets its unstable-mode
    amplitude n_plus[j] = (<w, p> + <v, p>/k)/2 - shift, two dots per
    snapshot, with p = weights (4 pi r g times the quadrature weights), k
    the rate and shift the amplitude of a background that w carries (0 when
    w is a deviation).  The run stops with reason 3 at the first slot with
    |n_plus| > exit_n_plus; last_step is then that snapshot's step.

    A step is the three-level update with dt^2 folded into its
    coefficients, c2 = dt^2 / h^2 and the array dt^2 / r^4 made once per
    run:
        w+ = (2 - 2 c2) w - w- + c2 (w_right + w_left)
             + (dt^2 / r^4) ((w + bg)^5 - bg^5),
    12 numpy calls into the run's preallocated buffers.  Each of the three
    rotating levels is one contiguous (2, n) block: row 1 holds w, and row
    0 the neighbour sums w_right + w_left of the first n - 1 nodes, its
    last slot a permanent 0 that is the phantom w(0) to the left of node
    0.  So the sums are one add, and c2 (w_right + w_left) and
    (2 - 2 c2) w are one multiply of the whole block by a constant (2, n)
    coefficient block, written into the next level's block (the 0 and 1
    of its last column keep the phantom 0 and copy the frozen last node).
    A background that is zero everywhere (bg.any() is False, found once
    per run) skips the two calls that add and cancel it, leaving 10.
    Where w, w- and both neighbours are 0 (the perturbation has not
    arrived) the quintic term is exactly 0 and the node steps to exactly
    0.

    The amplitude test reads the square tot^2 of the field that the
    quintic term needs anyway: max tot^2 <= (cap r_1)^2 (1 - 1e-12), with
    r_1 the smallest radius, bounds |psi| = |tot|/r by the cap at every
    node with a margin for the rounding of both products, and an inf or
    nan fails it (the entry tested is the one at argmax, which is the first
    nan if there is one; argmax is faster than max).  Only when it fails is
    the exact test run: max |psi| <= cap, then the reason (cap or
    non-finite) if that fails too.
    """
    n = w0.shape[0]
    dt2 = dt * dt
    c2 = dt2 * inv_h2
    diag = 2.0 - 2.0 * c2
    bg, ir = w_bg[:-1], inv_r[:-1]
    has_bg = bool(bg.any())
    g2 = bg * bg
    bg5 = g2 * g2 * bg
    force = inv_r4[:-1] * dt2
    # a sup that is inf or nan must fail the fast test even under an infinite cap
    fast_cap = min(psi_cap, np.finfo(float).max)
    edge = float(fast_cap) / float(ir.max())
    # no fast test for a cap that is not positive, or so small that the bound
    # would not be a normal float and could pass an underflowed tot^2
    bound = (min(edge * edge, np.finfo(float).max) * (1.0 - 1e-12)
             if edge >= 1e-150 else -1.0)
    tot, nl, psi = (np.empty(n - 1) for _ in range(3))
    # the coefficient block: c2 on the neighbour sums and 2 - 2 c2 on w, and
    # in the last column 0 (the phantom stays 0) and 1 (the frozen last node)
    coef = np.empty((2, n))
    coef[0] = c2
    coef[1] = diag
    coef[:, -1] = 0.0, 1.0
    add, sub, mul = np.add, np.subtract, np.multiply
    peak = nl.argmax  # the index of the largest entry, or of the first nan
    n_snap = w_snap.shape[0]

    def decided(j, w, v):
        x = 0.5 * (np.dot(w, weights) + np.dot(v, weights) / k) - shift
        n_plus[j] = x
        return abs(x) > exit_n_plus

    if decided(0, w0, v0):
        return 1, 0, 3

    def level():
        """A zeroed (2, n) block and its views: w, w[:-1], the neighbour
        sums, and the right and left neighbours that they add (w[1:], and
        the phantom 0 followed by w[:-2])."""
        y = np.zeros((2, n))
        flat = y.reshape(2 * n)
        return y, y[1], y[1, :-1], y[0, :-1], flat[n + 1:], flat[n - 1:-2]

    # three rotating levels; the Taylor start steps w0 with the force at w0
    a, b, c = level(), level(), level()
    blk, bw, bh, bs, br, bl = b
    bw[:] = w0
    u = add(bh, bg, tot) if has_bg else bh
    mul(u, u, nl)
    mul(nl, nl, nl)
    mul(nl, u, nl)
    if has_bg:
        sub(nl, bg5, nl)
    mul(nl, force, nl)
    add(br, bl, bs)
    mul(blk, coef, c[0])
    c[2][:] = bh + dt * v0[:-1] + 0.5 * (c[3] - 2.0 * c2 * bh + nl)
    a, b, c = b, c, a

    snap = 1
    pend = -1
    step = 1
    while True:
        blk, bw, bh, bs, br, bl = b
        u = add(bh, bg, tot) if has_bg else bh
        mul(u, u, nl)
        if not nl[peak()] <= bound:
            mul(u, ir, psi)
            np.abs(psi, psi)
            if not psi.max() <= fast_cap:
                if not np.all(np.isfinite(bh)):
                    return snap, step, 2
                if np.any(psi > psi_cap):
                    return snap, step, 1

        if step % stride == 0 and snap < n_snap:
            w_snap[snap] = bw
            pend = snap
            snap += 1

        if step >= n_steps and pend < 0:
            return snap, n_steps, 0

        mul(nl, nl, nl)
        mul(nl, u, nl)
        if has_bg:
            sub(nl, bg5, nl)
        mul(nl, force, nl)
        add(br, bl, bs)
        cblk, cw, ch, cs = c[:4]
        mul(blk, coef, cblk)
        sub(ch, a[2], ch)
        add(ch, cs, ch)
        add(ch, nl, ch)

        if pend >= 0:
            v = v_snap[pend]
            sub(cw, a[1], v)
            np.divide(v, 2.0 * dt, v)
            if decided(pend, w_snap[pend], v):
                return snap, step, 3
            pend = -1
        if step >= n_steps:
            return snap, n_steps, 0
        a, b, c = b, c, a
        step += 1
