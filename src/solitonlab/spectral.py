"""Half-line spectral analysis: bound states, node counts, zero-energy
classification, and Birman-Schwinger counting.

Bound states are counted by Sturm sign counts and by the sign flips of
the regular shooting solution, the same recurrence that the zero-energy
and edge diagnoses read (exact counting, mirroring the oscillation-theory
argument that underpins every spectral claim here); eigenvalue_by_index
is a Sturm bisection by radial.bisect, which stops at its tolerance or
at float resolution; eigenpairs and the eigenvalues in a window come
from LAPACK's tridiagonal bisection and inverse iteration
(stebz/stein).  The Birman-Schwinger section counts
eigenvalues near or above 1 of the explicit zero-energy kernel
min(r,s)^(l+1) max(r,s)^(-l) / (2l+1) per channel.  That kernel is a
semiseparable (Green's) matrix whose inverse is exactly tridiagonal
(Gantmacher-Krein), so the count is one Sturm count of the inverse and
the leading eigenvalues come from LAPACK's tridiagonal bisection; the dense
kernel, birman_schwinger_matrix, is kept as the paper's formula.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._kernels import shoot_solution, sturm_count
from .errors import ConvergenceError, NumericsError, TailFitError
from .radial import (ChannelOperator, RadialGrid, apply_operator, bisect,
                     fit_loglog_slope, integrate)

# tail fits on [_TAIL_WINDOW r_max, r_max]; coefficients below _TAIL_THRESHOLD vanish
_TAIL_WINDOW = 0.7
_TAIL_THRESHOLD = 1e-3


@dataclass(frozen=True)
class EigenPair:
    energy: float
    vector: np.ndarray = field(repr=False)
    node_count: int = 0


@dataclass(frozen=True)
class ZeroEnergyDiagnosis:
    """Classification of the zero-energy regular solution.

    kind is "resonance" when the solution approaches a nonzero constant
    (no linear growth), "eigenvalue" when both the linear and constant
    parts vanish (pure 1/r decay), "none" otherwise.  tail_slope/tail_const
    are the fitted coefficients of r and 1; v_integral is the
    three-dimensional integral of V times the solution-over-r.
    """

    kind: str
    solution: np.ndarray = field(repr=False)
    tail_slope: float = 0.0
    tail_const: float = 0.0
    v_integral: float = 0.0
    fit_residual: float = 0.0


def count_eigenvalues_below(op: ChannelOperator, energy: float) -> int:
    """Sturm count of operator eigenvalues strictly below `energy`.

    Counts over the interior Dirichlet block: the pinned truncation row
    (its huge positive diagonal, decoupled) is left out, as in count_nodes.
    """
    return sturm_count(op.diagonal[:-1], op.off_diagonal[:-1], energy)


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


def regular_solution(op: ChannelOperator, energy: float) -> np.ndarray:
    """Regular (w(0) = 0 branch) shooting solution of (op - E) w = 0."""
    h2 = op.h ** 2
    return shoot_solution(op.diagonal * h2, energy * h2)


def eigenvalue_by_index(op: ChannelOperator, index: int) -> float:
    """The index-th smallest eigenvalue (0-based) by Sturm bisection.

    radial.bisect halves the Gershgorin interval with sturm_count (Barth,
    Martin and Wilkinson 1967) to width 1e-13 or to float64 resolution, so
    an eigenvalue whose ulp exceeds 1e-13 still ends the search.
    """
    bound = float(np.max(np.abs(op.diagonal)) + 2.0 / op.h ** 2)
    return bisect(
        lambda x: sturm_count(op.diagonal, op.off_diagonal, x) >= index + 1,
        -bound, bound, 1e-13)


def _count_sign_changes(v: np.ndarray) -> int:
    s = np.sign(v[np.abs(v) > 1e-9 * np.abs(v).max()])
    return int(np.sum(s[1:] != s[:-1]))


def negative_eigenpairs(op: ChannelOperator) -> list[EigenPair]:
    """All negative eigenvalues with vectors, validated by node count.

    The Sturm count below 0 fixes how many; the values and vectors come
    from one LAPACK call (bisection to full precision, then inverse
    iteration), and each vector is quadrature-normalized with its largest
    entry positive, so the ground state (node count 0) is positive.
    Raises ConvergenceError if a vector's residual or node count is
    inconsistent with its Sturm index.
    """
    m = count_eigenvalues_below(op, 0.0)
    if m == 0:
        return []
    evals, evecs = eigh_tridiagonal(op.diagonal, op.off_diagonal, select="i",
                                    select_range=(0, m - 1), tol=1e-300)
    pairs = []
    for idx in range(m):
        e = float(evals[idx])
        v = evecs[:, idx] / np.sqrt(integrate(op.grid, evecs[:, idx] ** 2))
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        nodes = _count_sign_changes(v)
        if nodes != idx:
            raise ConvergenceError(
                f"eigenvector at E={e:.6g} has {nodes} nodes, expected {idx}")
        resid = np.linalg.norm(apply_operator(op, v) - e * v)
        if resid > 1e-8 * (abs(e) + 1.0) * np.linalg.norm(v):
            raise ConvergenceError(
                f"eigenpair residual {resid:.2e} too large at E={e:.6g}")
        pairs.append(EigenPair(energy=e, vector=v, node_count=nodes))
    return pairs


def _tail_fit(r, w, basis):
    """Least-squares fit of w against the given tail basis functions."""
    A = np.stack([b(r) for b in basis], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, w, rcond=None)
    resid = float(np.abs(A @ coef - w).max())
    return coef, resid


def zero_energy_diagnosis(op: ChannelOperator) -> ZeroEnergyDiagnosis:
    """Integrate the zero-energy regular solution outward and classify it.

    The tail on [0.7 r_max, r_max] is fitted against {r, 1, 1/r} after
    normalizing the solution to unit sup there:

      resonance    |c_r| below 1e-3, |c_1| above
      eigenvalue   |c_r| and |c_1| both below 1e-3
      none         otherwise (generic linear growth)

    A discrete zero mode does not sit exactly at 0 but at O(h^2); shooting
    at exactly 0 then picks up the growing branch, which pollutes the tail
    on any window.  When the operator has an eigenvalue within
    min(1e-3, 0.4 (pi/r_max)^2) of 0, below the first truncation ("box")
    level (pi/r_max)^2, the shot is taken at that eigenvalue instead.

    Raises TailFitError when the fit residual exceeds 5% of the window sup
    (enlarge r_max).
    """
    g = op.grid
    band = min(1e-3, 0.4 * (np.pi / g.r_max) ** 2)
    in_band = eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True,
                               select="v", select_range=(-band, band),
                               tol=1e-300)
    energy = float(in_band[0]) if in_band.size else 0.0
    w = regular_solution(op, energy)
    mask = g.nodes >= _TAIL_WINDOW * g.r_max
    r_win = g.nodes[mask]
    scale = np.abs(w[mask]).max()
    if scale == 0.0:
        raise TailFitError("zero-energy solution vanished on the fit window")
    w_win = w[mask] / scale
    basis = [lambda r: r, np.ones_like, lambda r: 1.0 / r]
    if in_band.size and op.ell >= 1:
        # a truncated eigenvector bends to zero at r_max through the
        # channel's growing branch r^(ell+1); absorb that bend so it does
        # not masquerade as linear growth
        basis.append(lambda r: (r / g.r_max) ** (op.ell + 1))
    coefs, resid = _tail_fit(r_win, w_win, basis)
    c_r, c_1, c_0 = coefs[:3]
    if resid > 0.05:
        raise TailFitError(
            f"tail fit residual {resid:.3g}; window too small for this potential")
    # Classify.  An in-band eigenvalue whose shot solution decays on the
    # window is a zero-energy eigenvalue outright (the {r, 1, 1/r} basis is
    # nearly affine-degenerate on the window, so for deeply decaying
    # solutions the fitted coefficients are not trustworthy); otherwise the
    # fitted coefficients of the sup-normalized solution decide.
    slope_mask = mask & (g.nodes <= 0.92 * g.r_max)
    decay_slope = fit_loglog_slope(g.nodes[slope_mask],
                                   np.abs(w[slope_mask] / scale) + 1e-300)
    if in_band.size and decay_slope < -0.5:
        kind = "eigenvalue"
    elif abs(c_r) < _TAIL_THRESHOLD and abs(c_1) > _TAIL_THRESHOLD:
        kind = "resonance"
    elif abs(c_r) < _TAIL_THRESHOLD and abs(c_1) <= _TAIL_THRESHOLD:
        kind = "eigenvalue"
    else:
        kind = "none"
    w_scaled = w / scale
    v_int = 4.0 * np.pi * integrate(g, op.potential * w_scaled * g.nodes)
    return ZeroEnergyDiagnosis(kind=kind, solution=w_scaled,
                               tail_slope=float(c_r), tail_const=float(c_1),
                               v_integral=v_int, fit_residual=resid)


def edge_diagnosis(op: ChannelOperator, edge: float) -> dict:
    """Tail diagnosis of the regular solution at the essential-spectrum edge.

    For exponentially short-range potentials the edge-energy solution is
    asymptotically c_1 + c_r r, fitted on [0.7 r_max, r_max].  Reports the
    resonance flag (bounded solution: |c_r| r_max below 1e-3 |c_1|) and
    whether the fitted asymptote crosses zero beyond r_max, which signals
    a weakly bound eigenvalue the truncated interval cannot resolve
    (crossing radius ~ 1/binding rate).
    """
    g = op.grid
    w = regular_solution(op, edge)
    ncross = _count_sign_changes(w)
    mask = g.nodes >= _TAIL_WINDOW * g.r_max
    r_win = g.nodes[mask]
    scale = np.abs(w[mask]).max()
    w_win = w[mask] / scale
    (c_1, c_r), resid = _tail_fit(r_win, w_win, [np.ones_like, lambda r: r])
    resonance = abs(c_r) * g.r_max < _TAIL_THRESHOLD * abs(c_1)
    hidden_crossing = (c_1 + c_r * g.r_max) * c_r < 0.0 and not resonance
    return {
        "crossings": int(ncross),
        "c_const": float(c_1),
        "c_linear": float(c_r),
        "edge_resonance": bool(resonance),
        "hidden_crossing": bool(hidden_crossing),
        "fit_residual": float(resid),
    }


@dataclass(frozen=True)
class BirmanSchwingerReport:
    channel_counts: list[int]
    total_with_multiplicity: int
    top_eigenvalues: list[list[float]]
    threshold_eps: float


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


def green_inverse(nodes: np.ndarray, ell: int):
    """(diagonal, off-diagonal) of the inverse of the channel Green matrix.

    G_ij = u(x_min) v(x_max), u = x^(l+1)/(2l+1), v = x^(-l), at increasing
    nodes x_1 < ... < x_m.  With d_i = u(x_(i+1)) v(x_i) - u(x_i) v(x_(i+1))
    the inverse is tridiagonal: off-diagonal -1/d_i, interior diagonal
    d(x_(i-1), x_(i+1)) / (d_(i-1) d_i), end rows u_2/(u_1 d_1) and
    v_(m-1)/(v_m d_(m-1)).  In the ratios rho_i = x_i/x_(i+1),
    p_i = rho_i^(2l+1) and e_i = 1 - p_i these read

        off-diagonal   -(2l+1) rho_i^(l+1) / (x_i e_i)
        diagonal       (2l+1)/x_i * (1/e_i + p_(i-1)/e_(i-1))

    with e_m = 1 and p_0 = 0 closing the end rows.  No power of x is
    formed, so nothing overflows for large l, and e_i comes from expm1 of
    log1p of the relative node gap, so close nodes lose no digits.
    """
    x = np.asarray(nodes, dtype=float)
    k = 2 * ell + 1
    log_gap = np.log1p(np.diff(x) / x[:-1])
    p = np.exp(-k * log_gap)
    e = -np.expm1(-k * log_gap)
    off = -k * np.exp(-(ell + 1) * log_gap) / (x[:-1] * e)
    diag = k / x * (np.append(1.0 / e, 1.0) + np.concatenate(([0.0], p / e)))
    return diag, off


def birman_schwinger_count(potential: np.ndarray, ell_max: int,
                           grid: RadialGrid,
                           threshold_eps: float = 1e-3) -> BirmanSchwingerReport:
    """Eigenvalues above 1 - eps of the Birman-Schwinger operator per channel.

    The total weights channel l by its angular multiplicity 2l + 1; it
    counts zero-energy bound states and threshold modes of -Lap + V.

    Works in O(n) per channel without forming the kernel.  On the support
    S of V the kernel is K = D G D with D^2 = |V| w, and G restricted to S
    is again a Green matrix, so K^(-1) = D^(-1) green_inverse(r_S) D^(-1) is
    tridiagonal.  The count is the Sturm count of K^(-1) below 1/(1 - eps)
    (eigenvalues of K strictly above 1 - eps; the closed count differs
    only on exact ties), and the top eigenvalues are the reciprocals of the
    smallest of K^(-1), from LAPACK bisection to full precision, padded
    with the zero eigenvalues off the support.  Raises NumericsError when
    a |V| w too small for float64 makes K^(-1) non-finite.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (grid.n,):
        raise ValueError("potential length does not match the grid")
    if potential.max() > 1e-12:
        raise ValueError("Birman-Schwinger counting expects V <= 0")
    if not 0.0 <= threshold_eps < 1.0:
        raise ValueError(f"threshold_eps must lie in [0, 1), got {threshold_eps}")
    if ell_max < 0:
        raise ValueError(f"ell_max must be non-negative, got {ell_max}")
    support = potential != 0.0
    nodes = grid.nodes[support]
    # at least 1/sqrt(5e-324), about 4.5e161: finite for every nonzero V
    d_inv = 1.0 / np.sqrt(np.abs(potential[support]) * grid.weights[support])
    n_top = min(4, nodes.size)
    counts = []
    tops = []
    for ell in range(ell_max + 1):
        if n_top == 0:
            counts.append(0)
            tops.append([0.0] * 4)
            continue
        diag, off = green_inverse(nodes, ell)
        with np.errstate(over="ignore"):
            diag = diag * d_inv * d_inv
            off = off * d_inv[:-1] * d_inv[1:]
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise NumericsError(
                f"Birman-Schwinger inverse not finite in channel {ell}")
        counts.append(sturm_count(diag, off, 1.0 / (1.0 - threshold_eps)))
        smallest = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                    select_range=(0, n_top - 1), tol=1e-300)
        tops.append([1.0 / float(s) for s in smallest] + [0.0] * (4 - n_top))
    total = sum((2 * ell + 1) * c for ell, c in enumerate(counts))
    return BirmanSchwingerReport(channel_counts=counts,
                                 total_with_multiplicity=total,
                                 top_eigenvalues=tops,
                                 threshold_eps=threshold_eps)
