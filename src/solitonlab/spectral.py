"""Half-line spectral analysis: bound states, node counts, zero-energy
classification, and Birman-Schwinger counting.

Eigenvalues of the tridiagonal channel operators are located by bisection
on Sturm sign counts (exact counting, mirroring the oscillation-theory
argument that underpins every spectral claim here) and eigenvectors by
inverse iteration.  The Birman-Schwinger section assembles the explicit
zero-energy kernel min(r,s)^(l+1) max(r,s)^(-l) / (2l+1) per channel and
counts eigenvalues >= 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import inverse_iteration, shoot_count, shoot_solution, sturm_count
from .errors import ConvergenceError, NumericsError, TailFitError
from .radial import (ChannelOperator, RadialGrid, apply_operator,
                     fit_loglog_slope, integrate)


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

    Counts over the interior Dirichlet block (the pinned truncation row
    contributes only its huge positive diagonal, irrelevant below it).
    """
    return sturm_count(op.diagonal, op.off_diagonal, energy)


def count_nodes(op: ChannelOperator, energy: float) -> int:
    """Interior sign changes of the regular solution of (op - E) w = 0.

    Equals the number of eigenvalues below `energy` by discrete oscillation
    theory; the shooting recurrence renormalizes on overflow, so deeply
    negative energies are safe.
    """
    h2 = op.h ** 2
    return shoot_count(op.diagonal[:-1] * h2, energy * h2)


def regular_solution(op: ChannelOperator, energy: float) -> np.ndarray:
    """Regular (w(0) = 0 branch) shooting solution of (op - E) w = 0."""
    h2 = op.h ** 2
    out = np.empty(op.grid.n)
    shoot_solution(op.diagonal * h2, energy * h2, out)
    return out


def _bisect_eigenvalue(diag, off, index: int, lo: float, hi: float,
                       tol: float) -> float:
    """Bisect for the eigenvalue with `index` eigenvalues strictly below."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sturm_count(diag, off, mid) >= index + 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def eigenvalue_by_index(op: ChannelOperator, index: int,
                        tol: float = 1e-13) -> float:
    """The index-th smallest eigenvalue (0-based) by Sturm bisection."""
    bound = float(np.max(np.abs(op.diagonal)) + 2.0 / op.h ** 2)
    e = _bisect_eigenvalue(op.diagonal, op.off_diagonal, index,
                           -bound, bound, tol * (1.0 + bound) * 1e-3)
    return _bisect_eigenvalue(op.diagonal, op.off_diagonal, index,
                              e - 1.0, e + 1.0, tol)


def eigenvector_at(op: ChannelOperator, energy: float,
                   iters: int = 4) -> np.ndarray:
    """Inverse-iteration eigenvector nearest `energy`, quadrature-normalized."""
    r = op.grid.nodes
    seed = r * np.exp(-np.sqrt(abs(energy) + 1.0) * r)
    v = inverse_iteration(op.diagonal, op.off_diagonal,
                          energy + 1e-11 * (1.0 + abs(energy)), seed, iters)
    nrm = math.sqrt(integrate(op.grid, v * v))
    if not np.isfinite(nrm) or nrm == 0.0:
        raise ConvergenceError("inverse iteration collapsed")
    return v / nrm


def _count_sign_changes(v: np.ndarray) -> int:
    s = np.sign(v[np.abs(v) > 1e-9 * np.abs(v).max()])
    return int(np.sum(s[1:] != s[:-1]))


def negative_eigenpairs(op: ChannelOperator) -> list[EigenPair]:
    """All negative eigenvalues with vectors, validated by node count.

    The ground state (node count 0) is returned positive-normalized.
    Raises ConvergenceError if a vector's residual or node count is
    inconsistent with its Sturm index.
    """
    m = count_eigenvalues_below(op, 0.0)
    pairs = []
    for idx in range(m):
        e = eigenvalue_by_index(op, idx)
        v = eigenvector_at(op, e)
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


def zero_energy_diagnosis(op: ChannelOperator, window: float = 0.7,
                          threshold: float = 1e-3,
                          band: float = None) -> ZeroEnergyDiagnosis:
    """Integrate the zero-energy regular solution outward and classify it.

    The tail on [window * r_max, r_max] is fitted against {r, 1, 1/r}
    after normalizing the solution to unit sup there:

      resonance    |c_r| below threshold, |c_1| above
      eigenvalue   |c_r| and |c_1| both below threshold
      none         otherwise (generic linear growth)

    A discrete zero mode does not sit exactly at 0 but at O(h^2); shooting
    at exactly 0 then picks up the growing branch, which pollutes the tail
    on any window.  When the operator has an eigenvalue inside (-band,
    band) - with band chosen below the first truncation ("box") level
    (pi/r_max)^2 - the shot is taken at that eigenvalue instead.

    Raises TailFitError when the fit residual exceeds 5% of the window sup
    (enlarge r_max).
    """
    g = op.grid
    if band is None:
        band = min(1e-3, 0.4 * (np.pi / g.r_max) ** 2)
    energy = 0.0
    n_lo = count_eigenvalues_below(op, -band)
    n_hi = count_eigenvalues_below(op, band)
    if n_hi > n_lo:
        energy = _bisect_eigenvalue(op.diagonal, op.off_diagonal, n_lo,
                                    -band, band, 1e-14)
    w = regular_solution(op, energy)
    mask = g.nodes >= window * g.r_max
    r_win = g.nodes[mask]
    scale = np.abs(w[mask]).max()
    if scale == 0.0:
        raise TailFitError("zero-energy solution vanished on the fit window")
    w_win = w[mask] / scale
    basis = [lambda r: r, np.ones_like, lambda r: 1.0 / r]
    if n_hi > n_lo and op.ell >= 1:
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
    if n_hi > n_lo and decay_slope < -0.5:
        kind = "eigenvalue"
    elif abs(c_r) < threshold and abs(c_1) > threshold:
        kind = "resonance"
    elif abs(c_r) < threshold and abs(c_1) <= threshold:
        kind = "eigenvalue"
    else:
        kind = "none"
    w_scaled = w / scale
    v_int = 4.0 * np.pi * integrate(g, op.potential * w_scaled * g.nodes)
    return ZeroEnergyDiagnosis(kind=kind, solution=w_scaled,
                               tail_slope=float(c_r), tail_const=float(c_1),
                               v_integral=v_int, fit_residual=resid)


def edge_diagnosis(op: ChannelOperator, edge: float,
                   window: float = 0.7, threshold: float = 1e-3) -> dict:
    """Tail diagnosis of the regular solution at the essential-spectrum edge.

    For exponentially short-range potentials the edge-energy solution is
    asymptotically c_1 + c_r r.  Reports the resonance flag (bounded
    solution: c_r negligible) and whether the fitted asymptote crosses zero
    beyond r_max, which signals a weakly bound eigenvalue the truncated
    interval cannot resolve (crossing radius ~ 1/binding rate).
    """
    g = op.grid
    w = regular_solution(op, edge)
    ncross = _count_sign_changes(w)
    mask = g.nodes >= window * g.r_max
    r_win = g.nodes[mask]
    scale = np.abs(w[mask]).max()
    w_win = w[mask] / scale
    (c_1, c_r), resid = _tail_fit(r_win, w_win, [np.ones_like, lambda r: r])
    resonance = abs(c_r) * g.r_max < threshold * abs(c_1)
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


def birman_schwinger_count(potential: np.ndarray, ell_max: int,
                           grid: RadialGrid,
                           threshold_eps: float = 1e-3) -> BirmanSchwingerReport:
    """Eigenvalues >= 1 - eps of the Birman-Schwinger operator per channel.

    The total weights channel l by its angular multiplicity 2l + 1; it
    counts zero-energy bound states and threshold modes of -Lap + V.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (grid.n,):
        raise ValueError("potential length does not match the grid")
    if potential.max() > 1e-12:
        raise ValueError("Birman-Schwinger counting expects V <= 0")
    counts = []
    tops = []
    for ell in range(ell_max + 1):
        K = birman_schwinger_matrix(potential, ell, grid)
        eigs = np.linalg.eigvalsh(K)[::-1]
        counts.append(int(np.sum(eigs >= 1.0 - threshold_eps)))
        tops.append([float(e) for e in eigs[:4]])
    total = sum((2 * ell + 1) * c for ell, c in enumerate(counts))
    return BirmanSchwingerReport(channel_counts=counts,
                                 total_with_multiplicity=total,
                                 top_eigenvalues=tops,
                                 threshold_eps=threshold_eps)
