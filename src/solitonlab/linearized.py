"""Linearized NLS machinery: the operator pair around a ground state, gap
scans over (0, alpha^2], the critical exponent where the gap fails, and the
variational instability functionals.

Around a ground state phi of (alpha^2 - Lap) phi = phi^(2 sigma + 1) the
linearization splits into

    L_minus = -Lap + alpha^2 - phi^(2 sigma)
    L_plus  = -Lap + alpha^2 - (2 sigma + 1) phi^(2 sigma)

realized here as half-line channel operators.  The gap question is whether
either operator has an eigenvalue in (0, alpha^2] or a resonance at the
edge; scanning sigma locates the breakdown point near 0.914.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import BracketError, SingularSolveError
from .radial import (assemble_channel_operator, bracketed_root, inner_3d,
                     integrate, make_grid, solve_shifted)
from .solitons import NlsGroundState, d_alpha_ground_state, nls_ground_state
from .spectral import (_TAIL_THRESHOLD, count_eigenvalues_below,
                       edge_diagnosis, eigenvalue_by_index)


@dataclass(frozen=True)
class LinearizedPair:
    profile: NlsGroundState
    L_plus: dict = field(repr=False)
    L_minus: dict = field(repr=False)
    alpha_sq: float = 0.0


@dataclass(frozen=True)
class GapReport:
    """Per-operator, per-channel spectrum inside (0, alpha^2) plus edge flags.

    eigenvalues maps operator name -> {ell: [values]}; a weakly bound state
    detected only through the edge asymptote (crossing beyond r_max) is
    reported with its binding estimate.  tail_ratios holds each channel's
    edge tail ratio c_linear/c_const from spectral.edge_diagnosis (nan when
    c_const is 0); the edge flag is set where its modulus is below
    1e-3/r_max.  gap_holds is True exactly when all lists are empty and all
    edge flags are False.
    """

    sigma: float
    alpha_sq: float
    eigenvalues: dict
    edge_resonance: dict
    tail_ratios: dict
    gap_holds: bool


def assemble_linearized_pair(profile: NlsGroundState,
                             ells=(0, 1)) -> LinearizedPair:
    """Channel operators for L_plus and L_minus over the requested ells."""
    g = profile.grid
    a2 = profile.alpha ** 2
    phi_2s = profile.samples ** (2.0 * profile.sigma)
    lp = {}
    lm = {}
    for ell in ells:
        lp[ell] = assemble_channel_operator(
            g, ell, a2 - (2.0 * profile.sigma + 1.0) * phi_2s)
        lm[ell] = assemble_channel_operator(g, ell, a2 - phi_2s)
    return LinearizedPair(profile=profile, L_plus=lp, L_minus=lm, alpha_sq=a2)


def gap_scan(pair: LinearizedPair) -> GapReport:
    """Search (0, alpha^2] for eigenvalues and edge resonances of L_plus/minus.

    Eigenvalues between 0.01 alpha^2 (excluding the symmetry kernels that
    sit at 0 up to discretization) and the edge come from one
    LAPACK bisection over that window per operator and channel; the edge
    itself is probed by the tail asymptote of the edge-energy regular
    solution, which also exposes weakly bound states whose decay length
    exceeds r_max (reported with the binding estimate from the asymptote
    crossing).  The tail ratios come from the same edge solutions.
    """
    a2 = pair.alpha_sq
    lo = 0.01 * a2
    eigs = {"L_plus": {}, "L_minus": {}}
    flags = {"L_plus": {}, "L_minus": {}}
    ratios = {"L_plus": {}, "L_minus": {}}
    holds = True
    for name, ops in (("L_plus", pair.L_plus), ("L_minus", pair.L_minus)):
        for ell, op in ops.items():
            found = eigh_tridiagonal(
                op.diagonal, op.off_diagonal, eigvals_only=True, select="v",
                select_range=(lo, a2 * (1.0 - 1e-9)), tol=1e-300).tolist()
            diag = edge_diagnosis(op, a2)
            if diag["hidden_crossing"]:
                # asymptote crosses beyond r_max: binding rate ~ 1/|c1/cr|
                kappa = abs(diag["c_linear"] / diag["c_const"])
                found.append(a2 - kappa ** 2)
            eigs[name][ell] = found
            flags[name][ell] = diag["edge_resonance"]
            c_1 = diag["c_const"]
            ratios[name][ell] = diag["c_linear"] / c_1 if c_1 else np.nan
            if found or diag["edge_resonance"]:
                holds = False
    return GapReport(sigma=pair.profile.sigma, alpha_sq=a2,
                     eigenvalues=eigs, edge_resonance=flags,
                     tail_ratios=ratios, gap_holds=holds)


@dataclass(frozen=True)
class SigmaStarConfig:
    """The ground states of a sigma_star search: frequency alpha, dimension
    d, grid make_grid(r_max, n), and the channels ells of the gap scan."""

    alpha: float = 1.0
    d: int = 3
    r_max: float = 40.0
    n: int = 3000
    ells: tuple = (0, 1)


def gap_side_at(sigma: float, config: SigmaStarConfig = SigmaStarConfig()):
    """Shoot a fresh ground state at this sigma; return (gap_holds, d).

    d estimates sigma - sigma*: the L_plus ell = 0 edge tail ratio less the
    resonance threshold 1e-3/r_max, where gap_holds flips.  The ratio
    passes through it with slope near 1 in sigma (about -0.10 at 0.8 and
    +0.09 at 1.0 at the default grid).  d is None when config.ells has no
    0 or the ratio is not finite.
    """
    g = make_grid(config.r_max, config.n)
    profile = nls_ground_state(sigma, config.alpha, config.d, g)
    report = gap_scan(assemble_linearized_pair(profile, config.ells))
    ratio = report.tail_ratios["L_plus"].get(0, np.nan)
    d = ratio - _TAIL_THRESHOLD / g.r_max if np.isfinite(ratio) else None
    return report.gap_holds, d


def sigma_star(bracket, tol: float = 1e-3,
               config: SigmaStarConfig = SigmaStarConfig()) -> float:
    """The gap-property breakdown point, to within tol.

    Requires the gap to fail at bracket[0] and hold at bracket[1].  Every
    evaluation, both ends included, is one gap_side_at call, which shoots a
    fresh ground state on the configured grid.  radial.bracketed_root
    shrinks the bracket on the side gap_holds gives, steered by the
    estimate d of sigma - sigma* (plain bisection where d is None), and
    stops at width tol or at float64 resolution; the result is the
    midpoint of a final bracket where the gap fails at the lower end and
    holds at the upper.  A tol that is nan, negative or infinite, a
    bracket end that is not finite, and an alpha that is not positive and
    finite, raise ValueError before the first evaluation.

    A tol below about 1e-11 buys ground states, not digits: the gap side
    flips more than once within about 5e-13 of sigma* (d is noise there),
    so a tol = 0 search ends on adjacent floats somewhere in that band.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    if not 0.0 < config.alpha < np.inf:
        raise ValueError(f"need 0 < alpha < inf, got {config.alpha}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise BracketError(f"empty bracket ({lo}, {hi})")
    if gap_side_at(lo, config)[0]:
        raise BracketError(f"gap already holds at sigma = {lo}")
    if not gap_side_at(hi, config)[0]:
        raise BracketError(f"gap still fails at sigma = {hi}")
    return bracketed_root(lambda s: gap_side_at(s, config), lo, hi, tol)[0]


def weinstein_h(pair: LinearizedPair, mu: float) -> float:
    """h(mu) = <(L_plus - mu)^{-1} phi, phi> in the radial channel.

    mu must lie strictly between the unique negative eigenvalue of the
    radial L_plus and the essential edge alpha^2; at mu = 0 the radial
    solve is regular because the kernel of L_plus lives in ell = 1.
    """
    op = pair.L_plus[0]
    g = pair.profile.grid
    e_neg = eigenvalue_by_index(op, 0)
    if not e_neg < mu < pair.alpha_sq:
        raise ValueError(
            f"mu = {mu} outside the admissible window ({e_neg:.6g}, {pair.alpha_sq:.6g})")
    delta = 1e-9 * (1.0 + abs(mu))
    if count_eigenvalues_below(op, mu + delta) != count_eigenvalues_below(op, mu - delta):
        raise SingularSolveError(f"mu = {mu} collides with an eigenvalue of L_plus")
    w_phi = g.nodes * pair.profile.samples
    x = solve_shifted(op, mu, w_phi)
    return 4.0 * np.pi * integrate(g, x * w_phi)


def weinstein_h_from_scaling(pair: LinearizedPair) -> float:
    """The identity route h(0) = -(1/2 alpha) <d_alpha phi, phi>."""
    p = pair.profile
    dphi = d_alpha_ground_state(p)
    return -0.5 / p.alpha * inner_3d(p.grid, dphi, p.samples)


def mu0(pair: LinearizedPair) -> float:
    """Smallest eigenvalue of the radial L_plus restricted to phi-orthogonal.

    With q = r phi / |r phi| the constrained eigenvalues are the roots of
    the secular function f(mu) = q^T (L_plus - mu)^(-1) q (Golub 1973;
    Weinstein 1986).  f increases between its poles, so mu0 is its unique
    root between the two lowest eigenvalues of L_plus, which come from
    LAPACK bisection.  radial.bracketed_root shrinks that bracket on the
    sign of f, steered by the Newton estimate f/f' of mu - mu0, where
    f' = |(L_plus - mu)^(-1) q|^2; each call is one tridiagonal solve, and
    a mu whose estimate is within four ulps of the bracket's scale is the
    root.  The solve resolves mu only to the ulp of the diagonal (2^-39,
    about 1.8e-12, on make_grid(40, 3000)), so f is a step function of mu;
    where Newton steps would creep along one flat step, bracketed_root
    takes a midpoint after three calls on one side.
    """
    op = pair.L_plus[0]
    q = pair.profile.grid.nodes * pair.profile.samples
    q = q / np.linalg.norm(q)
    lo, hi = eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True,
                              select="i", select_range=(0, 1), tol=1e-300)
    tol = 4.0 * np.spacing(max(abs(lo), abs(hi)) + 1.0)

    def side(mu):
        x = solve_shifted(op, mu, q)
        d = float(q @ x) / float(x @ x)
        return (d > 0.0 if abs(d) > tol else None), d

    return float(bracketed_root(side, lo, hi, tol)[0])


def instability_criterion(sigma: float, d: int) -> dict:
    """Mass-scaling exponent 2/sigma - d; negative slope means unstable."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    exponent = 2.0 / sigma - d
    return {"unstable": exponent < 0.0, "mass_scaling_exponent": exponent}
