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

from .errors import BracketError, ConvergenceError, SingularSolveError
from .radial import (assemble_channel_operator, inner_3d, integrate,
                     make_grid, solve_shifted)
from .solitons import NlsGroundState, d_alpha_ground_state, nls_ground_state
from .spectral import (count_eigenvalues_below, edge_diagnosis,
                       eigenvalue_by_index)


@dataclass(frozen=True)
class LinearizedPair:
    profile: NlsGroundState
    L_plus: dict = field(repr=False)
    L_minus: dict = field(repr=False)
    alpha_sq: float = 0.0

    def channels(self):
        return sorted(self.L_plus.keys())


@dataclass(frozen=True)
class GapReport:
    """Per-operator, per-channel spectrum inside (0, alpha^2) plus edge flags.

    eigenvalues maps operator name -> {ell: [values]}; a weakly bound state
    detected only through the edge asymptote (crossing beyond r_max) is
    reported with its binding estimate.  gap_holds is True exactly when all
    lists are empty and all edge flags are False.
    """

    sigma: float
    alpha_sq: float
    eigenvalues: dict
    edge_resonance: dict
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
    crossing).
    """
    a2 = pair.alpha_sq
    lo = 0.01 * a2
    eigs = {"L_plus": {}, "L_minus": {}}
    flags = {"L_plus": {}, "L_minus": {}}
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
            if found or diag["edge_resonance"]:
                holds = False
    return GapReport(sigma=pair.profile.sigma, alpha_sq=a2,
                     eigenvalues=eigs, edge_resonance=flags, gap_holds=holds)


@dataclass(frozen=True)
class SigmaStarConfig:
    alpha: float = 1.0
    d: int = 3
    r_max_over_alpha: float = 40.0
    n: int = 3000
    ells: tuple = (0, 1)


def gap_holds_at(sigma: float, config: SigmaStarConfig = SigmaStarConfig()) -> bool:
    """Shoot a fresh ground state at this sigma and evaluate the gap."""
    g = make_grid(config.r_max_over_alpha / config.alpha, config.n)
    profile = nls_ground_state(sigma, config.alpha, config.d, g)
    return gap_scan(assemble_linearized_pair(profile, config.ells)).gap_holds


def sigma_star(bracket, tol: float = 1e-3,
               config: SigmaStarConfig = SigmaStarConfig()) -> float:
    """Bisect sigma for the gap-property breakdown point.

    Requires the gap to fail at bracket[0] and hold at bracket[1]; each
    evaluation shoots a fresh ground state on the configured grid.  Stops
    at width tol or at float64 resolution; a nan or negative tol raises
    ValueError.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"empty bracket ({lo}, {hi})")
    if gap_holds_at(lo, config):
        raise BracketError(f"gap already holds at sigma = {lo}")
    if not gap_holds_at(hi, config):
        raise BracketError(f"gap still fails at sigma = {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap_holds_at(mid, config):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
    LAPACK bisection.  Each f is one tridiagonal solve, with derivative
    f' = |(L_plus - mu)^(-1) q|^2; the root is found by Newton steps kept
    inside the sign bracket, bisecting when a step leaves it.
    """
    op = pair.L_plus[0]
    q = pair.profile.grid.nodes * pair.profile.samples
    q = q / np.linalg.norm(q)
    lo, hi = eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True,
                              select="i", select_range=(0, 1), tol=1e-300)
    mu = 0.5 * (lo + hi)
    for _ in range(100):
        x = solve_shifted(op, mu, q)
        f = float(q @ x)
        if f == 0.0:
            return float(mu)
        if f < 0.0:
            lo = mu
        else:
            hi = mu
        step = mu - f / float(x @ x)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - mu) <= 4.0 * np.spacing(abs(mu) + 1.0):
            return float(step)
        mu = step
    raise ConvergenceError("mu0 secular iteration did not converge")


def instability_criterion(sigma: float, d: int) -> dict:
    """Mass-scaling exponent 2/sigma - d; negative slope means unstable."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    exponent = 2.0 / sigma - d
    return {"unstable": exponent < 0.0, "mass_scaling_exponent": exponent}
