"""Static profiles: the closed-form quintic-wave soliton family and shot
NLS ground states.

The wave soliton family is explicit,

    phi(r, a) = (3a)^(1/4) (1 + a r^2)^(-1/2),       a > 0,

with linearization potential V = -5 phi^4 and dilation derivative
d_a phi = (3a)^(1/4) (1 - a r^2) / (4 a (1 + a r^2)^(3/2)).  NLS ground
states of (alpha^2 - Laplacian) phi = phi^(2 sigma + 1) have no closed form
and are shot on phi(0) by radial.bracketed_root to 1e-12 or float resolution.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import rk4_friction, rk4_shoot
from .errors import ConvergenceError
from .radial import RadialGrid, bracketed_root

_OVERSHOOT = 1  # rk4_shoot's status of a shot that crossed zero


def aubin_phi(r, a: float):
    """phi(r, a) of the quintic-wave soliton family."""
    return (3.0 * a) ** 0.25 / np.sqrt(1.0 + a * r * r)


def aubin_dphi_da(r, a: float):
    """Exact a-derivative of phi(r, a); behaves like 1/r at infinity."""
    return (3.0 * a) ** 0.25 * (1.0 - a * r * r) / (
        4.0 * a * (1.0 + a * r * r) ** 1.5)


def aubin_dphi_dr(r, a: float):
    """Radial derivative of phi(r, a) (the ell = 1 zero-mode profile)."""
    return -(3.0 * a) ** 0.25 * a * r / (1.0 + a * r * r) ** 1.5


def aubin_potential(r, a: float):
    """Linearization potential V = -5 phi^4 = -15 a (1 + a r^2)^(-2)."""
    return -15.0 * a / (1.0 + a * r * r) ** 2


def aubin_values(a: float, grid: RadialGrid) -> dict:
    """Sample phi, d_a phi, and V = -5 phi^4 on the grid."""
    if not 0.0 < a < math.inf:
        raise ValueError(
            f"dilation parameter must be positive and finite, got {a}")
    r = grid.nodes
    return {
        "phi": aubin_phi(r, a),
        "dphi_da": aubin_dphi_da(r, a),
        "potential": aubin_potential(r, a),
    }


@dataclass(frozen=True)
class NlsGroundState:
    """A shot ground state of (alpha^2 - Laplacian) phi = phi^(2 sigma + 1)."""

    sigma: float
    alpha: float
    d: int
    grid: RadialGrid
    samples: np.ndarray = field(repr=False)
    center_value: float = 0.0
    decay_rate: float = 0.0


def _shoot_once(b, alpha, sigma, d, h, fric):
    phi = np.empty(len(fric[0]) + 1)
    status, stop = rk4_shoot(b, alpha * alpha, sigma, float(d), h, fric, phi)
    return phi, status, stop


def _find_bracket(alpha, sigma, d, h, fric):
    """Scan upward from just above the rest value for an under/over pair."""
    base = alpha ** (1.0 / sigma)
    lo = None
    b = 1.05 * base
    for _ in range(200):
        _, status, _ = _shoot_once(b, alpha, sigma, d, h, fric)
        if status == _OVERSHOOT:
            if lo is not None:
                return lo, b
            # overshoot straight away: back off to find an undershoot
            hi = b
            b_down = b / 1.02
            for _ in range(400):
                _, status, _ = _shoot_once(b_down, alpha, sigma, d, h, fric)
                if status != _OVERSHOOT:
                    return b_down, hi
                hi = b_down
                b_down /= 1.02
            break
        lo = b
        b *= 1.3
    raise ConvergenceError(
        f"no shooting bracket found for sigma={sigma}, alpha={alpha}, d={d}")


def _splice_tail(phi, status, stop, alpha, d, nodes):
    """Replace the post-breakdown tail by the linear asymptotic profile.

    Beyond the point where the shot solution stops decreasing (growing
    admixture ~ bracket width) the true state satisfies the free equation to
    exponential accuracy: r^((d-1)/2) phi ~ A exp(-alpha r).  The splice
    point is pulled a little inward from the breakdown node.
    """
    n = nodes.shape[0]
    if status == 0 and phi[n - 1] > 0.0 and phi[n - 1] < phi[0] * 1e-12:
        return phi
    cut = max(int(0.9 * stop), 8)
    # back off while the solution is not cleanly decaying
    while cut > 8 and not (phi[cut] > 0.0 and phi[cut] < phi[cut - 1]):
        cut -= 1
    r_c = nodes[cut]
    amp = phi[cut] * r_c ** ((d - 1) / 2.0) * math.exp(alpha * r_c)
    tail = nodes[cut + 1:]
    phi = phi.copy()
    phi[cut + 1:] = amp * np.exp(-alpha * tail) / tail ** ((d - 1) / 2.0)
    return phi


def nls_ground_state(sigma: float, alpha: float, d: int,
                     grid: RadialGrid) -> NlsGroundState:
    """Ground state by bisection shooting on phi(0).

    Overshoot (a zero crossing) means phi(0) was too large, undershoot
    (phi' turning positive) too small; radial.bracketed_root halves the
    bracket to width 1e-12 or float64 resolution, and the midpoint profile,
    its breakdown tail replaced by the exponential asymptote, is returned.
    Every shot reads one friction table, _kernels.rk4_friction of the grid,
    made once per call.  A shot or tail past the float64 range (a large
    alpha on a coarse grid, or alpha^(1/sigma) itself) raises
    ConvergenceError.
    """
    if d not in (1, 3):
        raise ValueError(f"dimension must be 1 or 3, got {d}")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if d == 3 and not sigma < 2.0:
        raise ValueError(f"need sigma < 2 in d = 3, got {sigma}")
    # numpy scalars would make every shot step in numpy scalar arithmetic,
    # about 3x slower, and overflow to inf with a warning
    sigma, alpha = float(sigma), float(alpha)
    h = grid.h
    fric = rk4_friction(float(d), h, grid.n)
    try:
        lo, hi = _find_bracket(alpha, sigma, d, h, fric)
        b = bracketed_root(
            lambda c: (_shoot_once(c, alpha, sigma, d, h, fric)[1]
                       == _OVERSHOOT, None), lo, hi, 1e-12)[0]
        phi, status, stop = _shoot_once(b, alpha, sigma, d, h, fric)
        phi = _splice_tail(phi, status, stop, alpha, d, grid.nodes)
    except OverflowError as exc:
        raise ConvergenceError(
            f"shooting overflowed float64 at step h={h:g}, alpha={alpha:g} "
            f"(sigma={sigma:g})") from exc
    if np.any(phi <= 0.0):
        raise ConvergenceError(
            "shot profile has a zero after tail splicing; widen the grid")
    # decay rate from the linear tail of r^((d-1)/2) phi
    win = grid.nodes >= 0.6 * grid.r_max
    reduced = np.log(phi[win] * grid.nodes[win] ** ((d - 1) / 2.0))
    x = grid.nodes[win] - grid.nodes[win].mean()
    rate = -float(np.dot(x, reduced - reduced.mean()) / np.dot(x, x))
    return NlsGroundState(sigma=sigma, alpha=alpha, d=int(d),
                          grid=grid, samples=phi, center_value=float(b),
                          decay_rate=rate)


def d_alpha_ground_state(profile: NlsGroundState) -> np.ndarray:
    """d phi / d alpha by centered differencing (step 1e-4 alpha) of fresh shots."""
    da = 1e-4 * profile.alpha
    up = nls_ground_state(profile.sigma, profile.alpha + da, profile.d,
                          profile.grid)
    dn = nls_ground_state(profile.sigma, profile.alpha - da, profile.d,
                          profile.grid)
    return (up.samples - dn.samples) / (2.0 * da)
