"""Half-line grids, quadrature, and discrete radial Schroedinger operators.

Everything downstream works with the reduced field w(r) = r f(r) on a
uniform grid over (0, r_max].  A radial operator -f'' - (2/r) f' + ... in
three dimensions becomes -w'' + [l(l+1)/r^2 + V(r)] w on the half line with
a Dirichlet condition at r = 0, which is what ChannelOperator discretizes.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import tridiag_solve


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes i*h, i = 1..n, h = r_max/n, with quadrature weights.

    The weights are trapezoid weights on {0, h, ..., r_max} with the origin
    panel closed by nearest-node extrapolation (node 1 absorbs the phantom
    origin's half weight), so they sum to r_max exactly and integrate
    functions vanishing at the origin to O(h^2).
    """

    r_max: float
    n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return self.r_max / self.n


def make_grid(r_max: float, n: int) -> RadialGrid:
    """Build the uniform half-line grid on (0, r_max] with n nodes."""
    if not 0.0 < r_max < np.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if n < 16:
        raise ValueError(f"need at least 16 nodes, got {n}")
    h = r_max / n
    nodes = h * np.arange(1, n + 1)
    weights = np.full(n, h)
    weights[0] = 1.5 * h
    weights[-1] = 0.5 * h
    return RadialGrid(r_max=float(r_max), n=int(n), nodes=nodes, weights=weights)


@dataclass(frozen=True)
class ChannelOperator:
    """Symmetric tridiagonal -d^2/dr^2 + l(l+1)/r^2 + V(r), Dirichlet at 0.

    The truncation at r_max is Dirichlet as well: the last node is pinned
    (its row decouples, off-diagonal zero), so the first n-1 rows are
    exactly the interior Dirichlet discretization on (0, r_max).  The
    pinned row keeps a diagonal entry of order 2/h^2, far above every
    spectral window this package inspects.
    """

    grid: RadialGrid
    ell: int
    potential: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    off_diagonal: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return self.grid.h


def assemble_channel_operator(grid: RadialGrid, ell: int,
                              potential: np.ndarray) -> ChannelOperator:
    """Second-order central-difference discretization in channel ell."""
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (grid.n,):
        raise ValueError(
            f"potential has length {potential.shape}, grid has {grid.n} nodes")
    h2 = grid.h ** 2
    q = potential + ell * (ell + 1) / grid.nodes ** 2
    diagonal = 2.0 / h2 + q
    off_diagonal = np.full(grid.n - 1, -1.0 / h2)
    off_diagonal[-1] = 0.0
    return ChannelOperator(grid=grid, ell=int(ell), potential=potential,
                           diagonal=diagonal, off_diagonal=off_diagonal)


def apply_operator(op: ChannelOperator, v: np.ndarray) -> np.ndarray:
    """Tridiagonal matrix-vector product op @ v."""
    v = np.asarray(v, dtype=float)
    if v.shape != op.diagonal.shape:
        raise ValueError(
            f"vector has shape {v.shape}, operator has {op.diagonal.shape}")
    out = op.diagonal * v
    out[:-1] += op.off_diagonal * v[1:]
    out[1:] += op.off_diagonal * v[:-1]
    return out


def solve_shifted(op: ChannelOperator, shift: float,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve (op - shift) x = rhs (LAPACK gtsv, partial pivoting)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != op.diagonal.shape:
        raise ValueError(
            f"rhs has shape {rhs.shape}, operator has {op.diagonal.shape}")
    return tridiag_solve(op.diagonal - shift, op.off_diagonal, rhs)


def integrate(grid: RadialGrid, samples: np.ndarray) -> float:
    """Quadrature-weighted integral of samples over (0, r_max].

    Half-line inner products are integrate(grid, f*g); three-dimensional
    radial inner products are 4*pi*integrate(grid, f*g*r^2) with the caller
    supplying the r^2 factor.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n,):
        raise ValueError(
            f"samples have shape {samples.shape}, grid has {grid.n} nodes")
    return float(np.dot(grid.weights, samples))


def inner_3d(grid: RadialGrid, f: np.ndarray, g: np.ndarray) -> float:
    """<f, g> over R^3 for radial functions: 4 pi * integral of f g r^2 dr."""
    return 4.0 * np.pi * integrate(grid, f * g * grid.nodes ** 2)


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log|y| against log x (tail exponent fits)."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if np.any(y <= 0.0):
        raise ValueError("tail fit needs strictly nonzero samples")
    lx = np.log(x)
    ly = np.log(y)
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
