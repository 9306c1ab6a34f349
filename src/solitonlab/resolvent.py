"""Low-energy resolvent machinery: singular-family inversion, Laurent
coefficient fits, free kernels, and zero-mode classification.

Operators live as finite matrices on the half-line grid; the weighted-space
topologies of the continuum theory are replaced by fixed discretizations
with refinement studies in the test suite.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAZeroModeError, SingularSolveError
from .radial import (RadialGrid, apply_operator, assemble_channel_operator,
                     fit_loglog_slope, inner_3d)


@dataclass(frozen=True)
class SingularFamily:
    """A(z) = A0 + z A1(z) with S the projection onto ker A0.

    A0 must be symmetric with zero an isolated spectral point; `gap` is the
    distance from zero to the rest of the spectrum and `kernel_basis` holds
    orthonormal columns spanning ker A0 (S = kernel_basis @ kernel_basis.T).
    """

    A0: np.ndarray = field(repr=False)
    A1: object = field(repr=False)
    S: np.ndarray = field(repr=False)
    kernel_basis: np.ndarray = field(repr=False)
    rank_S: int = 0
    gap: float = 0.0

    def A(self, z):
        return self.A0 + z * self.A1(z)


def singular_family(A0: np.ndarray, A1) -> SingularFamily:
    """Build a SingularFamily; ker A0 is where |eigenvalue| <= 1e-10 max(1, |A0|)."""
    A0 = np.asarray(A0, dtype=float)
    sym = np.abs(A0 - A0.T).max()
    if sym > 1e-12 * max(1.0, np.abs(A0).max()):
        raise ValueError(f"A0 is not symmetric (defect {sym:.2e})")
    vals, vecs = np.linalg.eigh(A0)
    null = np.abs(vals) <= 1e-10 * max(1.0, np.abs(vals).max())
    rank = int(null.sum())
    if rank == 0:
        raise ValueError("A0 has no kernel; the plain inverse applies")
    gap = float(np.abs(vals[~null]).min())
    Q = vecs[:, null]
    return SingularFamily(A0=A0, A1=A1, S=Q @ Q.T, kernel_basis=Q,
                          rank_S=rank, gap=gap)


def jensen_nenciu_invert(family: SingularFamily, z) -> dict:
    """Invert A(z) = A0 + z A1(z) through the finite-rank correction B(z).

    B(z) = (S - S (A(z) + S)^{-1} S) / z stays bounded as z -> 0; A(z) is
    invertible iff B(z) is invertible on the range of S, and then

      A(z)^{-1} = (A+S)^{-1} + (1/z) (A+S)^{-1} S B^{-1} S (A+S)^{-1}.

    Raises SingularSolveError when B is numerically singular (meaning A(z)
    itself is singular), and ValueError for a z that is 0 or not finite.
    """
    if z == 0 or not np.isfinite(z):
        raise ValueError(f"z must be finite and nonzero, got {z}")
    Az = family.A(z)
    ApS = Az + family.S
    cond = np.linalg.cond(ApS)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSolveError(
            f"(A(z) + S) numerically singular (cond {cond:.2e}); |z| too large")
    ApSi = np.linalg.inv(ApS)
    B = (family.S - family.S @ ApSi @ family.S) / z
    Q = family.kernel_basis
    Bs = Q.conj().T @ B @ Q
    svals = np.linalg.svd(Bs, compute_uv=False)
    # B(z) is O(A1) on ran S for invertible A(z); a block at rounding scale
    # relative to the family means A(z) itself is singular (cond alone
    # cannot see this for small kernel ranks)
    scale = max(1.0, float(np.abs(Bs).max()))
    if svals[-1] <= 1e-10 * scale:
        raise SingularSolveError(
            f"B(z) singular on ran S (smallest singular value {svals[-1]:.2e})"
            ": A(z) is singular")
    B_inv_S = Q @ np.linalg.inv(Bs) @ Q.conj().T
    A_inv = ApSi + ApSi @ family.S @ B_inv_S @ family.S @ ApSi / z
    check = np.abs(A_inv @ Az - np.eye(Az.shape[0])).max()
    if not check < 1e-6:
        raise SingularSolveError(
            f"inversion verification failed (defect {check:.2e}): "
            "A(z) is numerically singular")
    return {"A_inv": A_inv, "B": B}


@dataclass(frozen=True)
class LaurentCoefficients:
    c_minus2: np.ndarray = field(repr=False)
    c_minus1: np.ndarray = field(repr=False)
    c0: np.ndarray = field(repr=False)
    c1: np.ndarray = field(repr=False)
    fit_residual: float = 0.0


def laurent_fit(resolvent_sampler, z_samples) -> LaurentCoefficients:
    """Entrywise least-squares Laurent fit c_-2/z^2 + c_-1/z + c0 + c1 z.

    Needs at least 4 samples away from the positive real axis (z = i rho is
    the intended use).  fit_residual is the largest entrywise misfit
    relative to the largest sampled magnitude.
    """
    zs = np.asarray(z_samples, dtype=complex)
    if zs.size < 4:
        raise ValueError("need at least 4 z samples for a 4-term fit")
    mats = np.array([np.asarray(resolvent_sampler(z), dtype=complex) for z in zs])
    design = np.stack([zs ** -2, zs ** -1, np.ones_like(zs), zs], axis=1)
    # columns span many decades by construction; equilibrate before the
    # conditioning check and the solve
    col_scale = np.linalg.norm(design, axis=0)
    design_eq = design / col_scale
    if np.linalg.cond(design_eq) > 1e12:
        raise ValueError("ill-conditioned sample set; widen the z samples")
    flat = mats.reshape(zs.size, -1)
    coef, _, _, _ = np.linalg.lstsq(design_eq, flat, rcond=None)
    coef = coef / col_scale[:, None]
    shape = mats.shape[1:]
    resid = np.abs(design @ coef - flat).max() / max(np.abs(flat).max(), 1e-300)
    return LaurentCoefficients(
        c_minus2=coef[0].reshape(shape), c_minus1=coef[1].reshape(shape),
        c0=coef[2].reshape(shape), c1=coef[3].reshape(shape),
        fit_residual=float(resid))


def free_resolvent_kernel(d: int, z: complex, x: float, y: float) -> complex:
    """Free-space resolvent kernel of (-Lap - z^2)^{-1} in d = 1 or 3.

    d = 1: exp(iz|x-y|) / (2iz); d = 3: exp(iz|x-y|) / (4 pi |x-y|), which
    is singular on the diagonal.
    """
    if d not in (1, 3):
        raise ValueError(f"dimension must be 1 or 3, got {d}")
    if not z.imag > 0.0:
        raise ValueError("need Im z > 0")
    dist = abs(x - y)
    if d == 1:
        return np.exp(1j * z * dist) / (2j * z)
    if dist == 0.0:
        raise ValueError("d = 3 kernel is singular on the diagonal")
    return np.exp(1j * z * dist) / (4.0 * np.pi * dist)


def halfline_free_kernel(z: complex, r: float, s: float) -> complex:
    """Reduced radial (ell = 0, Dirichlet) kernel sin(z r<) e^{iz r>} / z.

    This is the half-line form of the d = 3 free resolvent acting on radial
    functions; its z -> 0 limit is min(r, s) with no singular term.
    """
    lo, hi = (r, s) if r <= s else (s, r)
    if z == 0:
        return complex(lo)
    return np.sin(z * lo) * np.exp(1j * z * hi) / z


def classify_zero_mode(V: np.ndarray, f: np.ndarray, grid: RadialGrid,
                       ell: int = 0) -> dict:
    """Classify a numerical zero mode f of -Lap + V (channel ell).

    v_integral is the integral of V f over R^3; for ell >= 1 it vanishes
    identically by angular orthogonality.  The resonance/eigenvalue split
    follows the decay criterion: |x|^{-1} tail with nonvanishing integral
    (above 1e-3 of the integral of |V f|) versus |x|^{-2} (or faster) tail
    with vanishing integral.  Raises NotAZeroModeError when the channel
    operator applied to r f leaves a relative residual above 1e-5.
    """
    V = np.asarray(V, dtype=float)
    f = np.asarray(f, dtype=float)
    op = assemble_channel_operator(grid, ell, V)
    w = grid.nodes * f
    scale = np.abs(w).max()
    if scale == 0.0:
        raise NotAZeroModeError("zero function supplied")
    res = apply_operator(op, w)
    interior = slice(0, grid.n - 2)
    rel = np.abs(res[interior]).max() / (scale * np.abs(op.diagonal).max())
    if rel > 1e-5:
        raise NotAZeroModeError(f"relative residual {rel:.2e} exceeds 1e-5")
    if ell == 0:
        v_int = inner_3d(grid, V, f)
        v_scale = inner_3d(grid, np.abs(V), np.abs(f))
        significant = abs(v_int) > 1e-3 * max(v_scale, 1e-300)
    else:
        v_int = 0.0
        significant = False
    mask = grid.nodes >= 0.5 * grid.r_max
    expo = fit_loglog_slope(grid.nodes[mask], f[mask])
    if significant and -1.5 < expo <= -0.5:
        kind = "resonance"
    elif not significant and expo <= -1.5:
        kind = "eigenvalue"
    else:
        kind = "none"
    return {"kind": kind, "v_integral": float(v_int),
            "tail_exponent": float(expo), "residual": float(rel)}
