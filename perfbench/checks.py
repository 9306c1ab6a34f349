"""Correctness checks applied to every benchmark result.

Each check compares a result with a computation made apart from the
program (LAPACK, a closed form) or with a property the method must have,
never with a stored copy of earlier output.  A check returns nothing when
the result is right and raises CheckError when it is wrong.
"""

import math

import numpy as np


class CheckError(AssertionError):
    """A benchmark result failed its correctness check."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# --- spectra ---------------------------------------------------------------

def sturm_matches_lapack(sturm, lapack, rel=1e-9):
    """The m negative Sturm-bisection eigenvalues match LAPACK's.

    lapack holds LAPACK's m + 1 smallest eigenvalues of the same diagonals:
    the first m must agree with the Sturm values to rel, and the next one
    must not be negative, so the two also agree on the count.
    """
    sturm = np.asarray(sturm, dtype=float)
    lapack = np.asarray(lapack, dtype=float)
    m = sturm.size
    _require(lapack.size == m + 1 and lapack[m] >= 0.0,
             f"{m} negative Sturm eigenvalues, LAPACK's smallest "
             f"{lapack.size}: {lapack}")
    err = np.max(np.abs(sturm - lapack[:m]) / np.abs(lapack[:m]), initial=0.0)
    _require(err <= rel, f"Sturm/LAPACK relative difference {err:.2e} > {rel:g}")


def k_of_one(k):
    """The bound-state rate of H(1) is 1.906 to three decimals."""
    _require(round(k, 3) == 1.906, f"k(1) = {k:.6f}, expected 1.906")


def spectral_scaling(k_sq, a, k1_sq, rel=1e-3):
    """k(a)^2 = a k(1)^2, the dilation covariance of H(a)."""
    err = abs(k_sq - a * k1_sq) / (a * k1_sq)
    _require(err <= rel, f"k(a)^2 off a k(1)^2 by {err:.2e} at a = {a:.4g}")


# Negative eigenvalue count and zero-energy kind of each channel of H(a):
# l = 0 holds the bound state and the dilation resonance, l = 1 the
# translation eigenvalue, higher channels nothing.
CHANNEL_STRUCTURE = {0: (1, "resonance"), 1: (0, "eigenvalue")}
_NO_ZERO_MODE = (0, "none")


def channel_structure(ell, node_counts, zero_kind):
    """Bound states (with their node counts) and zero-energy kind of channel ell."""
    n_neg, kind = CHANNEL_STRUCTURE.get(ell, _NO_ZERO_MODE)
    _require(list(node_counts) == list(range(n_neg)),
             f"channel {ell}: negative eigenvalues with node counts "
             f"{list(node_counts)}, expected {list(range(n_neg))}")
    _require(zero_kind == kind,
             f"channel {ell}: zero-energy solution is {zero_kind!r}, expected {kind!r}")


def zero_mode_kinds(dilation, translation):
    """Dilation mode: resonance with r^-1 tail; translation: eigenvalue, r^-2."""
    _require(dilation["kind"] == "resonance"
             and abs(dilation["tail_exponent"] + 1.0) <= 0.05,
             f"dilation mode classified {dilation['kind']!r} with tail "
             f"exponent {dilation['tail_exponent']:.3f}")
    _require(translation["kind"] == "eigenvalue"
             and abs(translation["tail_exponent"] + 2.0) <= 0.1,
             f"translation mode classified {translation['kind']!r} with tail "
             f"exponent {translation['tail_exponent']:.3f}")


def birman_schwinger(counts, total, sturm_below_zero, zero_modes):
    """Counts (2, 1, 0, 0), total 5, each the channel's bound states plus zero mode."""
    _require(list(counts) == [2, 1, 0, 0] and total == 5,
             f"Birman-Schwinger counts {list(counts)}, total {total}; "
             "expected [2, 1, 0, 0], total 5")
    for ell, c in enumerate(counts):
        expect = sturm_below_zero[ell] + zero_modes[ell]
        _require(c == expect,
                 f"channel {ell}: Birman-Schwinger count {c}, Sturm count "
                 f"{sturm_below_zero[ell]} plus zero mode {zero_modes[ell]}")


def sigma_star_window(s):
    """The gap breaks down at sigma* in [0.905, 0.925]."""
    _require(0.905 <= s <= 0.925, f"sigma* = {s:.5f} outside [0.905, 0.925]")


def gap_consistent(sigma, gap_holds, s_star):
    """The gap holds exactly above sigma*."""
    _require(gap_holds == (sigma > s_star),
             f"gap_holds = {gap_holds} at sigma = {sigma:.4f}, sigma* = {s_star:.4f}")


# --- manifold --------------------------------------------------------------

def bracket_outcomes(below, above):
    """The two bracket ends give one blowup and one dispersal."""
    _require({below, above} == {"blowup", "dispersal"},
             f"bracket ends gave {below!r}/{above!r}")


def bisected_to_resolution(lo, hi):
    """tol = 0 bisects until no float64 lies strictly between the ends."""
    mid = 0.5 * (lo + hi)
    _require(lo < hi and mid in (lo, hi),
             f"final bracket ({lo!r}, {hi!r}) is not at float64 resolution")


def decay_fit(slope):
    """The centrist run decays like t^-1: fitted slope in [-1.3, -0.8]."""
    _require(-1.3 <= slope <= -0.8, f"decay fit {slope:.3f} outside [-1.3, -0.8]")


# --- evolution -------------------------------------------------------------

def energy_drift(outcome, energy, tol=1e-3):
    """A dispersal run conserves the discrete energy to tol (relative)."""
    _require(outcome == "dispersal", f"run ended in {outcome!r}, expected dispersal")
    energy = np.asarray(energy, dtype=float)
    drift = np.abs(energy - energy[0]).max() / abs(energy[0])
    _require(drift <= tol, f"energy drift {drift:.2e} > {tol:g}")


def frame_agreement(dev, tol=1e-8):
    """Full-frame and perturbation-frame runs of the same data agree."""
    _require(dev <= tol, f"frame deviation {dev:.2e} > {tol:g}")


def light_cone(dev):
    """Outside the numerical light cone the field is exactly the background."""
    _require(dev == 0.0, f"field moved by {dev:.2e} outside the light cone")


def sine_split_shape(times, coeffs, remainder, settled_from):
    """Rank-one coefficient steady on the settled window, remainder decaying."""
    times = np.asarray(times, dtype=float)
    c = np.asarray(coeffs, dtype=float)[times >= settled_from]
    _require(c.size >= 2, "no samples in the settled window")
    variation = (c.max() - c.min()) / np.abs(c).max()
    _require(variation <= 0.2, f"rank-one coefficient varies by {variation:.1%}")
    fit = times >= 5.0
    slope = np.polyfit(np.log(times[fit]), np.log(np.asarray(remainder)[fit]), 1)[0]
    _require(slope <= -0.8, f"remainder log-log slope {slope:.2f} > -0.8")


def free_dirichlet_eigvec(n, h, j):
    """Exact eigenpair sin(j pi i/n), (4/h^2) sin^2(j pi/2n) of the free operator.

    The last node is pinned by the truncation, where the vector vanishes.
    """
    v = np.sin(j * math.pi * np.arange(1, n + 1) / n)
    v[-1] = 0.0
    return v, 4.0 / h ** 2 * math.sin(j * math.pi / (2 * n)) ** 2


def propagator_on_eigvec(cos_out, sin_out, v, lam, t, rel=1e-8):
    """cos(t sqrt(H)) v = cos(t sqrt(lam)) v and sin(t sqrt(H))/sqrt(H) v likewise."""
    s = math.sqrt(lam)
    scale = np.abs(v).max()
    err_c = np.abs(cos_out - math.cos(t * s) * v).max() / scale
    err_s = np.abs(sin_out - math.sin(t * s) / s * v).max() / (scale / s)
    _require(max(err_c, err_s) <= rel,
             f"propagator off the eigenvector's closed form by {max(err_c, err_s):.2e}")
