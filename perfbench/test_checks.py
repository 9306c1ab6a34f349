"""Every benchmark check accepts a right result and rejects a wrong one.

Run with `python -m pytest perfbench/test_checks.py` from the repository
root.  These tests take seconds and run no workload.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import checks
from checks import CheckError


def test_sturm_matches_lapack():
    d = np.array([2.0, -1.0, 3.0, 0.5])
    e = np.array([0.3, 0.2, 0.1])
    lap = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 1))
    checks.sturm_matches_lapack(lap[:1], lap)
    with pytest.raises(CheckError):
        checks.sturm_matches_lapack(lap[:1] + 1e-6, lap)
    with pytest.raises(CheckError):  # LAPACK finds a second negative eigenvalue
        checks.sturm_matches_lapack([], np.array([-1.0, -0.5]))
    checks.sturm_matches_lapack([], np.array([0.25]))


def test_k_of_one():
    checks.k_of_one(1.90563)
    for wrong in (1.9054, 1.9066, 1.8):
        with pytest.raises(CheckError):
            checks.k_of_one(wrong)


def test_spectral_scaling():
    checks.spectral_scaling(0.25 * 3.6314 * (1 + 5e-4), 0.25, 3.6314)
    with pytest.raises(CheckError):
        checks.spectral_scaling(0.25 * 3.6314 * (1 + 2e-3), 0.25, 3.6314)


def test_channel_structure():
    checks.channel_structure(0, [0], "resonance")
    checks.channel_structure(1, [], "eigenvalue")
    checks.channel_structure(3, [], "none")
    for ell, nodes, kind in ((0, [], "resonance"), (0, [1], "resonance"),
                             (0, [0, 1], "resonance"), (0, [0], "eigenvalue"),
                             (1, [0], "eigenvalue"), (1, [], "resonance"),
                             (2, [], "eigenvalue")):
        with pytest.raises(CheckError):
            checks.channel_structure(ell, nodes, kind)


def test_zero_mode_kinds():
    dil = {"kind": "resonance", "tail_exponent": -1.01}
    tra = {"kind": "eigenvalue", "tail_exponent": -2.02}
    checks.zero_mode_kinds(dil, tra)
    for bad_dil, bad_tra in ((dict(dil, kind="eigenvalue"), tra),
                             (dict(dil, tail_exponent=-1.2), tra),
                             (dil, dict(tra, kind="resonance")),
                             (dil, dict(tra, tail_exponent=-1.0))):
        with pytest.raises(CheckError):
            checks.zero_mode_kinds(bad_dil, bad_tra)


def test_birman_schwinger():
    checks.birman_schwinger([2, 1, 0, 0], 5, [1, 0, 0, 0], [1, 1, 0, 0])
    with pytest.raises(CheckError):  # total of 4
        checks.birman_schwinger([2, 1, 0, 0], 4, [1, 0, 0, 0], [1, 1, 0, 0])
    with pytest.raises(CheckError):
        checks.birman_schwinger([1, 1, 0, 0], 4, [1, 0, 0, 0], [1, 1, 0, 0])
    with pytest.raises(CheckError):  # Sturm side disagrees in channel 1
        checks.birman_schwinger([2, 1, 0, 0], 5, [1, 0, 0, 0], [1, 0, 0, 0])


def test_sigma_star_and_gap():
    checks.sigma_star_window(0.9145)
    for wrong in (0.9, 0.93):
        with pytest.raises(CheckError):
            checks.sigma_star_window(wrong)
    checks.gap_consistent(0.86, False, 0.9145)
    checks.gap_consistent(0.96, True, 0.9145)
    with pytest.raises(CheckError):
        checks.gap_consistent(0.86, True, 0.9145)
    with pytest.raises(CheckError):
        checks.gap_consistent(0.96, False, 0.9145)


def test_manifold_checks():
    checks.bracket_outcomes("dispersal", "blowup")
    for below, above in (("blowup", "blowup"), ("dispersal", "undecided")):
        with pytest.raises(CheckError):
            checks.bracket_outcomes(below, above)
    lo = -6.1e-6
    checks.bisected_to_resolution(lo, np.nextafter(lo, 0.0))
    with pytest.raises(CheckError):
        checks.bisected_to_resolution(lo, lo + 1e-12)
    checks.decay_fit(-0.995)
    for wrong in (-0.5, -1.4):
        with pytest.raises(CheckError):
            checks.decay_fit(wrong)


def test_energy_drift():
    e = 1.0 + 1e-5 * np.sin(np.arange(50))
    checks.energy_drift("dispersal", e)
    with pytest.raises(CheckError):
        checks.energy_drift("dispersal", 1.0 + 1e-2 * np.sin(np.arange(50)))
    with pytest.raises(CheckError):
        checks.energy_drift("blowup", e)


def test_frame_and_cone():
    checks.frame_agreement(1e-11)
    with pytest.raises(CheckError):
        checks.frame_agreement(1e-7)
    checks.light_cone(0.0)
    with pytest.raises(CheckError):
        checks.light_cone(1e-300)


def test_sine_split_shape():
    times = np.arange(2.0, 31.0)
    coeffs = 0.5 + 0.01 * np.cos(times)
    checks.sine_split_shape(times, coeffs, times ** -2.0, 18.0)
    with pytest.raises(CheckError):  # coefficient not settled
        checks.sine_split_shape(times, 0.5 + 0.2 * np.cos(times), times ** -2.0, 18.0)
    with pytest.raises(CheckError):  # remainder decays too slowly
        checks.sine_split_shape(times, coeffs, times ** -0.5, 18.0)


def test_propagator_on_eigvec():
    n, h, j, t = 64, 0.5, 5, 3.0
    v, lam = checks.free_dirichlet_eigvec(n, h, j)
    # the closed-form eigenpair of the pinned free Dirichlet operator
    diag = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    off[-1] = 0.0
    lam_all, vec = eigh_tridiagonal(diag, off)
    assert np.min(np.abs(lam_all - lam)) < 1e-12 * lam_all.max()
    av = diag * v
    av[:-1] += off * v[1:]
    av[1:] += off * v[:-1]
    assert np.abs(av - lam * v).max() < 1e-12 * lam_all.max()

    s = math.sqrt(lam)
    checks.propagator_on_eigvec(math.cos(t * s) * v, math.sin(t * s) / s * v, v, lam, t)
    with pytest.raises(CheckError):
        checks.propagator_on_eigvec(math.cos(t * s) * v, t * v, v, lam, t)
    with pytest.raises(CheckError):
        checks.propagator_on_eigvec(math.cos(t * s) * v * (1 + 1e-6),
                                    math.sin(t * s) / s * v, v, lam, t)
