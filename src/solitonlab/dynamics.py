"""Radial quintic wave dynamics around the soliton: leapfrog evolution in
the reduced field w = r psi, unstable-mode bookkeeping, linear propagators,
and the stable-manifold experiment.

Conventions.  The reduced equation is w_tt = w_rr + w^5/r^4 with w(0) = 0
and the last node frozen (data stay inside the light cone of the truncation
by the r_max >= support + t_final precondition).  Perturbation-frame
evolution advances the deviation from a static background profile with the
background's quintic term cancelled analytically, so the background is an
exact fixed point and regions the perturbation has not reached stay
identically zero.  The background is the Newton-polished discrete
static solution (the grid's own soliton); raw samples of the closed form
differ from it by O(h^2), which the exponential instability amplifies by
e^{kt} if used directly.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._kernels import leapfrog, tridiag_solve
from .errors import BracketError, ConvergenceError, NumericsError
from .radial import (RadialGrid, assemble_channel_operator, bracketed_root,
                     fit_loglog_slope, inner_3d, integrate)
from .solitons import aubin_phi, aubin_potential
from .spectral import negative_eigenpairs

_BACKGROUND_CACHE = {}
_MODE_CACHE = {}
_CFL = 0.9  # the leapfrog step is _CFL h
_PSI_CAP = 1e3 * aubin_phi(0.0, 1.0)  # a run past this amplitude is blowup


def static_background(grid: RadialGrid) -> np.ndarray:
    """Newton-polished discrete static profile w with D2 w + w^5/r^4 = 0.

    Iterates from r phi(r, 1) with the last node frozen to a residual of
    1e-12 (or its rounding floor); the result differs from the samples by
    O(h^2) and is the attractor the discrete dynamics actually settles on.
    """
    key = (grid.r_max, grid.n)
    if key in _BACKGROUND_CACHE:
        return _BACKGROUND_CACHE[key]
    r = grid.nodes
    h2 = grid.h ** 2
    inv_r4 = 1.0 / r ** 4
    n = grid.n
    w = r * aubin_phi(r, 1.0)
    # the residual's rounding floor scales like eps/h^2 (Laplacian cancellation)
    floor = 20.0 * np.finfo(float).eps / h2 * np.abs(w).max()
    target = max(1e-12, floor)
    nr = math.inf
    for _ in range(30):
        wm = np.concatenate(([0.0], w[:-1]))
        wp = np.concatenate((w[1:], [0.0]))
        res = (wp - 2.0 * w + wm) / h2 + w ** 5 * inv_r4
        res[-1] = 0.0
        nr = np.abs(res[:-1]).max()
        if nr < target:
            break
        diag = -2.0 / h2 + 5.0 * w ** 4 * inv_r4
        diag[-1] = 1.0
        off = np.full(n - 1, 1.0 / h2)
        off[-1] = 0.0
        dw = tridiag_solve(diag, off, res)
        dw[-1] = 0.0
        w = w - dw
    else:
        raise ConvergenceError(
            f"static-profile Newton stalled at residual {nr:.2e}")
    w.setflags(write=False)
    _BACKGROUND_CACHE[key] = w
    return w


@dataclass(frozen=True)
class UnstableMode:
    """Ground-state data of H(1): rate k and unit ground state g (3d radial)."""

    k: float
    g: np.ndarray = field(repr=False)


def unstable_mode(grid: RadialGrid) -> UnstableMode:
    """k and g with H(1) g = -k^2 g, normalized to unit L^2(R^3) norm."""
    key = (grid.r_max, grid.n)
    if key in _MODE_CACHE:
        return _MODE_CACHE[key]
    op = assemble_channel_operator(grid, 0, aubin_potential(grid.nodes, 1.0))
    pairs = negative_eigenpairs(op)
    if not pairs:
        raise ConvergenceError("no negative eigenvalue found for a = 1")
    e, w_g = pairs[0].energy, pairs[0].vector
    g3d = w_g / grid.nodes
    g3d = g3d / math.sqrt(4.0 * np.pi * integrate(grid, (grid.nodes * g3d) ** 2))
    g3d.setflags(write=False)
    mode = UnstableMode(k=math.sqrt(-e), g=g3d)
    _MODE_CACHE[key] = mode
    return mode


@dataclass(frozen=True)
class RadialState:
    """Field and velocity samples, either the full psi or a perturbation.

    frame "full" stores u = psi; frame "perturbation" stores u = psi - the
    static background profile.
    """

    grid: RadialGrid
    u: np.ndarray = field(repr=False)
    ut: np.ndarray = field(repr=False)
    frame: str = "full"

    def __post_init__(self):
        if self.frame not in ("full", "perturbation"):
            raise ValueError(f"unknown frame {self.frame!r}")
        if self.u.shape != (self.grid.n,) or self.ut.shape != (self.grid.n,):
            raise ValueError("field arrays must match the grid")

    def to_full(self, background: np.ndarray) -> "RadialState":
        if self.frame == "full":
            return self
        return RadialState(self.grid, self.u + background / self.grid.nodes,
                           self.ut, "full")


@dataclass(frozen=True)
class EvolveConfig:
    """The stepper's two run values, defined once: the dynamics read them
    from _DEFAULTS and take no EvolveConfig.

    stride_time: evolve_nlw's default time between recorded snapshots.
    exit_n_plus: |n_plus| beyond which the run has left the soliton
      neighborhood; the sign labels the side (positive: blowup branch).
    """

    stride_time: float = 0.25
    exit_n_plus: float = 0.2


_DEFAULTS = EvolveConfig()


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    snapshots: list = field(repr=False)
    sup_norms: np.ndarray = field(repr=False)
    local_energy: np.ndarray = field(repr=False)
    n_plus_series: np.ndarray = field(repr=False)
    energy_series: np.ndarray = field(repr=False)
    outcome: str = "undecided"
    blowup_time: float = math.nan
    exit_time: float = math.nan
    dt: float = 0.0
    background: np.ndarray = field(default=None, repr=False)


def discrete_energy(grid: RadialGrid, w: np.ndarray, wdot: np.ndarray):
    """Energy of the reduced field: 4 pi int (wdot^2 + (w_r - w/r)^2)/2 - w^6/(6 r^4).

    w and wdot of shape (n,) give a float; (m, n) blocks give the m row
    energies, each row integrated by its own dot with the weights.  The
    work uses two scratch arrays of the size of w.
    """
    r = grid.nodes
    h = grid.h
    w_r = np.empty(w.shape)
    # centred differences with the phantom w(0) = 0, one-sided at the last node
    w_r[..., 0] = w[..., 1]
    np.subtract(w[..., 2:], w[..., :-2], out=w_r[..., 1:-1])
    w_r[..., :-1] /= 2.0 * h
    np.subtract(w[..., -1], w[..., -2], out=w_r[..., -1])
    w_r[..., -1] /= h
    tmp = np.divide(w, r)
    dens = np.subtract(w_r, tmp, out=w_r)
    np.square(dens, out=dens)
    dens += np.square(wdot, out=tmp)
    dens *= 0.5
    tmp = np.power(w, 6, out=tmp)
    tmp /= 6.0 * r ** 4
    dens -= tmp
    e = 4.0 * np.pi * np.array([np.dot(grid.weights, row)
                                for row in dens.reshape(-1, grid.n)])
    return float(e[0]) if w.ndim == 1 else e


# the observables pass of a run reads its record in chunks of rows of about
# this many bytes per scratch array, so that a chunk stays in cache
_CHUNK_BYTES = 1 << 17


class _Observables(NamedTuple):
    """What evolve_nlw and _outcome read of a run, from one pass over its
    record: sup |psi - phi| over all nodes and over r <= 1 (nan where no
    node lies in r <= 1), the local energy inside r <= 5 of the
    perturbation, the energy, and psi and psi_t (the record's own rows,
    converted in place)."""

    sup_norms: np.ndarray
    core_sup: np.ndarray
    local_energy: np.ndarray
    energy: np.ndarray
    psi: np.ndarray
    psi_t: np.ndarray


@dataclass(frozen=True)
class _Run:
    """Snapshots of one leapfrog run and how it stopped (see _step).

    W and V are the two halves of the run's one (2, n_snap, n) record
    block, cut to the snapshots written: the stepped field w - bg and its
    velocity.  n_plus is the unstable-mode amplitude of the perturbation
    u - phi that the stepper recorded at each of them, and reason is the
    stepper's (0 horizon, 1 cap, 2 non-finite, 3 decided).  The
    observables are computed on first use (see observables); that pass
    turns W and V into psi and psi_t, so nothing reads them as the stepped
    field after it.
    """

    grid: RadialGrid
    w_bg: np.ndarray
    mode: UnstableMode
    bg: np.ndarray
    dt: float
    stride: int
    W: np.ndarray
    V: np.ndarray
    n_plus: np.ndarray
    stop_step: int
    reason: int

    @cached_property
    def times(self):
        return np.arange(len(self.W)) * self.stride * self.dt

    @cached_property
    def observables(self) -> _Observables:
        """One pass over the record, in chunks of rows with about
        _CHUNK_BYTES per scratch array (three of them, and the two of
        discrete_energy).  Each chunk gets its sup norms, local energy and
        energy, then becomes psi = (w + bg)/r and psi_t = v/r in place."""
        grid, W, V, bg = self.grid, self.W, self.V, self.bg
        r, weights = grid.nodes, grid.weights
        rows = max(1, _CHUNK_BYTES // (8 * grid.n))
        scratch = np.empty((3, min(rows, len(W)), grid.n))
        half_loc = 0.5 * (r <= 5.0).astype(float)
        # the nodes ascend: r <= 1 is a prefix of them
        core = int(np.searchsorted(r, 1.0, side="right"))
        sup, local, energy = np.empty((3, len(W)))
        core_sup = np.full(len(W), np.nan)
        for i in range(0, len(W), rows):
            w, v = W[i:i + rows], V[i:i + rows]
            d, q, t = scratch[:, :len(w)]
            # the perturbation u - phi, times r
            pert = w if bg is self.w_bg else np.subtract(w, self.w_bg, out=d)
            np.square(pert, out=q)
            q += np.square(v, out=t)
            q *= half_loc
            local[i:i + rows] = [np.dot(weights, row) for row in q]
            dev = np.divide(pert, r, out=d)
            np.abs(dev, out=dev)
            dev.max(axis=1, out=sup[i:i + rows])
            if core:
                dev[:, :core].max(axis=1, out=core_sup[i:i + rows])
            np.add(w, bg, out=w)
            energy[i:i + rows] = discrete_energy(grid, w, v)
            np.divide(w, r, out=w)
            np.divide(v, r, out=v)
        local *= 4.0 * np.pi
        return _Observables(sup, core_sup, local, energy, W, V)


def _time_grid(grid: RadialGrid, t_final: float, stride_time: float):
    """(dt, n_steps, stride) of a run, with dt = _CFL h; a stride_time
    below half a step records every step."""
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if not 0.0 < stride_time < math.inf:
        raise ValueError(
            f"stride_time must be positive and finite, got {stride_time}")
    dt = _CFL * grid.h
    n_steps = max(1, int(round(t_final / dt)))
    stride = max(1, int(round(stride_time / dt)))
    return dt, n_steps, stride


def _step(initial: RadialState, t_final: float, stride_time: float,
          early_exit: bool = False) -> _Run:
    """Leapfrog core shared by evolve_nlw and the stable-manifold search.

    Background a = 1, amplitude cap _PSI_CAP; ValueError for non-finite
    data.  One stepper: perturbation data step about bg = w_bg, full-field
    data about bg = 0.  The stepper records n_plus of u - phi in either
    frame, the full frame by subtracting the background's amplitude.  With
    early_exit it stops at the first snapshot whose |n_plus| exceeds
    _DEFAULTS.exit_n_plus, where the outcome is fixed.
    """
    if not (np.isfinite(initial.u).all() and np.isfinite(initial.ut).all()):
        raise ValueError("initial data must be finite")
    grid = initial.grid
    r = grid.nodes
    h = grid.h
    n = grid.n
    dt, n_steps, stride = _time_grid(grid, t_final, stride_time)
    w_bg = static_background(grid)
    mode = unstable_mode(grid)

    bg = w_bg if initial.frame == "perturbation" else np.zeros(n)
    w0 = r * initial.u
    v0 = r * initial.ut

    n_snap = n_steps // stride + 1

    w_snap, v_snap = np.zeros((2, n_snap, n))
    w_snap[0] = w0
    v_snap[0] = v0
    n_plus = np.zeros(n_snap)
    inv_r4 = 1.0 / r ** 4
    p = 4.0 * np.pi * (r * mode.g) * grid.weights
    shift = 0.0 if bg is w_bg else 0.5 * np.dot(w_bg, p)

    n_got, stop_step, reason = leapfrog(
        w0, v0, 1.0 / r, inv_r4, bg, 1.0 / h ** 2, dt,
        n_steps, stride, _PSI_CAP, w_snap, v_snap, n_plus, p, mode.k, shift,
        _DEFAULTS.exit_n_plus if early_exit else np.inf)
    return _Run(grid, w_bg, mode, bg, dt, stride, w_snap[:n_got],
                v_snap[:n_got], n_plus[:n_got], stop_step, reason)


def _outcome(run: _Run):
    """(outcome, blowup_time, exit_time) of a run.

    The amplitude cap means blowup; otherwise the first snapshot with
    |n_plus| > exit_n_plus decides by the sign of n_plus.  Otherwise a run
    is dispersal once sup_{r<=1} |psi - phi| has stayed below 0.1 of the
    initial perturbation sup for 5 time units, and stationary when psi
    never moved more than 0.01 from its initial state.
    """
    if run.reason in (1, 2):
        return "blowup", run.stop_step * run.dt, math.nan
    n_plus = run.n_plus
    j = _exit_index(run)
    if j < len(n_plus):
        return ("blowup" if n_plus[j] > 0 else "dispersal"), math.nan, run.times[j]
    obs = run.observables
    init_sup = obs.sup_norms[0]
    if init_sup > 0.0:
        settled = obs.core_sup < 0.1 * init_sup
        need = max(1, int(round(5.0 / (run.stride * run.dt))))
        streak = 0
        for j, s in enumerate(settled):
            streak = streak + 1 if s else 0
            if streak >= need and abs(n_plus[j]) < _DEFAULTS.exit_n_plus:
                return "dispersal", math.nan, run.times[j]
    psi = obs.psi
    if all(np.abs(p - psi[0]).max() <= 0.01 for p in psi):
        return "stationary", math.nan, math.nan
    return "undecided", math.nan, math.nan


def _exit_index(run: _Run) -> int:
    """Index of the first snapshot with |n_plus| > _DEFAULTS.exit_n_plus, or
    len(run.W) when there is none."""
    exited = np.abs(run.n_plus) > _DEFAULTS.exit_n_plus
    return int(np.argmax(exited)) if exited.any() else len(exited)


def _classify(initial: RadialState, t_final: float):
    """(outcome, offset): evolve_nlw(initial, t_final).outcome, stepping only
    until the outcome is fixed, and the run's measure of its distance h - h*
    from the stable manifold along g.

    While the run is linear, n_plus(t) ~ e^{kt} (h - h*)/2, so the offset is
    2 e^{-k t_j} n_plus(t_j) at the last snapshot j >= 1 before the decision
    (the first |n_plus| > exit_n_plus, or the amplitude cap) with |n_plus|
    <= _LINEAR_N_PLUS; None when no snapshot qualifies.  Snapshot 0 carries
    no information (on find_stable_h's data n_plus(0) = h/2 whatever h* is),
    and nothing after the decision is read, so an early-exit run and a full
    run give the same offset.  The early exit and the offset read one
    record, the stepper's n_plus of u - phi, so data in either frame stop
    where evolve_nlw's run decides.
    """
    run = _step(initial, t_final, _DEFAULTS.stride_time, early_exit=True)
    outcome = _outcome(run)[0]
    n_plus = run.n_plus
    linear = np.abs(n_plus[1:_exit_index(run)]) <= _LINEAR_N_PLUS
    if not linear.any():
        return outcome, None
    j = 1 + int(np.flatnonzero(linear)[-1])
    offset = 2.0 * math.exp(-run.mode.k * run.times[j]) * float(n_plus[j])
    return outcome, offset


def evolve_nlw(initial: RadialState, t_final: float,
               stride_time: float = _DEFAULTS.stride_time) -> Trajectory:
    """Leapfrog evolution of the radial quintic wave equation.

    Full-frame states advance the field itself; perturbation-frame states
    advance the deviation from the static background with exact background
    cancellation.  The step is the CFL step 0.9 h.  Records sup
    |psi - phi|, energy, the local energy inside r <= 5, and the
    unstable-mode amplitude n_plus of psi - phi (the stepper's own record)
    every stride_time, then classifies the outcome (stationary /
    dispersal / blowup / undecided; see _outcome).

    A run keeps one record block of u and u_t, a row per snapshot: the
    snapshots are row views of it (full frame).  The observables come from
    one pass over it in chunks of about _CHUNK_BYTES per scratch array,
    which converts each chunk in place once its observables are taken.
    """
    run = _step(initial, t_final, stride_time)
    obs = run.observables
    outcome, blowup_time, exit_time = _outcome(run)
    snaps = [RadialState(initial.grid, u, ut, "full")
             for u, ut in zip(obs.psi, obs.psi_t)]
    return Trajectory(times=run.times, snapshots=snaps,
                      sup_norms=obs.sup_norms, local_energy=obs.local_energy,
                      n_plus_series=run.n_plus, energy_series=obs.energy,
                      outcome=outcome, blowup_time=blowup_time,
                      exit_time=exit_time, dt=run.dt, background=run.w_bg)


def _voc_weights(k: float, dt: float):
    """Exact variation-of-constants weights for piecewise-linear forcing."""
    ekd = math.exp(k * dt)
    b = (ekd - 1.0 - k * dt) / (k * k * dt)
    a = (ekd - 1.0) / k - b
    return ekd, a, b


def _mode_series(times, F_plus, k):
    """times and F_plus as float arrays; ValueError for k outside (0, inf),
    fewer than two samples, times that are not 1-d, finite and strictly
    increasing, or an F_plus not of their shape."""
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    times = np.asarray(times, dtype=float)
    F_plus = np.asarray(F_plus, dtype=float)
    if times.size < 2:
        raise ValueError(f"need at least two time samples, got {times.size}")
    if times.ndim != 1 or not np.isfinite(times).all() \
            or not (np.diff(times) > 0.0).all():
        raise ValueError("times must be a 1-d array of finite, strictly "
                         "increasing values")
    if F_plus.shape != times.shape:
        raise ValueError(f"F_plus has shape {F_plus.shape}, times have "
                         f"shape {times.shape}")
    return times, F_plus


def stability_initial_condition(times: np.ndarray, F_plus: np.ndarray,
                                k: float) -> float:
    """The unique n_plus(0) = -int_0^inf e^{-ks} F_plus(s) ds that removes growth.

    Quadrature is exact for piecewise-linear forcing: the sum
    -sum_i e^{-k t_{i+1}} (a F_i + b F_{i+1}) with evolve_unstable_mode's
    weights a, b, so the cancellation of the e^{kt} branch survives to
    rounding.  Warns when k T < 20; the neglected tail is bounded by
    |F(T)| e^{-kT} / k.
    """
    times, F_plus = _mode_series(times, F_plus, k)
    T = times[-1]
    if k * T < 20.0 * (1.0 - 1e-9):
        tail = abs(F_plus[-1]) * math.exp(-k * T) / k
        warnings.warn(
            f"horizon k T = {k * T:.2f} < 20; neglected tail <= {tail:.3e}",
            stacklevel=2)
    total = 0.0
    for i in range(times.size - 1):
        _, a, b = _voc_weights(k, times[i + 1] - times[i])
        total += math.exp(-k * times[i + 1]) * (a * F_plus[i] + b * F_plus[i + 1])
    return -total


def evolve_unstable_mode(times: np.ndarray, F_plus: np.ndarray, k: float,
                         n_plus_0: float) -> np.ndarray:
    """Integrate dn/dt - k n = F by exact variation of constants per step."""
    times, F_plus = _mode_series(times, F_plus, k)
    out = np.empty(times.size)
    out[0] = n_plus_0
    x = n_plus_0
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        ekd, a, b = _voc_weights(k, dt)
        x = ekd * x + a * F_plus[i] + b * F_plus[i + 1]
        out[i + 1] = x
    return out


@dataclass(frozen=True)
class StableManifoldResult:
    h_star: float
    bracket_final: tuple
    below_outcome: str
    above_outcome: str
    decay_fit: float
    decay_window: tuple
    n_runs: int
    n_estimate_runs: int
    trajectory: Trajectory = field(default=None, repr=False)


def project_to_sigma0(f1: np.ndarray, f2: np.ndarray, grid: RadialGrid,
                      mode: UnstableMode):
    """Remove the g-component from f1 so <k f1 + f2, g> = 0."""
    c = inner_3d(grid, mode.k * f1 + f2, mode.g) / mode.k
    return f1 - c * mode.g, f2


# the decay fit of find_stable_h: from t = 5 to between 7 and 25
_DECAY_START, _DECAY_MIN_END, _DECAY_MAX_END = 5.0, 7.0, 25.0
# |n_plus| up to which a classification run is read as linear in h - h*
_LINEAR_N_PLUS = 2e-3


def _min_fit_horizon(dt: float, stride: int) -> float:
    """Time of the snapshot that gives [5, 7] the 3 samples fit_decay needs
    (inf when the snapshots are too sparse for any horizon)."""
    times = np.arange(int(_DECAY_MIN_END / (stride * dt)) + 1) * stride * dt
    inside = times[(times >= _DECAY_START) & (times <= _DECAY_MIN_END)]
    return float(inside[2]) if inside.size >= 3 else math.inf


def _near_manifold_span(traj: Trajectory) -> float:
    """Last time before the unstable-mode content pollutes the sup norm.

    The growing mode contributes on the order of |n_plus| to sup|u| (the
    unit-normalized ground state has O(1) sup); once that reaches 0.3 of
    the measured sup norm the trajectory is no longer following the
    manifold decay.
    """
    mode_part = np.abs(traj.n_plus_series)
    bad = mode_part > 0.3 * np.maximum(traj.sup_norms, 1e-300)
    bad[0] = False
    if not bad.any():
        return float(traj.times[-1])
    return float(traj.times[int(np.argmax(bad))])


def find_stable_h(f1: np.ndarray, f2: np.ndarray, grid: RadialGrid,
                  bracket_width: float = 0.05, tol: float = 0.0,
                  t_horizon: float = 30.0) -> StableManifoldResult:
    """The ground-state correction h* separating blowup from dispersal.

    Data (f1 + h g, f2) ride on the discrete static profile; f1 is first
    projected so the pair lies in the tangent space (<k f1 + f2, g> = 0).
    The bracket must produce distinct outcomes at its ends, and it keeps
    them: every candidate replaces the end with its outcome.  Each
    classification run stops at its decision (|n_plus| past
    _DEFAULTS.exit_n_plus, or the amplitude cap) and measures its distance
    from the manifold, n_plus(t) ~ e^{kt} (h - h*)/2 (see _classify), both
    from the n_plus that the stepper records, which is evolve_nlw's
    n_plus_series too.
    radial.bracketed_root picks the candidates from these offsets; they
    gain digits until the outcome is set by rounding noise in the e^{kt}
    amplification, and midpoints finish from there.

    tol = 0 means search to float64 resolution (the ends adjacent floats).
    That is finer than the runs resolve: below about 4e-18 absolute the
    outcome is rounding noise of the e^{kt} amplification, and tol = 0
    goes on to adjacent floats by definition.  The bracket width is
    amplified by e^{kt}, so every run eventually exits the soliton
    neighborhood around t ~ log(1/width)/k.  A candidate that ends
    undecided (no exit within the horizon) is as near as the horizon
    resolves and ends the search as h_star; otherwise h_star is the
    midpoint of the final bracket.

    Each bracket end keeps its initial u and its (outcome, offset).  A
    candidate whose u is bit-identical to an end's would repeat that end's
    run bit for bit, so it takes the end's answer and steps no run.  The
    rounding of f1 + h g is monotone in h at every node, and every earlier
    candidate lies outside the bracket, so a candidate that repeats any
    earlier state repeats an end's: the two comparisons find every repeat.

    Only the final centrist run is stepped to the horizon and keeps its
    observables.  Its decay fit is taken on [5, 25] clipped to the span
    where the unstable-mode content is still small against the dispersive
    sup norm; the window used is reported in the result, and so are the
    classifications (n_runs: both bracket ends, the candidates, whether or
    not they stepped a run, and the final run) and the candidates that were
    not midpoints (n_estimate_runs).
    A bracket_width that is not positive and finite, a tol that is nan,
    negative or infinite, and a horizon too short to give the decay fit 3
    snapshots in [5, 7], are rejected with ValueError before the first run.
    """
    if not 0.0 < bracket_width < math.inf:
        raise ValueError(
            f"bracket_width must be positive and finite, got {bracket_width}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    dt, n_steps, stride = _time_grid(grid, t_horizon, _DEFAULTS.stride_time)
    t_need = _min_fit_horizon(dt, stride)
    if (n_steps // stride) * stride * dt < t_need:
        raise ValueError(
            f"t_horizon = {t_horizon:g} leaves fewer than 3 snapshots in the "
            f"decay-fit window [{_DECAY_START:g}, {_DECAY_MIN_END:g}]; the "
            f"minimum horizon is {t_need:g}")
    mode = unstable_mode(grid)
    f1p, f2p = project_to_sigma0(np.asarray(f1, float), np.asarray(f2, float),
                                 grid, mode)

    def state(hc):
        return RadialState(grid, f1p + hc * mode.g, f2p, "perturbation")

    # each bracket end's initial u and the (outcome, offset) of its run
    ends = [(st.u, _classify(st, t_horizon))
            for st in (state(-bracket_width), state(bracket_width))]
    out_lo, out_hi = (got[0] for _, got in ends)
    if out_lo == out_hi or "undecided" in (out_lo, out_hi):
        raise BracketError(
            f"bracket ends gave {out_lo!r}/{out_hi!r}; widen it")
    candidates = []

    def side(hc):
        candidates.append(hc)
        st = state(hc)
        # a u that rounds to an end's repeats that end's run bit for bit
        same = [got for u, got in ends if np.array_equal(st.u, u)]
        out, offset = same[0] if same else _classify(st, t_horizon)
        if out == "undecided":
            return None, offset
        above = out != out_lo
        ends[above] = st.u, (out, offset)
        return above, offset

    h_star, (lo, hi), n_estimates = bracketed_root(
        side, -bracket_width, bracket_width, tol)
    traj = evolve_nlw(state(h_star), t_horizon)
    t_clean = _near_manifold_span(traj)
    if math.isfinite(traj.blowup_time):
        t_clean = min(t_clean, traj.blowup_time)
    win = (_DECAY_START, max(_DECAY_MIN_END, min(_DECAY_MAX_END, t_clean)))
    decay = fit_decay(traj.times, traj.sup_norms, win)
    return StableManifoldResult(
        h_star=h_star, bracket_final=(lo, hi),
        below_outcome=out_lo, above_outcome=out_hi,
        # both bracket ends, the candidates and the final run
        decay_fit=decay, decay_window=win, n_runs=len(candidates) + 3,
        n_estimate_runs=n_estimates, trajectory=traj)


def fit_decay(times: np.ndarray, values: np.ndarray, window) -> float:
    """Log-log slope of a decaying observable over the time window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0, t1 = window
    mask = (times >= t0) & (times <= t1) & (times > 0.0)
    if mask.sum() < 3:
        raise ValueError(f"window {window} contains fewer than 3 samples")
    if np.any(values[mask] <= 0.0):
        raise NumericsError("decay fit needs positive values on the window")
    return fit_loglog_slope(times[mask], values[mask])


# Chebyshev expansions are truncated where the coefficients fall below
# _TAIL of the largest, or below the rounding level of the samples when that
# is higher; a step that needs more than _MAX_TERMS samples is refused
# rather than allocated
_TAIL = 1e-13
_MAX_TERMS = 1 << 20


class _WaveFlow:
    """The linear flow of u_tt = -H u on stacked (2, n) blocks [u, u_t].

    Over a time dt it maps [u, v] to [u', v'] with
    u' = cos(dt sqrt H) u + sin(dt sqrt H)/sqrt H v and
    v' = -sqrt H sin(dt sqrt H) u + cos(dt sqrt H) v.
    The components along the negative eigenvectors g_j of H (Euclidean
    unit, from negative_eigenpairs) follow the hyperbolic branch in closed
    form.  The rest is propagated under the deflated operator
    A = H - 2 sum_j lam_j g_j g_j^T, whose spectrum lies in [0, hi]: the
    Sturm count below 0 certifies the lower end, so rounding cannot re-seed
    e^{kt}, and Gershgorin joined with max |lam_j| bounds the upper.  The
    three functions are entire in lam and share one three-term Chebyshev
    recurrence of O(n) tridiagonal matvecs (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81 (1984) 3967; Hochbruck & Lubich, SIAM J. Numer. Anal. 34
    (1997) 1911); the expansion of each distinct dt is computed once.  The
    matvec reads a block as one flat 2n vector, with the diagonal stacked
    twice and a 0 in the off-diagonal at the seam of the two rows, and
    writes its products into buffers made once per flow.
    """

    def __init__(self, op):
        d, e = op.diagonal, op.off_diagonal
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise ValueError("the operator has non-finite entries")
        pairs = negative_eigenpairs(op)
        lam = np.array([p.energy for p in pairs])
        self.g = np.array([p.vector / np.linalg.norm(p.vector)
                           for p in pairs]).reshape(len(pairs), d.size)
        self.kappa = np.sqrt(-lam)
        gersh = d.copy()
        gersh[:-1] += np.abs(e)
        gersh[1:] += np.abs(e)
        self.hi = max(float(gersh.max()), float(np.abs(lam).max(initial=0.0)))
        # 2B for B = 2A/hi - 1, the operator whose spectrum is in [-1, 1],
        # on the flat view of a (2, n) block
        e2 = 4.0 * e / self.hi
        self._d2 = np.tile(4.0 * d / self.hi - 2.0, 2)
        self._e2 = np.concatenate((e2, [0.0], e2))
        self._c2 = -8.0 * lam / self.hi
        self._off = np.empty(2 * d.size - 1)
        self._term = np.empty((2, d.size))
        self._coeffs = {}

    def _twice_b(self, y):
        """2B y for a (2, n) block y, every product on same-shape operands
        (a broadcast of an (n,) row over the block runs at half the speed)."""
        flat = y.reshape(-1)
        out = self._d2 * flat
        out[:-1] += np.multiply(self._e2, flat[1:], out=self._off)
        out[1:] += np.multiply(self._e2, flat[:-1], out=self._off)
        out = out.reshape(y.shape)
        # the deflation term, one product per negative eigenpair (none for
        # the free operator)
        coef = (y @ self.g.T) * self._c2
        term = self._term
        for j, g in enumerate(self.g):
            out += np.multiply(coef[:, j, None], g, out=term)
        return out

    def _coefficients(self, dt):
        """M[k] = [[c_k, s_k], [-w_k, c_k]], with c, s, w the Chebyshev
        coefficients on [0, hi] of cos(dt sqrt lam), sin(dt sqrt lam)/sqrt lam
        and sqrt lam sin(dt sqrt lam), from samples at first-kind nodes."""
        if dt in self._coeffs:
            return self._coeffs[dt]
        root_hi = math.sqrt(self.hi)
        n_nodes = math.ceil(abs(dt) * root_hi) + 64
        if n_nodes > _MAX_TERMS:
            raise NumericsError(
                f"a step of {dt:g} needs {n_nodes} Chebyshev terms (at most "
                f"{_MAX_TERMS}); propagate in shorter steps")
        theta = np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
        s = root_hi * np.cos(0.5 * theta)  # sqrt(lam) at lam = hi cos^2(theta/2)
        sin_s = np.sin(dt * s)
        y = np.stack((np.cos(dt * s), sin_s / s, s * sin_s))
        # DCT-II of the samples through a mirrored real FFT
        spec = np.fft.rfft(np.concatenate((y, y[:, ::-1]), axis=1))[:, :n_nodes]
        a = (spec * np.exp(-0.5j * np.pi * np.arange(n_nodes) / n_nodes)).real
        a /= n_nodes
        a[:, 0] *= 0.5
        # the phase dt sqrt(lam) of a sample is good to about eps n_nodes
        tail = max(_TAIL, 2.0 * np.finfo(float).eps * n_nodes)
        big = np.abs(a) > tail * np.abs(a).max(axis=1, keepdims=True)
        terms = int(np.flatnonzero(big.any(axis=0))[-1]) + 1
        if terms > 3 * n_nodes // 4:
            raise NumericsError(
                f"Chebyshev coefficients of the step {dt:g} do not fall below "
                f"{tail:.1e} of the largest within {n_nodes} nodes")
        m = np.empty((terms, 2, 2))
        m[:, 0, 0] = m[:, 1, 1] = a[0, :terms]
        m[:, 0, 1] = a[1, :terms]
        m[:, 1, 0] = -a[2, :terms]
        self._coeffs[dt] = m
        return m

    def __call__(self, x, dt, negative=True):
        """The block x (2, n) advanced by dt.  With negative=False its
        components along the g_j are dropped before and after the step
        (the projection onto their orthogonal complement)."""
        k = self.kappa
        if negative and np.any(k * abs(dt) > math.log(np.finfo(float).max)):
            raise NumericsError(
                f"e^(k t) overflows at k = {k.max():.4g}, t = {dt:g}")
        m = self._coefficients(dt)
        g = self.g
        alpha = x @ g.T
        prev = x - alpha @ g
        cur = 0.5 * self._twice_b(prev)
        out = m[0] @ prev
        for mk in m[1:]:
            out += mk @ cur
            prev, cur = cur, self._twice_b(cur) - prev
        # A keeps the complement of the g_j invariant: drop rounding leakage
        out -= (out @ g.T) @ g
        if negative:
            ch, sh = np.cosh(k * dt), np.sinh(k * dt)
            out += np.stack((ch * alpha[0] + sh / k * alpha[1],
                             k * sh * alpha[0] + ch * alpha[1])) @ g
        return out


def linear_propagate(op, f: np.ndarray, g0: np.ndarray, t: float) -> np.ndarray:
    """cos(t sqrt(H)) f + [sin(t sqrt(H))/sqrt(H)] g0 on half-line samples.

    Matrix-free: one Chebyshev recurrence of tridiagonal matvecs on H with
    its negative eigenvalues deflated, whose components follow the
    hyperbolic branch (cosh, sinh/k) in closed form.  Memory is O(n) and
    nothing is kept between calls.  Raises ValueError for a non-finite t or
    vectors not of shape (n,), NumericsError when e^{kt} overflows.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    f, g0 = np.asarray(f, dtype=float), np.asarray(g0, dtype=float)
    if f.shape != (op.grid.n,) or g0.shape != (op.grid.n,):
        raise ValueError(f"f and g0 must have shape ({op.grid.n},), got "
                         f"{f.shape} and {g0.shape}")
    return _WaveFlow(op)(np.stack((f, g0)), t)[0]


def sine_split(op, dphi_da: np.ndarray, f: np.ndarray, times) -> dict:
    """Split the sine evolution of (0, P_g-perp f) into the resonance rank-one
    piece and the dispersive remainder.

    f and dphi_da are radial (3d) samples; the evolution runs on w = r f.
    P_g-perp drops the components along the negative eigenvectors of H
    (the discrete Riesz projection), before and after every step, so the
    e^{kt} branch stays out.  The state (u, u_t) is stepped between
    consecutive times by the matrix-free flow of linear_propagate, with
    the expansion of each distinct step computed once.  The rank-one
    coefficient is the projection of the output onto d_a phi over
    r <= r_max/4; the remainder sup is taken there too.  Times beyond
    r_max/2 are truncation-contaminated.  Raises ValueError for non-finite,
    negative or decreasing times.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all() or np.any(times < 0.0) \
            or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be a 1-d array of finite, nonnegative, "
                         "nondecreasing values")
    grid = op.grid
    r = grid.nodes
    flow = _WaveFlow(op)
    x = np.zeros((2, grid.n))
    x[1] = r * np.asarray(f, dtype=float)
    w_res = r * np.asarray(dphi_da, dtype=float)
    window = r <= grid.r_max / 4.0
    denom = float(np.dot(w_res[window], w_res[window]))
    coeffs = np.empty(times.size)
    rems = np.empty(times.size)
    t_prev = 0.0
    for i, t in enumerate(times):
        x = flow(x, t - t_prev, negative=False)
        t_prev = t
        u = x[0]
        c = float(np.dot(u[window], w_res[window])) / denom
        coeffs[i] = c
        rems[i] = np.abs(u[window] - c * w_res[window]).max()
    return {"times": times, "rank_one_coeff": coeffs, "remainder_sup": rems}
