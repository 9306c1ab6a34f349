"""Radial quintic wave dynamics around the soliton: leapfrog evolution in
the reduced field w = r psi, unstable-mode bookkeeping, linear propagators,
and the stable-manifold bisection experiment.

Conventions.  The reduced equation is w_tt = w_rr + w^5/r^4 with w(0) = 0
and the last node frozen (data stay inside the light cone of the truncation
by the r_max >= support + t_final precondition).  Perturbation-frame
evolution advances the deviation from a static background profile with the
background's quintic term cancelled analytically, so the background is an
exact fixed point and regions the perturbation has not reached stay
identically zero.  The default background is the Newton-polished discrete
static solution (the grid's own soliton); raw samples of the closed form
differ from it by O(h^2), which the exponential instability amplifies by
e^{kt} if used directly.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._kernels import leapfrog, tridiag_solve
from .errors import BracketError, ConvergenceError
from .radial import RadialGrid, assemble_channel_operator, inner_3d, integrate
from .solitons import aubin_phi, aubin_potential
from .spectral import eigenvalue_by_index, eigenvector_at

_BACKGROUND_CACHE = {}
_MODE_CACHE = {}
_EIG_CACHE = {}


def nonlinearity_N(u, phi):
    """The beyond-linear part of (phi + u)^5 - phi^5 - 5 phi^4 u."""
    return 10.0 * u ** 2 * phi ** 3 + 10.0 * u ** 3 * phi ** 2 \
        + 5.0 * u ** 4 * phi + u ** 5


def static_background(grid: RadialGrid, a: float = 1.0,
                      tol: float = 1e-12) -> np.ndarray:
    """Newton-polished discrete static profile w with D2 w + w^5/r^4 = 0.

    Iterates from the closed-form samples r phi(r, a) with the last node
    frozen; the result differs from the samples by O(h^2) and is the
    attractor the discrete dynamics actually settles on.
    """
    key = (grid.r_max, grid.n, a)
    if key in _BACKGROUND_CACHE:
        return _BACKGROUND_CACHE[key]
    r = grid.nodes
    h2 = grid.h ** 2
    inv_r4 = 1.0 / r ** 4
    n = grid.n
    w = r * aubin_phi(r, a)
    # the residual's rounding floor scales like eps/h^2 (Laplacian cancellation)
    floor = 20.0 * np.finfo(float).eps / h2 * np.abs(w).max()
    target = max(tol, floor)
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
    """Ground-state data of H(a): rate k and unit ground state g (3d radial)."""

    k: float
    g: np.ndarray = field(repr=False)

    @property
    def k_squared(self):
        return self.k ** 2


def unstable_mode(grid: RadialGrid, a: float = 1.0) -> UnstableMode:
    """k and g with H(a) g = -k^2 g, normalized to unit L^2(R^3) norm."""
    key = (grid.r_max, grid.n, a)
    if key in _MODE_CACHE:
        return _MODE_CACHE[key]
    op = assemble_channel_operator(grid, 0, aubin_potential(grid.nodes, a))
    e = eigenvalue_by_index(op, 0)
    if not e < 0.0:
        raise ConvergenceError(f"no negative eigenvalue found for a = {a}")
    w_g = eigenvector_at(op, e)
    if w_g[np.argmax(np.abs(w_g))] < 0.0:
        w_g = -w_g
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

    def to_perturbation(self, background: np.ndarray) -> "RadialState":
        if self.frame == "perturbation":
            return self
        return RadialState(self.grid, self.u - background / self.grid.nodes,
                           self.ut, "perturbation")


@dataclass(frozen=True)
class EvolveConfig:
    """Thresholds and observables for evolve_nlw (all reported in results).

    blow_factor: amplitude cap as a multiple of phi(0, 1).
    exit_n_plus: |n_plus| beyond which the run has left the soliton
      neighborhood; the sign labels the side (positive: blowup branch).
    settle_frac/settle_duration: the dispersal trigger of a perturbation
      that has left the core, sup_{r<=1}|psi - phi| below settle_frac times
      the initial perturbation sup, sustained for settle_duration.
    stationary_tol: sup drift from the initial state below which a run that
      never moved is labelled stationary.
    """

    dt_factor: float = 0.9
    stride_time: float = 0.25
    blow_factor: float = 1e3
    exit_n_plus: float = 0.2
    settle_frac: float = 0.1
    settle_duration: float = 5.0
    stationary_tol: float = 0.01
    local_radius: float = 5.0
    background_a: float = 1.0
    use_discrete_background: bool = True


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


def _background_for(grid, config):
    if config.use_discrete_background:
        return static_background(grid, config.background_a)
    return grid.nodes * aubin_phi(grid.nodes, config.background_a)


def discrete_energy(grid: RadialGrid, w: np.ndarray, wdot: np.ndarray) -> float:
    """Energy of the reduced field: 4 pi int (wdot^2 + (w_r - w/r)^2)/2 - w^6/(6 r^4)."""
    r = grid.nodes
    h = grid.h
    ext = np.concatenate(([0.0], w))
    w_r = np.empty(grid.n)
    w_r[:-1] = (ext[2:] - ext[:-2]) / (2.0 * h)
    w_r[-1] = (w[-1] - w[-2]) / h
    dens = 0.5 * (wdot ** 2 + (w_r - w / r) ** 2) - w ** 6 / (6.0 * r ** 4)
    return 4.0 * np.pi * integrate(grid, dens)


@dataclass(frozen=True)
class _Run:
    """Snapshots of one leapfrog run and how it stopped (see _step).

    W and V hold the reduced field and its velocity at the snapshots
    written; reason is the stepper's (0 horizon, 1 cap, 2 non-finite,
    3 decided).  The derived series are computed on first use.
    """

    grid: RadialGrid
    w_bg: np.ndarray
    mode: UnstableMode
    frame_flag: int
    dt: float
    stride: int
    W: np.ndarray
    V: np.ndarray
    stop_step: int
    reason: int

    @cached_property
    def times(self):
        return np.arange(len(self.W)) * self.stride * self.dt

    @cached_property
    def pert_w(self):
        return self.W - self.w_bg if self.frame_flag == 0 else self.W

    @cached_property
    def psi(self):
        r = self.grid.nodes
        return self.W / r if self.frame_flag == 0 else (self.W + self.w_bg) / r

    @cached_property
    def n_plus(self):
        grid = self.grid
        w_g = grid.nodes * self.mode.g
        ip = 4.0 * np.pi
        return 0.5 * (ip * self.pert_w @ (w_g * grid.weights)
                      + ip * (self.V @ (w_g * grid.weights)) / self.mode.k)

    @cached_property
    def sup_norms(self):
        return np.abs(self.pert_w / self.grid.nodes).max(axis=1)


def _time_grid(grid: RadialGrid, t_final: float, dt, config: EvolveConfig):
    """(dt, n_steps, stride) of a run; dt defaults to config.dt_factor h."""
    h = grid.h
    if dt is None:
        dt = config.dt_factor * h
    if dt > 0.9 * h + 1e-15:
        raise ValueError(f"dt = {dt} violates the CFL bound 0.9 h = {0.9 * h}")
    n_steps = max(1, int(round(t_final / dt)))
    stride = max(1, int(round(config.stride_time / dt)))
    return dt, n_steps, stride


def _step(initial: RadialState, t_final: float, dt, config: EvolveConfig,
          early_exit: bool = False) -> _Run:
    """Leapfrog core shared by evolve_nlw and the stable-manifold bisection.

    With early_exit the stepper stops at the first snapshot whose |n_plus|
    exceeds config.exit_n_plus, where the outcome is fixed.
    """
    grid = initial.grid
    r = grid.nodes
    h = grid.h
    n = grid.n
    dt, n_steps, stride = _time_grid(grid, t_final, dt, config)
    w_bg = _background_for(grid, config)
    mode = unstable_mode(grid, config.background_a)

    if initial.frame == "full":
        y0 = r * initial.u - w_bg
        mode_flag = 0
    else:
        y0 = r * initial.u
        mode_flag = 1
    v0 = r * initial.ut

    n_snap = n_steps // stride + 1
    psi_cap = config.blow_factor * aubin_phi(0.0, config.background_a)

    w_snap = np.zeros((n_snap, n))
    v_snap = np.zeros((n_snap, n))
    w_final = np.empty(n)
    v_final = np.empty(n)

    if mode_flag == 0:
        w_work = y0 + w_bg
    else:
        w_work = y0.copy()
    w_snap[0] = w_work
    v_snap[0] = v0
    inv_r4 = 1.0 / r ** 4
    exit_args = ()
    if early_exit:
        exit_args = (4.0 * np.pi * (r * mode.g) * grid.weights, mode.k,
                     config.exit_n_plus)

    n_got, stop_step, reason = leapfrog(
        w_work, v0.copy(), 1.0 / r, inv_r4, w_bg, 1.0 / h ** 2, dt,
        n_steps, stride, mode_flag, psi_cap, w_snap, v_snap,
        w_final, v_final, *exit_args)
    return _Run(grid, w_bg, mode, mode_flag, dt, stride, w_snap[:n_got],
                v_snap[:n_got], stop_step, reason)


def _outcome(run: _Run, config: EvolveConfig):
    """(outcome, blowup_time, exit_time) of a run.

    The amplitude cap means blowup; otherwise the first snapshot with
    |n_plus| > exit_n_plus decides by the sign of n_plus; otherwise the
    settle rule can call dispersal, and a run that never moved is
    stationary.
    """
    if run.reason in (1, 2):
        return "blowup", run.stop_step * run.dt, math.nan
    n_plus = run.n_plus
    exited = np.abs(n_plus) > config.exit_n_plus
    # the stepper's own sum decided a reason-3 stop at the last snapshot
    exited[-1] |= run.reason == 3
    if exited.any():
        j = int(np.argmax(exited))
        return ("blowup" if n_plus[j] > 0 else "dispersal"), math.nan, run.times[j]
    r = run.grid.nodes
    init_sup = run.sup_norms[0]
    if init_sup > 0.0:
        core = r <= 1.0
        core_dev = np.abs(run.pert_w[:, core] / r[core]).max(axis=1)
        settled = core_dev < config.settle_frac * init_sup
        need = max(1, int(round(config.settle_duration / (run.stride * run.dt))))
        streak = 0
        for j, s in enumerate(settled):
            streak = streak + 1 if s else 0
            if streak >= need and abs(n_plus[j]) < config.exit_n_plus:
                return "dispersal", math.nan, run.times[j]
    psi = run.psi
    if np.abs(psi - psi[0]).max() <= config.stationary_tol:
        return "stationary", math.nan, math.nan
    return "undecided", math.nan, math.nan


def _classify(initial: RadialState, t_final: float,
              config: EvolveConfig) -> str:
    """evolve_nlw(initial, t_final, config=config).outcome, stepping only
    until the outcome is fixed and computing no other observable."""
    return _outcome(_step(initial, t_final, None, config, early_exit=True),
                    config)[0]


def evolve_nlw(initial: RadialState, t_final: float, dt: float = None,
               config: EvolveConfig = EvolveConfig()) -> Trajectory:
    """Leapfrog evolution of the radial quintic wave equation.

    Full-frame states advance the field itself; perturbation-frame states
    advance the deviation from the static background with exact background
    cancellation.  Records sup |psi - phi|, energy, the local energy inside
    config.local_radius, and the unstable-mode amplitude n_plus at every
    output stride, then classifies the outcome (stationary / dispersal /
    blowup / undecided).
    """
    run = _step(initial, t_final, dt, config)
    grid = initial.grid
    r = grid.nodes
    ip = 4.0 * np.pi
    loc = (r <= config.local_radius).astype(float)
    local_energy = np.array([
        ip * integrate(grid, 0.5 * loc * (vv ** 2 + ww ** 2))
        for ww, vv in zip(run.pert_w, run.V)])
    if run.frame_flag == 0:
        energy = np.array([discrete_energy(grid, ww, vv)
                           for ww, vv in zip(run.W, run.V)])
    else:
        energy = np.array([discrete_energy(grid, ww + run.w_bg, vv)
                           for ww, vv in zip(run.W, run.V)])
    outcome, blowup_time, exit_time = _outcome(run, config)
    snaps = [RadialState(grid, run.psi[j], run.V[j] / r, "full")
             for j in range(len(run.W))]
    return Trajectory(times=run.times, snapshots=snaps,
                      sup_norms=run.sup_norms, local_energy=local_energy,
                      n_plus_series=run.n_plus, energy_series=energy,
                      outcome=outcome, blowup_time=blowup_time,
                      exit_time=exit_time, dt=run.dt, background=run.w_bg)


@dataclass(frozen=True)
class ModeDecomposition:
    n_plus: float
    n_minus: float
    u_tilde: RadialState
    k: float
    g: np.ndarray = field(repr=False)


def mode_decompose(state: RadialState, g: np.ndarray, k: float) -> ModeDecomposition:
    """Split a perturbation state along G+- = (g, +-k g) plus the remainder.

    n+- = (<u, g> +- <u_t, g>/k)/2 in the L^2(R^3) pairing; the remainder
    is g-orthogonal in both slots and the reconstruction is exact.
    """
    if state.frame != "perturbation":
        raise ValueError("mode_decompose expects a perturbation-frame state")
    if k <= 0.0:
        raise ValueError("k must be positive")
    grid = state.grid
    nrm = 4.0 * np.pi * integrate(grid, (grid.nodes * g) ** 2)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"g is not unit-normalized: |g|^2 = {nrm}")
    a = inner_3d(grid, state.u, g)
    b = inner_3d(grid, state.ut, g)
    n_plus = 0.5 * (a + b / k)
    n_minus = 0.5 * (a - b / k)
    u_t = RadialState(grid, state.u - (n_plus + n_minus) * g,
                      state.ut - (n_plus - n_minus) * k * g, "perturbation")
    return ModeDecomposition(n_plus=n_plus, n_minus=n_minus, u_tilde=u_t,
                             k=k, g=g)


def _voc_weights(k: float, dt: float):
    """Exact variation-of-constants weights for piecewise-linear forcing."""
    ekd = math.exp(k * dt)
    b = (ekd - 1.0 - k * dt) / (k * k * dt)
    a = (ekd - 1.0) / k - b
    return ekd, a, b


def stability_initial_condition(times: np.ndarray, F_plus: np.ndarray,
                                k: float) -> float:
    """The unique n_plus(0) = -int_0^inf e^{-ks} F_plus(s) ds that removes growth.

    Quadrature is exact for piecewise-linear forcing (matching
    evolve_unstable_mode step for step, so the cancellation of the e^{kt}
    branch survives to rounding).  Warns when k T < 20; the neglected tail
    is bounded by |F(T)| e^{-kT} / k.
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    times = np.asarray(times, dtype=float)
    F_plus = np.asarray(F_plus, dtype=float)
    T = times[-1]
    if k * T < 20.0 * (1.0 - 1e-9):
        tail = abs(F_plus[-1]) * math.exp(-k * T) / k
        warnings.warn(
            f"horizon k T = {k * T:.2f} < 20; neglected tail <= {tail:.3e}",
            stacklevel=2)
    total = 0.0
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        c1 = (1.0 - math.exp(-k * dt)) / k
        c2 = (1.0 - math.exp(-k * dt) * (1.0 + k * dt)) / (k * k * dt)
        total += math.exp(-k * times[i]) * (F_plus[i] * (c1 - c2) + F_plus[i + 1] * c2)
    return -total


def evolve_unstable_mode(times: np.ndarray, F_plus: np.ndarray, k: float,
                         n_plus_0: float) -> np.ndarray:
    """Integrate dn/dt - k n = F by exact variation of constants per step."""
    if k <= 0.0:
        raise ValueError("k must be positive")
    times = np.asarray(times, dtype=float)
    F_plus = np.asarray(F_plus, dtype=float)
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
    trajectory: Trajectory = field(default=None, repr=False)


def project_to_sigma0(f1: np.ndarray, f2: np.ndarray, grid: RadialGrid,
                      mode: UnstableMode):
    """Remove the g-component from f1 so <k f1 + f2, g> = 0."""
    c = inner_3d(grid, mode.k * f1 + f2, mode.g) / mode.k
    return f1 - c * mode.g, f2


# the decay fit of find_stable_h: from t = 5 to between 7 and 25
_DECAY_START, _DECAY_MIN_END, _DECAY_MAX_END = 5.0, 7.0, 25.0


def _min_fit_horizon(dt: float, stride: int) -> float:
    """Time of the snapshot that gives [5, 7] the 3 samples fit_decay needs
    (inf when the snapshots are too sparse for any horizon)."""
    times = np.arange(int(_DECAY_MIN_END / (stride * dt)) + 1) * stride * dt
    inside = times[(times >= _DECAY_START) & (times <= _DECAY_MIN_END)]
    return float(inside[2]) if inside.size >= 3 else math.inf


def _near_manifold_span(traj: Trajectory, frac: float = 0.3) -> float:
    """Last time before the unstable-mode content pollutes the sup norm.

    The growing mode contributes on the order of |n_plus| to sup|u| (the
    unit-normalized ground state has O(1) sup); once that reaches frac of
    the measured sup norm the trajectory is no longer following the
    manifold decay.
    """
    mode_part = np.abs(traj.n_plus_series)
    bad = mode_part > frac * np.maximum(traj.sup_norms, 1e-300)
    bad[0] = False
    if not bad.any():
        return float(traj.times[-1])
    return float(traj.times[int(np.argmax(bad))])


def find_stable_h(f1: np.ndarray, f2: np.ndarray, grid: RadialGrid,
                  bracket_width: float = 0.05, tol: float = 0.0,
                  t_horizon: float = 30.0,
                  config: EvolveConfig = EvolveConfig()) -> StableManifoldResult:
    """Bisect the ground-state correction h separating blowup from dispersal.

    Data (f1 + h g, f2) ride on the discrete static profile; f1 is first
    projected so the pair lies in the tangent space (<k f1 + f2, g> = 0).
    The bracket must produce distinct outcomes at its ends.  tol = 0 means
    bisect to float64 resolution, which is also the physical limit: the
    bracket width is amplified by e^{kt}, so every run eventually exits the
    soliton neighborhood around t ~ log(1/width)/k.  The decay fit of the
    final centrist run is therefore taken on [5, 25] clipped to the span
    where the unstable-mode content is still small against the dispersive
    sup norm; the window used is reported in the result.

    Each bisection run stops at its decision: once |n_plus| passes
    config.exit_n_plus (or the amplitude cap is hit) the outcome is fixed,
    so only the final centrist run is stepped to the horizon and keeps its
    observables.  A horizon too short to give the decay fit 3 snapshots in
    [5, 7] is rejected with ValueError before the first run.
    """
    dt, n_steps, stride = _time_grid(grid, t_horizon, None, config)
    t_need = _min_fit_horizon(dt, stride)
    if (n_steps // stride) * stride * dt < t_need:
        raise ValueError(
            f"t_horizon = {t_horizon:g} leaves fewer than 3 snapshots in the "
            f"decay-fit window [{_DECAY_START:g}, {_DECAY_MIN_END:g}]; the "
            f"minimum horizon is {t_need:g}")
    mode = unstable_mode(grid, config.background_a)
    f1p, f2p = project_to_sigma0(np.asarray(f1, float), np.asarray(f2, float),
                                 grid, mode)

    def state(hc):
        return RadialState(grid, f1p + hc * mode.g, f2p, "perturbation")

    lo, hi = -bracket_width, bracket_width
    out_lo = _classify(state(lo), t_horizon, config)
    out_hi = _classify(state(hi), t_horizon, config)
    runs = 2
    if out_lo == out_hi or "undecided" in (out_lo, out_hi):
        raise BracketError(
            f"bracket ends gave {out_lo!r}/{out_hi!r}; widen it")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        out = _classify(state(mid), t_horizon, config)
        runs += 1
        if out == "undecided":
            # ran out of horizon without exiting: near enough to stop
            break
        if out == out_lo:
            lo = mid
        else:
            hi = mid
    h_star = 0.5 * (lo + hi)
    traj = evolve_nlw(state(h_star), t_horizon, config=config)
    runs += 1
    t_clean = _near_manifold_span(traj)
    if math.isfinite(traj.blowup_time):
        t_clean = min(t_clean, traj.blowup_time)
    win = (_DECAY_START, max(_DECAY_MIN_END, min(_DECAY_MAX_END, t_clean)))
    decay = fit_decay(traj.times, traj.sup_norms, win)
    return StableManifoldResult(
        h_star=h_star, bracket_final=(lo, hi),
        below_outcome=out_lo, above_outcome=out_hi,
        decay_fit=decay, decay_window=win, n_runs=runs, trajectory=traj)


def fit_decay(times: np.ndarray, values: np.ndarray, window) -> float:
    """Log-log slope of a decaying observable over the time window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0, t1 = window
    mask = (times >= t0) & (times <= t1) & (times > 0.0)
    if mask.sum() < 3:
        raise ValueError(f"window {window} contains fewer than 3 samples")
    if np.any(values[mask] <= 0.0):
        raise ValueError("decay fit needs positive values on the window")
    lx = np.log(times[mask])
    ly = np.log(values[mask])
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def _eigendecomposition(op):
    key = (op.grid.r_max, op.grid.n, op.ell, hash(op.potential.tobytes()))
    if key not in _EIG_CACHE:
        _EIG_CACHE[key] = eigh_tridiagonal(op.diagonal, op.off_diagonal)
    return _EIG_CACHE[key]


def _sinc_weights(lam: np.ndarray, t: float) -> np.ndarray:
    """sin(t sqrt(lam))/sqrt(lam) with hyperbolic and small-|lam| branches."""
    out = np.empty(lam.size)
    pos = lam > 1e-10
    neg = lam < -1e-10
    mid = ~(pos | neg)
    sp = np.sqrt(lam[pos])
    out[pos] = np.sin(t * sp) / sp
    sn = np.sqrt(-lam[neg])
    out[neg] = np.sinh(t * sn) / sn
    out[mid] = t
    return out


def _cos_weights(lam: np.ndarray, t: float) -> np.ndarray:
    out = np.empty(lam.size)
    pos = lam > 1e-10
    neg = lam < -1e-10
    mid = ~(pos | neg)
    out[pos] = np.cos(t * np.sqrt(lam[pos]))
    out[neg] = np.cosh(t * np.sqrt(-lam[neg]))
    out[mid] = 1.0
    return out


def linear_propagate(op, f: np.ndarray, g0: np.ndarray, t: float) -> np.ndarray:
    """cos(t sqrt(H)) f + [sin(t sqrt(H))/sqrt(H)] g0 on half-line samples.

    H is eigendecomposed once and cached; negative eigenvalues follow the
    hyperbolic branch, eigenvalues within 1e-10 of zero the series limits
    (1 and t).
    """
    lam, vec = _eigendecomposition(op)
    cf = vec.T @ np.asarray(f, dtype=float)
    cg = vec.T @ np.asarray(g0, dtype=float)
    return vec @ (_cos_weights(lam, t) * cf + _sinc_weights(lam, t) * cg)


def sine_split(op, dphi_da: np.ndarray, f: np.ndarray, times) -> dict:
    """Split the sine evolution of (0, P_g-perp f) into the resonance rank-one
    piece and the dispersive remainder.

    f and dphi_da are radial (3d) samples; the evolution runs on w = r f.
    P_g-perp is applied spectrally (coefficients of negative modes zeroed,
    which is the discrete Riesz projection and keeps the e^{kt} branch out
    at rounding level).  The rank-one coefficient is the projection of the
    output onto d_a phi over r <= r_max/4; the remainder sup is taken there
    too.  Times beyond r_max/2 are truncation-contaminated.
    """
    grid = op.grid
    r = grid.nodes
    lam, vec = _eigendecomposition(op)
    w_f = r * np.asarray(f, dtype=float)
    coef = vec.T @ w_f
    coef[lam < -1e-10] = 0.0
    w_res = r * np.asarray(dphi_da, dtype=float)
    window = r <= grid.r_max / 4.0
    denom = float(np.dot(w_res[window], w_res[window]))
    times = np.asarray(times, dtype=float)
    coeffs = np.empty(times.size)
    rems = np.empty(times.size)
    for i, t in enumerate(times):
        u = vec @ (_sinc_weights(lam, t) * coef)
        c = float(np.dot(u[window], w_res[window])) / denom
        coeffs[i] = c
        rems[i] = np.abs(u[window] - c * w_res[window]).max()
    return {"times": times, "rank_one_coeff": coeffs, "remainder_sup": rems}
