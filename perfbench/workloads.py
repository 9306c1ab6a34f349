"""The benchmark's three workloads.

Each workload draws its inputs from the seed (inputs), builds what its
experiments need before the first timed one (setup), and runs one pass of
experiments through solitonlab's public functions (run_pass).  One
operation is one experiment call together with its checks.

The seed moves the inputs inside narrow ranges only, so that every seed
asks for the same amount of work and timings of different seeds compare:
bisection lengths, eigenvalue counts and run horizons do not depend on it.
Functions are called through their modules so that the traced run sees
them under the names solitonlab itself uses.
"""

import math
import sys

import numpy as np
from scipy.linalg import eigh_tridiagonal

import checks
from solitonlab import dynamics, linearized, radial, resolvent, solitons, spectral


class Operations:
    """Counts attempted and failed operations and remembers check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, name, fn):
        """Run one operation; return its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except checks.CheckError as e:
            self.correct = False
            self.failed += 1
            print(f"check failed: {name}: {e}", file=sys.stderr)
        except Exception as e:  # a program error fails this operation only
            self.failed += 1
            print(f"operation failed: {name}: {type(e).__name__}: {e}",
                  file=sys.stderr)
        return None


def clear_dynamics_caches(which=("_EIG_CACHE", "_BACKGROUND_CACHE", "_MODE_CACHE")):
    """Empty dynamics' process-wide caches that exist, as in a fresh process."""
    for name in which:
        cache = getattr(dynamics, name, None)
        if cache is not None:
            cache.clear()


# --- spectra ---------------------------------------------------------------

class Spectra:
    """Half-line spectra of H(a), zero modes, Birman-Schwinger, NLS gap and sigma*."""

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        # H(a) on the fixed (50, 4000) grid: for a above about 2 the l = 1
        # zero mode dips below 0 at this resolution, so a stays in [1/4, 1).
        # The sigma draws keep clear of sigma* on both sides.
        return {
            "a": [1.0, float(4.0 ** rng.uniform(-1.0, -0.5)),
                  float(4.0 ** rng.uniform(-0.5, 0.0))],
            "sigma": [float(rng.uniform(0.85, 0.88)), float(rng.uniform(0.95, 0.98))],
        }

    @staticmethod
    def setup(inp):
        g = radial.make_grid(50.0, 4000)
        ops = {}
        for a in inp["a"]:
            potential = solitons.aubin_values(a, g)["potential"]
            for ell in range(4):
                ops[a, ell] = radial.assemble_channel_operator(g, ell, potential)
        av = solitons.aubin_values(1.0, g)
        g_bs = radial.make_grid(60.0, 1500)
        return {
            "inputs": inp,
            "ops": ops,
            "grid": g,
            "potential": av["potential"],
            "dilation": av["dphi_da"],
            "translation": solitons.aubin_dphi_dr(g.nodes, 1.0),
            "bs_grid": g_bs,
            "bs_potential": solitons.aubin_values(1.0, g_bs)["potential"],
            "sigma_config": linearized.SigmaStarConfig(),
            "gap_grid": radial.make_grid(40.0, 3000),
        }

    @staticmethod
    def run_pass(ctx, ops):
        inp = ctx["inputs"]
        found = {}  # a = 1: per channel, Sturm count below 0 and zero mode

        def spectrum(a, ell):
            op = ctx["ops"][a, ell]
            pairs = spectral.negative_eigenpairs(op)
            zero = spectral.zero_energy_diagnosis(op)
            checks.channel_structure(ell, [p.node_count for p in pairs], zero.kind)
            lapack = eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True,
                                      select="i", select_range=(0, len(pairs)))
            checks.sturm_matches_lapack([p.energy for p in pairs], lapack)
            if ell == 0:
                k_sq = -pairs[0].energy
                if a == 1.0:
                    checks.k_of_one(math.sqrt(k_sq))
                    found["k1_sq"] = k_sq
                else:
                    checks.spectral_scaling(k_sq, a, found["k1_sq"])
            if a == 1.0:
                found[ell] = (len(pairs), int(zero.kind in ("resonance", "eigenvalue")))

        for a in inp["a"]:
            for ell in range(4):
                ops.run(f"spectrum a={a:.4g} l={ell}", lambda: spectrum(a, ell))

        def zero_modes():
            g, V = ctx["grid"], ctx["potential"]
            checks.zero_mode_kinds(
                resolvent.classify_zero_mode(V, ctx["dilation"], g, ell=0),
                resolvent.classify_zero_mode(V, ctx["translation"], g, ell=1))

        ops.run("classify zero modes", zero_modes)

        def bs_count():
            rep = spectral.birman_schwinger_count(ctx["bs_potential"], 3, ctx["bs_grid"])
            checks.birman_schwinger(rep.channel_counts, rep.total_with_multiplicity,
                                    [found[ell][0] for ell in range(4)],
                                    [found[ell][1] for ell in range(4)])

        ops.run("birman-schwinger count", bs_count)

        def star():
            s = linearized.sigma_star((0.8, 1.0), 1e-3, ctx["sigma_config"])
            checks.sigma_star_window(s)
            return s

        s_star = ops.run("sigma-star", star)

        def gap(sigma):
            profile = solitons.nls_ground_state(sigma, 1.0, 3, ctx["gap_grid"])
            rep = linearized.gap_scan(linearized.assemble_linearized_pair(profile, (0, 1)))
            checks.gap_consistent(sigma, rep.gap_holds, s_star)

        for sigma in inp["sigma"]:
            ops.run(f"gap-scan sigma={sigma:.4f}", lambda: gap(sigma))


# --- manifold --------------------------------------------------------------

class Manifold:
    """The stable-manifold bisection of find_stable_h (the stable-h experiment)."""

    @staticmethod
    def inputs(seed):
        # eps near the default 0.02 keeps h* well away from 0 at n = 2000, so
        # the float64 bisection takes the same ~70 runs for every seed
        rng = np.random.default_rng(seed)
        return {"eps": float(rng.uniform(0.019, 0.021))}

    @staticmethod
    def setup(inp):
        g = radial.make_grid(40.0, 2000)
        dynamics.static_background(g)
        dynamics.unstable_mode(g)
        return {"grid": g, "f1": inp["eps"] * np.exp(-g.nodes ** 2),
                "f2": np.zeros(g.n)}

    @staticmethod
    def run_pass(ctx, ops):
        def stable_h():
            res = dynamics.find_stable_h(ctx["f1"], ctx["f2"], ctx["grid"],
                                         bracket_width=0.05, tol=0.0, t_horizon=35.0)
            checks.bracket_outcomes(res.below_outcome, res.above_outcome)
            checks.bisected_to_resolution(*res.bracket_final)
            checks.decay_fit(res.decay_fit)

        ops.run("stable-h", stable_h)


# --- evolution -------------------------------------------------------------

N_DISPERSAL = 8
HORIZON = 30.0
TWIN_HORIZON = 10.0
FREE_N = 500


class Evolution:
    """Fixed-horizon nonlinear runs that keep every output, and the linear propagators."""

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        return {
            "dispersal": [(float(rng.uniform(0.015, 0.025)), float(rng.uniform(0.004, 0.01)))
                          for _ in range(N_DISPERSAL)],
            "bump": (float(rng.uniform(0.015, 0.025)), float(rng.uniform(3.5, 4.5))),
            "width": float(rng.uniform(0.9, 1.1)),
            "modes": [int(j) for j in rng.integers(1, FREE_N // 4, size=2)],
            "t": float(rng.uniform(1.0, 10.0)),
        }

    @staticmethod
    def setup(inp):
        g = radial.make_grid(40.0, 4000)
        r = g.nodes
        background = dynamics.static_background(g)
        mode = dynamics.unstable_mode(g)
        dispersal = []
        for eps, delta in inp["dispersal"]:
            # criterion 12's family: eps e^{-r^2} on sigma_0, below threshold
            f1, f2 = dynamics.project_to_sigma0(eps * np.exp(-r ** 2), np.zeros(g.n), g, mode)
            dispersal.append(dynamics.RadialState(g, f1 - delta * mode.g, f2, "perturbation"))
        amp, radius = inp["bump"]
        bump = np.where(r <= radius, amp * np.sin(np.pi * r / radius) ** 2, 0.0)
        g_sine = radial.make_grid(60.0, 4000)
        av = solitons.aubin_values(1.0, g_sine)
        g_free = radial.make_grid(50.0, FREE_N)
        return {
            "inputs": inp,
            "grid": g,
            "background": background,
            "dispersal": dispersal,
            "bump": dynamics.RadialState(g, bump, np.zeros(g.n), "perturbation"),
            "bump_radius": radius,
            "sine_op": radial.assemble_channel_operator(g_sine, 0, av["potential"]),
            "dphi_da": av["dphi_da"],
            "sine_f": np.exp(-g_sine.nodes ** 2 / (2.0 * inp["width"] ** 2)),
            "sine_times": np.arange(2.0, g_sine.r_max / 2.0 + 1e-9, 1.0),
            "free_op": radial.assemble_channel_operator(g_free, 0, np.zeros(FREE_N)),
        }

    @staticmethod
    def run_pass(ctx, ops):
        # a CLI process pays for the eigendecomposition of H on every run,
        # so no pass may reuse one an earlier pass left in the cache; the
        # static background and the unstable mode stay cached as set-up
        clear_dynamics_caches(("_EIG_CACHE",))
        g = ctx["grid"]
        r = g.nodes

        def dispersal(state):
            traj = dynamics.evolve_nlw(state, HORIZON)
            checks.energy_drift(traj.outcome, traj.energy_series)
            twin = dynamics.evolve_nlw(state.to_full(ctx["background"]), TWIN_HORIZON)
            dev = max(np.abs(a.u - b.u).max()
                      for a, b in zip(twin.snapshots, traj.snapshots))
            checks.frame_agreement(dev)

        for i, state in enumerate(ctx["dispersal"]):
            ops.run(f"dispersal run {i}", lambda: dispersal(state))

        def cone():
            traj = dynamics.evolve_nlw(ctx["bump"], TWIN_HORIZON)
            phi = traj.background / r
            dev = 0.0
            for snap, t in zip(traj.snapshots, traj.times):
                # numerical light cone: speed h/dt = 1/0.9, plus a 3-node stencil margin
                out = r > ctx["bump_radius"] + t / 0.9 + 3 * g.h
                dev = max(dev, np.abs(snap.u[out] - phi[out]).max())
            checks.light_cone(dev)

        ops.run("light cone", cone)

        def split():
            op = ctx["sine_op"]
            res = dynamics.sine_split(op, ctx["dphi_da"], ctx["sine_f"], ctx["sine_times"])
            checks.sine_split_shape(res["times"], res["rank_one_coeff"],
                                    res["remainder_sup"], op.grid.r_max / 4.0 + 3.0)

        ops.run("sine split", split)

        def propagate(j):
            op, t = ctx["free_op"], ctx["inputs"]["t"]
            v, lam = checks.free_dirichlet_eigvec(op.grid.n, op.h, j)
            zero = np.zeros(op.grid.n)
            checks.propagator_on_eigvec(dynamics.linear_propagate(op, v, zero, t),
                                        dynamics.linear_propagate(op, zero, v, t),
                                        v, lam, t)

        for j in ctx["inputs"]["modes"]:
            ops.run(f"linear propagate j={j}", lambda: propagate(j))


WORKLOADS = {"spectra": Spectra, "manifold": Manifold, "evolution": Evolution}
