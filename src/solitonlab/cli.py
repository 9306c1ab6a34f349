"""Command-line front end: one subcommand per experiment, JSON results for
scalar reports and CSV for series, plus a manifest recording the exact
configuration next to every result.

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure,
4 undecided outcome or bisection-bracket failure.
"""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BracketError, NumericsError
from .radial import make_grid
from .solitons import aubin_values, aubin_dphi_dr, nls_ground_state
from .spectral import (birman_schwinger_count, negative_eigenpairs,
                       zero_energy_diagnosis)
from .linearized import (SigmaStarConfig, assemble_linearized_pair, gap_scan,
                         instability_criterion, mu0, sigma_star, weinstein_h,
                         weinstein_h_from_scaling)
from .resolvent import (classify_zero_mode, free_resolvent_kernel,
                        halfline_free_kernel, jensen_nenciu_invert,
                        laurent_fit, singular_family)
from .dynamics import (RadialState, evolve_nlw, evolve_unstable_mode,
                       find_stable_h, sine_split,
                       stability_initial_condition, unstable_mode)
from .radial import assemble_channel_operator


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _run(args) -> int:
    """Run the subcommand and write its files plus manifest.json.

    A command returns {file name: JSON payload | (CSV header, columns)},
    and evolve also its exit code; nothing is written when it raises.
    """
    files = args.func(args)
    code = 0
    if isinstance(files, tuple):
        files, code = files
    out = Path(args.out_dir or os.environ.get("SOLITONLAB_OUT_DIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    files["manifest.json"] = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "config")},
        "versions": {
            "solitonlab": __version__,
            "numpy": np.__version__,
        },
        "grid": {"r_max": getattr(args, "r_max", None),
                 "n": getattr(args, "n", None)},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    for name, data in files.items():
        if isinstance(data, tuple):
            header, columns = data
            text = ",".join(header) + "\n" + "".join(
                ",".join(format(x, ".17g") for x in row) + "\n"
                for row in np.column_stack(columns))
        else:
            text = json.dumps(data, indent=2, sort_keys=True,
                              default=_json_default) + "\n"
        (out / name).write_text(text)
    return code


def cmd_spectrum(args):
    g = make_grid(args.r_max, args.n)
    av = aubin_values(args.a, g)
    op = assemble_channel_operator(g, args.ell, av["potential"])
    pairs = negative_eigenpairs(op)
    diag = zero_energy_diagnosis(op)
    files = {"spectrum.json": {
        "a": args.a,
        "ell": args.ell,
        "negative_eigenvalues": [p.energy for p in pairs],
        "node_counts": [p.node_count for p in pairs],
        "k": float(np.sqrt(-pairs[0].energy)) if pairs else None,
        "zero_energy": {
            "kind": diag.kind,
            "tail_slope": diag.tail_slope,
            "tail_const": diag.tail_const,
            "v_integral": diag.v_integral,
            "fit_residual": diag.fit_residual,
        },
    }}
    if pairs:
        files["ground_state.csv"] = (["r", "g"], [g.nodes, pairs[0].vector])
    return files


def cmd_bs_count(args):
    g = make_grid(args.r_max, args.n)
    V = aubin_values(args.a, g)["potential"]
    rep = birman_schwinger_count(V, args.ell_max, g, args.eps)
    return {"bs_count.json": {
        "a": args.a,
        "ell_max": args.ell_max,
        "threshold_eps": rep.threshold_eps,
        "channel_counts": rep.channel_counts,
        "total_with_multiplicity": rep.total_with_multiplicity,
        "top_eigenvalues": rep.top_eigenvalues,
    }}


def _gap_report_payload(report):
    return {
        "sigma": report.sigma,
        "alpha_sq": report.alpha_sq,
        "eigenvalues": {name: {str(ell): vals for ell, vals in chans.items()}
                        for name, chans in report.eigenvalues.items()},
        "edge_resonance": {name: {str(ell): bool(f) for ell, f in chans.items()}
                           for name, chans in report.edge_resonance.items()},
        "gap_holds": report.gap_holds,
    }


def cmd_gap_scan(args):
    g = make_grid(args.r_max, args.n)
    profile = nls_ground_state(args.sigma, args.alpha, args.d, g)
    report = gap_scan(assemble_linearized_pair(profile, tuple(args.ells)))
    return {"gap_scan.json": _gap_report_payload(report)}


def cmd_sigma_star(args):
    cfg = SigmaStarConfig(alpha=args.alpha, d=args.d,
                          r_max_over_alpha=args.r_max * args.alpha,
                          n=args.n, ells=tuple(args.ells))
    value = sigma_star((args.lo, args.hi), args.tol, cfg)
    return {"sigma_star.json": {
        "bracket": [args.lo, args.hi],
        "tol": args.tol,
        "sigma_star": value,
        "grid": {"r_max": args.r_max, "n": args.n},
    }}


def cmd_nls_ground(args):
    g = make_grid(args.r_max, args.n)
    p = nls_ground_state(args.sigma, args.alpha, args.d, g)
    return {
        "nls_ground.json": {
            "sigma": p.sigma, "alpha": p.alpha, "d": p.d,
            "center_value": p.center_value, "decay_rate": p.decay_rate,
        },
        "profile.csv": (["r", "phi"], [g.nodes, p.samples]),
    }


def cmd_weinstein(args):
    g = make_grid(args.r_max, args.n)
    p = nls_ground_state(args.sigma, args.alpha, args.d, g)
    pair = assemble_linearized_pair(p, (0,))
    h0 = weinstein_h(pair, args.mu)
    payload = {
        "sigma": args.sigma, "alpha": args.alpha, "mu": args.mu,
        "h": h0,
        "criterion": instability_criterion(args.sigma, args.d),
    }
    if args.mu == 0.0:
        payload["h_scaling_route"] = weinstein_h_from_scaling(pair)
        payload["mu0"] = mu0(pair)
    return {"weinstein.json": payload}


def cmd_jn_demo(args):
    rng = np.random.default_rng(args.seed)
    dim, rank = args.dim, args.rank
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    vals = np.concatenate([np.zeros(rank), rng.uniform(0.5, 3.0, dim - rank)])
    A0 = Q @ np.diag(vals) @ Q.T
    A0 = 0.5 * (A0 + A0.T)
    B1 = rng.standard_normal((dim, dim))
    B1 = 0.5 * (B1 + B1.T)
    fam = singular_family(A0, lambda z: B1)
    res = jensen_nenciu_invert(fam, args.z)
    direct = np.linalg.inv(fam.A(args.z))
    err = float(np.abs(res["A_inv"] - direct).max() / np.abs(direct).max())
    return {"jn_demo.json": {
        "dim": dim, "rank": rank, "z": args.z, "seed": args.seed,
        "relative_error_vs_direct": err,
        "uniform_bound_check": float(np.abs(
            fam.S - fam.S @ np.linalg.inv(fam.A0 + fam.S) @ fam.S).max()),
    }}


def cmd_laurent(args):
    xs = np.linspace(0.5, 5.0, args.points)
    if args.free_d == 1:
        def sampler(z):
            return np.array([[free_resolvent_kernel(1, z, x, y)
                              for y in xs] for x in xs])
    else:
        def sampler(z):
            return np.array([[halfline_free_kernel(z, x, y)
                              for y in xs] for x in xs])
    rhos = np.geomspace(args.rho_min, args.rho_max, args.samples)
    co = laurent_fit(sampler, 1j * rhos)
    return {"laurent.json": {
        "free_d": args.free_d,
        "c_minus2_max": float(np.abs(co.c_minus2).max()),
        "c_minus1_max": float(np.abs(co.c_minus1).max()),
        "c_minus1_mean": [float(np.mean(co.c_minus1.real)),
                          float(np.mean(co.c_minus1.imag))],
        "fit_residual": co.fit_residual,
        "note": "entrywise matrix fit on z = i rho; weighted-space topology "
                "replaced by the fixed discretization",
    }}


def cmd_classify_mode(args):
    g = make_grid(args.r_max, args.n)
    av = aubin_values(args.a, g)
    if args.mode == "dilation":
        f = av["dphi_da"]
        ell = 0
    else:
        f = aubin_dphi_dr(g.nodes, args.a)
        ell = 1
    res = classify_zero_mode(av["potential"], f, g, ell=ell)
    res.update({"mode": args.mode, "ell": ell, "a": args.a})
    return {"classify_mode.json": res}


def cmd_evolve(args):
    for t_want in args.snapshots:
        if not 0.0 <= t_want <= args.t_final:
            raise ValueError(f"--snapshots time {t_want} is outside "
                             f"[0, --t-final = {args.t_final}]")
    if not 0.0 < args.width < math.inf:
        raise ValueError(f"--width must be positive and finite, got {args.width}")
    g = make_grid(args.r_max, args.n)
    r = g.nodes
    u0 = args.amplitude * np.exp(-r ** 2 / args.width ** 2)
    state = RadialState(g, u0, np.zeros(g.n), "perturbation")
    traj = evolve_nlw(state, args.t_final)
    files = {
        "observables.csv": (
            ["t", "sup_norm", "local_energy", "n_plus", "energy"],
            [traj.times, traj.sup_norms, traj.local_energy,
             traj.n_plus_series, traj.energy_series]),
        "evolve.json": {
            "outcome": traj.outcome,
            "blowup_time": (None if np.isnan(traj.blowup_time)
                            else traj.blowup_time),
            "exit_time": None if np.isnan(traj.exit_time) else traj.exit_time,
            "dt": traj.dt,
        },
    }
    wanted = {}
    for t_want in args.snapshots:
        if t_want > traj.blowup_time:
            print(f"no snapshot at t = {t_want:g}: the run blew up at "
                  f"t = {traj.blowup_time:g}", file=sys.stderr)
            continue
        j = int(np.argmin(np.abs(traj.times - t_want)))
        wanted.setdefault(j, []).append(t_want)
    for j, ts in wanted.items():
        if len(ts) > 1:
            print(f"t = {', '.join(f'{t:g}' for t in ts)} share one snapshot: "
                  f"the nearest recorded one is at t = {traj.times[j]:g}",
                  file=sys.stderr)
        s = traj.snapshots[j]
        files[f"snapshot_t{traj.times[j]:g}.csv"] = (
            ["r", "u", "ut"], [r, s.u - traj.background / r, s.ut])
    return files, 0 if traj.outcome != "undecided" else 4


def cmd_stable_h(args):
    g = make_grid(args.r_max, args.n)
    r = g.nodes
    f1 = args.eps * np.exp(-r ** 2)
    res = find_stable_h(f1, np.zeros(g.n), g, bracket_width=args.bracket_width,
                        tol=args.tol, t_horizon=args.t_final)
    traj = res.trajectory
    return {
        "stable_h.json": {
            "eps": args.eps,
            "h_star": res.h_star,
            "bracket_final": list(res.bracket_final),
            "below_outcome": res.below_outcome,
            "above_outcome": res.above_outcome,
            "decay_fit": res.decay_fit,
            "decay_window": list(res.decay_window),
            "n_runs": res.n_runs,
            "n_estimate_runs": res.n_estimate_runs,
        },
        "centrist_observables.csv": (
            ["t", "sup_norm", "n_plus"],
            [traj.times, traj.sup_norms, traj.n_plus_series]),
    }


def cmd_sine_split(args):
    if not 0.0 < args.dt_out < math.inf:
        raise ValueError(f"--dt-out must be positive and finite, got "
                         f"{args.dt_out}")
    if not args.t0 <= args.r_max / 2.0:
        raise ValueError(f"--t0 = {args.t0} is beyond the last output time "
                         f"r_max/2 = {args.r_max / 2.0}")
    g = make_grid(args.r_max, args.n)
    av = aubin_values(1.0, g)
    op = assemble_channel_operator(g, 0, av["potential"])
    f = np.exp(-g.nodes ** 2 / 2.0)
    times = np.arange(args.t0, args.r_max / 2.0 + 1e-9, args.dt_out)
    res = sine_split(op, av["dphi_da"], f, times)
    return {"sine_split.csv": (
        ["t", "rank_one_coeff", "remainder_sup"],
        [res["times"], res["rank_one_coeff"], res["remainder_sup"]])}


def cmd_mode_ode(args):
    if not 0.0 < args.dt < math.inf:
        raise ValueError(f"--dt must be positive and finite, got {args.dt}")
    g = make_grid(args.r_max, args.n)
    k = unstable_mode(g).k
    T = 20.0 / k
    if not args.dt < T:
        raise ValueError(
            f"--dt must be below the horizon 20/k = {T:.6g}, got {args.dt}")
    ts = np.linspace(0.0, T, int(round(T / args.dt)) + 1)
    F = 1.0 / (1.0 + ts ** 2)
    n0 = stability_initial_condition(ts, F, k)
    series = evolve_unstable_mode(ts, F, k, n0)
    return {
        "mode_ode.csv": (["t", "n_plus", "envelope"],
                         [ts, series, 1.0 / (1.0 + ts ** 2)]),
        "mode_ode.json": {
            "k": k, "n_plus_0": n0, "horizon": T,
            "max_ratio_to_envelope": float(
                np.max(np.abs(series) * (1 + ts ** 2))),
        },
    }


def build_parser(exit_on_error=True):
    """The solitonlab parser; with exit_on_error=False a value a flag
    rejects raises argparse.ArgumentError instead of exiting."""
    ap = argparse.ArgumentParser(prog="solitonlab",
                                 description=__doc__.split("\n")[0],
                                 exit_on_error=exit_on_error)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, grid=None):
        """Subparser with --out-dir and --config, plus --r-max and --n with
        the defaults grid = (r_max, n) for a command that builds a grid."""
        p = sub.add_parser(name, help=help, exit_on_error=exit_on_error)
        if grid:
            p.add_argument("--r-max", type=float, default=grid[0])
            p.add_argument("--n", type=int, default=grid[1])
        p.add_argument("--out-dir", type=str, default=None,
                       help="output directory (default: SOLITONLAB_OUT_DIR or .)")
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value file; command-line flags override")
        p.set_defaults(func=func)
        return p

    p = command("spectrum", cmd_spectrum,
                "negative spectrum and zero-energy diagnosis", (50.0, 4000))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--ell", type=int, default=0)

    p = command("bs-count", cmd_bs_count, "Birman-Schwinger channel counts",
                (60.0, 1500))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--ell-max", type=int, default=3)
    p.add_argument("--eps", type=float, default=1e-3)

    p = command("gap-scan", cmd_gap_scan,
                "spectral gap of the linearized pair", (40.0, 3000))
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--ells", type=int, nargs="+", default=[0, 1])

    p = command("sigma-star", cmd_sigma_star,
                "bisect the gap-breakdown exponent", (40.0, 3000))
    p.add_argument("--lo", type=float, default=0.8)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--ells", type=int, nargs="+", default=[0, 1])

    p = command("nls-ground", cmd_nls_ground, "shoot an NLS ground state",
                (40.0, 3000))
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)

    p = command("weinstein", cmd_weinstein,
                "h(mu), mu0, and the instability criterion", (40.0, 6000))
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--mu", type=float, default=0.0)

    p = command("jn-demo", cmd_jn_demo,
                "Jensen-Nenciu inversion on a random family")
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--z", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)

    p = command("laurent", cmd_laurent,
                "Laurent fit of a free resolvent kernel")
    p.add_argument("--free-d", type=int, choices=(1, 3), default=1)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--rho-min", type=float, default=1e-5)
    p.add_argument("--rho-max", type=float, default=1e-4)

    p = command("classify-mode", cmd_classify_mode,
                "resonance/eigenvalue zero-mode split", (60.0, 4000))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--mode", choices=("dilation", "translation"),
                   default="dilation")

    p = command("evolve", cmd_evolve,
                "radial wave evolution of a bump perturbation", (40.0, 4000))
    p.add_argument("--amplitude", type=float, default=0.02)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--t-final", type=float, default=25.0)
    p.add_argument("--snapshots", type=float, nargs="*", default=[])

    p = command("stable-h", cmd_stable_h,
                "stable-manifold experiment: the h* between blowup and "
                "dispersal", (40.0, 4000))
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--bracket-width", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--t-final", type=float, default=35.0)

    p = command("sine-split", cmd_sine_split,
                "resonance rank-one term of the sine evolution", (60.0, 4000))
    p.add_argument("--t0", type=float, default=2.0)
    p.add_argument("--dt-out", type=float, default=1.0)

    p = command("mode-ode", cmd_mode_ode,
                "stability-condition dichotomy for n_plus", (40.0, 3000))
    p.add_argument("--dt", type=float, default=1e-3)

    return ap


# parser bookkeeping that a config file may not set
_RESERVED_KEYS = ("func", "command", "config", "help")


def _config_flags(argv):
    """The --config file's lines as flags, with their keys.

    A pre-parser finds --config; each line key = v1 v2 becomes --key v1 v2.
    Raises ValueError naming a reserved key.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    keys, flags = [], []
    if path is None:
        return keys, flags
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in _RESERVED_KEYS:
            raise ValueError(f"config key {key!r} is reserved")
        keys.append(key)
        flags += ["--" + key.replace("_", "-"), *val.split()]
    return keys, flags


def _parse_args(argv):
    """Parse argv with the --config file's flags placed right after the
    subcommand, so argparse checks each like the flag (type, nargs,
    choices, required) and keeps the last value: any explicit flag,
    abbreviated or not, wins.  Raises ValueError naming the key for an
    unknown key and for a value the flag rejects, or naming the argument
    when the rejected value is the command line's.
    """
    keys, flags = _config_flags(argv)
    ap = build_parser(exit_on_error=not keys)
    # the top-level parser takes no valued flag, so the first word is the command
    i = next((j for j, a in enumerate(argv) if not a.startswith("-")), 0)
    try:
        args, extra = ap.parse_known_args(argv[:i + 1] + flags + argv[i + 1:])
    except argparse.ArgumentError as e:
        key = e.argument_name.lstrip("-").replace("-", "_")
        where = f"argument {e.argument_name}"
        if key in keys:
            # the file's flags are parsed first; parse them alone, ended by a
            # bare --config that always fails, to see which occurrence failed
            try:
                ap.parse_known_args(argv[:i + 1] + flags + ["--config"])
            except argparse.ArgumentError as file_error:
                if file_error.argument_name == e.argument_name:
                    where = f"config key {key!r}"
        raise ValueError(f"{where}: {e.message}") from None
    for key in keys:
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r} for {args.command}")
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _run(_parse_args(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except BracketError as e:
        print(f"bracket failure: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
