"""Command-line front end: one subcommand per experiment, JSON results for
scalar reports and CSV for series, plus a manifest recording the exact
configuration next to every result.

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure,
4 undecided outcome or bisection-bracket failure.
"""

import argparse
import json
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
from .resolvent import (classify_zero_mode, jensen_nenciu_invert, laurent_fit,
                        singular_family, halfline_free_kernel)
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


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _write_csv(path: Path, header: list, columns: list):
    rows = np.column_stack(columns)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format(x, ".17g") for x in row) + "\n")


def _write_manifest(out: Path, command: str, args: argparse.Namespace):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "config")}
    _write_json(out / "manifest.json", {
        "command": command,
        "config": cfg,
        "versions": {
            "solitonlab": __version__,
            "numpy": np.__version__,
        },
        "grid": {"r_max": getattr(args, "r_max", None),
                 "n": getattr(args, "n", None)},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("SOLITONLAB_OUT_DIR", ".")
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_spectrum(args):
    g = make_grid(args.r_max, args.n)
    av = aubin_values(args.a, g)
    op = assemble_channel_operator(g, args.ell, av["potential"])
    pairs = negative_eigenpairs(op)
    diag = zero_energy_diagnosis(op)
    out = _out_dir(args)
    _write_json(out / "spectrum.json", {
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
    })
    if pairs:
        _write_csv(out / "ground_state.csv", ["r", "g"],
                   [g.nodes, pairs[0].vector])
    _write_manifest(out, "spectrum", args)
    return 0


def cmd_bs_count(args):
    g = make_grid(args.r_max, args.n)
    V = aubin_values(args.a, g)["potential"]
    rep = birman_schwinger_count(V, args.ell_max, g, args.eps)
    _write_json(_out_dir(args) / "bs_count.json", {
        "a": args.a,
        "ell_max": args.ell_max,
        "threshold_eps": rep.threshold_eps,
        "channel_counts": rep.channel_counts,
        "total_with_multiplicity": rep.total_with_multiplicity,
        "top_eigenvalues": rep.top_eigenvalues,
    })
    _write_manifest(_out_dir(args), "bs-count", args)
    return 0


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
    _write_json(_out_dir(args) / "gap_scan.json", _gap_report_payload(report))
    _write_manifest(_out_dir(args), "gap-scan", args)
    return 0


def cmd_sigma_star(args):
    cfg = SigmaStarConfig(alpha=args.alpha, d=args.d,
                          r_max_over_alpha=args.r_max * args.alpha,
                          n=args.n, ells=tuple(args.ells))
    value = sigma_star((args.lo, args.hi), args.tol, cfg)
    _write_json(_out_dir(args) / "sigma_star.json", {
        "bracket": [args.lo, args.hi],
        "tol": args.tol,
        "sigma_star": value,
        "grid": {"r_max": args.r_max, "n": args.n},
    })
    _write_manifest(_out_dir(args), "sigma-star", args)
    return 0


def cmd_nls_ground(args):
    g = make_grid(args.r_max, args.n)
    p = nls_ground_state(args.sigma, args.alpha, args.d, g)
    out = _out_dir(args)
    _write_json(out / "nls_ground.json", {
        "sigma": p.sigma, "alpha": p.alpha, "d": p.d,
        "center_value": p.center_value, "decay_rate": p.decay_rate,
    })
    _write_csv(out / "profile.csv", ["r", "phi"], [g.nodes, p.samples])
    _write_manifest(out, "nls-ground", args)
    return 0


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
        g_c = make_grid(args.r_max, min(args.n, 1600))
        p_c = nls_ground_state(args.sigma, args.alpha, args.d, g_c)
        payload["mu0"] = mu0(assemble_linearized_pair(p_c, (0,)))
    _write_json(_out_dir(args) / "weinstein.json", payload)
    _write_manifest(_out_dir(args), "weinstein", args)
    return 0


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
    _write_json(_out_dir(args) / "jn_demo.json", {
        "dim": dim, "rank": rank, "z": args.z, "seed": args.seed,
        "relative_error_vs_direct": err,
        "uniform_bound_check": float(np.abs(
            fam.S - fam.S @ np.linalg.inv(fam.A0 + fam.S) @ fam.S).max()),
    })
    _write_manifest(_out_dir(args), "jn-demo", args)
    return 0


def cmd_laurent(args):
    xs = np.linspace(0.5, 5.0, args.points)
    if args.free_d == 1:
        def sampler(z):
            return np.array([[np.exp(1j * z * abs(x - y)) / (2j * z)
                              for y in xs] for x in xs])
    else:
        def sampler(z):
            return np.array([[halfline_free_kernel(z, x, y)
                              for y in xs] for x in xs])
    rhos = np.geomspace(args.rho_min, args.rho_max, args.samples)
    co = laurent_fit(sampler, 1j * rhos)
    _write_json(_out_dir(args) / "laurent.json", {
        "free_d": args.free_d,
        "c_minus2_max": float(np.abs(co.c_minus2).max()),
        "c_minus1_max": float(np.abs(co.c_minus1).max()),
        "c_minus1_mean": [float(np.mean(co.c_minus1.real)),
                          float(np.mean(co.c_minus1.imag))],
        "fit_residual": co.fit_residual,
        "note": "entrywise matrix fit on z = i rho; weighted-space topology "
                "replaced by the fixed discretization",
    })
    _write_manifest(_out_dir(args), "laurent", args)
    return 0


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
    _write_json(_out_dir(args) / "classify_mode.json", res)
    _write_manifest(_out_dir(args), "classify-mode", args)
    return 0


def cmd_evolve(args):
    g = make_grid(args.r_max, args.n)
    r = g.nodes
    u0 = args.amplitude * np.exp(-r ** 2 / args.width ** 2)
    state = RadialState(g, u0, np.zeros(g.n), "perturbation")
    traj = evolve_nlw(state, args.t_final)
    out = _out_dir(args)
    _write_csv(out / "observables.csv",
               ["t", "sup_norm", "local_energy", "n_plus", "energy"],
               [traj.times, traj.sup_norms, traj.local_energy,
                traj.n_plus_series, traj.energy_series])
    if args.snapshots:
        for t_want in args.snapshots:
            j = int(np.argmin(np.abs(traj.times - t_want)))
            s = traj.snapshots[j]
            _write_csv(out / f"snapshot_t{traj.times[j]:g}.csv",
                       ["r", "u", "ut"],
                       [r, s.u - traj.background / r, s.ut])
    _write_json(out / "evolve.json", {
        "outcome": traj.outcome,
        "blowup_time": None if np.isnan(traj.blowup_time) else traj.blowup_time,
        "exit_time": None if np.isnan(traj.exit_time) else traj.exit_time,
        "dt": traj.dt,
    })
    _write_manifest(out, "evolve", args)
    return 0 if traj.outcome != "undecided" else 4


def cmd_stable_h(args):
    g = make_grid(args.r_max, args.n)
    r = g.nodes
    f1 = args.eps * np.exp(-r ** 2)
    res = find_stable_h(f1, np.zeros(g.n), g, bracket_width=args.bracket_width,
                        tol=args.tol, t_horizon=args.t_final)
    traj = res.trajectory
    out = _out_dir(args)
    _write_json(out / "stable_h.json", {
        "eps": args.eps,
        "h_star": res.h_star,
        "bracket_final": list(res.bracket_final),
        "below_outcome": res.below_outcome,
        "above_outcome": res.above_outcome,
        "decay_fit": res.decay_fit,
        "decay_window": list(res.decay_window),
        "n_runs": res.n_runs,
    })
    _write_csv(out / "centrist_observables.csv",
               ["t", "sup_norm", "n_plus"],
               [traj.times, traj.sup_norms, traj.n_plus_series])
    _write_manifest(out, "stable-h", args)
    return 0


def cmd_sine_split(args):
    g = make_grid(args.r_max, args.n)
    av = aubin_values(1.0, g)
    op = assemble_channel_operator(g, 0, av["potential"])
    f = np.exp(-g.nodes ** 2 / 2.0)
    times = np.arange(args.t0, args.r_max / 2.0 + 1e-9, args.dt_out)
    res = sine_split(op, av["dphi_da"], f, times)
    out = _out_dir(args)
    _write_csv(out / "sine_split.csv",
               ["t", "rank_one_coeff", "remainder_sup"],
               [res["times"], res["rank_one_coeff"], res["remainder_sup"]])
    _write_manifest(out, "sine-split", args)
    return 0


def cmd_mode_ode(args):
    g = make_grid(args.r_max, args.n)
    k = unstable_mode(g).k
    T = 20.0 / k
    ts = np.linspace(0.0, T, int(round(T / args.dt)) + 1)
    F = 1.0 / (1.0 + ts ** 2)
    n0 = stability_initial_condition(ts, F, k)
    series = evolve_unstable_mode(ts, F, k, n0)
    out = _out_dir(args)
    _write_csv(out / "mode_ode.csv", ["t", "n_plus", "envelope"],
               [ts, series, 1.0 / (1.0 + ts ** 2)])
    _write_json(out / "mode_ode.json", {
        "k": k, "n_plus_0": n0, "horizon": T,
        "max_ratio_to_envelope": float(np.max(np.abs(series) * (1 + ts ** 2))),
    })
    _write_manifest(out, "mode-ode", args)
    return 0


def _add_grid_args(p, r_max=50.0, n=4000):
    p.add_argument("--r-max", type=float, default=r_max)
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--out-dir", type=str, default=None,
                   help="output directory (default: SOLITONLAB_OUT_DIR or .)")
    p.add_argument("--config", type=str, default=None,
                   help="flat key=value file; command-line flags override")


def build_parser():
    ap = argparse.ArgumentParser(prog="solitonlab",
                                 description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="negative spectrum and zero-energy diagnosis")
    _add_grid_args(p)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--ell", type=int, default=0)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bs-count", help="Birman-Schwinger channel counts")
    _add_grid_args(p, r_max=60.0, n=1500)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--ell-max", type=int, default=3)
    p.add_argument("--eps", type=float, default=1e-3)
    p.set_defaults(func=cmd_bs_count)

    p = sub.add_parser("gap-scan", help="spectral gap of the linearized pair")
    _add_grid_args(p, r_max=40.0, n=3000)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--ells", type=int, nargs="+", default=[0, 1])
    p.set_defaults(func=cmd_gap_scan)

    p = sub.add_parser("sigma-star", help="bisect the gap-breakdown exponent")
    _add_grid_args(p, r_max=40.0, n=3000)
    p.add_argument("--lo", type=float, default=0.8)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--ells", type=int, nargs="+", default=[0, 1])
    p.set_defaults(func=cmd_sigma_star)

    p = sub.add_parser("nls-ground", help="shoot an NLS ground state")
    _add_grid_args(p, r_max=40.0, n=3000)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)
    p.set_defaults(func=cmd_nls_ground)

    p = sub.add_parser("weinstein", help="h(mu), mu0, and the instability criterion")
    _add_grid_args(p, r_max=40.0, n=6000)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--mu", type=float, default=0.0)
    p.set_defaults(func=cmd_weinstein)

    p = sub.add_parser("jn-demo", help="Jensen-Nenciu inversion on a random family")
    _add_grid_args(p)
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--z", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_jn_demo)

    p = sub.add_parser("laurent", help="Laurent fit of a free resolvent kernel")
    _add_grid_args(p)
    p.add_argument("--free-d", type=int, choices=(1, 3), default=1)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--rho-min", type=float, default=1e-5)
    p.add_argument("--rho-max", type=float, default=1e-4)
    p.set_defaults(func=cmd_laurent)

    p = sub.add_parser("classify-mode", help="resonance/eigenvalue zero-mode split")
    _add_grid_args(p, r_max=60.0, n=4000)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--mode", choices=("dilation", "translation"),
                   default="dilation")
    p.set_defaults(func=cmd_classify_mode)

    p = sub.add_parser("evolve", help="radial wave evolution of a bump perturbation")
    _add_grid_args(p, r_max=40.0, n=4000)
    p.add_argument("--amplitude", type=float, default=0.02)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--t-final", type=float, default=25.0)
    p.add_argument("--snapshots", type=float, nargs="*", default=[])
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("stable-h", help="stable-manifold bisection experiment")
    _add_grid_args(p, r_max=40.0, n=4000)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--bracket-width", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--t-final", type=float, default=35.0)
    p.set_defaults(func=cmd_stable_h)

    p = sub.add_parser("sine-split", help="resonance rank-one term of the sine evolution")
    _add_grid_args(p, r_max=60.0, n=4000)
    p.add_argument("--t0", type=float, default=2.0)
    p.add_argument("--dt-out", type=float, default=1.0)
    p.set_defaults(func=cmd_sine_split)

    p = sub.add_parser("mode-ode", help="stability-condition dichotomy for n_plus")
    _add_grid_args(p, r_max=40.0, n=3000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_mode_ode)

    return ap


# parser bookkeeping that a config file may not set
_RESERVED_KEYS = ("func", "command", "config")


def _apply_config_file(args, argv):
    """Fill flags not given on the command line from the --config file.

    Raises ValueError naming the key for a reserved or unknown key and for
    a value that does not parse as the flag's type.
    """
    if getattr(args, "config", None):
        text = Path(args.config).read_text()
        file_vals = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            file_vals[key.strip().replace("-", "_")] = val.strip()
        argv_keys = {a.lstrip("-").replace("-", "_").split("=")[0]
                     for a in argv[1:] if a.startswith("--")}
        for key, val in file_vals.items():
            if key in _RESERVED_KEYS:
                raise ValueError(f"config key {key!r} is reserved")
            if not hasattr(args, key):
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            if key in argv_keys:
                continue
            cur = getattr(args, key)
            try:
                if isinstance(cur, bool):
                    setattr(args, key, val.lower() in ("1", "true", "yes"))
                elif isinstance(cur, int):
                    setattr(args, key, int(val))
                elif isinstance(cur, float):
                    setattr(args, key, float(val))
                elif isinstance(cur, list):
                    setattr(args, key, [type(cur[0])(x) if cur else float(x)
                                        for x in val.split()])
                else:
                    setattr(args, key, val)
            except ValueError:
                raise ValueError(
                    f"config key {key!r}: cannot read {val!r}") from None
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        args = _apply_config_file(args, argv)
    except (ValueError, OSError) as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
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
