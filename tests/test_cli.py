import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from solitonlab.cli import main

REPO = Path(__file__).resolve().parent.parent
# a child Python imports the package from this checkout, installed or not
_CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    rc = main(args + ["--out-dir", str(out)])
    return rc, out


def test_spectrum_json(tmp_path):
    rc, out = run_cli(["spectrum", "--a", "1", "--r-max", "50", "--n", "3000"],
                      tmp_path, "spec")
    assert rc == 0
    data = json.loads((out / "spectrum.json").read_text())
    assert len(data["negative_eigenvalues"]) == 1
    assert data["negative_eigenvalues"][0] < 0
    assert data["zero_energy"]["kind"] == "resonance"
    assert (out / "manifest.json").exists()
    assert (out / "ground_state.csv").exists()


def test_bs_count_json(tmp_path):
    rc, out = run_cli(["bs-count", "--ell-max", "3", "--n", "1200"],
                      tmp_path, "bs")
    assert rc == 0
    data = json.loads((out / "bs_count.json").read_text())
    assert data["channel_counts"] == [2, 1, 0, 0]
    assert data["total_with_multiplicity"] == 5


def test_gap_scan_json(tmp_path):
    rc, out = run_cli(["gap-scan", "--sigma", "1.0", "--n", "2000"],
                      tmp_path, "gap")
    assert rc == 0
    data = json.loads((out / "gap_scan.json").read_text())
    assert data["gap_holds"] is True


def test_sigma_star_json(tmp_path):
    rc, out = run_cli(["sigma-star", "--lo", "0.8", "--hi", "1.0",
                       "--tol", "1e-3"], tmp_path, "ss")
    assert rc == 0
    data = json.loads((out / "sigma_star.json").read_text())
    assert data["sigma_star"] == pytest.approx(0.914, abs=0.011)


def test_sigma_star_bad_bracket_exit_code(tmp_path):
    rc, _ = run_cli(["sigma-star", "--lo", "0.95", "--hi", "1.0",
                     "--n", "1500"], tmp_path, "ssbad")
    assert rc == 4


def test_sigma_star_shoots_on_the_reported_r_max(tmp_path, monkeypatch):
    # every ground state is shot on the grid the payload reports; at
    # alpha = 1.697, 20 * alpha / alpha rounds to 19.999999999999996, so any
    # rescaling of --r-max by alpha shows
    import solitonlab.linearized as linearized
    seen = []
    make_grid = linearized.make_grid

    def spy(r_max, n):
        seen.append((r_max, n))
        return make_grid(r_max, n)

    monkeypatch.setattr(linearized, "make_grid", spy)
    rc, out = run_cli(["sigma-star", "--r-max", "20", "--alpha", "1.697",
                       "--n", "400"], tmp_path, "ss20")
    assert rc == 0
    data = json.loads((out / "sigma_star.json").read_text())
    assert data["grid"] == {"r_max": 20.0, "n": 400}
    assert seen and all(call == (20.0, 400) for call in seen)


def test_invalid_config_exit_code(tmp_path):
    rc, _ = run_cli(["spectrum", "--r-max", "-3"], tmp_path, "bad")
    assert rc == 2


def test_nls_ground_csv(tmp_path):
    rc, out = run_cli(["nls-ground", "--sigma", "1", "--n", "2000"],
                      tmp_path, "ground")
    assert rc == 0
    rows = (out / "profile.csv").read_text().splitlines()
    assert rows[0] == "r,phi"
    assert len(rows) == 2001
    data = json.loads((out / "nls_ground.json").read_text())
    assert data["center_value"] == pytest.approx(4.3374, abs=1e-3)


def test_nls_ground_overflow_exit_code(tmp_path, capsys):
    # alpha = 50 on h = 0.4 overflows a shot's power: a numeric failure
    rc, out = run_cli(["nls-ground", "--alpha", "50", "--n", "100"],
                      tmp_path, "ground50")
    assert rc == 3
    assert "overflowed" in capsys.readouterr().err
    assert not out.exists()


def test_weinstein_json(tmp_path):
    rc, out = run_cli(["weinstein", "--sigma", "1.0", "--n", "3000"],
                      tmp_path, "wei")
    assert rc == 0
    data = json.loads((out / "weinstein.json").read_text())
    assert data["h"] > 0
    assert data["mu0"] < 0
    assert data["criterion"]["unstable"] is True


def test_weinstein_near_critical_sigma(tmp_path):
    # mu0 near sigma = 2/3, where Newton steps on the secular function
    # creep along one of its flat steps
    rc, out = run_cli(["weinstein", "--sigma", "0.7", "--n", "3000"],
                      tmp_path, "wei07")
    assert rc == 0
    data = json.loads((out / "weinstein.json").read_text())
    assert data["mu0"] < 0
    assert data["criterion"]["unstable"] is True


def test_weinstein_deep_ground_state_exits(tmp_path):
    # alpha = 10 puts L_plus's ground energy near -1.5e3, where one ulp
    # exceeds the bisection tolerance
    rc, _ = run_cli(["weinstein", "--alpha", "10", "--r-max", "8",
                     "--n", "3000"], tmp_path, "wei10")
    assert rc == 0


def test_jn_demo_deterministic(tmp_path):
    rc1, out1 = run_cli(["jn-demo", "--seed", "3"], tmp_path, "jn1")
    rc2, out2 = run_cli(["jn-demo", "--seed", "3"], tmp_path, "jn2")
    assert rc1 == rc2 == 0
    a = json.loads((out1 / "jn_demo.json").read_text())
    b = json.loads((out2 / "jn_demo.json").read_text())
    assert a == b
    assert a["relative_error_vs_direct"] < 1e-9


def test_laurent_json(tmp_path):
    rc, out = run_cli(["laurent", "--free-d", "1"], tmp_path, "lau")
    assert rc == 0
    data = json.loads((out / "laurent.json").read_text())
    assert data["c_minus2_max"] < 1e-8
    assert data["c_minus1_mean"][1] == pytest.approx(-0.5, abs=1e-8)


def test_classify_mode_json(tmp_path):
    rc, out = run_cli(["classify-mode", "--mode", "translation", "--n", "2000"],
                      tmp_path, "cm")
    assert rc == 0
    data = json.loads((out / "classify_mode.json").read_text())
    assert data["kind"] == "eigenvalue"


def test_evolve_outputs(tmp_path):
    rc, out = run_cli(["evolve", "--amplitude", "0.005", "--t-final", "5",
                       "--n", "1500", "--r-max", "30", "--snapshots", "2"],
                      tmp_path, "ev")
    assert rc == 0
    rows = (out / "observables.csv").read_text().splitlines()
    assert rows[0] == "t,sup_norm,local_energy,n_plus,energy"
    assert any(p.name.startswith("snapshot_t2") for p in out.iterdir())


def test_manifest_records_wall_time_and_peak_rss(tmp_path):
    rc, out = run_cli(["evolve", "--amplitude", "0.005", "--t-final", "5",
                       "--n", "1500", "--r-max", "30"], tmp_path, "evcost")
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    for key in ("wall_s", "peak_rss_mb"):
        assert 0.0 < man[key] < math.inf


def test_evolve_writes_no_snapshot_past_blowup(tmp_path, capsys):
    rc, out = run_cli(["evolve", "--snapshots", "5", "10", "--n", "1500",
                       "--r-max", "30"], tmp_path, "evblow")
    assert rc == 0
    assert json.loads((out / "evolve.json").read_text())["outcome"] == "blowup"
    assert not list(out.glob("snapshot_*.csv"))
    err = capsys.readouterr().err
    assert "t = 5" in err and "t = 10" in err


def test_evolve_names_times_sharing_a_snapshot(tmp_path, capsys):
    # 1 and 1.001 map to the recorded snapshot at t = 1.008 (the run blows
    # up at t = 2.052, after the snapshot for 2.04)
    rc, out = run_cli(["evolve", "--snapshots", "2.04", "1", "1.001",
                       "--n", "1500", "--r-max", "30"], tmp_path, "evshare")
    assert rc == 0
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        "snapshot_t1.008.csv", "snapshot_t2.016.csv"]
    err = capsys.readouterr().err
    assert "1.001" in err and "1.008" in err


def test_mode_ode_outputs(tmp_path):
    rc, out = run_cli(["mode-ode", "--n", "1500", "--dt", "5e-3"],
                      tmp_path, "mo")
    assert rc == 0
    data = json.loads((out / "mode_ode.json").read_text())
    assert data["max_ratio_to_envelope"] <= 10.0


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r-max = 30\nn = 1200\nsigma = 1.0\n")
    out = tmp_path / "cfg_out"
    rc = main(["gap-scan", "--sigma", "1.0", "--config", str(cfg),
               "--out-dir", str(out)])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["r_max"] == 30
    assert man["config"]["n"] == 1200


def test_result_files_byte_identical(tmp_path):
    rc1, out1 = run_cli(["spectrum", "--n", "1500", "--r-max", "40"],
                        tmp_path, "d1")
    rc2, out2 = run_cli(["spectrum", "--n", "1500", "--r-max", "40"],
                        tmp_path, "d2")
    assert rc1 == rc2 == 0
    for name in ("spectrum.json", "ground_state.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_stable_h_json(tmp_path):
    rc, out = run_cli(["stable-h", "--eps", "0.02", "--n", "1500",
                       "--r-max", "35", "--t-final", "25"], tmp_path, "sh")
    assert rc == 0
    data = json.loads((out / "stable_h.json").read_text())
    assert data["below_outcome"] != data["above_outcome"]
    assert abs(data["h_star"]) < 1e-3
    assert 0 < data["n_estimate_runs"] < data["n_runs"]
    assert (out / "centrist_observables.csv").exists()


def test_cli_import_loads_no_scipy_subpackage_but_linalg():
    # importing solitonlab.cli is most of a run's setup time; a stray
    # scipy.optimize (or any other subpackage) would add about 0.25 s to it
    code = ("import sys, solitonlab.cli; print(*sorted("
            "n for n, m in list(sys.modules.items()) if n.count('.') == 1"
            " and n.startswith('scipy.') and not n.startswith('scipy._')"
            " and hasattr(m, '__path__')))")
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=_CHILD_ENV,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["scipy.linalg"]


def test_console_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "solitonlab.cli", "--help"],
                          env=_CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sigma-star" in proc.stdout


@pytest.mark.parametrize("command, line, key", [
    pytest.param(["spectrum"], "n = 5oo", "'n'", id="malformed-value"),
    pytest.param(["spectrum"], "func = x", "'func'", id="reserved-func"),
    pytest.param(["spectrum"], "command = bs-count", "'command'",
                 id="reserved-command"),
    pytest.param(["spectrum"], "config = other.cfg", "'config'",
                 id="reserved-config"),
    pytest.param(["spectrum"], "help = x", "'help'", id="reserved-help"),
    pytest.param(["spectrum"], "r = 30", "'r'", id="unknown-prefix-key"),
    pytest.param(["spectrum"], "n-max = 40", "'n_max'", id="unknown-key"),
    pytest.param(["laurent"], "free_d = 2", "'free_d'", id="bad-choice-int"),
    pytest.param(["classify-mode"], "mode = dilaton", "'mode'",
                 id="bad-choice-str"),
    pytest.param(["gap-scan", "--sigma", "0.85"], "ells =", "'ells'",
                 id="empty-list"),
])
def test_config_file_errors_exit_2(tmp_path, capsys, command, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc, out = run_cli(command + ["--config", str(cfg)], tmp_path, "badcfg")
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_file_supplies_required_flag(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("sigma = 1.0\n")
    rc, out = run_cli(["gap-scan", "--config", str(cfg)], tmp_path, "req")
    assert rc == 0
    data = json.loads((out / "gap_scan.json").read_text())
    assert data["sigma"] == 1.0


def test_required_flag_on_command_line_beats_config(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("sigma = 1.0\nn = 1200\n")
    rc, out = run_cli(["gap-scan", "--config", str(cfg), "--sigma", "0.85"],
                      tmp_path, "req_cli")
    assert rc == 0
    data = json.loads((out / "gap_scan.json").read_text())
    assert data["sigma"] == 0.85
    assert json.loads((out / "manifest.json").read_text())["config"]["n"] == 1200


def test_bad_command_line_value_named_as_argument(tmp_path, capsys):
    # the file and the command line both set --n; only the command line's
    # value is malformed, so the error names the argument, not the key
    cfg = tmp_path / "s.cfg"
    cfg.write_text("sigma = 1.0\nn = 1200\n")
    rc, out = run_cli(["gap-scan", "--sigma", "0.85", "--n", "5oo",
                       "--config", str(cfg)], tmp_path, "badcli")
    assert rc == 2
    err = capsys.readouterr().err
    assert "argument --n" in err
    assert "config key" not in err
    assert not out.exists()


def test_config_file_loses_to_abbreviated_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho_max = 3e-4\n")
    rc, out = run_cli(["laurent", "--rho-ma", "2e-4", "--config", str(cfg)],
                      tmp_path, "abbrev")
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["rho_max"] == 2e-4


def test_grid_flags_only_where_a_grid_is_built(tmp_path):
    rc, out = run_cli(["jn-demo", "--n", "10"], tmp_path, "jn_grid")
    assert rc == 2
    assert not out.exists()


def test_stable_h_short_horizon_exit_2(tmp_path, capsys):
    rc, out = run_cli(["stable-h", "--n", "1000", "--t-final", "5"],
                      tmp_path, "shshort")
    assert rc == 2
    assert "minimum horizon" in capsys.readouterr().err
    assert not (out / "stable_h.json").exists()


@pytest.mark.parametrize("args", [
    ["sine-split", "--n", "400", "--dt-out", "0"],
    ["sine-split", "--n", "400", "--dt-out", "-1"],
    ["sine-split", "--n", "400", "--t0", "40"],
    ["sine-split", "--n", "400", "--t0", "-1"],
    ["mode-ode", "--n", "400", "--dt", "0"],
    ["evolve", "--n", "400", "--t-final", "0"],
    ["evolve", "--n", "400", "--t-final", "-1"],
    ["mode-ode", "--n", "400", "--dt", "100"],
    ["sigma-star", "--n", "400", "--tol", "nan"],
    ["stable-h", "--n", "400", "--bracket-width", "-1"],
    ["stable-h", "--n", "400", "--bracket-width", "0"],
    ["stable-h", "--n", "400", "--bracket-width", "nan"],
    ["stable-h", "--n", "400", "--bracket-width", "inf"],
    ["bs-count", "--r-max", "inf"],
    ["classify-mode", "--r-max", "inf"],
    ["classify-mode", "--a", "inf"],
    ["evolve", "--n", "400", "--amplitude", "nan"],
    ["stable-h", "--n", "400", "--eps", "nan"],
    ["stable-h", "--n", "400", "--tol", "nan"],
    ["stable-h", "--n", "400", "--tol", "-1"],
    ["evolve", "--n", "400", "--snapshots", "30"],
    ["evolve", "--n", "400", "--snapshots", "nan"],
    ["evolve", "--n", "400", "--snapshots", "-1"],
    ["evolve", "--n", "400", "--r-max", "20", "--t-final", "2", "--width", "0"],
    ["evolve", "--n", "400", "--r-max", "20", "--t-final", "2", "--width", "-1"],
    ["evolve", "--n", "400", "--r-max", "20", "--t-final", "2", "--width", "inf"],
    ["bs-count", "--n", "400", "--ell-max", "-1"],
    ["sigma-star", "--n", "400", "--alpha", "0"],
    ["nls-ground", "--n", "400", "--alpha", "inf"],
    ["weinstein", "--n", "400", "--alpha", "inf"],
    ["nls-ground", "--n", "400", "--d", "1", "--sigma", "inf"],
    ["sigma-star", "--n", "400", "--tol", "inf"],
    ["stable-h", "--n", "400", "--r-max", "20", "--tol", "inf"],
    ["sigma-star", "--n", "400", "--lo", "nan"],
    ["jn-demo", "--z", "inf"],
    ["jn-demo", "--z", "nan"],
    ["jn-demo", "--dim", "2", "--rank", "2"],
    ["laurent", "--points", "0"],
    ["laurent", "--rho-min", "inf"],
    ["laurent", "--rho-min=-1e-5"],
])
def test_bad_time_values_exit_2(tmp_path, capsys, args):
    rc, out = run_cli(args, tmp_path, "badtime")
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


def test_mode_ode_dt_past_horizon_names_it(tmp_path, capsys):
    rc, _ = run_cli(["mode-ode", "--n", "400", "--dt", "100"], tmp_path, "mo")
    assert rc == 2
    assert "horizon 20/k" in capsys.readouterr().err


def test_every_public_package_name_has_a_caller():
    # a public top-level function or class of the package must be reached
    # by package code (a name or attribute use; an import alone does not
    # count) or by the benchmark; test-only helpers belong in tests/oracles.py
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted((REPO / "src" / "solitonlab").glob("*.py"))}
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    bench = "".join(p.read_text() for p in (REPO / "perfbench").glob("*.py")
                    if not p.name.startswith("test_"))
    uncalled = [f"{mod}.{node.name}" for mod, tree in modules.items()
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in used and node.name not in bench]
    assert not uncalled, f"no caller outside the tests: {uncalled}"
