import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import staleness_lab
from staleness_lab.acceptance import run_criteria
from staleness_lab.cli import COMMANDS, FLAGS, main
from staleness_lab.stability import analytic_threshold_plain


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestThreshold:
    def test_table_and_fit_on_stdout(self, capsys):
        rc, out, err = run_cli(capsys, "threshold", "--a", "1.0", "--tau", "1,2,4,8")
        assert rc == 0
        assert "eta_star=0.18453671923828124" in out
        assert "slope=" in out

    def test_range_syntax_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "curve.csv"
        rc, out, err = run_cli(capsys, "threshold", "--a", "1.0", "--tau", "2..5",
                               "--out", str(out_csv))
        assert rc == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "tau_or_Etau,eta_star,inv_a_eta,method,max_root_residual"
        assert len(lines) == 5
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["command"] == "threshold"
        assert manifest["outputs"] == ["curve.csv"]

    def test_pmf_threshold(self, capsys):
        rc, out, err = run_cli(capsys, "threshold", "--a", "1.0", "--pmf", "uniform:1,9")
        assert rc == 0
        assert "0.3799540458984375" in out

    def test_svg_written(self, capsys, tmp_path):
        out_csv, out_svg = tmp_path / "c.csv", tmp_path / "c.svg"
        rc, _, _ = run_cli(capsys, "threshold", "--a", "1.0", "--tau", "1,2,4",
                           "--out", str(out_csv), "--svg", str(out_svg))
        assert rc == 0
        assert out_svg.read_text().startswith("<svg")

    def test_svg_of_a_sweep_with_no_threshold_is_skipped(self, capsys, tmp_path,
                                                         no_threshold_at_tau_zero):
        # exit 1 with the CSV and its manifest, as without --svg
        out_csv, out_svg = tmp_path / "c.csv", tmp_path / "c.svg"
        rc, out, err = run_cli(capsys, "threshold", "--a", "1", "--tau", "0",
                               "--out", str(out_csv), "--svg", str(out_svg))
        assert rc == 1 and out == f"wrote 1 rows to {out_csv}\n"
        assert err.endswith(f"\nno row succeeded; {out_svg} not written\n")
        assert out_csv.exists() and not out_svg.exists()
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["outputs"] == ["c.csv"]

    def test_failed_row_exits_one_with_diagnostic(self, capsys, no_threshold_at_tau_zero):
        rc, out, err = run_cli(capsys, "threshold", "--a", "1.0", "--variant",
                               "shifted", "--m", "0.9", "--tau", "0,4")
        assert rc == 1
        assert "x=0" in err and "failed" in err
        assert "x=4" in out  # the good row still reported

    def test_largest_accepted_delay_finishes(self, capsys):
        rc, out, _ = run_cli(capsys, "threshold", "--a", "1", "--tau", "10000")
        assert rc == 0
        want = analytic_threshold_plain(1.0, 10_000)
        got = float(out.split("eta_star=")[1].split()[0])
        assert abs(got - want) <= 1e-8 * want

    def test_requires_exactly_one_delay_spec(self, capsys):
        rc, _, err = run_cli(capsys, "threshold", "--a", "1.0")
        assert rc == 2
        rc, _, err = run_cli(capsys, "threshold", "--a", "1.0", "--tau", "2",
                             "--pmf", "uniform:1,3")
        assert rc == 2

    def test_requires_a(self, capsys):
        rc, _, err = run_cli(capsys, "threshold", "--tau", "2")
        assert rc == 2
        assert "--a" in err

    def test_empty_tau_list_is_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "threshold", "--a", "1", "--tau", ",")
        assert rc == 2
        assert out == "" and err.startswith("usage error:")

    def test_non_finite_rel_tol_is_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "threshold", "--a", "1", "--tau", "3", "--rel-tol", "nan")
        assert rc == 2
        assert out == "" and "--rel-tol" in err

    @pytest.mark.parametrize("a, tau", [("5e-311", "0"), ("1e-320", "4")])
    def test_a_row_whose_step_sizes_overflow_fails_in_place(self, capsys, a, tau):
        rc, out, err = run_cli(capsys, "threshold", "--a", a, "--tau", tau)
        assert (rc, out) == (1, f"x={tau}  failed\n")
        assert err == f"row x={tau} failed: a = {a} is too small: its step sizes overflow to inf\n"

    def test_unwritable_out_path_is_a_one_line_error(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "threshold", "--a", "1", "--tau", "0..2",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("delay", [
        ("--tau", "0..200000"), ("--pmf", "uniform:1,200000"), ("--pmf", "gauss:100000"),
    ])
    def test_delays_past_max_tau_exit_before_any_is_built(self, capsys, delay):
        # 200,000 delays, built one by one, would take several MB
        tracemalloc.start()
        try:
            rc, out, err = run_cli(capsys, "threshold", "--a", "1", *delay)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert out == "" and err.startswith("usage error: tau must be in [0, 10000], got ")
        assert peak < 1_000_000


class TestRoots:
    def test_text_output(self, capsys):
        rc, out, _ = run_cli(capsys, "roots", "--a", "0.3", "--eta", "1.0", "--tau", "2")
        assert rc == 0
        assert "max magnitude:" in out
        assert "stable: yes" in out

    def test_json_output(self, capsys):
        rc, out, _ = run_cli(capsys, "roots", "--a", "0.3", "--eta", "1.0",
                             "--tau", "2", "--json")
        data = json.loads(out)
        assert rc == 0
        assert data["degree"] == 3
        assert data["stable"] is True
        assert data["max_magnitude"] == pytest.approx(0.8127115748911866, abs=1e-12)

    def test_huge_roots_print_short_lines(self, capsys):
        # |z| is printed in the real and imaginary parts' format, not as a
        # 151-digit fixed-point number: three numbers with three-digit
        # exponents make the longest row any double can give
        rc, out, _ = run_cli(capsys, "roots", "--a", "1e150", "--eta", "1e150", "--tau", "1")
        assert rc == 0
        rows = out.splitlines()[:-2]
        assert len(rows) == 2
        for row in rows:
            assert len(row) <= 67 and row.endswith("|z|=1.000000000000e+150")

    def test_eta_required(self, capsys):
        rc, _, err = run_cli(capsys, "roots", "--a", "1.0", "--tau", "2")
        assert rc == 2

    def test_subnormal_eta_is_a_usage_error(self, capsys):
        # eta a = 1e-320 is a subnormal constant term, whose roots (1e-160)
        # the solver cannot resolve
        rc, out, err = run_cli(capsys, "roots", "--a", "1", "--eta", "1e-320", "--tau", "2")
        assert rc == 2
        assert out == ""
        assert "coefficient 0 is subnormal" in err

    def test_solves_the_polynomial_once(self, capsys, monkeypatch):
        from staleness_lab import roots

        batches = []
        real = roots.all_roots_many

        def counting(polys, *args, **kwargs):
            batches.append(len(polys))
            return real(polys, *args, **kwargs)

        monkeypatch.setattr(roots, "all_roots_many", counting)
        rc, out, _ = run_cli(capsys, "roots", "--a", "0.3", "--eta", "1.0", "--tau", "2")
        assert rc == 0 and "stable: yes" in out
        assert batches == [1]


class TestSimulate:
    def test_zero_eta_reports_constant_run(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0",
                             "--tau", "4")
        assert rc == 0
        assert "undecided" in out
        assert "amplification 1" in out

    @pytest.mark.parametrize("steps", [1000, 1050])
    def test_zero_eta_trace_follows_record_every(self, capsys, tmp_path, steps):
        # the rows a run with a tiny step size records, at the same steps
        grids = []
        for eta in ("0", "1e-12"):
            out = tmp_path / eta
            rc, _, _ = run_cli(capsys, "simulate", "--a", "1.0", "--eta", eta, "--tau", "4",
                               "--steps", str(steps), "--record-every", "100", "--out", str(out))
            assert rc == 0
            rows = (out / "trace.csv").read_text().splitlines()
            grids.append([int(row.split(",")[0]) for row in rows[1:]])
        assert grids[0] == grids[1] == [*range(0, 1001, 100), *([steps] if steps % 100 else [])]
        assert (tmp_path / "0" / "trace.csv").read_text().splitlines()[1:] == [
            f"{s},1.0" for s in grids[0]]

    @pytest.mark.parametrize("problem", [["--a", "1.0"],
                                         ["--spectrum", "1,0.5", "--init", "random_unit"]])
    def test_zero_eta_trace_is_that_of_a_step_too_small_to_move(self, capsys, tmp_path,
                                                                problem):
        # every row holds the start's own distance, 0.9999999999999999 for the random start
        traces = []
        for eta in ("0", "1e-300"):
            out = tmp_path / eta
            rc, _, _ = run_cli(capsys, "simulate", *problem, "--eta", eta, "--tau", "4",
                               "--steps", "1000", "--record-every", "100", "--out", str(out))
            assert rc == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("extra", [
        ["--steps", "-5"],
        ["--steps", "0", "--out", "{tmp}/run"],
        ["--blowup", "0.5", "--record-every", "0"],
    ])
    def test_zero_eta_is_validated_like_any_run(self, capsys, tmp_path, extra):
        extra = [arg.replace("{tmp}", str(tmp_path)) for arg in extra]
        rc, out, err = run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0",
                               "--tau", "4", *extra)
        assert rc == 2
        assert out == "" and err.startswith("usage error:")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("eta", ["0", "0.1"])
    def test_random_delay_with_shifted_is_refused(self, capsys, tmp_path, eta):
        # a zero step size never reaches the simulators, and keeps the rule
        rc, out, err = run_cli(capsys, "simulate", "--a", "1", "--eta", eta,
                               "--pmf", "uniform:1,3", "--variant", "shifted", "--m", "0.5",
                               "--out", str(tmp_path / "run"))
        assert rc == 2 and out == ""
        assert err == ("usage error: shifted momentum needs a constant delay: "
                       "its velocities are per worker\n")
        assert not (tmp_path / "run").exists()

    def test_diverged_is_a_normal_result(self, capsys):
        eta = 1.5 * analytic_threshold_plain(1.0, 4)
        rc, out, _ = run_cli(capsys, "simulate", "--a", "1.0", "--eta", str(eta),
                             "--tau", "4")
        assert rc == 0
        assert "diverged at step" in out

    def test_output_directory_contents(self, capsys, tmp_path):
        out = tmp_path / "run"
        rc, _, _ = run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0.5",
                           "--tau", "1", "--steps", "500", "--out", str(out))
        assert rc == 0
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "step,norm"
        assert trace[1] == "0,1.0"
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["status"] == "converged"
        assert verdict["config"]["eta"] == 0.5
        assert "out" not in verdict["config"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["trace.csv", "verdict.json"]

    def test_out_below_a_file_is_a_one_line_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, out, err = run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0.1",
                               "--tau", "2", "--out", str(blocker / "x"))
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert out == ""

    def test_manifest_replay_is_byte_identical(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--spectrum", "1.0,0.5", "--eta", "0.2",
                "--tau", "3", "--steps", "400", "--init", "random_unit",
                "--seed", "11", "--out", str(d1))
        rc, _, _ = run_cli(capsys, "simulate", "--config",
                           str(d1 / "manifest.json"), "--out", str(d2))
        assert rc == 0
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
        assert (d1 / "verdict.json").read_bytes() == (d2 / "verdict.json").read_bytes()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1.0, "eta": 0.1, "tau": "2", "steps": 100}))
        rc, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--steps", "7")
        assert rc == 0
        assert "after 7 steps" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1.0, "eta": 0.1, "tau": "2", "bogus": 3}))
        rc, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert rc == 2
        assert "bogus" in err

    @pytest.mark.parametrize("bad", [{"m": None}, {"a": [1]}])
    def test_config_value_of_wrong_type_is_usage_error(self, capsys, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1.0, "tau": "4", **bad}))
        rc, _, err = run_cli(capsys, "threshold", "--config", str(cfg))
        assert rc == 2
        assert "usage error" in err and next(iter(bad)) in err

    def test_manifest_for_other_command_rejected(self, capsys, tmp_path):
        d1 = tmp_path / "a"
        run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0.3", "--tau", "2",
                "--steps", "100", "--out", str(d1))
        rc, _, err = run_cli(capsys, "ps", "--config", str(d1 / "manifest.json"))
        assert rc == 2
        assert "simulate" in err


# Valid runs of each config-driven command, flag name (config key) -> flag
# text; together they use every key.  "{d}" is the run's own directory.
PARITY_RUNS = [
    ("threshold", {"a": "1.5", "tau": "1..3", "variant": "momentum", "m": "0.5",
                   "rel_tol": "1e-6", "out": "{d}/c.csv", "svg": "{d}/c.svg"}),
    ("threshold", {"a": "1", "pmf": "uniform:1,4", "out": "{d}/c.csv"}),
    ("roots", {"a": "0.3", "eta": "1.0", "tau": "2", "variant": "shifted", "m": "0.25"}),
    ("roots", {"a": "1", "eta": "0.2", "pmf": "gauss:3"}),
    ("simulate", {"spectrum": "1.0,0.5", "eta": "0.2", "tau": "3", "steps": "400",
                  "blowup": "1e4", "decay": "1e-4", "init": "random_unit", "seed": "11",
                  "record_every": "3", "out": "{d}/run"}),
    ("simulate", {"a": "1", "eta": "0.2", "pmf": "uniform:1,4", "variant": "plain",
                  "m": "0", "out": "{d}/run"}),
    ("escape-curve", {"a": "1", "tau": "2", "eta_range": "0.3:0.6:3", "steps": "3000",
                      "blowup": "1e4", "decay": "1e-4", "variant": "momentum", "m": "0.5",
                      "out": "{d}/e.csv"}),
    ("escape-curve", {"spectrum": "1,0.3", "pmf": "uniform:1,3", "etas": "0.2,0.4",
                      "steps": "3000", "out": "{d}/e.csv"}),
    ("ps", {"workers": "4", "spectrum": "1,0.5", "eta": "0.05", "variant": "shifted",
            "m": "0.5", "steps": "2000", "blowup": "1e4", "decay": "1e-4", "out": "{d}/run"}),
    ("ps", {"pmf": "gauss:3", "a": "1", "eta": "0.05", "seed": "6", "steps": "800",
            "out": "{d}/run"}),
]
MANIFESTS = {"threshold": "c.csv.manifest.json", "escape-curve": "e.csv.manifest.json",
             "simulate": "run/manifest.json", "ps": "run/manifest.json"}


class TestConfig:
    def _run(self, capsys, command, flags, config, d):
        d.mkdir()
        argv = [command]
        for key, text in flags.items():
            argv += ["--" + key.replace("_", "-"), text.replace("{d}", str(d))]
        if config:
            (d / "cfg.json").write_text(json.dumps(
                {k: v.replace("{d}", str(d)) if isinstance(v, str) else v
                 for k, v in config.items()}))
            argv += ["--config", str(d / "cfg.json")]
        rc, out, err = run_cli(capsys, *argv)
        manifest = d / MANIFESTS[command] if command in MANIFESTS else None
        return rc, out.replace(str(d), "D"), manifest and json.loads(manifest.read_text())["config"]

    @pytest.mark.parametrize("command, flags, key", [
        (command, flags, key) for command, flags in PARITY_RUNS for key in flags
    ])
    def test_config_value_equals_flag(self, capsys, tmp_path, command, flags, key):
        try:  # a number where the text is one, as a hand-written config would have it
            value = json.loads(flags[key])
        except ValueError:
            value = flags[key]
        by_flag = self._run(capsys, command, flags, {}, tmp_path / "flag")
        rest = {k: v for k, v in flags.items() if k != key}
        by_config = self._run(capsys, command, rest, {key: value}, tmp_path / "config")
        assert by_flag[0] == 0
        assert by_config == by_flag

    @pytest.mark.parametrize("command, bad", [
        ("simulate", {"steps": 1.5}),
        ("ps", {"workers": 2.7}),
        ("simulate", {"record_every": 2.9}),
        ("simulate", {"seed": 1.7}),
        ("simulate", {"init": "bogus"}),
        ("ps", {"variant": "bogus"}),
    ])
    def test_value_no_flag_accepts_is_usage_error(self, capsys, tmp_path, command, bad):
        cfg = tmp_path / "cfg.json"
        delay = {"workers": 3} if command == "ps" else {"tau": 2}
        cfg.write_text(json.dumps({"a": 1, "eta": 0.1, **delay, **bad}))
        rc, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert rc == 2
        assert out == "" and err.startswith("usage error:") and repr(next(iter(bad))) in err

    def test_manifest_stores_flag_typed_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1, "tau": 2}))
        rc, _, _ = run_cli(capsys, "threshold", "--config", str(cfg),
                           "--out", str(tmp_path / "c.csv"))
        assert rc == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["config"]["a"] == 1.0 and isinstance(manifest["config"]["a"], float)
        assert manifest["config"]["tau"] == "2"


class TestSeedEnv:
    def test_env_seed_is_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STALENESS_LAB_SEED", "321")
        out = tmp_path / "r"
        run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0.1", "--tau", "1",
                "--steps", "50", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"seed": 321}

    def test_explicit_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STALENESS_LAB_SEED", "321")
        out = tmp_path / "r"
        run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0.1", "--tau", "1",
                "--steps", "50", "--seed", "9", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"seed": 9}

    def test_garbage_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("STALENESS_LAB_SEED", "not-a-number")
        rc, _, err = run_cli(capsys, "simulate", "--a", "1.0", "--eta", "0.1",
                             "--tau", "1", "--steps", "50")
        assert rc == 2


NEGATIVE_SEED_RUNS = [
    ("simulate", "--a", "1", "--eta", "0.1", "--tau", "2"),
    ("simulate", "--spectrum", "1,0.5", "--eta", "0.1", "--tau", "2", "--init", "random_unit"),
    ("simulate", "--spectrum", "1,0.5", "--eta", "0", "--tau", "2", "--init", "random_unit"),
    ("ps", "--pmf", "uniform:1,3", "--a", "1", "--eta", "0.1"),
]


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", NEGATIVE_SEED_RUNS)
    def test_flag(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as ei:
            main([*argv, "--seed", "-1", "--out", str(tmp_path / "run")])
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --seed: invalid seed '-1'" in captured.err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", NEGATIVE_SEED_RUNS)
    def test_config_key(self, capsys, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        rc, out, err = run_cli(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert rc == 2
        assert out == "" and err == "usage error: config key 'seed': invalid seed '-1': " \
            "must be a non-negative integer\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", NEGATIVE_SEED_RUNS)
    def test_environment_variable(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("STALENESS_LAB_SEED", "-1")
        rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
        assert rc == 2
        assert out == "" and err.startswith("usage error: STALENESS_LAB_SEED: invalid seed '-1'")
        assert not (tmp_path / "run").exists()

    def test_zero_is_a_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STALENESS_LAB_SEED", "0")
        rc, _, _ = run_cli(capsys, *NEGATIVE_SEED_RUNS[0], "--out", str(tmp_path / "run"))
        assert rc == 0
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["seeds"] == {"seed": 0}


class TestEscapeCurveCmd:
    def test_unwritable_out_path_prints_no_row(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "escape-curve", "--a", "1", "--tau", "4",
                               "--etas", "0.3,0.4", "--out", str(tmp_path / "missing" / "e.csv"))
        assert rc == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_explicit_etas(self, capsys, tmp_path):
        out = tmp_path / "esc.csv"
        rc, stdout, _ = run_cli(capsys, "escape-curve", "--a", "1.0", "--tau", "4",
                                "--etas", "0.36,0.40,0.48", "--out", str(out))
        assert rc == 0
        body = out.read_text().strip().split("\n")
        assert body[0] == "eta,escape_step"
        assert body[1].startswith("0.36,")
        assert (tmp_path / "esc.csv.manifest.json").exists()

    def test_eta_range(self, capsys):
        rc, out, _ = run_cli(capsys, "escape-curve", "--a", "1.0", "--tau", "2",
                             "--eta-range", "0.7:0.9:3")
        assert rc == 0
        assert out.count("eta=") == 3

    def test_requires_exactly_one_eta_spec(self, capsys):
        rc, _, _ = run_cli(capsys, "escape-curve", "--a", "1.0", "--tau", "2")
        assert rc == 2
        rc, _, _ = run_cli(capsys, "escape-curve", "--a", "1.0", "--tau", "2",
                           "--etas", "0.1", "--eta-range", "0.1:0.2:2")
        assert rc == 2

    @pytest.mark.parametrize("etas", [",", " , "])
    def test_etas_naming_no_step_size_is_usage_error(self, capsys, tmp_path, etas):
        out = tmp_path / "esc.csv"
        rc, stdout, err = run_cli(capsys, "escape-curve", "--a", "1.0", "--tau", "2",
                                  "--etas", etas, "--out", str(out))
        assert rc == 2
        assert "names no step size" in err
        assert stdout == "" and not out.exists()


class TestPs:
    def test_round_robin_outputs(self, capsys, tmp_path):
        out = tmp_path / "ps"
        rc, stdout, _ = run_cli(capsys, "ps", "--workers", "5", "--a", "1.0",
                                "--eta", "0.1", "--steps", "300", "--out", str(out))
        assert rc == 0
        delays = (out / "delays.csv").read_text().strip().split("\n")
        assert delays == ["delay,frequency", "4,1.0"]
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["status"] in ("converged", "undecided")
        traj = (out / "trajectory.csv").read_text().strip().split("\n")
        assert traj[0] == "step,norm"
        # run may stop early on convergence; rows cover steps 0..run.steps
        assert len(traj) == verdict["steps"] + 2

    def test_run_diverging_in_the_warm_up_is_reported(self, capsys, tmp_path):
        out = tmp_path / "ps"
        rc, stdout, err = run_cli(capsys, "ps", "--workers", "5", "--a", "1", "--eta", "1e6",
                                  "--out", str(out))
        assert rc == 0 and err == ""
        assert stdout.startswith("diverged at step 2 ")
        # no steady-state delay was applied before the verdict
        assert (out / "delays.csv").read_text() == "delay,frequency\n"
        assert (out / "trajectory.csv").read_text().count("\n") == 4
        assert json.loads((out / "verdict.json").read_text())["status"] == "diverged"

    def test_workers_xor_pmf(self, capsys):
        rc, _, _ = run_cli(capsys, "ps", "--a", "1.0", "--eta", "0.1")
        assert rc == 2
        rc, _, _ = run_cli(capsys, "ps", "--workers", "3", "--pmf", "uniform:1,2",
                           "--a", "1.0", "--eta", "0.1")
        assert rc == 2

    def test_shifted_needs_workers(self, capsys, tmp_path):
        # the library's pairing rule, raised before anything is written
        rc, out, err = run_cli(capsys, "ps", "--pmf", "uniform:1,3", "--a", "1.0",
                               "--eta", "0.05", "--variant", "shifted", "--m", "0.5",
                               "--out", str(tmp_path / "run"))
        assert rc == 2
        assert out == "" and err.startswith("usage error:")
        assert not (tmp_path / "run").exists()

    def test_out_below_a_file_is_a_one_line_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, out, err = run_cli(capsys, "ps", "--workers", "3", "--a", "1.0", "--eta", "0.1",
                               "--steps", "300", "--out", str(blocker / "x"))
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert out == ""

    def test_replay_reproduces_sampled_run(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "ps", "--pmf", "gauss:3", "--a", "1.0", "--eta", "0.05",
                "--steps", "800", "--seed", "6", "--out", str(d1))
        rc, _, _ = run_cli(capsys, "ps", "--config", str(d1 / "manifest.json"),
                           "--out", str(d2))
        assert rc == 0
        for name in ("trajectory.csv", "delays.csv", "verdict.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestPlot:
    def _write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_renders_numeric_csv(self, capsys, tmp_path):
        src = self._write(tmp_path, "x,y\n0,1.0\n1,0.5\n2,0.25\n")
        dst = tmp_path / "out.svg"
        rc, out, _ = run_cli(capsys, "plot", str(src), str(dst), "--title", "decay")
        assert rc == 0
        svg = dst.read_text()
        assert svg.startswith("<svg") and "decay" in svg

    def test_multi_series_chart_is_frozen(self, capsys, tmp_path):
        # three series, so the chart carries a legend
        run_criteria(["taylor-accuracy"], out_dir=tmp_path)
        src, dst = tmp_path / "taylor_accuracy.csv", tmp_path / "taylor.svg"
        assert src.read_text().splitlines()[0] == "tau,inverse_exact,taylor,abs_err"
        rc, out, _ = run_cli(capsys, "plot", str(src), str(dst))
        assert rc == 0 and out == f"wrote {dst}\n"
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == (
            "23b981a3e2e631e7557f3bed2090be1041853682f819b7b5a2cf561cca692642")

    def test_textual_column_skipped_with_note(self, capsys, tmp_path):
        src = self._write(tmp_path, "x,val,tag\n0,1.0,alpha\n1,0.5,beta\n")
        dst = tmp_path / "out.svg"
        rc, _, err = run_cli(capsys, "plot", str(src), str(dst))
        assert rc == 0
        assert "tag" in err

    def test_mixed_column_is_an_error_with_line_number(self, capsys, tmp_path):
        src = self._write(tmp_path, "x,val\n0,1.0\n1,oops\n2,0.5\n")
        rc, _, err = run_cli(capsys, "plot", str(src), str(tmp_path / "o.svg"))
        assert rc == 1
        assert "line 3" in err

    def test_no_data_rows(self, capsys, tmp_path):
        src = self._write(tmp_path, "x,y\n")
        rc, _, err = run_cli(capsys, "plot", str(src), str(tmp_path / "o.svg"))
        assert rc == 1
        assert "no data" in err

    def test_ragged_row_is_an_error(self, capsys, tmp_path):
        src = self._write(tmp_path, "x,y\n0,1.0\n1\n")
        rc, _, err = run_cli(capsys, "plot", str(src), str(tmp_path / "o.svg"))
        assert rc == 1
        assert "line 3" in err

    def test_byte_order_mark_is_not_part_of_the_x_label(self, capsys, tmp_path):
        # as a spreadsheet saves "CSV UTF-8"
        text = "x,y\n0,1.0\n1,0.5\n"
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        svgs = []
        for src in (tmp_path / "bom.csv", self._write(tmp_path, text)):
            rc, _, err = run_cli(capsys, "plot", str(src), str(tmp_path / "o.svg"))
            assert (rc, err) == (0, "")
            svgs.append((tmp_path / "o.svg").read_bytes())
        assert svgs[0] == svgs[1] and "\ufeff".encode() not in svgs[0]

    def test_quoted_field_may_hold_a_comma(self, capsys, tmp_path):
        # as a spreadsheet quotes a header holding the separator
        src = self._write(tmp_path, 'eta,"escape, steps"\n0.1,\n0.2,44\n0.3,20\n')
        dst = tmp_path / "o.svg"
        rc, _, err = run_cli(capsys, "plot", str(src), str(dst))
        assert (rc, err) == (0, "")
        assert 'rotate(-90 18 212.00)">escape, steps</text>' in dst.read_text()

    def test_a_bare_carriage_return_ends_a_line(self, capsys, tmp_path):
        svgs = []
        for end in ("\n", "\r\n", "\r"):
            src = tmp_path / "data.csv"
            src.write_bytes(end.join(["x,y", "0,1.0", "1,0.5", ""]).encode())
            rc, _, err = run_cli(capsys, "plot", str(src), str(tmp_path / "o.svg"))
            assert (rc, err) == (0, "")
            svgs.append((tmp_path / "o.svg").read_bytes())
        assert svgs[0] == svgs[1] == svgs[2]

    def test_empty_cells_break_segments(self, capsys, tmp_path):
        src = self._write(tmp_path, "eta,escape\n0.1,\n0.2,44\n0.3,20\n")
        dst = tmp_path / "o.svg"
        rc, _, _ = run_cli(capsys, "plot", str(src), str(dst))
        assert rc == 0

    def test_non_finite_cells_break_segments_like_empty_ones(self, capsys, tmp_path):
        # a diverged run's trace ends in inf
        rc, _, _ = run_cli(capsys, "simulate", "--a", "2", "--eta", "1e308", "--tau", "0",
                           "--out", str(tmp_path / "d"))
        assert rc == 0
        assert (tmp_path / "d" / "trace.csv").read_text().endswith("\n1,inf\n")
        rc, _, err = run_cli(capsys, "plot", str(tmp_path / "d" / "trace.csv"),
                             str(tmp_path / "t.svg"))
        assert rc == 0 and err == ""
        rendered = {}
        for name, text in [("nan", "x,y\n0,1\n1,nan\n2,3\n3,4\n"),
                           ("empty", "x,y\n0,1\n1,\n2,3\n3,4\n")]:
            rc, _, _ = run_cli(capsys, "plot", str(self._write(tmp_path, text)),
                               str(tmp_path / f"{name}.svg"))
            assert rc == 0
            rendered[name] = (tmp_path / f"{name}.svg").read_text()
        assert rendered["nan"] == rendered["empty"]
        assert "nan" not in rendered["nan"] and "<circle" in rendered["nan"]

    def test_no_finite_point_is_no_numeric_data(self, capsys, tmp_path):
        src = self._write(tmp_path, "x,y\n0,inf\n1,nan\n2,-inf\n")
        dst = tmp_path / "o.svg"
        rc, _, err = run_cli(capsys, "plot", str(src), str(dst))
        assert rc == 1
        assert err == "error: no numeric data to plot\n"
        assert not dst.exists()


class TestVerify:
    def test_single_criterion(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--only", "taylor-accuracy")
        assert rc == 0
        assert "taylor-accuracy" in out and "PASS" in out
        assert "1/1 criteria passed" in out

    def test_unknown_name_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--only", "no-such-check")
        assert rc == 2
        assert "no-such-check" in err

    @pytest.mark.parametrize("only", [",", "", " , "])
    def test_only_naming_no_criterion_is_usage_error(self, capsys, only):
        rc, out, err = run_cli(capsys, "verify", "--only", only)
        assert rc == 2
        assert "names no criterion" in err
        assert out == ""


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert "staleness-lab" in capsys.readouterr().out


def _loaded_after(tmp_path, code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code`` in ``tmp_path``."""
    env = {k: v for k, v in os.environ.items() if k != "STALENESS_LAB_SEED"}
    env["PYTHONPATH"] = str(Path(staleness_lab.__file__).resolve().parents[1])
    script = f"{code}\nimport sys\nprint('MODULES', *sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "MODULES"
    return set(last[1:])


def _cli_run(argv: list[str], want: int = 0) -> str:
    """Code that runs one command in process and checks that it exits ``want``."""
    return ("from staleness_lab import cli\n"
            f"try:\n    code = cli.main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
            f"assert code == {want!r}, code")


def _layers(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("staleness_lab.")}


class TestImportGraph:
    """Each entry point imports only the layers it runs."""

    def test_importing_the_package_loads_no_submodule(self, tmp_path):
        assert _layers(_loaded_after(tmp_path, "import staleness_lab")) == set()

    def test_a_name_loads_its_home_module_and_what_that_imports(self, tmp_path):
        loaded = _loaded_after(tmp_path, "from staleness_lab import numeric_threshold")
        assert _layers(loaded) == {"charpoly", "errors", "stability"}

    def test_threshold_loads_no_simulator_root_solver_or_battery(self, tmp_path):
        code = _cli_run(["threshold", "--a", "1", "--tau", "0..4"])
        assert _layers(_loaded_after(tmp_path, code)) == {
            "charpoly", "cli", "errors", "stability", "svgchart"}

    @pytest.mark.parametrize("argv, want", [
        (["--version"], 0),
        (["--help"], 0),
        (["threshold", "--help"], 0),
        (["plot", "data.csv", "out.svg"], 0),
        (["threshold", "--a", "-1", "--tau", "1"], 2),
    ], ids=["version", "help", "threshold-help", "plot", "usage-error"])
    def test_starts_without_numpy(self, tmp_path, argv, want):
        (tmp_path / "data.csv").write_text("x,y\n0,1.0\n1,0.5\n")
        loaded = _loaded_after(tmp_path, _cli_run(argv, want))
        assert "numpy" not in loaded
        assert _layers(loaded) <= {"charpoly", "cli", "errors", "svgchart"}

    def test_the_determinism_children_load_only_their_criteria_layers(self, tmp_path):
        code = _cli_run(["verify", "--only", "taylor-accuracy,momentum-direction"])
        assert _layers(_loaded_after(tmp_path, code)) == {
            "acceptance", "charpoly", "cli", "errors", "stability"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--a", "1", "--eta", "0.1", "--tau", "2", "--steps", "50"],
        ["ps", "--workers", "3", "--a", "1", "--eta", "0.1", "--steps", "50"],
    ], ids=["simulate", "ps"])
    def test_manifests_record_the_simulators_verdict_lines(self, capsys, tmp_path, argv):
        from staleness_lab.dynamics import BLOWUP_FACTOR, DECAY_FACTOR

        rc, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
        assert rc == 0
        text = (tmp_path / "run" / "manifest.json").read_text()
        config = json.loads(text)["config"]
        assert (config["blowup"], config["decay"]) == (BLOWUP_FACTOR, DECAY_FACTOR)
        assert '"blowup": 1000000.0' in text and '"decay": 1e-06' in text


# Each usage or input error the CLI reports itself: argv ("{tmp}" is a
# directory holding FILES), exit code, and the whole of stderr.
FILES = {"bad.json": b"{not json", "list.json": b"[1, 2]", "empty.csv": b"\n\n",
         "ragged.csv": b"x,y\n0,1.0\n1\n", "svg.json": b'{"svg": "o.svg"}',
         "one.csv": b"x\n0\n1\n", "text_x.csv": b"x,y\n0,1\nabc,2\n",
         "tags.csv": b"x,tag,name\n0,a,b\n1,c,d\n",
         # Latin-1 text, as a spreadsheet may save it: not UTF-8
         "latin1.csv": b"x,y\n0,1\n1,\xe9\n", "latin1.json": b'{"a": "\xe9"}',
         "huge_cell.csv": b"x,y\n0,1\n1," + b"2" * 200_000 + b"\n"}
SIM = ["simulate", "--a", "1", "--eta", "0.1", "--tau", "2"]
ERRORS = {
    "steps-simulate": ([*SIM, "--steps", "0"], 2,
                       "usage error: --steps must be a positive integer, got 0"),
    "steps-escape-curve": (["escape-curve", "--a", "1", "--tau", "2", "--etas", "0.1",
                            "--steps", "0"], 2,
                           "usage error: --steps must be a positive integer, got 0"),
    "record-every": ([*SIM, "--record-every", "0"], 2,
                     "usage error: --record-every must be a positive integer, got 0"),
    "workers": (["ps", "--workers", "0", "--a", "1", "--eta", "0.1"], 2,
                "usage error: --workers must be a positive integer, got 0"),
    "steps-ps": (["ps", "--workers", "2", "--a", "1", "--eta", "0.1", "--steps", "-3"], 2,
                 "usage error: --steps must be a positive integer, got -3"),
    "config-unreadable": ([*SIM, "--config", "{tmp}/missing.json"], 2,
                          "usage error: cannot read config {tmp}/missing.json: [Errno 2] "
                          "No such file or directory: '{tmp}/missing.json'"),
    "config-not-json": ([*SIM, "--config", "{tmp}/bad.json"], 2,
                        "usage error: config {tmp}/bad.json is not valid JSON: "
                        "Expecting property name enclosed in double quotes: "
                        "line 1 column 2 (char 1)"),
    "config-not-object": ([*SIM, "--config", "{tmp}/list.json"], 2,
                          "usage error: config {tmp}/list.json must hold a JSON object"),
    "svg-without-out": (["threshold", "--a", "1", "--tau", "0..2", "--svg", "{tmp}/o.svg"], 2,
                        "usage error: --svg needs --out"),
    "svg-key-without-out": (["threshold", "--a", "1", "--tau", "0..2", "--config",
                             "{tmp}/svg.json"], 2, "usage error: --svg needs --out"),
    "tau-list": (["threshold", "--a", "1", "--tau", "1,x"], 2,
                 "usage error: cannot parse tau list '1,x'"),
    "tau-range": (["threshold", "--a", "1", "--tau", "1..x"], 2,
                  "usage error: cannot parse tau list '1..x'"),
    "tau-range-empty": (["threshold", "--a", "1", "--tau", "5..2"], 2,
                        "usage error: empty tau range '5..2'"),
    "tau-several": (["simulate", "--a", "1", "--eta", "0.1", "--tau", "1,2"], 2,
                    "usage error: this command takes a single --tau value"),
    "curvature-missing": (["simulate", "--eta", "0.1", "--tau", "2"], 2,
                          "usage error: provide exactly one of --a / --spectrum"),
    "pmf-kind": (["threshold", "--a", "1", "--pmf", "poisson:3"], 2,
                 "usage error: pmf must look like uniform:LO,HI or gauss:MU, got 'poisson:3'"),
    "pmf-arity": (["threshold", "--a", "1", "--pmf", "uniform:1"], 2,
                  "usage error: cannot parse pmf 'uniform:1'"),
    "pmf-number": (["threshold", "--a", "1", "--pmf", "gauss:x"], 2,
                   "usage error: cannot parse pmf 'gauss:x'"),
    "spectrum-number": (["simulate", "--spectrum", "1,x", "--eta", "0.1", "--tau", "2"], 2,
                        "usage error: cannot parse spectrum '1,x'"),
    "spectrum-empty": (["simulate", "--spectrum", ",", "--eta", "0.1", "--tau", "2"], 2,
                       "usage error: spectrum must list at least one eigenvalue"),
    "eta-range-shape": (["escape-curve", "--a", "1", "--tau", "2", "--eta-range", "0.1:0.2"], 2,
                        "usage error: --eta-range must look like LO:HI:COUNT"),
    "eta-range-count": (["escape-curve", "--a", "1", "--tau", "2", "--eta-range",
                         "0.1:0.2:1"], 2, "usage error: --eta-range needs COUNT >= 2 and HI > LO"),
    "eta-range-negative": (["escape-curve", "--a", "1", "--tau", "2", "--eta-range=-0.1:0.2:3"], 2,
                           "usage error: --eta-range must be non-negative"),
    "eta-range-nan": (["escape-curve", "--a", "1", "--tau", "2", "--eta-range=0.1:nan:3"], 2,
                      "usage error: --eta-range must be finite, got nan"),
    "eta-range-inf": (["escape-curve", "--a", "1", "--tau", "2", "--eta-range=0.1:inf:3"], 2,
                      "usage error: --eta-range must be finite, got inf"),
    "eta-negative": (["simulate", "--a", "1", "--eta", "-0.1", "--tau", "2"], 2,
                     "usage error: --eta must be non-negative"),
    "eta-nan": (["simulate", "--a", "1", "--eta", "nan", "--tau", "2"], 2,
                "usage error: --eta must be finite, got nan"),
    "etas-inf": (["escape-curve", "--a", "1", "--tau", "2", "--etas", "0.1,inf"], 2,
                 "usage error: --etas must be finite, got inf"),
    "etas-number": (["escape-curve", "--a", "1", "--tau", "2", "--etas", "0.1,x"], 2,
                    "usage error: cannot parse --etas '0.1,x'"),
    "rel-tol-below-resolution": (["threshold", "--a", "1", "--tau", "3", "--rel-tol", "1e-300"], 2,
                                 "usage error: --rel-tol must be finite and at least 2**-52, "
                                 "got 1e-300"),
    "coefficient-overflow": (["roots", "--a", "1e200", "--eta", "1e200", "--tau", "1"], 2,
                             "usage error: coefficient 0 is not finite (inf)"),
    "plot-missing": (["plot", "{tmp}/missing.csv", "{tmp}/o.svg"], 1,
                     "error: cannot read {tmp}/missing.csv: [Errno 2] "
                     "No such file or directory: '{tmp}/missing.csv'"),
    "plot-empty": (["plot", "{tmp}/empty.csv", "{tmp}/o.svg"], 1, "error: line 1: file is empty"),
    "plot-ragged": (["plot", "{tmp}/ragged.csv", "{tmp}/o.svg"], 1,
                    "error: line 3: expected 2 fields, got 1"),
    "plot-one-column": (["plot", "{tmp}/one.csv", "{tmp}/o.svg"], 1,
                        "error: line 1: need at least two comma-separated columns"),
    "plot-text-x": (["plot", "{tmp}/text_x.csv", "{tmp}/o.svg"], 1,
                    "error: line 3: x value 'abc' is not numeric"),
    "plot-no-series": (["plot", "{tmp}/tags.csv", "{tmp}/o.svg"], 1,
                       "skipping non-numeric column 'tag'\nskipping non-numeric column 'name'\n"
                       "error: no numeric series column to plot"),
    "plot-not-utf8": (["plot", "{tmp}/latin1.csv", "{tmp}/o.svg"], 1,
                      "error: cannot read {tmp}/latin1.csv: 'utf-8' codec can't decode "
                      "byte 0xe9 in position 10: invalid continuation byte"),
    "plot-cell-too-large": (["plot", "{tmp}/huge_cell.csv", "{tmp}/o.svg"], 1,
                            "error: line 3: field larger than field limit (131072)"),
    "config-not-utf8": ([*SIM, "--config", "{tmp}/latin1.json"], 2,
                        "usage error: cannot read config {tmp}/latin1.json: 'utf-8' codec "
                        "can't decode byte 0xe9 in position 7: invalid continuation byte"),
}


@pytest.mark.parametrize("argv, code, message", ERRORS.values(), ids=ERRORS.keys())
def test_error_exit_code_and_message(capsys, tmp_path, argv, code, message):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    rc, out, err = run_cli(capsys, *[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert (rc, out, err) == (code, "", message.replace("{tmp}", str(tmp_path)) + "\n")
    assert not (tmp_path / "o.svg").exists()


# A valid run of each config-driven command, flag name (config key) -> flag text.
VALID_RUNS = {
    "threshold": {"a": "1", "tau": "2"},
    "roots": {"a": "1", "eta": "0.1", "tau": "2"},
    "simulate": {"a": "1", "eta": "0.1", "tau": "2"},
    "escape-curve": {"a": "1", "tau": "2", "etas": "0.1"},
    "ps": {"workers": "2", "a": "1", "eta": "0.1"},
}
# Every flag with a rule, for every command that takes it.
CHECKED_FLAGS = [(command, key) for command in COMMANDS for key in COMMANDS[command].defaults
                 if "check" in FLAGS[key]]


def test_every_command_has_a_valid_run():
    assert set(VALID_RUNS) == set(COMMANDS)
    assert {key for _, key in CHECKED_FLAGS} >= {
        "a", "eta", "etas", "m", "rel_tol", "steps", "record_every", "workers"}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key", CHECKED_FLAGS,
                         ids=[f"{command}-{key}" for command, key in CHECKED_FLAGS])
def test_bad_value_is_named_by_its_flag(capsys, tmp_path, command, key, via):
    # -1 breaks every rule: no curvature, step size, tolerance, count or momentum is negative
    flag = "--" + key.replace("_", "-")
    argv = [command]
    for other, text in VALID_RUNS[command].items():
        if other != key:
            argv += ["--" + other.replace("_", "-"), text]
    if via == "flag":
        argv += [flag, "-1"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: -1}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"usage error: {flag} ") and err.count("\n") == 1
