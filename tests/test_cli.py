import json
import math

import pytest

from staleness_lab.cli import main
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
        assert out == "" and "rel_tol" in err

    def test_unwritable_out_path_is_a_one_line_error(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "threshold", "--a", "1", "--tau", "0..2",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1


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

    def test_eta_required(self, capsys):
        rc, _, err = run_cli(capsys, "roots", "--a", "1.0", "--tau", "2")
        assert rc == 2

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


class TestEscapeCurveCmd:
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

    def test_workers_xor_pmf(self, capsys):
        rc, _, _ = run_cli(capsys, "ps", "--a", "1.0", "--eta", "0.1")
        assert rc == 2
        rc, _, _ = run_cli(capsys, "ps", "--workers", "3", "--pmf", "uniform:1,2",
                           "--a", "1.0", "--eta", "0.1")
        assert rc == 2

    def test_shifted_needs_workers(self, capsys):
        rc, _, err = run_cli(capsys, "ps", "--pmf", "uniform:1,3", "--a", "1.0",
                             "--eta", "0.05", "--variant", "shifted", "--m", "0.5")
        assert rc == 2

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

    def test_empty_cells_break_segments(self, capsys, tmp_path):
        src = self._write(tmp_path, "eta,escape\n0.1,\n0.2,44\n0.3,20\n")
        dst = tmp_path / "o.svg"
        rc, _, _ = run_cli(capsys, "plot", str(src), str(dst))
        assert rc == 0


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


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert "staleness-lab" in capsys.readouterr().out
