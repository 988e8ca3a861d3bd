import json

import pytest

from xtalksim.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INTERNAL,
    EXIT_NO_MINIMUM,
    EXIT_OK,
    EXIT_VALIDATION,
    entry,
    main,
)
from xtalksim.experiments import PRESETS


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestListPresets:
    def test_enumerates_catalog(self, capsys):
        assert main(["list-presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_flag_spelling(self, capsys):
        assert main(["--list-presets"]) == EXIT_OK
        assert "fig2" in capsys.readouterr().out


class TestSimulate:
    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["simulate"]) == EXIT_VALIDATION
        cfg = write_config(tmp_path, {})
        assert main(["simulate", "--config", cfg, "--preset", "fig2"]) == EXIT_VALIDATION

    def test_unknown_preset(self, capsys):
        assert main(["simulate", "--preset", "fig99"]) == EXIT_VALIDATION
        assert "fig99" in capsys.readouterr().err

    def test_preset_runs_deterministically(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--preset", "fig2", "--step", "0.2", "--out", out1]) == EXIT_OK
        assert main(["simulate", "--preset", "fig2", "--step", "0.2", "--out", out2]) == EXIT_OK
        a, b = open(out1, "rb").read(), open(out2, "rb").read()
        assert a == b
        text = a.decode("utf-8")
        assert text.startswith("# xtalksim simulate")
        assert "series,scheme,abscissa,value" in text

    def test_threads_do_not_change_output(self, tmp_path):
        seq, par = str(tmp_path / "seq.csv"), str(tmp_path / "par.csv")
        base = ["simulate", "--preset", "fig2", "--step", "0.2"]
        assert main(base + ["--out", seq]) == EXIT_OK
        assert main(base + ["--threads", "4", "--out", par]) == EXIT_OK
        assert open(seq, "rb").read() == open(par, "rb").read()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_rejects_thread_count_below_one(self, threads, capsys):
        argv = ["simulate", "--preset", "fig2", "--step", "0.2", "--threads", threads]
        assert main(argv) == EXIT_VALIDATION
        assert "--threads" in capsys.readouterr().err

    def test_config_single_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scheme": "cd", "gate": "idle"})
        assert main(["simulate", "--config", cfg, "--step", "0.05"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# gate_time_ns = 20" in out
        assert "single,CD,20," in out

    def test_config_j_grid_rows_sorted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scheme": "cd", "j_mhz": [8.0, 2.0, 5.0]})
        assert main(["simulate", "--config", cfg, "--step", "0.05"]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("vs_J")]
        abscissas = [float(l.split(",")[2]) for l in lines]
        assert abscissas == sorted(abscissas)

    def test_config_validation_failures(self, tmp_path, capsys):
        cases = [
            {"j_mhz": []},
            {"topology": "ring"},
            {"scheme": "fm", "gamma_mhz": -3.0},
            {"scheme": "fm", "functional": "bogus"},
            {"gate": "x", "repetitions": 4},
            {"j_mhz": [1.0, 2.0], "repetitions": 3},
            {"unexpected_key": 1},
            {"gate_time": -5.0},
            {"repetitions": 2.7},
            {"repetitions": True},
            {"scheme": "fm", "cycles": 4.5, "gamma_mhz": 100.0},
            {"scheme": "dd", "segments": 4.2},
            {"gate": "x", "target": 1.5},
            {"j_mhz": float("nan")},
        ]
        for payload in cases:
            cfg = write_config(tmp_path, payload)
            assert main(["simulate", "--config", cfg]) == EXIT_VALIDATION, payload
            assert capsys.readouterr().err.startswith("error:")

    def test_internal_error_is_not_invalid_config(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr("xtalksim.cli.score_run", broken)
        cfg = write_config(tmp_path, {"scheme": "cd", "gate": "idle"})
        with pytest.raises(ValueError, match="internal failure"):
            main(["simulate", "--config", cfg, "--step", "0.05"])

    def test_entry_point_reports_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr("xtalksim.cli.score_run", broken)
        cfg = write_config(tmp_path, {"scheme": "cd", "gate": "idle"})
        assert entry(["simulate", "--config", cfg, "--step", "0.05"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "ValueError: internal failure" in err
        assert not err.startswith("error:")

    def test_malformed_json_names_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"scheme\": cd\n}", encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "broken.json:2:" in err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/x.json"]) == EXIT_VALIDATION


class TestOptimizeGamma:
    def test_idle_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"functional": "fm2-idle", "cycles": 8})
        assert main(["optimize-gamma", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# gamma_opt_mhz = 442.02" in out
        assert out.count("summary,FM-N8,") == 1

    def test_no_minimum_still_writes_scan(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"functional": "fm2-idle", "cycles": 4, "grid_max_mhz": 100.0}
        )
        out_path = str(tmp_path / "scan.csv")
        assert main(["optimize-gamma", "--config", cfg, "--out", out_path]) == EXIT_NO_MINIMUM
        text = open(out_path, encoding="utf-8").read()
        assert "no minimum in range" in text
        assert "scan,FM-N4," in text
        assert "summary" not in text

    def test_rejects_unknown_functional(self, tmp_path):
        cfg = write_config(tmp_path, {"functional": "dd2"})
        assert main(["optimize-gamma", "--config", cfg]) == EXIT_VALIDATION

    def test_rejects_non_integer_cycles(self, tmp_path, capsys):
        for cycles in (4.5, True):
            cfg = write_config(tmp_path, {"functional": "fm2-idle", "cycles": cycles})
            assert main(["optimize-gamma", "--config", cfg]) == EXIT_VALIDATION, cycles
            assert "'cycles'" in capsys.readouterr().err


class TestVerify:
    def test_default_step_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in (
            "unitarity",
            "idle-oracle",
            "closed-forms",
            "step-halving",
            "star-reduction",
            "phase-invariance",
            "zero-coupling",
        ):
            assert f"PASS {name}:" in out
        assert "PASS star-reduction: blocks 10x1 6x3 2x2;" in out

    def test_coarse_step_fails_convergence(self, capsys):
        assert main(["verify", "--step", "0.5"]) == EXIT_CHECK_FAILURE
        out = capsys.readouterr().out
        assert "FAIL step-halving:" in out
