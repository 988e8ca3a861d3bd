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


class TestUsage:
    def test_unknown_flag_is_invalid_usage(self, capsys):
        assert entry(["simulate", "--bogus"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_subcommand_is_invalid_usage(self):
        assert entry([]) == EXIT_VALIDATION

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            entry(["simulate", "--help"])
        assert exit_info.value.code == 0
        assert "--preset" in capsys.readouterr().out

    def test_verify_rejects_output_flag(self, tmp_path, capsys):
        path = str(tmp_path / "x.csv")
        assert main(["verify", "--out", path]) == EXIT_VALIDATION
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_each_subcommand_accepts_only_its_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        ignored = [
            ["optimize-gamma", "--config", cfg, "--step", "0.1"],
            ["optimize-gamma", "--config", cfg, "--threads", "2"],
            ["verify", "--config", cfg],
            ["verify", "--threads", "3"],
            ["list-presets", "--out", str(tmp_path / "y.csv")],
            ["simulate", "--preset", "fig2", "--step", "0.2", "--threads", "2"],
        ]
        for argv in ignored:
            assert main(argv) == EXIT_VALIDATION, argv
            assert "unrecognized arguments" in capsys.readouterr().err


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
            {"scheme": "dd", "width_ns": 5.0},
            {"scheme": "dd", "segments": 6.0, "width_ns": 4.0},
            {"scheme": "dd", "segments": 5},
            {"scheme": "fm", "gamma_mhz": 100.0, "gate": "x", "target": 2},
        ]
        for payload in cases:
            cfg = write_config(tmp_path, payload)
            assert main(["simulate", "--config", cfg]) == EXIT_VALIDATION, payload
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "payload, keys",
        [
            ({"scheme": "dd", "corner_average": True}, ["corner_average"]),
            ({"scheme": "cd", "single_site": True, "cycles": 6}, ["cycles", "single_site"]),
            ({"scheme": "dd-baseline", "gamma_mhz": 100.0}, ["gamma_mhz"]),
            ({"scheme": "cd", "functional": "fm1"}, ["functional"]),
            ({"scheme": "fm", "gamma_mhz": 100, "functional": "fm1"}, ["functional"]),
            ({"scheme": "fm", "gamma_mhz": 100, "segments": 8}, ["segments"]),
            ({"scheme": "cd", "width_ns": 1.0}, ["width_ns"]),
            ({"scheme": "cd", "gate": "idle", "target": 1}, ["target"]),
            ({"scheme": "dd", "gate": "parallel-xx", "target": 2}, ["target"]),
        ],
        ids=[
            "dd-corner_average",
            "cd-single_site-cycles",
            "dd-baseline-gamma_mhz",
            "cd-functional",
            "fm-explicit-gamma-functional",
            "fm-segments",
            "cd-width_ns",
            "idle-target",
            "parallel-xx-target",
        ],
    )
    def test_rejects_keys_the_run_does_not_read(self, tmp_path, capsys, payload, keys):
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for key in keys:
            assert key in err

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

    def test_internal_scan_error_exits_internal(self, tmp_path, monkeypatch, capsys):
        # The amplitude scan runs while the config is resolved; its own
        # failures are internal errors, not invalid configs.
        def broken(*args, **kwargs):
            raise ValueError("internal numerical failure")

        monkeypatch.setattr("xtalksim.optimize.epsilon_fm2_idle", broken)
        monkeypatch.setattr("xtalksim.experiments._SCAN_CACHE", {})
        cfg = write_config(
            tmp_path,
            {"topology": "pair", "scheme": "fm", "cycles": 4, "gamma_mhz": "optimize", "gate": "idle"},
        )
        assert entry(["simulate", "--config", cfg]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "ValueError: internal numerical failure" in err
        assert not err.startswith("error:")

    def test_malformed_json_names_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"scheme\": cd\n}", encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "broken.json:2:" in err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/x.json"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["simulate", "optimize-gamma"])
    def test_config_directory_names_path(self, tmp_path, capsys, command):
        assert entry([command, "--config", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_config_not_utf8_names_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"scheme": "cd", "note": "\u00e9"}'.encode("latin-1"))
        assert entry(["simulate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def test_unwritable_output_names_path(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.csv")
        cfg = write_config(tmp_path, {"step_ns": 0.5})
        assert entry(["simulate", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and out in err


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
