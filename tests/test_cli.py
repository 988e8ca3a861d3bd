import argparse
import json

import pytest
from helpers import count_assemblies, count_calls

from xtalksim import cli, experiments, model
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

        monkeypatch.setattr("xtalksim.cli.run_sequence", broken)
        cfg = write_config(tmp_path, {"scheme": "cd", "gate": "idle"})
        with pytest.raises(ValueError, match="internal failure"):
            main(["simulate", "--config", cfg, "--step", "0.05"])

    def test_entry_point_reports_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr("xtalksim.cli.run_sequence", broken)
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


# One wrong key per config: the command, the config and the start of the error,
# which names the key where the CLI checks it and the quantity where the model does.
REJECTED = [
    ("simulate", {"delta_mhz": -50.0}, "key 'delta_mhz' must be positive and finite, got -50.0"),
    ("simulate", {"j_mhz": -1.0}, "coupling must be finite and >= 0, got -0.00628318"),
    ("simulate", {"j_mhz": []}, "empty J grid"),
    ("simulate", {"j_mhz": [1.0, float("nan")]}, "J grid entry 1 must be positive and finite, got nan"),
    ("simulate", {"j_mhz": [1.0, True]}, "key 'j_mhz' grid must hold numbers"),
    ("simulate", {"gate_time": 0}, "gate time must be positive and finite, got 0.0"),
    ("simulate", {"gate_time": float("inf")}, "gate time must be positive and finite, got inf"),
    ("simulate", {"repetitions": 0}, "sequence length must be a positive integer, got 0"),
    ("simulate", {"gate": "x", "target": 0}, "target qubit label must be a positive integer, got 0"),
    ("simulate", {"scheme": "fm", "cycles": 0}, "cycle count must be a positive integer, got 0"),
    ("simulate", {"scheme": "fm", "cycles": 0, "gamma_mhz": 100.0}, "cycle count must be a positive integer"),
    ("simulate", {"scheme": "fm", "gamma_mhz": -3.0}, "modulation amplitude must be finite and >= 0, got -0.0188"),
    ("simulate", {"scheme": "dd", "segments": 0}, "pulse count must be a positive integer, got 0"),
    ("simulate", {"scheme": "dd-baseline", "segments": -4}, "pulse count must be a positive integer, got -4"),
    ("simulate", {"scheme": "dd", "width_ns": 0}, "pulse width must be positive and finite, got 0.0"),
    ("simulate", {"step_ns": 0}, "key 'step_ns' must be positive and finite, got 0"),
    ("optimize-gamma", {"delta_mhz": -50}, "key 'delta_mhz' must be positive and finite, got -50"),
    ("optimize-gamma", {"j_mhz": 0}, "key 'j_mhz' must be positive and finite, got 0"),
    ("optimize-gamma", {"cycles": 0}, "cycle count must be a positive integer, got 0"),
    ("optimize-gamma", {"gate_time": -20.0}, "gate time must be positive and finite, got -20.0"),
    ("optimize-gamma", {"grid_step_mhz": 0}, "grid step must be positive and finite, got 0.0"),
    ("optimize-gamma", {"grid_max_mhz": 2.0}, "grid must be finite and span at least two steps"),
]


class TestRejectedConfigs:
    """Every rejected config exits 1 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "command, payload, message",
        REJECTED,
        ids=[f"{c}-{'-'.join(f'{k}={v}' for k, v in p.items())}" for c, p, _ in REJECTED],
    )
    def test_exits_invalid_with_one_error_line(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, payload)
        assert entry([command, "--config", cfg]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("step", ["0", "-0.02", "nan", "inf"])
    def test_step_flag_must_be_positive_and_finite(self, capsys, command, step):
        argv = [command, "--step", step] + (["--preset", "fig2"] if command == "simulate" else [])
        assert entry(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: --step must be positive and finite, got {float(step)}\n"


# Every key a config may set, with a value that is valid wherever the key is read.
KEY_VALUES = {
    "topology": "pair",
    "delta_mhz": 50.0,
    "j_mhz": 5.0,
    "gate_time": "matched",
    "repetitions": 1,
    "step_ns": 0.5,
    "target": 1,
    "cycles": 4,
    "gamma_mhz": 100.0,
    "single_site": False,
    "corner_average": False,
    "segments": 4,
    "width_ns": 1.0,
    "grid_step_mhz": 1.59,
    "grid_max_mhz": 600.0,
    "unknown_key": 1,
}
SIMULATE_COMMON = {
    "topology", "delta_mhz", "j_mhz", "scheme", "gate", "gate_time", "repetitions", "step_ns",
}
# Scheme form: (its config, the keys it reads besides SIMULATE_COMMON).
SCHEME_FORMS = {
    "cd": ({"scheme": "cd"}, set()),
    "fm-optimize": (
        {"scheme": "fm", "gamma_mhz": "optimize"},
        {"cycles", "gamma_mhz", "functional", "single_site", "corner_average"},
    ),
    "fm-explicit": (
        {"scheme": "fm", "gamma_mhz": 100.0},
        {"cycles", "gamma_mhz", "single_site", "corner_average"},
    ),
    "dd": ({"scheme": "dd"}, {"segments", "width_ns"}),
    "dd-baseline": ({"scheme": "dd-baseline"}, {"segments", "width_ns"}),
}
OPTIMIZE_READS = {
    "functional", "cycles", "delta_mhz", "j_mhz", "gate_time", "grid_step_mhz", "grid_max_mhz",
}


class _Accepted(Exception):
    """Raised in place of the run: the config got past every check."""


def _accepts(tmp_path, command, payload) -> bool:
    cfg = write_config(tmp_path, payload)
    try:
        assert main([command, "--config", cfg]) == EXIT_VALIDATION, payload
    except _Accepted:
        return True
    return False


class TestConfigKeys:
    """The one statement of which keys each run accepts: a key is accepted
    exactly where the run reads it, and any other key exits 1 naming it."""

    @pytest.fixture(autouse=True)
    def _stub_runs(self, monkeypatch):
        def accepted(*args, **kwargs):
            raise _Accepted

        for name in ("run_sequence", "sweep_j", "scan_gamma"):
            monkeypatch.setattr(cli, name, accepted)

    @pytest.mark.parametrize("gate", ["idle", "x", "parallel-xx"])
    @pytest.mark.parametrize("form", list(SCHEME_FORMS))
    def test_simulate_accepts_exactly_the_keys_it_reads(self, tmp_path, capsys, form, gate):
        base, scheme_reads = SCHEME_FORMS[form]
        reads = SIMULATE_COMMON | scheme_reads | ({"target"} if gate == "x" else set())
        values = {**KEY_VALUES, "functional": "fm2-idle" if gate == "idle" else "fm2-x"}
        accepted = {
            key for key in set(values) | SIMULATE_COMMON
            if _accepts(tmp_path, "simulate", {key: values.get(key), **base, "gate": gate})
        }
        assert accepted == reads
        assert _accepts(tmp_path, "simulate", {**{k: values.get(k) for k in reads}, **base, "gate": gate})

    def test_optimize_gamma_accepts_exactly_the_keys_it_reads(self, tmp_path, capsys):
        values = {**KEY_VALUES, "functional": "fm2-idle", "scheme": "fm", "gate": "idle"}
        accepted = {key for key in values if _accepts(tmp_path, "optimize-gamma", {key: values[key]})}
        assert accepted == OPTIMIZE_READS
        assert _accepts(tmp_path, "optimize-gamma", {k: values[k] for k in OPTIMIZE_READS})


class TestStrayKeys:
    def test_optimizing_fm_config_is_rejected_before_its_scan(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "_SCAN_CACHE", {})
        scans = count_calls(monkeypatch, experiments, "scan_gamma")
        for stray in ({"segments": 4}, {"target": 1}, {"unknown_key": 1}):
            cfg = write_config(tmp_path, {"scheme": "fm", "gamma_mhz": "optimize", **stray})
            assert main(["simulate", "--config", cfg]) == EXIT_VALIDATION, stray
            assert list(stray)[0] in capsys.readouterr().err
        assert scans == []

    @pytest.mark.parametrize(
        "command, payload, named",
        [
            ("simulate", {"scheme": "cd", "target": 1, "unknown_key": 1}, ["scheme cd", "gate idle"]),
            (
                "simulate",
                {"scheme": "fm", "gamma_mhz": 100.0, "gate": "x", "functional": "fm2-x", "segments": 4},
                ["scheme fm", "gate x"],
            ),
            (
                "simulate",
                {"scheme": "dd", "gate": "parallel-xx", "target": 2, "cycles": 4},
                ["scheme dd", "gate parallel-xx"],
            ),
            ("optimize-gamma", {"scheme": "fm", "step_ns": 0.1}, ["optimize-gamma"]),
        ],
        ids=["cd-idle", "fm-explicit-x", "dd-parallel-xx", "optimize-gamma"],
    )
    def test_message_names_every_stray_key_and_the_run(self, tmp_path, capsys, command, payload, named):
        strays = set(payload) - {"scheme", "gamma_mhz", "gate"} if command == "simulate" else set(payload)
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        for word in sorted(strays) + named:
            assert word in err, (word, err)

    @pytest.mark.parametrize("step_ns", ["fast", 0, -0.01, True], ids=["text", "zero", "negative", "bool"])
    def test_step_flag_does_not_hide_an_invalid_step_key(self, tmp_path, capsys, step_ns):
        cfg = write_config(tmp_path, {"step_ns": step_ns})
        assert main(["simulate", "--config", cfg, "--step", "0.5"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: key 'step_ns' must be")

    def test_valid_step_flag_wins_over_the_step_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"step_ns": 0.01})
        assert main(["simulate", "--config", cfg, "--step", "0.5"]) == EXIT_OK
        assert "# step_ns = 0.5\n" in capsys.readouterr().out


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
            "integrator-order",
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

    def test_wrong_commutator_weight_fails_integrator_order(self, monkeypatch, capsys):
        # Commutator weights 1% off leave the Magnus step at second order:
        # its error falls 4x per halving, not 16x.
        weights = model._magnus_weights

        def skewed(coefficients, widths):
            w = weights(coefficients, widths)
            w[..., coefficients.shape[-1] :] *= 1.01
            return w

        monkeypatch.setattr(model, "_magnus_weights", skewed)
        assert main(["verify"]) == EXIT_CHECK_FAILURE
        assert "FAIL integrator-order:" in capsys.readouterr().out


class TestPerCallWork:
    """A call pays for its run, not for set-up that one process can share."""

    def test_calls_construct_no_parser(self, monkeypatch, capsys):
        built = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
        assert main(["list-presets"]) == EXIT_OK
        assert main(["simulate", "--bogus"]) == EXIT_VALIDATION
        assert built == []

    def test_dispatch_reads_module_attribute(self, monkeypatch):
        # Replacing a command function on the module (as span tracers do)
        # takes effect in the next call.
        seen = []
        monkeypatch.setattr(cli, "cmd_list_presets", lambda args: seen.append(args.command) or 7)
        assert main(["list-presets"]) == 7
        assert seen == ["list-presets"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"scheme": "cd"},
            {"scheme": "dd", "segments": 4},
            {"scheme": "fm", "cycles": 4, "gamma_mhz": 200.0},
        ],
        ids=["cd", "dd", "fm"],
    )
    def test_star_idle_assembles_once(self, tmp_path, monkeypatch, payload):
        # The config is validated without assembling; the run assembles once.
        calls = count_assemblies(monkeypatch)
        cfg = write_config(tmp_path, {"topology": "star", "gate": "idle", "step_ns": 0.5, **payload})
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "payload, scored",
        [
            ({"scheme": "cd"}, "run_sequence"),
            ({"scheme": "cd", "repetitions": 3}, "run_sequence"),
            ({"scheme": "fm", "corner_average": True, "repetitions": 3}, "run_sequence"),
            ({"scheme": "cd", "j_mhz": [2.0, 5.0]}, "sweep_j"),
        ],
        ids=["single", "sequence", "corner-sequence", "j-grid"],
    )
    def test_simulate_scores_through_module_attributes(self, tmp_path, monkeypatch, payload, scored):
        # Span tracers replace these module attributes, so each form must
        # call them there, once.
        calls = {name: count_calls(monkeypatch, cli, name) for name in ("run_sequence", "sweep_j")}
        cfg = write_config(tmp_path, {"gate": "idle", "step_ns": 0.05, **payload})
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        assert {name: len(c) for name, c in calls.items()} == {
            name: int(name == scored) for name in calls
        }
