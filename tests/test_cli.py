import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dispersive_sw
from dispersive_sw import linsolve, scenarios
from dispersive_sw.bbm_bbm import BbmBbmDiscretization, BbmEnergyFunctional
from dispersive_sw.cli import build_parser, run_cli
from dispersive_sw.config import CHOICES, KEYS, MODELS, SCENARIOS, load_config_file
from dispersive_sw.svaerd_kalisch import SkDiscretization, SkModifiedEntropyFunctional


def test_check_mode_lake_at_rest_exits_zero(tmp_path):
    code = run_cli(
        [
            "run", "--scenario", "lake_at_rest", "--model", "bbm_bbm",
            "--order", "2", "--check", "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "errors.csv").exists()


def test_missing_config_file_exits_one(capsys):
    code = run_cli(["run", "--config", "/nonexistent/config.yaml"])
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_config_directory_exits_one(tmp_path, capsys):
    code = run_cli(["run", "--config", str(tmp_path)])
    assert code == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_config_file_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_bytes(b"scenario: lake_at_rest\nmodel: \xff\xfe\n")
    code = run_cli(["run", "--config", str(cfg)])
    assert code == 1
    assert "c.yaml" in capsys.readouterr().err


def test_output_dir_on_a_file_exits_one(tmp_path, capsys, monkeypatch):
    # refused before the run: the scenario never integrates
    runs = []
    monkeypatch.setattr(scenarios, "integrate", lambda *a, **kw: runs.append(a))
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    for out in (target, target / "sub" / "dir"):
        code = run_cli(["run", "--scenario", "lake_at_rest", "--model", "bbm_bbm",
                        "--n-nodes", "40", "--t-end", "0.01", "--output-dir", str(out)])
        assert code == 1
        assert str(out) in capsys.readouterr().err
    assert runs == []
    assert target.read_text() == "not a directory\n"
    assert sorted(tmp_path.iterdir()) == [target]


def _printed_info(out):
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def test_dingemans_without_gauges_computes_no_dense_output(tmp_path, monkeypatch,
                                                           capsys):
    # fixed-step RK4 makes four RHS calls per step; the Hermite derivative at
    # the step end is needed only to sample gauges.  With dense output it is
    # the next step's first stage, so only the final state costs one more call
    args = ["run", "--scenario", "dingemans", "--model", "bbm_bbm", "--n-nodes",
            "128", "--t-end", "0.5", "--dt", "0.01", "--output-dir"]
    assert run_cli(args + [str(tmp_path / "plain")]) == 0
    printed = _printed_info(capsys.readouterr().out)
    assert (printed["n_steps"], printed["n_rhs"]) == ("50", "200")
    integrate = scenarios.integrate
    monkeypatch.setattr(scenarios, "integrate",
                        lambda *a, **kw: integrate(*a, **{**kw, "dense_output": True}))
    assert run_cli(args + [str(tmp_path / "dense")]) == 0
    printed = _printed_info(capsys.readouterr().out)
    assert (printed["n_steps"], printed["n_rhs"]) == ("50", "201")
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "dense").iterdir())
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (
            tmp_path / "dense" / name).read_bytes(), name


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: lake_at_rest\nmodel: bbm_bbm\nwarp: 9\n")
    code = run_cli(["run", "--config", str(cfg)])
    assert code == 1
    assert "warp" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, model, flags, field", [
    ("lake_at_rest", "bbm_bbm", ["--parameter-set", "set9"], "parameter_set"),
    ("soliton", "bbm_bbm", ["--parameter-set", "set2"], "parameter_set"),
    ("lake_at_rest", "svaerd_kalisch", ["--reflecting"], "reflecting"),
    ("dingemans", "bbm_bbm", ["--wavenumber", "5"], "wavenumber"),
    ("lake_at_rest", "bbm_bbm", ["--gauges", "0.1"], "gauges"),
    ("reflecting_bump", "bbm_bbm", ["--gauge-interval", "0.5"], "gauge_interval"),
    ("traveling_wave", "svaerd_kalisch", ["--experimental-data", "g.csv"],
     "experimental_data"),
    ("manufactured", "bbm_bbm", ["--eoc"], "eoc"),
    ("lake_at_rest", "bbm_bbm", ["--orders", "2", "--order", "2", "--n-nodes", "40"],
     "orders"),
    ("soliton", "bbm_bbm", ["--resolutions", "16,32", "--n-nodes", "32", "--t-end",
                            "0.01"], "resolutions"),
    ("manufactured", "bbm_bbm", ["--n-nodes", "99", "--orders", "2", "--resolutions",
                                 "16,32", "--t-end", "0.01"], "n_nodes"),
    ("soliton", "bbm_bbm", ["--eoc", "--order", "6", "--orders", "2", "--resolutions",
                            "16,32", "--t-end", "0.01"], "order"),
    # a given field is refused even when it holds the default value
    ("manufactured", "bbm_bbm", ["--order", "4", "--orders", "2", "--resolutions",
                                 "16,32", "--t-end", "0.01"], "order"),
    ("lake_at_rest", "bbm_bbm", ["--wavenumber", "0.8"], "wavenumber"),
    # a reflecting bump runs an unrelaxed and a relaxed half whatever the flag
    ("reflecting_bump", "bbm_bbm", ["--no-relaxation", "--n-nodes", "64", "--t-end",
                                    "0.01"], "relaxation"),
    # a fixed-step run reads no tolerance; a lake at rest always is one
    ("lake_at_rest", "bbm_bbm", ["--atol", "1e-3", "--n-nodes", "40", "--t-end",
                                 "0.5"], "atol"),
    ("lake_at_rest", "svaerd_kalisch", ["--rtol", "5", "--n-nodes", "40", "--t-end",
                                        "0.001"], "rtol"),
    ("traveling_wave", "bbm_bbm", ["--dt", "0.01", "--atol", "1e-3", "--n-nodes", "32",
                                   "--t-end", "0.02"], "atol"),
    ("dingemans", "bbm_bbm", ["--gauge-interval", "0.5", "--n-nodes", "64", "--t-end",
                              "0.01"], "gauge_interval"),
])
def test_field_that_the_run_does_not_read_exits_one(scenario, model, flags, field,
                                                    capsys):
    code = run_cli(["run", "--scenario", scenario, "--model", model, *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err


@pytest.mark.parametrize("scenario, model, flags, field", [
    ("soliton", "bbm_bbm", ["--eoc", "--orders", ",", "--resolutions", "16,32"],
     "orders"),
    ("manufactured", "bbm_bbm", ["--orders", "2", "--resolutions", ","], "resolutions"),
    ("manufactured", "bbm_bbm", ["--orders", "2", "--resolutions", "32"], "resolutions"),
    ("soliton", "bbm_bbm", ["--eoc", "--orders", "2", "--resolutions", "32", "--check"],
     "resolutions"),
    ("lake_at_rest", "bbm_bbm", ["--n-nodes", "0"], "n_nodes"),
    ("lake_at_rest", "bbm_bbm", ["--variant=", "--n-nodes", "40"], "variant"),
    ("lake_at_rest", "svaerd_kalisch", ["--parameter-set=", "--n-nodes", "40",
                                        "--dt", "1e-3"], "parameter_set"),
    ("traveling_wave", "bbm_bbm", ["--wavenumber", "0", "--n-nodes", "32"],
     "wavenumber"),
    ("traveling_wave", "bbm_bbm", ["--wavenumber", "-0.8", "--n-nodes", "32"],
     "wavenumber"),
    ("dingemans", "bbm_bbm", ["--gauges", "100,-500", "--n-nodes", "64"], "gauges"),
    ("soliton", "bbm_bbm", ["--eoc", "--orders", "2,2", "--resolutions", "16,32"],
     "orders"),
    # non-finite numbers: no run with an infinite step, tolerance or wave
    ("soliton", "bbm_bbm", ["--dt", "inf", "--n-nodes", "32"], "dt"),
    ("soliton", "bbm_bbm", ["--dt", "nan", "--n-nodes", "32"], "dt"),
    ("soliton", "bbm_bbm", ["--atol", "inf", "--n-nodes", "32"], "atol"),
    ("soliton", "bbm_bbm", ["--rtol", "inf", "--n-nodes", "32"], "rtol"),
    ("traveling_wave", "bbm_bbm", ["--wavenumber", "inf", "--n-nodes", "32"],
     "wavenumber"),
    ("traveling_wave", "bbm_bbm", ["--wavenumber", "nan", "--n-nodes", "32"],
     "wavenumber"),
    ("dingemans", "bbm_bbm", ["--gauges", "3.04", "--gauge-interval", "nan",
                              "--n-nodes", "64"], "gauge_interval"),
    ("dingemans", "bbm_bbm", ["--gauges", "3.04,nan", "--n-nodes", "64"], "gauges"),
    # an EOC order the variant does not have, after one it has: every case is
    # built before the first run, so the refused one stops the run first
    ("manufactured", "svaerd_kalisch", ["--variant", "periodic_central_split",
                                        "--orders", "2,3", "--resolutions", "16,32"],
     "order"),
    ("soliton", "bbm_bbm", ["--eoc", "--orders", "4,5", "--resolutions", "32,64"],
     "order"),
])
def test_bad_explicit_value_exits_one_before_the_run(scenario, model, flags, field,
                                                     tmp_path, monkeypatch, capsys):
    # neither a silent default nor a traceback: exit 1 naming the key, no output
    monkeypatch.setattr(scenarios, "integrate", lambda *a, **kw: pytest.fail("ran"))
    out = tmp_path / "out"
    code = run_cli(["run", "--scenario", scenario, "--model", model, *flags,
                    "--t-end", "0.01", "--output-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--order", "x"], "argument --order: invalid int value: 'x'"),
    (["run", "--scenario", "bogus"], "argument --scenario: invalid choice: 'bogus'"),
    (["run", "--model", "bogus"], "argument --model: invalid choice: 'bogus'"),
    (["run", "--orders", "4,x"], "argument --orders: invalid"),
    (["run", "--scenario", "soliton", "--no-such-flag"],
     "unrecognized arguments: --no-such-flag"),
    ([], "the following arguments are required: command"),
    (["run", "--orders", "4,x"], "argument --orders: invalid int list: '4,x'"),
    (["run", "--resolutions", "64,y"],
     "argument --resolutions: invalid int list: '64,y'"),
    (["run", "--gauges", "3.04,z"], "argument --gauges: invalid float list: '3.04,z'"),
])
def test_malformed_command_line_exits_one(argv, message, monkeypatch, capsys):
    # a configuration error like the same bad value in a config file, not
    # argparse's usage exit 2, which the CLI keeps for runtime failures
    monkeypatch.setattr(scenarios, "integrate", lambda *a, **kw: pytest.fail("ran"))
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert "<lambda>" not in err  # each converter names its type


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--help"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


def test_parser_build_probes_the_terminal_at_most_once(monkeypatch):
    # argparse builds a formatter per add_argument; a stock one probes again
    calls, probe = [0], shutil.get_terminal_size

    def counting(*args, **kwargs):
        calls[0] += 1
        return probe(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    build_parser()
    assert calls[0] <= 1


def test_help_follows_the_terminal_width(monkeypatch, capsys):
    # the width is fixed once per build, still from the terminal: argparse
    # wraps the text to COLUMNS - 2, and never breaks a usage part such as
    # "[--config CONFIG]" or an option's invocation
    texts = []
    for columns in (40, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            run_cli(["run", "--help"])
        text = capsys.readouterr().out
        assert all(len(line) <= columns - 2 or line.lstrip().startswith(("[", "--"))
                   for line in text.splitlines())
        texts.append(text)
    assert all(len(line) <= 198 for line in texts[1].splitlines())
    assert texts[0] != texts[1]


def _flag(name):
    return "--" + name.replace("_", "-")


def test_run_parser_dests_are_the_config_keys():
    # one flag per key of config.KEYS, none with a default of its own
    args = vars(build_parser().parse_args(["run"]))
    assert args.keys() == {*KEYS, "config", "command"}
    assert all(args[name] is None for name in KEYS)


# one command-line value of each key type, and what it parses to
_PARSED = {"str": ("x", "x"), "int": ("3", 3), "float": ("0.5", 0.5),
           "list[int]": ("2,4", [2, 4]), "list[float]": ("1.5,2", [1.5, 2.0])}


@pytest.mark.parametrize("name", [name for name, (kind, _, _) in KEYS.items()
                                  if kind != "bool"])
def test_each_valued_flag_parses_to_its_key_type(name):
    text, value = _PARSED[KEYS[name][0].split(" | ")[0]]
    if name in CHOICES:
        text = value = CHOICES[name][-1]
    parsed = getattr(build_parser().parse_args(["run", _flag(name), text]), name)
    assert repr(parsed) == repr(value)  # 3, not 3.0 or "3"


@pytest.mark.parametrize("name", [name for name, (kind, _, _) in KEYS.items()
                                  if kind == "bool"])
def test_each_bool_flag_stores_true(name):
    parser = build_parser()
    assert getattr(parser.parse_args(["run", _flag(name)]), name) is True
    assert getattr(parser.parse_args(["run"]), name) is None


def test_no_relaxation_stores_false():
    assert build_parser().parse_args(["run", "--no-relaxation"]).relaxation is False


def test_run_help_lists_the_flags_in_keys_order(capsys):
    with pytest.raises(SystemExit):
        run_cli(["run", "--help"])
    options = capsys.readouterr().out.split("options:")[1]
    flags = [line.split()[0] for line in options.splitlines()
             if line.startswith("  --")]
    expected = ["--config", *map(_flag, KEYS)]
    expected.insert(expected.index("--relaxation") + 1, "--no-relaxation")
    assert flags == expected


@pytest.mark.parametrize("t_end", ["inf", "nan", "0", "-1"])
def test_bad_t_end_exits_one_before_the_run(t_end, tmp_path, capsys):
    # refused by the config, before integrate sees the span
    out = tmp_path / "out"
    code = run_cli(["run", "--scenario", "soliton", "--model", "bbm_bbm",
                    "--n-nodes", "32", "--t-end", t_end, "--output-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "t_end" in err
    assert not out.exists()


def test_missing_experimental_data_exits_two_before_the_run(monkeypatch, tmp_path,
                                                           capsys):
    # the file is read before the discretization, so the run never starts
    def integrate(*args, **kwargs):
        raise AssertionError("integrate called before the file was read")

    monkeypatch.setattr(scenarios, "integrate", integrate)
    out = tmp_path / "out"
    code = run_cli(["run", "--scenario", "dingemans", "--model", "bbm_bbm",
                    "--n-nodes", "64", "--t-end", "0.01",
                    "--experimental-data", str(tmp_path / "missing.csv"),
                    "--output-dir", str(out)])
    assert code == 2
    assert "experimental data file not found" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, functional, t_end", [
    ("bbm_bbm", BbmEnergyFunctional, "2"),
    ("svaerd_kalisch", SkModifiedEntropyFunctional, "0.002"),
])
def test_relaxed_lake_at_rest_writes_the_unrelaxed_bytes(model, functional, t_end,
                                                         monkeypatch, tmp_path, capsys):
    # du = 0.0 exactly at rest, so r(gamma) vanishes and gamma = 1: relaxing
    # reads the functional and leaves every byte as it was
    calls = []
    value = functional.value
    monkeypatch.setattr(functional, "value", lambda self, y: calls.append(1) or value(self, y))
    outputs = []
    for flag in ("--relaxation", "--no-relaxation"):
        out = tmp_path / flag
        code = run_cli(["run", "--scenario", "lake_at_rest", "--model", model,
                        "--n-nodes", "40", "--t-end", t_end, flag, "--check",
                        "--output-dir", str(out)])
        assert code == 0
        outputs.append(((out / "errors.csv").read_bytes(),
                        capsys.readouterr().out.replace(str(out), "")))
        assert bool(calls) == (flag == "--relaxation")
        calls.clear()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("lines, key", [
    ("scenario: lake_at_rest\nt_end: soon\n", "t_end"),
    ("scenario: lake_at_rest\nn_nodes: many\n", "n_nodes"),
    ("scenario: lake_at_rest\norder: 4.0\n", "order"),
    ("scenario: lake_at_rest\nn_nodes: 4e1\n", "n_nodes"),  # a YAML 1.2 float
    ("scenario: lake_at_rest\ndt: true\n", "dt"),
    ('scenario: lake_at_rest\nrelaxation: "no"\n', "relaxation"),
    ("scenario: lake_at_rest\ncheck: 1\n", "check"),
    ("scenario: lake_at_rest\nvariant: 3\n", "variant"),
    ("scenario: lake_at_rest\nmodel: [bbm_bbm]\n", "model"),
    ("scenario: manufactured\norders: [4, x]\nresolutions: [16, 32]\n", "orders"),
    ("scenario: manufactured\nresolutions: 16\n", "resolutions"),
    ("scenario: dingemans\ngauges: 3.0\n", "gauges"),
    ("scenario: dingemans\ngauges: [3.04, true]\n", "gauges"),
], ids=["t_end", "n_nodes", "order", "n_nodes_exponent", "dt", "relaxation", "check", "variant", "model",
        "orders", "resolutions", "gauges", "gauge_item"])
def test_config_file_value_of_the_wrong_type_exits_one(tmp_path, capsys, lines, key):
    # a string where a number belongs used to end in a traceback, and the
    # string "no" turned relaxation on
    cfg = tmp_path / "c.yaml"
    cfg.write_text(lines)
    code = run_cli(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"{key} must be" in err
    assert not (tmp_path / "out").exists()


def test_config_file_int_for_a_float_is_accepted(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: lake_at_rest\nmodel: bbm_bbm\nt_end: 1\ndt: 1\n")
    assert run_cli(["run", "--config", str(cfg), "--check"]) == 0


def test_config_file_float_in_exponent_form_without_a_dot_is_a_float(tmp_path, capsys):
    # YAML 1.1 reads 2e-3 as a string; the config file reads it as YAML 1.2 does
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: lake_at_rest\nmodel: bbm_bbm\nt_end: 2e-3\ndt: 2e-4\n")
    assert load_config_file(cfg) == {"scenario": "lake_at_rest", "model": "bbm_bbm",
                                     "t_end": 0.002, "dt": 0.0002}
    code = run_cli(["run", "--config", str(cfg), "--check",
                    "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert "n_steps: 10\n" in capsys.readouterr().out  # t_end / dt


def test_config_file_key_that_the_run_does_not_read_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: lake_at_rest\nmodel: bbm_bbm\nwavenumber: 0.8\n")
    code = run_cli(["run", "--config", str(cfg)])
    assert code == 1
    assert "wavenumber not read" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "scenario: lake_at_rest\nmodel: bbm_bbm\norder: 4\nt_end: 10.0\n"
    )
    code = run_cli(
        ["run", "--config", str(cfg), "--order", "2",
         "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    text = (tmp_path / "out" / "errors.csv").read_text()
    assert text.splitlines()[1].split(",")[1] == "2"


def test_runtime_failure_exits_two(capsys):
    # reflecting SK variant with a parameter set that has gamma != 0
    code = run_cli(
        [
            "run", "--scenario", "reflecting_bump", "--model", "svaerd_kalisch",
            "--parameter-set", "set2",
        ]
    )
    assert code == 1  # rejected as a configuration error before running


def test_eoc_csv_written(tmp_path):
    code = run_cli(
        [
            "run", "--scenario", "soliton", "--model", "bbm_bbm", "--eoc",
            "--orders", "2", "--resolutions", "64,128", "--t-end", "0.5",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    text = (tmp_path / "eoc.csv").read_text()
    assert text.startswith("order,n_nodes,l2_error_eta")
    assert len(text.splitlines()) == 3


def test_check_failure_exits_three(tmp_path, monkeypatch):
    # force an impossible threshold by shrinking the soliton EOC span so the
    # observed order cannot match; use a tampered scenario via config instead:
    # run the manufactured scenario at a single coarse resolution pair with
    # mismatched expectations is intrusive, so instead assert the plumbing on
    # a synthetic result
    from dispersive_sw import cli
    from dispersive_sw.scenarios import CheckResult, ScenarioResult

    def fake_run(cfg):
        return ScenarioResult(
            "fake", checks=[CheckResult("always_fails", 1.0, 0.5, False)]
        )

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    code = run_cli(["run", "--scenario", "soliton", "--check"])
    assert code == 3


def test_seed_key_in_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: lake_at_rest\nmodel: bbm_bbm\nseed: 3\n")
    code = run_cli(["run", "--config", str(cfg)])
    assert code == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, integrations",
    [
        (["--scenario", "soliton", "--model", "bbm_bbm", "--eoc", "--orders", "2",
          "--resolutions", "64,128", "--t-end", "0.5", "--relaxation"], 2),
        (["--scenario", "lake_at_rest", "--model", "svaerd_kalisch",
          "--n-nodes", "40", "--t-end", "0.01", "--dt", "1e-3"], 1),
    ],
)
def test_cli_prints_run_counters_summed_over_integrations(
    args, integrations, monkeypatch, capsys
):
    runs = []
    integrate = scenarios.integrate

    def recording_integrate(*a, **kw):
        runs.append(integrate(*a, **kw))
        return runs[-1]

    monkeypatch.setattr(scenarios, "integrate", recording_integrate)
    assert run_cli(["run", *args]) == 0
    assert len(runs) == integrations
    printed = _printed_info(capsys.readouterr().out)
    for name in ("n_steps", "n_rhs", "n_rejected", "relaxation_fallbacks"):
        assert printed[name] == str(sum(getattr(r, name) for r in runs)), name
    assert int(printed["n_steps"]) > 0 and int(printed["n_rhs"]) > 0


def test_reflecting_upwind_bump_holds_the_mass_gate(capsys):
    # eta_t is the divergence of the full mass flux, formed after the solve;
    # taken straight from the solve it drifted 3.7e-13 here (gate 1e-13)
    code = run_cli(["run", "--scenario", "reflecting_bump", "--model", "bbm_bbm",
                    "--variant", "reflecting_upwind", "--n-nodes", "512",
                    "--t-end", "0.02", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS: bump_mass_drift_baseline" in out and "PASS: bump_mass_drift_relaxed" in out


@pytest.mark.parametrize("model, variant", [
    ("bbm_bbm", "reflecting_central"),
    ("bbm_bbm", "reflecting_upwind"),
    ("svaerd_kalisch", "reflecting_beta_only"),
])
def test_manufactured_reflecting_variants_get_their_operators(model, variant, tmp_path):
    code = run_cli(["run", "--scenario", "manufactured", "--model", model,
                    "--variant", variant, "--orders", "4", "--resolutions", "33,65",
                    "--t-end", "0.01", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "eoc.csv").read_text().splitlines()
    assert len(rows) == 3


def test_failed_cholesky_exits_two_with_runtime_error(monkeypatch, capsys):
    # a velocity system that does not factor ends the run with a typed error
    monkeypatch.setattr(linsolve.lapack, "dpbtrf", lambda ab, **kw: (ab, 1))
    code = run_cli(["run", "--scenario", "lake_at_rest", "--model", "svaerd_kalisch",
                    "--n-nodes", "40", "--t-end", "0.01", "--dt", "1e-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "runtime error" in captured.err and "not positive definite" in captured.err
    assert "n_steps" not in captured.out


@pytest.mark.parametrize("args", [
    ["--scenario", "soliton", "--model", "bbm_bbm", "--variant", "periodic_central_wide",
     "--n-nodes", "64", "--t-end", "0.1"],
    ["--scenario", "reflecting_bump", "--model", "bbm_bbm", "--n-nodes", "64",
     "--t-end", "0.01"],
    ["--scenario", "lake_at_rest", "--model", "svaerd_kalisch",
     "--n-nodes", "40", "--t-end", "0.01", "--dt", "1e-3"],
])
def test_every_elliptic_solve_is_one_band_cholesky(args, monkeypatch, capsys):
    # one factorization path: no solver-path lines, BandCholesky throughout,
    # and the SK velocity system refactored once per right-hand side
    discs, factored = [], []

    def recording(build):
        def wrapper(*a, **kw):
            discs.append(build(*a, **kw))
            return discs[-1]
        return wrapper

    monkeypatch.setattr(scenarios.bbm_bbm, "build_bbm_discretization",
                        recording(scenarios.bbm_bbm.build_bbm_discretization))
    monkeypatch.setattr(scenarios.sk, "build_sk_discretization",
                        recording(scenarios.sk.build_sk_discretization))
    shifted_factor = linsolve.ShiftedSolver.factor

    def recording_factor(self, diagonal):
        factored.append(shifted_factor(self, diagonal))
        return factored[-1]

    monkeypatch.setattr(linsolve.ShiftedSolver, "factor", recording_factor)
    assert run_cli(["run", *args]) == 0
    out = capsys.readouterr().out
    for name in ("solver_mass", "solver_velocity", "dense_fallbacks"):
        assert name not in out
    printed = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    (disc,) = discs
    if isinstance(disc, BbmBbmDiscretization):
        assert isinstance(disc._solver_mass, linsolve.BandCholesky)
        assert isinstance(disc._solver_vel, linsolve.BandCholesky)
        assert factored == []
    else:
        assert isinstance(disc, SkDiscretization)
        assert len(factored) == int(printed["n_rhs"]) > 0
        assert all(isinstance(f, linsolve.BandCholesky) for f in factored)


_IMPORT_PROBE = """
import json, sys
HEAVY = ("logging", "scipy", "scipy.linalg", "scipy.optimize", "sympy", "yaml")
loaded = lambda: sorted(m for m in HEAVY if m in sys.modules)
steps = {}
from dispersive_sw.cli import run_cli
steps["import"] = loaded()
steps["dataclasses"] = ["dataclasses" in sys.modules]
assert run_cli(["run", "--scenario", "lake_at_rest", "--model", "svaerd_kalisch",
                "--n-nodes", "40", "--t-end", "0.01", "--dt", "1e-3"]) == 0
steps["lake_at_rest"] = loaded()
steps["dataclasses"].append("dataclasses" in sys.modules)
from dispersive_sw.scenarios import dingemans_wavenumber
steps["wavenumber"] = repr(dingemans_wavenumber())
steps["dingemans_wavenumber"] = loaded()
import scipy.linalg
from dispersive_sw import linsolve
assert scipy.linalg.lapack.dpbtrf is linsolve.lapack.dpbtrf  # one extension module
assert run_cli(["run", "--config", sys.argv[1]]) == 0
steps["config"] = loaded()
assert run_cli(["run", "--scenario", "reflecting_bump", "--model", "bbm_bbm",
                "--n-nodes", "64", "--t-end", "0.01"]) == 0
steps["reflecting_bump"] = loaded()
assert run_cli(["run", "--scenario", "manufactured", "--orders", "2",
                "--resolutions", "16,32", "--t-end", "0.01"]) == 0
steps["manufactured"] = loaded()
print(json.dumps(steps))
"""


def test_heavy_dependencies_load_only_where_a_run_uses_them(tmp_path):
    # a fresh interpreter: this pytest session has long imported all four
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "scenario: lake_at_rest\nmodel: bbm_bbm\nn_nodes: 40\nt_end: 1.0\n"
    )
    src = str(Path(dispersive_sw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(cfg)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    # linsolve loads the LAPACK extension without scipy's package __init__,
    # and timestepping imports logging only to log a relaxation fallback
    assert steps["import"] == []
    assert steps["lake_at_rest"] == []
    # records are plain classes: no dataclass code is generated for a run
    assert steps["dataclasses"] == [False, False]
    # scipy.optimize imports scipy, scipy.linalg and logging
    scipy_optimize = ["logging", "scipy", "scipy.linalg", "scipy.optimize"]
    assert steps["dingemans_wavenumber"] == scipy_optimize
    assert steps["wavenumber"] == "0.8406220896381472"
    assert steps["config"] == [*scipy_optimize, "yaml"]
    # tabulated closures
    assert steps["reflecting_bump"] == [*scipy_optimize, "yaml"]
    assert steps["manufactured"] == [*scipy_optimize, "sympy", "yaml"]


class _Built(Exception):
    """Raised by the builder spies once a discretization exists."""


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_builds_its_model_or_exits_one(scenario, model, monkeypatch,
                                                      capsys):
    # no silent substitution: a scenario runs cfg.model, or refuses with exit 1
    built = []

    def spying(build):
        def spy(*args, **kwargs):
            built.append(type(build(*args, **kwargs)))
            raise _Built
        return spy

    for module, name in ((scenarios.bbm_bbm, "build_bbm_discretization"),
                         (scenarios.sk, "build_sk_discretization")):
        monkeypatch.setattr(module, name, spying(getattr(module, name)))
    argv = ["run", "--scenario", scenario, "--model", model, "--t-end", "0.01"]
    # manufactured is the only scenario here that reads --orders and
    # --resolutions, and the only one that does not read --n-nodes
    if scenario == "manufactured":
        argv += ["--orders", "2", "--resolutions", "16,32"]
    else:
        argv += ["--n-nodes", "32"]
    try:
        code = run_cli(argv)
    except _Built:
        expected = {"bbm_bbm": BbmBbmDiscretization, "svaerd_kalisch": SkDiscretization}
        assert built == [expected[model]]
    else:
        assert code == 1 and not built
        assert "bbm_bbm" in capsys.readouterr().err
