import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import polygas
from polygas.cli import ExperimentConfig, build_parser, main


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def without_volatile(payload: dict) -> dict:
    d = json.loads(json.dumps(payload))
    d.pop("wall_time", None)
    return d


def test_chi_braid4():
    code, out = run_cli(["chi", "--family", "braid", "--n", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["chi_at_zero"] == -6
    assert data["orders"][0]["safe_bases"] == 6
    assert data["sign_relation_ok"] is True


def test_chi_random_orders():
    code, out = run_cli(["chi", "--family", "coxeter_b", "--n", "2",
                         "--orders", "5", "--seed", "3"])
    data = json.loads(out)
    assert code == 0
    assert len(data["orders"]) == 6
    assert all(row["safe_bases"] == 3 for row in data["orders"])


def test_bases_command():
    code, out = run_cli(["bases", "--family", "braid", "--n", "3"])
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 3


def test_mmc_exact_d0():
    code, out = run_cli(["mmc", "--family", "braid", "--n", "2", "--d", "0"])
    data = json.loads(out)
    assert code == 0
    assert data["value"] == -1 and data["exact"] is True


def test_mmc_subset_flag():
    code, out = run_cli(["mmc", "--family", "braid", "--n", "3", "--d", "0",
                         "--subset", "0,1"])
    data = json.loads(out)
    assert code == 0
    assert data["value"] == 1


def test_dr_check_pass_exit_zero():
    code, out = run_cli(["dr-check", "--family", "braid", "--n", "2",
                         "--d", "1", "--samples", "20000", "--seed", "42"])
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert abs(data["lhs"]["mean"] - data["rhs"]["mean"]) < 0.2


def test_dr_check_statistical_failure_exit_two():
    # the pair-functional family at d = 1 fails the plain identity by the
    # base-determinant factor: exit code 2, not an operational error
    code, out = run_cli(["dr-check", "--family", "coxeter_d", "--n", "2",
                         "--d", "1", "--samples", "20000", "--seed", "1"])
    data = json.loads(out)
    assert code == 2
    assert data["pass"] is False


def test_usage_error_exit_one():
    code, _ = run_cli(["chi", "--family", "threshold", "--n", "2"])
    assert code == 1
    code, _ = run_cli(["dr-check", "--family", "nope"])
    assert code == 1
    code, _ = run_cli(["mmc", "--family", "braid", "--n", "3", "--d", "1",
                       "--subset", "0"])
    assert code == 1  # non-spanning subset


def test_invalid_samples_exit_one():
    code, _ = run_cli(["pressure-coeff", "--family", "braid", "--n", "2",
                       "--samples", "0"])
    assert code == 1


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "braid", "n": 3, "d": 0,
                               "samples": 50, "seed": 9, "workers": 2}))
    code, out = run_cli(["pressure-coeff", "--family", "coxeter_d", "--n", "2",
                         "--config", str(cfg)])
    data = json.loads(out)
    assert code == 0
    assert data["config"]["family"] == "braid"
    assert data["config"]["n"] == 3
    assert data["estimate"]["mean"] == 2.0  # chi of braid(3), exact at d=0


def test_same_config_byte_identical_across_worker_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "braid", "n": 3, "d": 1,
                               "samples": 120_000, "seed": 5, "workers": 2}))
    outputs = []
    for flag_workers in ("1", "8"):
        code, out = run_cli(["pressure-coeff", "--config", str(cfg),
                             "--workers", flag_workers])
        assert code == 0
        outputs.append(without_volatile(json.loads(out)))
    assert outputs[0] == outputs[1]


def test_worker_count_leaves_estimates_unchanged():
    results = []
    for w in ("1", "4", "8"):
        code, out = run_cli(["pressure-coeff", "--family", "braid", "--n", "3",
                             "--d", "1", "--samples", "100000", "--seed", "3",
                             "--workers", w])
        data = json.loads(out)
        results.append((data["estimate"]["mean"], data["estimate"]["stderr"]))
    assert results[0] == results[1] == results[2]


def test_output_file_and_csv(tmp_path):
    out_json = tmp_path / "r.json"
    code, _ = run_cli(["chi", "--family", "braid", "--n", "3",
                       "--out", str(out_json)])
    assert code == 0
    assert json.loads(out_json.read_text())["chi_at_zero"] == 2
    out_csv = tmp_path / "r.csv"
    code, _ = run_cli(["chi", "--family", "braid", "--n", "3",
                       "--format", "csv", "--out", str(out_csv)])
    lines = out_csv.read_text().splitlines()
    assert code == 0
    assert len(lines) == 2
    assert "chi_at_zero" in lines[0]


def test_config_echo_round_trips(tmp_path):
    code, out = run_cli(["mmc", "--family", "braid", "--n", "2", "--d", "0"])
    echo = json.loads(out)["config"]
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(echo))
    code2, out2 = run_cli(["mmc", "--config", str(cfg)])
    assert code2 == 0
    assert without_volatile(json.loads(out2)) == without_volatile(json.loads(out))


def test_polymer_volume_and_artifacts(tmp_path):
    svg = tmp_path / "p.svg"
    dump = tmp_path / "s.csv"
    code, out = run_cli(["polymer-volume", "--family", "braid", "--n", "3",
                         "--d", "2", "--samples", "5000", "--seed", "0",
                         "--svg", str(svg), "--dump-samples", str(dump)])
    data = json.loads(out)
    assert code == 0
    assert abs(data["estimate"]["mean"] - 78.96) < 2.0
    assert svg.read_text().startswith("<svg")
    assert dump.read_text().startswith("base_mask")


def test_invariance_command():
    code, out = run_cli(["invariance", "--family", "braid", "--n", "3",
                         "--samples", "60000", "--seed", "2",
                         "--radii-list", "1,1,1;1,2,5"])
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    # at radii 1, 2, 5 base {0, 1} cannot accept: |h_2| <= 1 + 2 < 5
    assert data["strata"] == [{"sampled": 3, "skipped": 0},
                              {"sampled": 2, "skipped": 1}]
    assert [e["n_samples"] for e in data["estimates"]] == [60000, 60000]


def test_polymer_volume_reports_skipped_strata():
    # coxeter_b(3) at unit radii: 15 of its 68 strata are provably empty, so
    # the 6800 samples go to the other 53, 128 each
    code, out = run_cli(["polymer-volume", "--family", "coxeter_b", "--n", "3",
                         "--d", "2", "--samples", "6800", "--seed", "0"])
    data = json.loads(out)
    assert code == 0
    assert data["strata"] == {"sampled": 53, "skipped": 15}
    assert data["estimate"]["n_samples"] == 53 * 128


def test_tonks_command():
    code, out = run_cli(["tonks", "--m-max", "2", "--samples", "30000",
                         "--seed", "0"])
    data = json.loads(out)
    assert code == 0
    assert data["rows"][0]["expected"] == -2


def test_type_d_command_d0():
    code, out = run_cli(["type-d", "--n", "2", "--d", "0",
                         "--samples", "30000", "--seed", "0"])
    data = json.loads(out)
    assert code == 0
    assert data["combinatorial_ok"] is True


def test_asa_dr_command():
    code, out = run_cli(["asa-dr", "--family", "braid", "--n", "2", "--d", "1",
                         "--shape", "cylinder", "--length", "1.0",
                         "--samples", "30000", "--seed", "0"])
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True


def test_project_law_command():
    code, out = run_cli(["project-law", "--family", "braid", "--n", "2",
                         "--d", "1", "--g", "norm_sq", "--safe",
                         "--samples", "50000", "--seed", "0"])
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert "safe_side" in data


def test_project_law_unknown_g_in_config_exit_one(tmp_path, capsys):
    # argparse limits --g to G_FUNCTIONS; a config file can name any g, and
    # the library refuses it
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"g": "nope"}))
    code, out = run_cli(["project-law", "--family", "braid", "--n", "3",
                         "--samples", "3000", "--config", str(cfg)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "polygas: error: unknown g 'nope'; choose from "
        "['const1', 'indicator_halfspace', 'norm_sq']\n")


def test_console_entry_point():
    # the subprocess imports the same polygas as this process, also when it
    # comes from a source tree on pytest's path rather than an install
    source_root = str(Path(polygas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "polygas.cli", "mmc", "--family", "braid",
         "--n", "2", "--d", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == -1


def test_unknown_config_key_exit_one(tmp_path, capsys):
    # "echo" and "validate" name methods of the config, not keys
    for key in ("familee", "echo", "validate"):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: "braid"}))
        code, out = run_cli(["chi", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err == f"polygas: error: unknown config key {key!r}\n"
    cfg.write_text(json.dumps([{"family": "braid"}]))
    code, out = run_cli(["chi", "--config", str(cfg)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("polygas: error:")


def test_fewer_samples_than_bases_exit_one(capsys):
    code, out = run_cli(["polymer-volume", "--family", "braid", "--n", "4",
                         "--d", "3", "--samples", "5"])
    assert code == 1 and out == ""
    assert "16 bases" in capsys.readouterr().err


def test_invariance_radii_of_wrong_length_exit_one(capsys):
    code, out = run_cli(["invariance", "--family", "braid", "--n", "3",
                         "--samples", "3000", "--radii-list", "1,1;1,2"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("polygas: error:")


def test_mistyped_config_values_exit_one(tmp_path, capsys):
    for bad, key in [({"samples": "1000"}, "samples"), ({"n": "3"}, "n"),
                     ({"d": 1.5}, "d"), ({"safe": 1}, "safe"),
                     ({"length": True}, "length"), ({"radii": 2.0}, "radii")]:
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(bad))
        code, out = run_cli(["pressure-coeff", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("polygas: error:") and repr(key) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command, bad, key", [
    ("mmc", {"d": 0, "subset": ["x"]}, "subset"),
    ("invariance", {"radii_list": [1]}, "radii_list"),
], ids=["subset", "radii_list"])
def test_mistyped_config_list_entries_exit_one(tmp_path, capsys, command, bad,
                                               key):
    cfg = tmp_path / "entries.json"
    cfg.write_text(json.dumps(bad))
    code, out = run_cli([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("polygas: error:") and repr(key) in err
    assert "Traceback" not in err


def test_well_typed_config_values_pass(tmp_path):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"family": "braid", "n": 3, "d": 0, "k": None,
                               "length": 2, "safe": False,
                               "radii": [1, 2, 3]}))
    code, _ = run_cli(["pressure-coeff", "--config", str(cfg)])
    assert code == 0


@pytest.mark.parametrize("args", [
    ["dr-check", "--family", "dowling", "--n", "2", "--k", "3", "--d", "1"],
    ["tonks", "--m-max", "5"],
    ["type-d", "--n", "4"],
    ["asa-dr", "--family", "dowling", "--n", "2", "--k", "3", "--d", "2"],
    ["project-law", "--family", "dowling", "--n", "2", "--k", "3", "--d", "2"],
    ["mmc", "--family", "braid", "--n", "3", "--d", "1", "--subset", "0"],
    ["chi", "--family", "braid", "--n", "3", "--radii", "1,2"],
], ids=lambda args: args[0])
def test_library_input_errors_exit_one(args, capsys):
    # every library input error reaches the one handler in main
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("polygas: error:") and "Traceback" not in err


@pytest.mark.parametrize("args, flag", [
    (["pressure-coeff", "--radii", "a,b"], "--radii"),
    (["bases", "--colors", "2,x"], "--colors"),
    (["mmc", "--subset", "x"], "--subset"),
    (["invariance", "--radii-list", "1,a"], "--radii-list"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_malformed_list_flags_exit_one(args, flag, capsys):
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert f"argument {flag}:" in err and "Traceback" not in err


def test_empty_list_flag_counts_as_not_given():
    runs = [run_cli(["mmc", "--family", "braid", "--n", "3", "--d", "0",
                     *extra]) for extra in ([], ["--radii", ""],
                                            ["--radii", ","], ["--subset", ""])]
    assert all(code == 0 for code, _ in runs)
    assert len({json.dumps(without_volatile(json.loads(out)))
                for _, out in runs}) == 1


def test_config_echo_round_trips_every_field(tmp_path):
    first = tmp_path / "first.json"
    first.write_text(json.dumps({
        "family": "dowling", "n": 2, "k": 3, "d": 2, "samples": 3000,
        "seed": 4, "colors": [2, 2], "radii": [1.0, 1.0, 2.0],
        "normals": [["1", "0"], ["0", "1"]], "radii_list": [[1.0, 1.0, 1.0]],
        "subset": [0, 1], "length": 2.0, "orders": 1}))
    code, out = run_cli(["mmc", "--config", str(first)])
    assert code == 0
    echo = json.loads(out)["config"]
    assert set(echo) == {field.name for field in fields(ExperimentConfig)}
    again = tmp_path / "echo.json"
    again.write_text(json.dumps(echo))
    code2, out2 = run_cli(["mmc", "--config", str(again)])
    assert code2 == 0
    assert without_volatile(json.loads(out2)) == without_volatile(json.loads(out))


_COMMON_OPTIONS = ["-h", "--help", "--family", "--n", "--k", "--colors", "--d",
                   "--samples", "--seed", "--workers", "--radii", "--out",
                   "--format", "--config"]

# the CLI's option surface, pinned: adding, dropping or renaming an option
# must change this table
_OWN_OPTIONS = {
    "chi": ["--orders"], "bases": [], "mmc": ["--subset"],
    "pressure-coeff": [], "invariance": ["--radii-list"], "dr-check": [],
    "tonks": ["--m-max"], "type-d": [], "asa-dr": ["--shape", "--length"],
    "project-law": ["--g", "--safe"],
    "polymer-volume": ["--svg", "--dump-samples"],
}


def test_option_surface_is_pinned():
    parser = build_parser()
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices
    assert list(subs) == list(_OWN_OPTIONS)
    keys = {field.name for field in fields(ExperimentConfig)}
    for name, sub in subs.items():
        options = [s for action in sub._actions for s in action.option_strings]
        assert options == _COMMON_OPTIONS + _OWN_OPTIONS[name], name
        # every flag but the output, config and artifact ones sets the
        # config field of its name
        dests = {action.dest for action in sub._actions} - {
            "help", "out", "format", "config", "svg", "dump_samples"}
        assert dests <= keys, name


def test_one_view_per_command(tmp_path, monkeypatch):
    from polygas.matroid import MatroidView
    built = []
    original = MatroidView.__init__

    def counting_init(self, arrangement):
        built.append(arrangement)
        original(self, arrangement)

    monkeypatch.setattr(MatroidView, "__init__", counting_init)
    code, _ = run_cli(["project-law", "--family", "braid", "--n", "3",
                       "--d", "1", "--g", "norm_sq", "--safe",
                       "--samples", "4000", "--seed", "0"])
    assert code in (0, 2) and len(built) == 1
    built.clear()
    code, _ = run_cli(["polymer-volume", "--family", "braid", "--n", "3",
                       "--d", "2", "--samples", "3000", "--seed", "0",
                       "--svg", str(tmp_path / "p.svg"),
                       "--dump-samples", str(tmp_path / "s.csv")])
    assert code == 0 and len(built) == 1
