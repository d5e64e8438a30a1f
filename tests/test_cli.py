import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covert_bosonic import cli
from covert_bosonic.covert_bounds import (
    lower_bound_qubits,
    q_max,
    upper_bound_qubits,
)
from covert_bosonic.fock_core import ChannelParams, FockCutoff, thermal_occupation

BOUNDS_ARGS = [
    "bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
    "--n", "1e4:1e12:9", "--modes-per-sec", "1e8",
]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
             "--n", "10:1:5"], capsys)
        assert code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["bounds", "--eta", "0.9"], capsys)
        assert code == 1

    def test_invalid_physics_is_validation_error(self, capsys):
        code, _, err = run_cli(
            ["bounds", "--eta", "1.2", "--nbar-b", "0.12", "--delta", "0.05",
             "--n", "100"], capsys)
        assert code == 2
        assert "error" in json.loads(err)

    def test_unknown_check_is_validation_error(self, capsys):
        code, _, _ = run_cli(["verify", "--check", "bogus"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", [
        ["--format", "csv"], ["--eta", "0.3"], ["--nbar-b", "0.1"], ["--cutoff", "5"],
    ])
    def test_verify_rejects_channel_flags(self, flag, capsys):
        code, out, err = run_cli(["verify", "--check", "laguerre_diag"] + flag, capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        BOUNDS_ARGS,
        ["eb-report", "--eta", "0.5", "--nbar-b", "0.5"],
    ])
    def test_cutoff_is_a_willie_state_flag_only(self, argv, capsys):
        # Like verify's channel flags: a flag the subcommand would ignore is
        # rejected rather than accepted silently.
        code, out, err = run_cli(argv + ["--cutoff", "3"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        ["willie-state", "--eta", "0.9", "--nbar-b", "inf", "--cutoff", "4"],
        ["willie-state", "--eta", "0.9", "--nbar-b", "nan", "--cutoff", "4"],
        ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
         "--n", "nan"],
        ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
         "--n", "1e6", "--modes-per-sec", "-5"],
        ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
         "--n", "1e6", "--modes-per-sec", "0"],
        ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
         "--n", "1e6", "--modes-per-sec", "inf"],
    ])
    def test_non_finite_or_out_of_domain_input_is_validation_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(BOUNDS_ARGS + ["--out", str(tmp_path / "no" / "x")],
                               capsys)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("cfg", [
        {"eta": [1], "nbar_b": 0.1}, {"eta": 0.9, "nbar_b": {"x": 1}},
        {"eta": 0.9, "nbar_b": 0.1, "qubit": 5}, {"eta": 0.9, "nbar_b": 0.1, "out": 3},
    ])
    def test_wrongly_typed_config_is_usage_error(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["willie-state", "--cutoff", "4", "--config",
                                  str(path)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "laguerre_diag"], capsys)
        assert code == 0
        report = json.loads(out.strip())
        assert report["passed"] is True
        assert report["check_name"] == "laguerre_diag"


class TestBounds:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(BOUNDS_ARGS + ["--out", str(a)]) == 0
        assert cli.main(BOUNDS_ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_values_round_trip(self, capsys):
        code, out, _ = run_cli(BOUNDS_ARGS, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# eta=0.9 nbar_b=0.12 delta=0.05")
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 9
        params = ChannelParams(0.9, 0.12)
        for row in rows:
            n = float(row["n[rounds]"])
            assert float(row["lower_qubits[qubits]"]) == pytest.approx(
                lower_bound_qubits(params, 0.05, n)
            )
            assert float(row["upper_qubits[qubits]"]) == pytest.approx(
                upper_bound_qubits(params, 0.05, n)
            )
            assert float(row["q[1]"]) == pytest.approx(q_max(params, 0.05, n))
            assert float(row["seconds[s]"]) == pytest.approx(2 * n / 1e8)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
             "--n", "1e6", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["eta"] == 0.9
        assert len(doc["rows"]) == 1
        assert doc["rows"][0][0] == 1e6
        assert doc["rows"][0][1] is None  # no modes-per-sec given

    def test_zero_delta_gives_zero_bounds(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0",
             "--n", "1e6"], capsys)
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0

    def test_single_point_range(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
             "--n", "1e6:1e6:1"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # comment, header, one row

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "eta": 0.5, "nbar_b": 0.12, "delta": 0.05, "n": "1e6",
        }))
        code, out, _ = run_cli(
            ["bounds", "--config", str(cfg), "--eta", "0.9"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("# eta=0.9")


class TestWillieState:
    def test_transparent_channel_is_thermal_product(self, capsys):
        code, out, _ = run_cli(
            ["willie-state", "--eta", "1", "--nbar-b", "0.2", "--cutoff", "6",
             "--qubit", "plus", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        entries = {tuple(int(x) for x in e[:4]): complex(e[4], e[5])
                   for e in doc["entries"]}
        for (f, g, fp, gp), v in entries.items():
            assert (f, g) == (fp, gp)  # diagonal only
            expected = thermal_occupation(f, 0.2) * thermal_occupation(g, 0.2)
            assert v == pytest.approx(expected, rel=1e-12)

    def test_sources_agree(self, capsys):
        base = ["willie-state", "--eta", "0.9", "--nbar-b", "0.12",
                "--cutoff", "12", "--qubit", "0.3:0.7:0.2:0.1",
                "--format", "json"]
        _, out_c, _ = run_cli(base + ["--source", "closed"], capsys)
        _, out_n, _ = run_cli(base + ["--source", "numeric"], capsys)
        closed = {tuple(int(x) for x in e[:4]): complex(e[4], e[5])
                  for e in json.loads(out_c)["entries"]}
        numeric = {tuple(int(x) for x in e[:4]): complex(e[4], e[5])
                   for e in json.loads(out_n)["entries"]}
        for key, v in closed.items():
            assert abs(numeric.get(key, 0.0) - v) < 1e-8

    def test_env_var_sets_cutoff(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CUTOFF_ENV_VAR, "4")
        code, out, _ = run_cli(
            ["willie-state", "--eta", "0.9", "--nbar-b", "0.12",
             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["cutoff"] == 4

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CUTOFF_ENV_VAR, "4")
        code, out, _ = run_cli(
            ["willie-state", "--eta", "0.9", "--nbar-b", "0.12",
             "--cutoff", "7", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["cutoff"] == 7

    def test_bad_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CUTOFF_ENV_VAR, "many")
        code, _, _ = run_cli(
            ["willie-state", "--eta", "0.9", "--nbar-b", "0.12"], capsys)
        assert code == 1


class TestEbReport:
    def test_attenuate_json(self, capsys):
        code, out, _ = run_cli(
            ["eb-report", "--eta", "0.5", "--nbar-b", "0.5",
             "--mechanism", "attenuate", "--margin", "0.9"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["mechanism"] == "attenuate"
        assert doc["tau"] == pytest.approx(0.45)
        assert doc["is_entanglement_breaking"] is False
        assert doc["c_cov_effective"] > doc["c_cov"]

    def test_amplify_with_bounds_csv(self, capsys):
        code, out, _ = run_cli(
            ["eb-report", "--eta", "0.5", "--nbar-b", "0.5",
             "--mechanism", "amplify", "--nbar-prime", "0.6",
             "--delta", "0.05", "--n", "1e10", "--format", "csv"], capsys)
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in out.strip().splitlines()[1:]
        )
        assert float(rows["gain_eb"]) == pytest.approx(2.5)
        assert rows["mechanism"] == "amplify"
        assert float(rows["effective_covert_params.nbar_b"]) == pytest.approx(1.1)
        # the added noise drives the hashing rate to zero here, so the
        # achievable count is legitimately zero while the converse stays positive
        assert float(rows["lower_qubits_effective"]) == 0.0
        assert float(rows["upper_qubits_effective"]) > 0.0

    def test_none_needed_when_already_breaking(self, capsys):
        code, out, _ = run_cli(
            ["eb-report", "--eta", "0.9", "--nbar-b", "0.12"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["mechanism"] == "none_needed"
        assert doc["is_entanglement_breaking"] is True

    def test_infeasible_is_validation_error(self, capsys):
        code, _, _ = run_cli(
            ["eb-report", "--eta", "0.5", "--nbar-b", "0",
             "--mechanism", "amplify"], capsys)
        assert code == 2


def test_cli_import_loads_neither_scipy_nor_oracle():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, covert_bosonic.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'covert_bosonic.oracle'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_serves_oracle_names_lazily():
    import covert_bosonic
    from covert_bosonic import oracle

    assert covert_bosonic.willie_state_numeric is oracle.willie_state_numeric
    with pytest.raises(AttributeError):
        covert_bosonic.no_such_name
