import contextlib
import csv
import io
import json
import math
import operator
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from covert_bosonic import cli
from covert_bosonic.covert_bounds import bounds_curve
from covert_bosonic.closed_form import LogicalQubit, willie_state_closed
from covert_bosonic.fock_core import (
    DEFAULT_MAX_PHOTONS,
    ChannelParams,
    FockCutoff,
    TruncationError,
    thermal_occupation,
)
from covert_bosonic.oracle import willie_state_numeric

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

    @pytest.mark.parametrize("spec", ["10:1:5", "1e6:1e7:inf", "1e6:1e7:1e400",
                                      "1e6:1e7:2.9", "1e6:1e7:1e300", "1:2:1000001"])
    def test_bad_range_is_usage_error(self, spec, capsys):
        code, out, err = run_cli(
            ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
             "--n", spec], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

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
        ["willie-state", "--eta", "0.9", "--nbar-b", "0.12", "--cutoff", "4",
         "--qubit", "1:0:nan"],
        *([command, "--eta", "0.5", "--nbar-b", "0.5", "--delta", delta, "--n", "1e6"]
          for command in ("bounds", "eb-report") for delta in ("0.7", "nan", "-0.1")),
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
        points = bounds_curve(ChannelParams(0.9, 0.12), 0.05,
                              [float(row["n[rounds]"]) for row in rows],
                              modes_per_second=1e8)
        for row, pt in zip(rows, points):
            assert float(row["lower_qubits[qubits]"]) == pt.lower_qubits
            assert float(row["upper_qubits[qubits]"]) == pt.upper_qubits
            assert float(row["q[1]"]) == pt.q
            assert float(row["seconds[s]"]) == pt.seconds == pytest.approx(2 * pt.n / 1e8)

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


# A 10^5-point sweep: many write chunks and formatting slices.
SWEEP = ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
         "--n", "1e4:1e14:100000"]
SWEEP_FIELDS = ("n", "seconds", "lower_qubits", "upper_qubits", "assisted_lower_qubits",
                "rate_R", "capacity_C", "q", "nbar_s")


@pytest.fixture(scope="module")
def sweep_points():
    """bounds_curve over SWEEP's n, without and with a modulation rate."""
    n = np.geomspace(1e4, 1e14, 100000).tolist()
    return {rate: bounds_curve(ChannelParams(0.9, 0.12), 0.05, n, rate)
            for rate in (None, 1e8)}


def bounds_bytes_from_points(points, fmt, rate):
    """The bounds output built from BoundsPoints field by field: repr of
    each float, "" for an absent seconds."""
    header = ["n[rounds]", "seconds[s]", "lower_qubits[qubits]", "upper_qubits[qubits]",
              "assisted_lower_qubits[qubits]", "rate_R[qubits/round]",
              "capacity_C[qubits/mode]", "q[1]", "nbar_s[photons]"]
    rows = list(map(operator.attrgetter(*SWEEP_FIELDS), points))
    if fmt == "json":
        doc = {"eta": 0.9, "nbar_b": 0.12, "delta": 0.05, "modes_per_sec": rate,
               "columns": header, "rows": rows}
        return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
    lines = ["# eta=0.9 nbar_b=0.12 delta=0.05"
             + ("" if rate is None else f" modes_per_sec={rate!r}"), ",".join(header)]
    lines += [",".join("" if v is None else repr(float(v)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestBoundsStreaming:
    """``bounds`` formats its columns and writes them a chunk at a time; the
    bytes are those of the per-point rule."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rate", [None, 1e8])
    def test_sweep_bytes_match_the_per_point_rule(self, fmt, rate, sweep_points, tmp_path):
        out = tmp_path / "sweep"
        argv = SWEEP + ["--format", fmt, "--out", str(out)]
        assert cli.main(argv + ([] if rate is None else ["--modes-per-sec", repr(rate)])) == 0
        assert out.read_bytes() == bounds_bytes_from_points(sweep_points[rate], fmt, rate)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_bytes_match_out_bytes(self, fmt, tmp_path):
        # 9000 rows span three write chunks; redirect_stdout swaps
        # sys.stdout after the module loaded.
        argv = BOUNDS_ARGS[:-4] + ["--n", "1e4:1e14:9000", "--format", fmt]
        out = tmp_path / "sweep"
        assert cli.main(argv + ["--out", str(out)]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        assert buf.getvalue().encode() == out.read_bytes()

    def test_converse_below_achievability_writes_nothing(self, tmp_path, capsys,
                                                          monkeypatch):
        columns_of = cli.cb._bounds_columns

        def swapped(*args):
            cols = columns_of(*args)
            for i in (3, 7):
                cols["upper_qubits"][i] = cols["lower_qubits"][i] / 2
            return cols

        monkeypatch.setattr(cli.cb, "_bounds_columns", swapped)
        pt = bounds_curve(ChannelParams(0.9, 0.12), 0.05,
                          np.geomspace(1e4, 1e12, 9).tolist(), 1e8)[3]
        out = tmp_path / "bounds.csv"
        code, stdout, err = run_cli(BOUNDS_ARGS + ["--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert json.loads(err)["message"] == (
            f"converse below achievability at n={pt.n!r}: "
            f"upper={pt.lower_qubits / 2!r} < lower={pt.lower_qubits!r}")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_builds_no_bounds_point(self, fmt, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("bounds built a BoundsPoint")

        monkeypatch.setattr(cli.cb, "BoundsPoint", refuse)
        code, out, _ = run_cli(BOUNDS_ARGS + ["--format", fmt], capsys)
        assert code == 0 and out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_memory_is_bounded(self, fmt, tmp_path):
        # Built as one object per point and one joined string, the CSV
        # peaked at ~96 MB of Python heap, and the JSON, dumped whole, at
        # ~147 MB; the columns and one formatting slice take ~15 MB.
        tracemalloc.start()
        try:
            assert cli.main(SWEEP + ["--modes-per-sec", "1e8", "--format", fmt,
                                     "--out", str(tmp_path / "sweep")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


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

    def test_environment_does_not_set_the_cutoff(self, capsys, monkeypatch):
        # The cutoff comes from --cutoff, the config file or the default only.
        monkeypatch.setenv("COVERT_BOSONIC_CUTOFF", "4")
        code, out, _ = run_cli(
            ["willie-state", "--eta", "0.9", "--nbar-b", "0.12",
             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["cutoff"] == DEFAULT_MAX_PHOTONS == 20

    @pytest.mark.parametrize("cutoff", [2.7, 3.0, True, "2.7", "three"])
    def test_non_integer_config_cutoff_is_usage_error(self, cutoff, tmp_path, capsys):
        # Refused rather than rounded: 2.7 used to run at 2 and true at 1.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cutoff": cutoff}))
        code, out, err = run_cli(["willie-state", "--eta", "0.9", "--nbar-b", "0.12",
                                  "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("cutoff", [3, "3"])
    def test_integer_config_cutoff_is_used(self, cutoff, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cutoff": cutoff}))
        code, out, _ = run_cli(["willie-state", "--eta", "0.9", "--nbar-b", "0.12",
                                "--format", "json", "--config", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["cutoff"] == 3


# Qubits and channels of the layout walk's cases, the transparent and the
# vacuum channel among them.
WALK_QUBITS = [LogicalQubit(1.0, 0.0), LogicalQubit(0.0, 1.0), LogicalQubit(0.5, 0.5, 0.5),
               LogicalQubit(0.3, 0.7, 0.2 - 0.3j), LogicalQubit(0.5, 0.5, 0.0)]
WALK_CHANNELS = [ChannelParams(0.9, 0.12), ChannelParams(0.5, 0.05), ChannelParams(1.0, 0.2),
                 ChannelParams(0.0, 0.0)]


class TestLayoutRecords:
    """willie-state writes its entries from the layout's two arrays; the
    records are those of its dense matrix."""

    @pytest.mark.parametrize("source", ["closed", "numeric"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 20, 30])
    def test_records_are_the_dense_matrix_walk(self, source, n):
        """Row-major np.nonzero over the scattered matrix gives the same
        records, bit for bit: repr tells a zero imaginary part's sign."""
        build = willie_state_closed if source == "closed" else willie_state_numeric
        cut, walked = FockCutoff(n), 0
        for params in WALK_CHANNELS:
            for qubit in WALK_QUBITS:
                try:
                    state = build(qubit, params, cut)
                except TruncationError:  # the numeric state's leak at a low cutoff
                    continue
                entries, d = state.entries, cut.dim
                rows, cols = np.nonzero(entries)
                vals = entries[rows, cols]
                dense = list(zip(*(a.tolist() for a in (
                    rows // d, rows % d, cols // d, cols % d, vals.real, vals.imag))))
                assert repr(cli._layout_records(state)) == repr(dense)
                walked += 1
        assert walked >= len(WALK_QUBITS)  # the vacuum channel leaks nothing

    def test_dump_memory_is_bounded(self, tmp_path):
        # The dense matrix alone is 16 * 61^4 bytes = 221 MB at cutoff 60;
        # the walk and its 10,923 records peak at ~3 MB.
        tracemalloc.start()
        try:
            assert cli.main(["willie-state", "--eta", "0.9", "--nbar-b", "0.12",
                             "--cutoff", "60", "--out", str(tmp_path / "state.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


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

    @pytest.mark.parametrize("extra", [
        ["--delta", "0.05"], ["--n", "1e6"], ["--delta", "0.05", "--n", "1e4:1e8:3"],
    ])
    def test_bounds_need_delta_and_one_round_count(self, extra, capsys):
        code, out, err = run_cli(
            ["eb-report", "--eta", "0.5", "--nbar-b", "0.5"] + extra, capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"

    def test_infeasible_is_validation_error(self, capsys):
        code, _, _ = run_cli(
            ["eb-report", "--eta", "0.5", "--nbar-b", "0",
             "--mechanism", "amplify"], capsys)
        assert code == 2


# Settings of each command as (JSON config value, a value that changes the
# output wherever it is used); the flag form of a value is its str(), one
# flag per list entry.
_PARITY_BASES = {
    "bounds": ("bounds", {
        "eta": (0.9, 0.7), "nbar_b": (0.12, 0.2), "delta": (0.05, 0.1),
        "n": ("1e4:1e8:3", "1e5"), "modes_per_sec": (1e8, 1e6),
        "format": ("json", "csv")}),
    "willie-state": ("willie-state", {
        "eta": (0.9, 0.7), "nbar_b": (0.12, 0.2), "qubit": ("0.3:0.7:0.1:0.2", "minus"),
        "source": ("numeric", "closed"), "cutoff": (8, 10), "format": ("json", "csv")}),
    "eb-report-attenuate": ("eb-report", {
        "eta": (0.5, 0.7), "nbar_b": (0.5, 0.2), "mechanism": ("attenuate", "amplify"),
        "margin": (0.8, 0.5), "delta": (0.05, 0.1), "n": (1e6, 1e7),
        "format": ("csv", "json")}),
    "eb-report-amplify": ("eb-report", {
        "eta": (0.5, 0.7), "nbar_b": (0.5, 0.2), "mechanism": ("amplify", "attenuate"),
        "nbar_prime": (0.6, 0.3)}),
    "verify": ("verify", {
        "check": (["laguerre_diag", "laguerre_offdiag"], ["laguerre_offdiag"])}),
}
_PARITY_CASES = [(base, key) for base, (_, settings) in _PARITY_BASES.items()
                 for key in settings]


def _flags(settings):
    return [tok for key, (val, _) in settings.items()
            for v in (val if isinstance(val, list) else [val])
            for tok in ("--" + key.replace("_", "-"), str(v))]


def _assert_same(out, expected):
    # Compared first, so that a failure skips pytest's diff of two state
    # dumps, which takes minutes.
    same = out == expected
    assert same, f"outputs differ ({len(out)} and {len(expected)} characters)"


class TestConfigParity:
    """A config value is parsed exactly as its flag: same conversions, same
    choices, same exit code, and a flag given on the command line wins."""

    @staticmethod
    def _run_with_config(argv, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_cli(argv + ["--config", str(path)], capsys)

    @pytest.mark.parametrize("base,key", _PARITY_CASES)
    def test_config_value_matches_flag(self, base, key, tmp_path, capsys):
        command, settings = _PARITY_BASES[base]
        code, by_flag, _ = run_cli([command] + _flags(settings), capsys)
        assert code == 0
        rest = {k: v for k, v in settings.items() if k != key}
        code, by_config, err = self._run_with_config(
            [command] + _flags(rest), {key: settings[key][0]}, tmp_path, capsys)
        assert (code, err) == (0, "")
        _assert_same(by_config, by_flag)

    @pytest.mark.parametrize("base,key", _PARITY_CASES)
    def test_flag_beats_config(self, base, key, tmp_path, capsys):
        command, settings = _PARITY_BASES[base]
        argv = [command] + _flags(settings)
        _, by_flag, _ = run_cli(argv, capsys)
        code, out, _ = self._run_with_config(
            argv, {key: settings[key][1]}, tmp_path, capsys)
        assert code == 0
        _assert_same(out, by_flag)

    @pytest.mark.parametrize("base,key,bad", [
        ("willie-state", "eta", "abc"),
        ("eb-report-attenuate", "margin", "x"),
        ("bounds", "eta", True),
        ("bounds", "format", "xml"),
        ("eb-report-amplify", "mechanism", "boost"),
        ("willie-state", "source", "dense"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_bad_value_is_usage_error_by_either_route(self, base, key, bad, route,
                                                      tmp_path, capsys):
        # At the parent a config "abc", "x" or true for a number exited 2 or
        # ran at 1.0, where the same flag exited 1.
        command, settings = _PARITY_BASES[base]
        rest = {k: v for k, v in settings.items() if k != key}
        if route == "flag":
            text = json.dumps(bad) if isinstance(bad, bool) else bad
            code, out, err = run_cli(
                [command] + _flags(rest) + ["--" + key.replace("_", "-"), text], capsys)
        else:
            code, out, err = self._run_with_config(
                [command] + _flags(rest), {key: bad}, tmp_path, capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert doc["message"].startswith("argument --" + key.replace("_", "-"))

    def test_negative_config_value_is_read_as_a_value(self, tmp_path, capsys):
        # '-1e-05' would read as an unknown flag if it were a separate token.
        code, out, err = self._run_with_config(
            ["bounds", "--nbar-b", "0.12", "--delta", "0.05", "--n", "1e6"],
            {"eta": -1e-05}, tmp_path, capsys)
        assert code == 2 and out == ""
        assert "eta" in json.loads(err)["message"]

    @pytest.mark.parametrize("text", ["{", '{"eta": ' + "9" * 5000 + "}"])
    def test_unreadable_config_is_usage_error(self, text, tmp_path, capsys):
        # An integer of more digits than int() converts used to exit 2.
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(["eb-report", "--nbar-b", "0.5", "--config", str(path)],
                                 capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["message"].startswith("cannot read config")

    def test_null_and_unknown_keys_are_ignored(self, tmp_path, capsys):
        argv = ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
                "--n", "1e6"]
        _, by_flag, _ = run_cli(argv, capsys)
        code, out, _ = self._run_with_config(
            argv, {"modes_per_sec": None, "cutoff": 5, "margin": 0.5, "bogus": 1},
            tmp_path, capsys)
        assert code == 0 and out == by_flag


class TestCutoffRange:
    """A cutoff outside 1..90 is a usage error from every source: the dense
    dump grows as (N+1)^4, and at 3000 numpy's allocation error used to
    escape as a traceback."""

    ARGV = ["willie-state", "--eta", "0.9", "--nbar-b", "0.12"]

    @staticmethod
    def _assert_refused(code, out, err, cutoff):
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert doc["message"] == f"cutoff must be from 1 to 90, got {cutoff}"

    @pytest.mark.parametrize("cutoff", [0, 91, 3000, 100000])
    def test_flag_outside_range(self, cutoff, capsys):
        self._assert_refused(*run_cli(self.ARGV + ["--cutoff", str(cutoff)], capsys),
                             cutoff)

    def test_config_outside_range(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cutoff": 91}))
        self._assert_refused(*run_cli(self.ARGV + ["--config", str(path)], capsys), 91)


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
         "--n", "1e4:1e8:3", "--format", "json"],
        ["willie-state", "--eta", "0.9", "--nbar-b", "0.12", "--cutoff", "4",
         "--format", "json"],
        ["eb-report", "--eta", "0.5", "--nbar-b", "0.5", "--delta", "0.05", "--n", "1e6"],
        ["eb-report", "--eta", "1", "--nbar-b", "0.1"],
        ["eb-report", "--eta", "1", "--nbar-b", "0.1", "--mechanism", "amplify"],
    ])
    def test_json_output_is_strict(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        _strict_json(out)

    def test_verify_lines_are_strict(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "laguerre_diag"], capsys)
        assert code == 0
        for line in out.splitlines():
            _strict_json(line)

    def test_infinite_covertness_constant_is_null_in_json_and_inf_in_csv(self, capsys):
        # At eta = 1 the warden sees nothing and c_cov is infinite; the parent
        # printed the non-standard token Infinity.
        argv = ["eb-report", "--eta", "1", "--nbar-b", "0.1"]
        _, out, _ = run_cli(argv, capsys)
        doc = _strict_json(out)
        assert doc["c_cov"] is None and doc["c_cov_effective"] is None
        _, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert "c_cov,inf" in out.splitlines()

    def test_non_finite_nested_value_is_validation_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.cb, "hashing_rate", lambda params: math.nan)
        code, out, err = run_cli(["bounds", "--eta", "0.9", "--nbar-b", "0.12",
                                  "--delta", "0.05", "--n", "1e6", "--format", "json"],
                                 capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "not JSON compliant" in json.loads(err)["message"]


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [" ".join(cmd.split()) for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("covert-bosonic ")]


@pytest.mark.parametrize("command", _readme_cli_commands())
def test_readme_cli_example_runs(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(shlex.split(command)[1:], capsys)
    assert code == 0, err


def test_readme_cli_block_is_found():
    assert len(_readme_cli_commands()) >= 5


def _modules_loaded_by(module, prefixes, run="pass"):
    """Names starting with one of ``prefixes`` in sys.modules after a fresh
    interpreter imports ``module`` and runs the statement ``run``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys, {module}; {run}; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_cli_import_loads_neither_scipy_nor_oracle():
    assert _modules_loaded_by("covert_bosonic.cli",
                              ("scipy", "covert_bosonic.oracle")) == "[]"


def test_bound_commands_load_no_fock_space_module():
    run = ("covert_bosonic.cli.main(['bounds', '--eta', '0.9', '--nbar-b', '0.12', "
           "'--delta', '0.05', '--n', '1e4:1e8:5']); "
           "covert_bosonic.cli.main(['eb-report', '--eta', '0.9', '--nbar-b', "
           "'0.12', '--delta', '0.05', '--n', '1e6'])")
    fock_stack = ("covert_bosonic.fock_core", "covert_bosonic.closed_form",
                  "covert_bosonic.oracle")
    assert _modules_loaded_by("covert_bosonic.cli", fock_stack, run) == "[]"


def test_oracle_checks_load_no_random_module():
    # The default grids are literals and a lattice: no check draws from
    # numpy's generators, so none imports numpy.random.
    run = "covert_bosonic.oracle.run_all_checks()"
    assert _modules_loaded_by("covert_bosonic.oracle", ("numpy.random",), run) == "[]"


def test_package_import_loads_no_submodule():
    assert _modules_loaded_by("covert_bosonic", ("covert_bosonic.",)) == "[]"


def test_oracle_import_loads_no_quadrature_modules():
    # The package needs numpy alone: the ring integrals use the periodic
    # trapezoid rule and every exponential is computed with numpy.
    assert _modules_loaded_by("covert_bosonic.oracle", ("scipy",)) == "[]"


def test_ring_integral_check_loads_no_scipy_integrate():
    # Covers every exponential, eigensystem and Laguerre polynomial the
    # package computes: the ring-integral checks (kernels, closed form), the
    # char fn check (displacement factors), a numeric warden state and both
    # unitaries (sector eigensystems).
    run = ("covert_bosonic.cli.main(['verify', '--check', 'laguerre_diag', "
           "'--check', 'laguerre_offdiag']); "
           "from covert_bosonic import oracle as o, fock_core as fc; "
           "p, q, c = fc.ChannelParams(0.9, 0.12), o.default_qubit_set()[2], "
           "fc.FockCutoff(10); "
           "o.verify_char_fn([p], [q]); o.willie_state_numeric(q, p, c); "
           "fc.beamsplitter_unitary(0.5, 0, 1, 2, c); "
           "fc.two_mode_amplifier_unitary(1.5, 0, 1, 2, c)")
    assert _modules_loaded_by("covert_bosonic.cli", ("scipy",), run) == "[]"


def test_package_serves_oracle_names_lazily():
    import covert_bosonic
    from covert_bosonic import oracle

    assert covert_bosonic.willie_state_numeric is oracle.willie_state_numeric
    with pytest.raises(AttributeError):
        covert_bosonic.no_such_name


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_sets_one_blas_thread_before_numpy_loads(preset):
    # Records the variables as numpy's first import begins, in a fresh
    # interpreter that imports the CLI; a value the caller set wins.
    spy = ("import os, sys\n"
           "class Spy:\n"
           "    def find_spec(self, name, path=None, target=None):\n"
           "        if name == 'numpy' and not seen:\n"
           f"            seen.append([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])\n"
           "seen = []\n"
           "sys.meta_path.insert(0, Spy())\n"
           "import covert_bosonic.cli\n"
           "print(seen[0])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, preset))
    out = subprocess.run([sys.executable, "-c", spy], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str([preset or "1"] * 3)


# Each way the CLI can fail, run in a fresh interpreter: (argv, stdout,
# exit code).  stdout "pipe" is a pipe whose reading end is closed at once.
FAILURES = {
    "closed_pipe": (["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
                     "--n", "1:1e10:10000"], "pipe", cli.EXIT_USAGE),
    "full_device": (["verify", "--check", "laguerre_diag"], "/dev/full", cli.EXIT_USAGE),
    "bad_flag": (["bounds", "--eta", "abc"], None, cli.EXIT_USAGE),
    "bad_config": (["bounds", "--config", "no-such-config.json"], None, cli.EXIT_USAGE),
    "unknown_check": (["verify", "--check", "no_such_check"], None, cli.EXIT_VALIDATION),
    **{f"seconds_overflow_{fmt}": (
        ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05", "--n", "1e4",
         "--modes-per-sec", "1e-310", "--format", fmt], None, cli.EXIT_VALIDATION)
       for fmt in ("csv", "json")},
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_prints_one_json_line_and_no_traceback(case, tmp_path):
    argv, stdout, code = FAILURES[case]
    if stdout == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    main = "import sys; from covert_bosonic.cli import main; sys.exit(main())"
    with contextlib.ExitStack() as stack:
        target = (subprocess.PIPE if stdout == "pipe" else subprocess.DEVNULL
                  if stdout is None else stack.enter_context(open(stdout, "w")))
        proc = subprocess.Popen([sys.executable, "-c", main, *argv], env=env,
                                cwd=tmp_path, stdout=target, stderr=subprocess.PIPE,
                                text=True)
        if stdout == "pipe":
            proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert set(json.loads(lines[0])) == {"error", "message"}
    assert "Traceback" not in err
