"""Byte-for-byte golden outputs of the CLI.

Each file under ``tests/golden/`` is the exact output of one command line.
Refactors of the bound pipeline and the closed-form state must leave these
bytes unchanged.  After a deliberate output change, regenerate the files
it changes, by name:

    PYTHONPATH=src python3 tests/test_golden.py verify_all.jsonl

With no name every file is rewritten; an unknown name rewrites none.
"""

import sys
from pathlib import Path

import pytest

from covert_bosonic import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

_CRITERION_8 = ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
                "--n", "1e4:1e14:50", "--modes-per-sec", "1e8"]
_EB = ["eb-report", "--eta", "0.5", "--nbar-b", "0.5", "--delta", "0.05",
       "--n", "1e6", "--format", "json"]

CASES = {
    "bounds_criterion8.csv": _CRITERION_8 + ["--format", "csv"],
    "bounds_criterion8.json": _CRITERION_8 + ["--format", "json"],
    # A denser sweep of the same channel: 200 rows.
    "bounds_sweep_200.csv": ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta",
                             "0.05", "--n", "1e4:1e14:200", "--modes-per-sec", "1e8",
                             "--format", "csv"],
    "willie_state_plus.csv": [
        "willie-state", "--eta", "0.9", "--nbar-b", "0.12", "--source", "closed",
        "--cutoff", "4", "--qubit", "plus", "--format", "csv"],
    "willie_state_mixed.json": [
        "willie-state", "--eta", "0.5", "--nbar-b", "0.5", "--source", "closed",
        "--cutoff", "4", "--qubit", "0.3:0.7:0.1:0.2", "--format", "json"],
    # The cutoff-ladder benchmark's cold-start dump (seed 1), and the numeric
    # state at the oracle's default cutoff.
    "willie_state_numeric_n10.csv": [
        "willie-state", "--eta", "0.3228038487151627", "--nbar-b", "0.08993097119573537",
        "--qubit", "0.29392613375026005:0.7060738662497399:-0.25713869705489617:"
        "-0.22497404316160344", "--source", "numeric", "--cutoff", "10", "--format", "csv"],
    "willie_state_numeric_n30.json": [
        "willie-state", "--eta", "0.9", "--nbar-b", "0.12", "--source", "numeric",
        "--cutoff", "30", "--qubit", "0.3:0.7:0.1:-0.2", "--format", "json"],
    # A third channel for the numeric dump, at the CLI's default cutoff.
    "willie_state_numeric_n20.json": [
        "willie-state", "--eta", "0.5", "--nbar-b", "0.5", "--source", "numeric",
        "--cutoff", "20", "--qubit", "0.6:0.4:0.2:0.3", "--format", "json"],
    "eb_report_attenuate.json": _EB + ["--mechanism", "attenuate"],
    "eb_report_amplify.json": _EB + ["--mechanism", "amplify"],
    # Positive achievable count computed from distinct covert and rate params.
    "eb_report_attenuate_eta09.json": [
        "eb-report", "--eta", "0.9", "--nbar-b", "0.05", "--delta", "0.05",
        "--n", "1e6", "--format", "json", "--mechanism", "attenuate"],
    # All eight oracle checks on their default grids: one JSON report a line.
    "verify_all.jsonl": ["verify"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_regenerates_only_the_named_case(tmp_path):
    name = "willie_state_plus.csv"
    regenerate([name], tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_unknown_name_writes_nothing_and_lists_the_known(tmp_path):
    with pytest.raises(SystemExit, match="known: bounds_criterion8.csv, ") as exit_:
        regenerate(["willie_state_plus.csv", "verify.jsonl"], tmp_path)
    assert "unknown golden verify.jsonl" in str(exit_.value.code)
    assert list(tmp_path.iterdir()) == []


def regenerate(names, directory=GOLDEN_DIR):
    """Write the goldens ``names`` (every one when empty) into ``directory``;
    an unknown name exits non-zero, naming the known ones, and writes none."""
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown golden {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    directory.mkdir(exist_ok=True)
    for name in sorted(names or CASES):
        code = cli.main(CASES[name] + ["--out", str(directory / name)])
        if code != cli.EXIT_OK:
            sys.exit(f"{name}: exit code {code}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
