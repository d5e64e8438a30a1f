"""End-to-end acceptance gate.

Each test covers one release criterion and records a single PASS/FAIL
line; conftest.py echoes the lines in the terminal summary, past pytest's
output capture.
"""

import math
import sys
import time

import numpy as np
import pytest

from covert_bosonic import cli
from covert_bosonic import covert_bounds as cb
from covert_bosonic import eb_engineering as eb
from covert_bosonic import oracle
from covert_bosonic.closed_form import LogicalQubit
from covert_bosonic.covert_bounds import p_total
from covert_bosonic.fock_core import ChannelParams, FockCutoff

FIG2 = ChannelParams(0.9, 0.12)
DELTA = 0.05


RESULTS: list = []


def _report(name: str, passed: bool) -> None:
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}"
    RESULTS.append(line)
    print(line, file=sys.__stderr__, flush=True)
    assert passed, line


def test_criterion_1_warden_state_equivalence():
    """Closed-form warden output equals the brute-force simulation entrywise
    (48 channels x 16 qubits, cutoff 30, tolerance 1e-8, under 2 minutes)."""
    grid = [
        ChannelParams(eta, nb)
        for eta in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
        for nb in (0.01, 0.05, 0.12, 0.2, 0.35, 0.5)
    ]
    qubits = oracle.default_qubit_set(n_random=8)
    assert len(grid) == 48 and len(qubits) == 16
    start = time.monotonic()
    report = oracle.verify_willie_state(grid, qubits)
    elapsed = time.monotonic() - start
    assert report.tolerance == 1e-8 and oracle.DEFAULT_ORACLE_CUTOFF == FockCutoff(30)
    ok = report.passed and elapsed < 120.0
    _report(f"1 warden-state equivalence (max err {report.max_abs_error:.2e})", ok)


def test_criterion_2_chi2_divergence():
    """Chi-squared closed form matches the trace computation to 1e-6
    relative; the input-independent bound holds over a 10^4-point lattice
    of qubits, with equality at full-coherence pure states and exactly half
    the bound for the balanced classical mixture."""
    report = oracle.verify_chi2()
    _report(f"2 chi-squared divergence (max rel err {report.max_rel_error:.2e})",
            report.passed)


def test_criterion_3_covertness_chain():
    """Trace-distance <= sqrt(QRE/8) <= q sqrt(chi2)/sqrt(8) at a single
    round for q in {0.01, 0.1, 1}; the covertness criterion saturates at
    q_max to 1e-12."""
    report = oracle.verify_pinsker_and_detector(
        FIG2, LogicalQubit.pure(1 / math.sqrt(2), 1 / math.sqrt(2))
    )
    ok = report.passed
    for n in (1e6, 1e10):
        q = cb.q_max(FIG2, DELTA, n)
        ok = ok and abs(cb.qre_bound(FIG2, q, n) - DELTA) <= 1e-12
    _report("3 covertness chain and budget saturation", ok)


def test_criterion_4_depolarizing_reduction():
    """The projected receiver qubit is depolarized with
    p = 1 - eta/(1 + (1-eta) nbar_b)^4 to 1e-8; p = 1 - eta exactly in the
    noiseless limit."""
    report = oracle.verify_depolarizing_reduction()
    ok = report.passed
    for eta in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        ok = ok and p_total(ChannelParams(eta, 0.0)) == 1.0 - eta
    _report(f"4 depolarizing reduction (max err {report.max_abs_error:.2e})", ok)


def test_criterion_5_bound_sweep_structure():
    """Square-root-law structure of the bound sweep at the reference
    operating point: upper >= lower everywhere, lower/sqrt(n) constant,
    upper/sqrt(n) within 1% of its analytic limit by n = 1e14, assisted
    curve above the unassisted one, 50-point sweep under 10 s."""
    n_values = list(np.geomspace(1e4, 1e14, 50))
    start = time.monotonic()
    points = cb.bounds_curve(FIG2, DELTA, n_values, modes_per_second=1e8)
    elapsed = time.monotonic() - start

    ok = elapsed < 10.0 and len(points) == 50
    lower_coeffs = [pt.lower_qubits / math.sqrt(pt.n) for pt in points]
    srl = cb.upper_bound_srl_coefficient(FIG2, DELTA)
    for pt in points:
        ok = ok and pt.lower_qubits > 0 and pt.upper_qubits > 0
        ok = ok and pt.upper_qubits >= pt.lower_qubits
        ok = ok and pt.assisted_lower_qubits >= pt.lower_qubits
    spread = max(lower_coeffs) - min(lower_coeffs)
    ok = ok and spread <= 1e-12 * lower_coeffs[0]
    tail = points[-1].upper_qubits / math.sqrt(points[-1].n)
    ok = ok and abs(tail - srl) / srl < 0.01
    _report("5 bound sweep structure", ok)


def test_criterion_6_entanglement_breaking_pipelines():
    """Both engineered optical trains match the single effective channel
    through the characteristic function to 1e-8 at 25 sampled points; the
    two rational forms of the amplifier gain agree to 1e-14 on a 100-point
    grid."""
    report = oracle.verify_eb_pipelines()
    ok = report.passed
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        eta = rng.uniform(0.05, 0.95)
        params = ChannelParams(eta, rng.uniform(0.05, 0.95) * (1 - eta) / eta)
        lo = eb.lemma2_nbar_prime_lower_bound(params)
        hi = eb.lemma2_nbar_prime_upper_bound(params)
        if lo <= 0:
            continue
        x = lo + rng.uniform(0.1, 0.9) * (hi - lo)
        plan = eb.plan_lemma2(params, nbar_prime=x)
        alt = 1.0 / (1.0 - eta * x / (1.0 - eta))
        ok = ok and abs(plan.gain_eb - alt) <= 1e-14 * alt
        checked += 1
    _report(f"6 entanglement-breaking pipelines (max err "
            f"{report.max_abs_error:.2e})", ok)


def test_criterion_7_ring_integrals():
    """Quadrature of the displacement-kernel ring integrals matches the
    Laguerre closed forms to 1e-8 for m <= 5, r in {0.25, 0.5, 1, 2},
    including the vanishing point at m = 1, r = 1."""
    diag = oracle.verify_laguerre_lemma5()
    offdiag = oracle.verify_laguerre_lemma6()
    vanish = abs(oracle.laguerre_ring_integral(1, 1.0, FockCutoff(10))) <= 1e-8
    _report("7 ring integrals vs Laguerre closed forms",
            diag.passed and offdiag.passed and vanish)


def test_criterion_8_deterministic_output(tmp_path):
    """Two bound sweeps with identical configuration emit byte-identical
    files."""
    args = ["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
            "--n", "1e4:1e14:50", "--modes-per-sec", "1e8"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli.main(args + ["--out", str(a)])
    code_b = cli.main(args + ["--out", str(b)])
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    _report("8 deterministic sweep output", ok)
