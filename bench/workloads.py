"""One pass of each benchmark workload, with the checks on its outputs.

A pass runs inside a fresh worker process (see ``worker.py``), so every
pass starts with cold ``lru_cache``s and pays its own imports, as a CLI user
does.  Each pass is a list of ops.  An op times only its calls into the
program; the checks on its outputs run after the timer stops.  A check
mismatch or an exception marks the op failed and the pass goes on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import platform
import time

import numpy as np
import scipy

import covert_bosonic
from covert_bosonic import cli, closed_form as cf, covert_bounds as cb
from covert_bosonic import fock_core as fc, oracle

from spans import Tracer

# Grid sizes of the oracle checks that run on their default cases, from the
# defaults documented in covert_bosonic.oracle: 25 two-mode zeta points,
# 6 orders m x 4 radii for both ring integrals, three entanglement-breaking
# cases, three mixing weights q in the Pinsker chain.
ZETA_POINTS = 25
LAGUERRE_POINTS = 6 * 4
EB_CASES = 3
PINSKER_Q_VALUES = 3

# Numerical slack on the inequalities D <= ln(1 + chi2) and
# T <= sqrt(D / 2), which eigen-solvers at dimension 961 meet to ~1e-13.
INEQUALITY_SLACK = 1e-10
STATE_TOL = 1e-8      # numeric vs closed-form state entries
CHI2_REL_TOL = 1e-6   # chi2_numeric vs chi2_closed
CHAR_FN_TOL = 1e-8    # anti_normal_char_fn vs willie_char_fn_closed
UNITARY_TOL = 1e-10   # norm preservation of the truncated unitaries
BOUNDS_REL_TOL = 1e-9
# A converse capacity is g(a) - g(b), and g(x) = (1+x) log2(1+x) - x log2 x
# is itself a difference.  In floating point each of the four terms carries
# an absolute error of a few machine epsilons times its size (log2(1 + x)
# also loses the low digits of a small x), and the differences keep those
# errors when they nearly cancel.  So the converse gets an absolute tolerance
# of G_ABS_TOL times the size of the terms, per mode.
G_ABS_TOL = 16 * np.finfo(float).eps


class Checks:
    """Collects mismatches of one op instead of raising them."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def at_most(self, what: str, value: float, limit: float) -> None:
        if not value <= limit:  # also catches NaN
            self.failures.append(f"{what}: {value!r} > {limit!r}")


def run_op(ops: list, tracer: Tracer, op_id: str, kind: str, body) -> dict:
    """Run ``body(checks)``, which returns the op's record (with its timed
    ``seconds``).  Mismatches and exceptions are recorded, never raised."""
    checks = Checks()
    tracer.op = op_id
    record = {}
    try:
        record = body(checks) or {}
    except Exception as exc:  # an op that raises is a failed op; go on
        checks.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        tracer.op = None
    record.update(id=op_id, kind=kind, failures=checks.failures)
    ops.append(record)
    return record


def _timed(tracer: Tracer, name: str, fn, **attrs):
    with tracer.span(name, **attrs):
        t0 = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_pass(x: dict, tracer: Tracer, ops: list) -> dict:
    grid = oracle.default_channel_grid()
    qubit_set = oracle.default_qubit_set()
    channels = [grid[i] for i in x["channel_indices"]]
    qubits = [qubit_set[i] for i in x["qubit_indices"]]
    cq = len(channels) * len(qubits)
    checks = {
        "char_fn": (lambda: oracle.verify_char_fn(channels, qubits), cq * ZETA_POINTS),
        "chi2": (lambda: oracle.verify_chi2(channels, qubits), cq),
        "depolarizing_reduction": (
            lambda: oracle.verify_depolarizing_reduction(channels, qubits), cq),
        "eb_pipelines": (oracle.verify_eb_pipelines, EB_CASES * ZETA_POINTS),
        "laguerre_diag": (oracle.verify_laguerre_lemma5, LAGUERRE_POINTS),
        "laguerre_offdiag": (oracle.verify_laguerre_lemma6, LAGUERRE_POINTS),
        "pinsker_and_detector": (
            lambda: oracle.verify_pinsker_and_detector(channels[0], qubits[0]),
            PINSKER_Q_VALUES),
        "willie_state": (lambda: oracle.verify_willie_state(channels, qubits), cq),
    }
    # Sorted, the order in which `covert-bosonic verify` runs them, so the
    # check that first builds a shared cached unitary is the same one.
    for name in sorted(checks):
        fn, expected = checks[name]

        def body(ck, name=name, fn=fn, expected=expected):
            report, seconds = _timed(tracer, f"oracle.verify_{name}", fn)
            ck.expect(report.passed, f"{name}: check did not pass: {report.to_json()}")
            ck.expect(report.grid_size == expected,
                      f"{name}: grid_size {report.grid_size} != intended {expected}")
            return {"seconds": seconds, "grid_points": report.grid_size}

        run_op(ops, tracer, name, "oracle_check", body)
    return {
        "channels": [[c.eta, c.nbar_b] for c in channels],
        "qubits": [_qubit_record(q) for q in qubits],
    }


# ---------------------------------------------------------------------------
# cutoff-ladder
# ---------------------------------------------------------------------------


def _qubit(q: dict) -> cf.LogicalQubit:
    return cf.LogicalQubit(q["alpha_sq"], q["beta_sq"],
                           complex(q["gamma_re"], q["gamma_im"]))


def _qubit_record(q: cf.LogicalQubit) -> dict:
    return {"alpha_sq": q.alpha_sq, "beta_sq": q.beta_sq,
            "gamma_re": complex(q.gamma).real, "gamma_im": complex(q.gamma).imag}


def _norm_drift(u: np.ndarray, seed: int) -> float:
    """Largest relative change of the norm of a few random vectors under u;
    a cheap O(d^2) unitarity probe."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((u.shape[0], 2)) + 1j * rng.standard_normal((u.shape[0], 2))
    before = np.linalg.norm(v, axis=0)
    return float(np.max(np.abs(np.linalg.norm(u @ v, axis=0) / before - 1.0)))


def ladder_pass(x: dict, tracer: Tracer, ops: list) -> dict:
    params = fc.ChannelParams(x["eta"], x["nbar_b"])
    qubit = _qubit(x["qubit"])
    zetas = [(complex(*z1), complex(*z2)) for z1, z2 in x["zetas"]]
    occ = params.eta * params.nbar_b

    def body(ck):
        total = 0.0
        for n in x["cutoffs"]:
            cut = fc.FockCutoff(n)
            t0 = time.perf_counter()
            with tracer.span("fock_core.beamsplitter_unitary", n=n):
                u_bs = fc.beamsplitter_unitary(params.eta, 0, 1, 2, cut)
            with tracer.span("fock_core.two_mode_amplifier_unitary", n=n):
                u_amp = fc.two_mode_amplifier_unitary(x["gain"], 0, 1, 2, cut)
            with tracer.span("oracle.willie_state_numeric", n=n):
                numeric = oracle.willie_state_numeric(qubit, params, cut)
            with tracer.span("closed_form.willie_state_closed", n=n):
                tri = cf.willie_state_closed(qubit, params, cut)
            with tracer.span("closed_form.to_density_operator", n=n):
                closed = tri.to_density_operator()
            with tracer.span("fock_core.tensor", n=n):
                quiet = fc.tensor(fc.thermal_state(occ, cut), fc.thermal_state(occ, cut))
            with tracer.span("fock_core.chi2_numeric", n=n):
                chi2 = fc.chi2_numeric(numeric, quiet)
            with tracer.span("fock_core.qre", n=n):
                d_nats = fc.qre(numeric, quiet, base=math.e)
            with tracer.span("fock_core.trace_distance", n=n):
                td = fc.trace_distance(numeric, quiet)
            with tracer.span("fock_core.anti_normal_char_fn", n=n):
                chars = [fc.anti_normal_char_fn(numeric, z1, z2) for z1, z2 in zetas]
            total += time.perf_counter() - t0

            ck.at_most(f"N={n} beamsplitter norm drift", _norm_drift(u_bs, n), UNITARY_TOL)
            ck.at_most(f"N={n} amplifier norm drift", _norm_drift(u_amp, n), UNITARY_TOL)
            ck.at_most(f"N={n} max |numeric - closed|",
                       float(np.max(np.abs(numeric.entries - closed.entries))), STATE_TOL)
            want = cf.chi2_closed(qubit, params)
            ck.at_most(f"N={n} chi2 relative error", abs(chi2 - want) / want, CHI2_REL_TOL)
            ck.at_most(f"N={n} D - ln(1 + chi2)", d_nats - math.log1p(chi2),
                       INEQUALITY_SLACK)
            ck.at_most(f"N={n} T - sqrt(D/2)", td - math.sqrt(max(d_nats, 0.0) / 2.0),
                       INEQUALITY_SLACK)
            for (z1, z2), got in zip(zetas, chars):
                ref = cf.willie_char_fn_closed(qubit, params, z1, z2)
                ck.at_most(f"N={n} char fn at {z1}, {z2}", abs(got - ref), CHAR_FN_TOL)
            del u_bs, u_amp, numeric, closed, quiet
        return {"seconds": total}

    run_op(ops, tracer, "ladder", "cutoff_ladder", body)
    return {}


# ---------------------------------------------------------------------------
# bounds-sweep
# ---------------------------------------------------------------------------


def _g_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of g(x) = (1+x) log2(1+x) - x log2 x, with 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return (1.0 + x) * np.log1p(x) / math.log(2.0), x * np.log2(safe)


def _depolarizing_rate(p: float) -> float:
    probs = np.array([1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p])
    nz = probs[probs > 0.0]
    return max(0.0, 1.0 + float(np.sum(nz * np.log2(nz))))


def bounds_reference(eta: float, nbar_b: float, delta: float, n: np.ndarray) -> dict:
    """Both bounds over an array of n, written from the formulas in the
    paper (and the covert_bounds docstrings), independently of that module.
    ``upper_qubits`` is None where the converse is undefined."""
    occ = eta * nbar_b
    c_cov = math.sqrt(2.0 * occ * (1.0 + occ)) / (1.0 - eta)
    ns = 2.0 * c_cov * delta / np.sqrt(n)
    q = np.minimum(1.0, ns)
    p_total = 1.0 - eta / (1.0 + (1.0 - eta) * nbar_b) ** 4
    x = 2.0 * (1.0 - eta) ** 2 * nbar_b * (1.0 + nbar_b)
    p_prime = x / (eta + x)
    p_fail = 1.0 - (x + eta) / (1.0 + (1.0 - eta) * nbar_b) ** 4
    rate = _depolarizing_rate(p_total)
    rate_assisted = (1.0 - p_fail) * _depolarizing_rate(p_prime)
    out = {"q": q, "nbar_s": ns, "rate_R": rate,
           "lower_qubits": q * n * rate, "assisted_lower_qubits": q * n * rate_assisted,
           "upper_qubits": None, "upper_abs_tol": None}
    denom = eta - (1.0 - eta) * nbar_b / 2.0
    if denom > 0.0:
        gain = eta / denom
        gbar = gain - 1.0
        a1, a2 = _g_terms(((gain + 1.0) * ns + gbar) / 2.0)
        b1, b2 = _g_terms(gbar * (1.0 + ns) / 2.0)
        cap = np.maximum(0.0, (a1 - a2) - (b1 - b2))
        scale = 1.0 + a1 + np.abs(a2) + b1 + np.abs(b2)
        out.update(upper_qubits=2.0 * n * cap, upper_abs_tol=2.0 * n * G_ABS_TOL * scale)
    return out


def _close_array(ck: Checks, what: str, got, want, rel: float, abs_=0.0) -> None:
    got = np.asarray(got, dtype=float)
    err = np.abs(got - want)
    limit = rel * np.abs(want) + abs_
    bad = ~(err <= limit)
    if np.any(bad):
        i = int(np.argmax(bad))
        ck.failures.append(f"{what}: {np.count_nonzero(bad)} points off, first at "
                           f"index {i}: {got[i]!r} vs {np.asarray(want)[i]!r}")


def check_bounds_points(ck: Checks, points, eta, nbar_b, delta, n) -> None:
    ref = bounds_reference(eta, nbar_b, delta, n)
    ck.expect(len(points) == len(n), f"{len(points)} points for {len(n)} n-values")
    if len(points) != len(n):
        return
    col = {k: np.array([getattr(p, k) for p in points], dtype=float)
           for k in ("n", "q", "nbar_s", "rate_R", "lower_qubits",
                     "assisted_lower_qubits")}
    ck.expect(bool(np.all(col["n"] == n)), "n column does not echo the input")
    for k in ("q", "nbar_s", "lower_qubits", "assisted_lower_qubits"):
        _close_array(ck, k, col[k], ref[k], BOUNDS_REL_TOL)
    _close_array(ck, "rate_R", col["rate_R"], np.full(len(n), ref["rate_R"]),
                 BOUNDS_REL_TOL, 1e-15)
    if ref["upper_qubits"] is not None:
        upper = np.array([p.upper_qubits for p in points], dtype=float)
        _close_array(ck, "upper_qubits", upper, ref["upper_qubits"], BOUNDS_REL_TOL,
                     ref["upper_abs_tol"])


def bounds_pass(x: dict, tracer: Tracer, ops: list, scratch_dir: str) -> dict:
    lo, hi = x["n_range"]
    n_values = np.geomspace(lo, hi, x["library_points"])
    n_list = [float(v) for v in n_values]
    library_s = 0.0
    points = refused = 0
    latencies = []
    for k, op in enumerate(x["library"]):
        params = fc.ChannelParams(op["eta"], op["nbar_b"])

        def body(ck, op=op, params=params):
            with tracer.span("covert_bounds.bounds_curve"):
                t0 = time.perf_counter()
                try:
                    result = cb.bounds_curve(params, op["delta"], n_list)
                except cb.GainDecompositionError:
                    result = None
                seconds = time.perf_counter() - t0
            if result is None:
                # The library's documented refusal when the amplifier/pure-loss
                # decomposition behind the converse does not exist.  The op is
                # refused, and correct only if the reference agrees.
                defined = op["eta"] - (1.0 - op["eta"]) * op["nbar_b"] / 2.0 > 0.0
                ck.expect(not defined, "refused a channel whose converse is defined")
                return {"seconds": seconds, "refused": True}
            check_bounds_points(ck, result, op["eta"], op["nbar_b"], op["delta"], n_values)
            return {"seconds": seconds, "points": len(result)}

        rec = run_op(ops, tracer, f"library:{k}", "bounds_curve", body)
        library_s += rec.get("seconds", 0.0)
        points += rec.get("points", 0)
        refused += bool(rec.get("refused"))
        if "points" in rec and not rec["failures"]:
            latencies.append(rec["seconds"])

    c = x["cli"]
    out_path = os.path.join(scratch_dir, f"cli-bounds-{os.getpid()}.csv")
    args = ["bounds", "--eta", repr(c["eta"]), "--nbar-b", repr(c["nbar_b"]),
            "--delta", repr(c["delta"]), "--n", c["n_spec"],
            "--modes-per-sec", repr(c["modes_per_sec"]), "--format", "csv",
            "--out", out_path]

    def cli_body(ck):
        try:
            code, seconds = _timed(tracer, "cli.bounds", lambda: cli.main(args))
            ck.expect(code == cli.EXIT_OK, f"cli bounds exit code {code}")
            if code == cli.EXIT_OK:
                check_cli_csv(ck, out_path, c)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
        return {"seconds": seconds}

    cli_rec = run_op(ops, tracer, "cli", "cli_bounds", cli_body)
    return {
        "library_s": library_s, "points": points, "refused": refused,
        "op_latencies_s": latencies, "cli_s": cli_rec.get("seconds"),
        "cli_points": c["points"],
    }


def check_cli_csv(ck: Checks, path: str, c: dict) -> None:
    """The CSV must round-trip to the library's values for the same inputs."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = list(csv.reader(lines[2:]))
    header = lines[1].split(",")
    n = [float(r[0]) for r in rows]
    ck.expect(len(rows) == c["points"], f"cli wrote {len(rows)} rows, want {c['points']}")
    lib = cb.bounds_curve(fc.ChannelParams(c["eta"], c["nbar_b"]), c["delta"], n,
                          c["modes_per_sec"])
    fields = ["n", "seconds", "lower_qubits", "upper_qubits", "assisted_lower_qubits",
              "rate_R", "capacity_C", "q", "nbar_s"]
    ck.expect(len(header) == len(fields), f"cli header {header}")
    mismatches = sum(
        float(cell) != getattr(pt, f)
        for row, pt in zip(rows, lib) for cell, f in zip(row, fields)
    )
    ck.expect(mismatches == 0, f"{mismatches} CSV cells differ from the library")


# ---------------------------------------------------------------------------
# entry points used by the worker
# ---------------------------------------------------------------------------


def run_pass(workload: str, x: dict, trace: bool, scratch_dir: str) -> dict:
    tracer = Tracer(trace)
    ops: list = []
    if workload == "verify":
        detail = verify_pass(x, tracer, ops)
    elif workload == "cutoff-ladder":
        detail = ladder_pass(x, tracer, ops)
    elif workload == "bounds-sweep":
        detail = bounds_pass(x, tracer, ops, scratch_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    wall = sum(op.get("seconds", 0.0) for op in ops)
    return {"wall_s": wall, "ops": ops, "detail": detail, "spans": tracer.spans}


def in_process_cli(args: list) -> dict:
    """Standard output and exit code of the CLI run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return {"stdout": buf.getvalue(), "exit_code": code}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "public_names": len(covert_bosonic.__all__),
        "package_file": covert_bosonic.__file__,
    }
