"""Command-line surface for bound sweeps, state dumps, entanglement-breaking
reports and the verification suite.

All output is machine readable and bit-deterministic for a fixed
configuration: numbers are serialized with Python's shortest round-trip
``repr``, CSV uses ',' delimiters with '.' decimals and a header row with
units, and nothing time- or host-dependent is emitted.

Exit codes: 0 success, 1 usage error, 2 validation/physics error,
3 verification failure.  Configuration may come from flags or a JSON config
file (``--config``); flags win over the file.  ``willie-state`` alone takes
a Fock cutoff, an integer: ``--cutoff``, then the file, then the
``COVERT_BOSONIC_CUTOFF`` environment variable, then the built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import closed_form as cf
from . import covert_bounds as cb
from . import eb_engineering as eb
from .fock_core import DEFAULT_MAX_PHOTONS, ChannelParams, FockCutoff

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3

CUTOFF_ENV_VAR = "COVERT_BOSONIC_CUTOFF"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse terminates the process on bad flags; route that through our
    exit-code contract instead."""

    def error(self, message):
        raise UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _parse_n_range(spec: str) -> list[float]:
    """Geometric range 'start:stop:points'; a single number is a one-point
    range.  ``points`` is a whole number, written in any float notation
    ('50', '50.0', '1e4'); any other count is refused, never truncated."""
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, points = float(parts[0]), float(parts[1]), float(parts[2])
        if not points.is_integer():
            raise ValueError
        points = int(points)
    except ValueError:
        raise UsageError(
            f"--n must be a number or start:stop:points with a whole number "
            f"of points, got {spec!r}"
        ) from None
    if not 1 <= points <= 10**6:  # a 1e6-point sweep takes ~20 s and ~1 GB
        raise UsageError(f"--n points must be from 1 to 1e6, got {spec!r}")
    if points == 1:
        if start != stop:
            raise UsageError("--n with one point needs start == stop")
        return [start]
    if not 0 < start < stop:
        raise UsageError("--n needs 0 < start < stop")
    return [float(x) for x in np.geomspace(start, stop, points)]


def _parse_delta(value) -> float:
    """Covertness budget, which must lie in [0, 1/2)."""
    delta = float(value)
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"delta must be in [0, 1/2), got {delta}")
    return delta


def _parse_qubit(spec: str) -> cf.LogicalQubit:
    """Qubit spec: a named state ('zero', 'one', 'plus', 'minus') or
    'alpha_sq:beta_sq:gamma_re:gamma_im'."""
    named = {
        "zero": cf.LogicalQubit(1.0, 0.0),
        "one": cf.LogicalQubit(0.0, 1.0),
        "plus": cf.LogicalQubit(0.5, 0.5, 0.5),
        "minus": cf.LogicalQubit(0.5, 0.5, -0.5),
    }
    if spec in named:
        return named[spec]
    parts = spec.split(":")
    if len(parts) not in (2, 3, 4):
        raise UsageError(
            f"--qubit must be a named state or alpha_sq:beta_sq[:gamma_re[:gamma_im]], "
            f"got {spec!r}"
        )
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"non-numeric qubit component in {spec!r}") from None
    gamma = complex(vals[2] if len(vals) > 2 else 0.0,
                    vals[3] if len(vals) > 3 else 0.0)
    return cf.LogicalQubit(vals[0], vals[1], gamma)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    # Values go through the same conversions as flags, so each must be a
    # JSON scalar (null means unset); "qubit" and "out" are strings and
    # "check" is a list of strings.
    for key, val in cfg.items():
        if key == "check":
            ok = isinstance(val, list) and all(isinstance(c, str) for c in val)
        else:
            ok = isinstance(val, str if key in ("qubit", "out") else (str, int, float))
        if not (ok or val is None):
            raise UsageError(f"config value for {key!r} has the wrong type: {val!r}")
    return cfg


def _setting(args, cfg: dict, key: str, default=None):
    """Flag value if given, else config file value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _resolve_cutoff(args, cfg: dict) -> FockCutoff:
    val = _setting(args, cfg, "cutoff")
    if val is None:
        env = os.environ.get(CUTOFF_ENV_VAR)
        if env is not None:
            try:
                val = int(env)
            except ValueError:
                raise UsageError(
                    f"{CUTOFF_ENV_VAR} must be an integer, got {env!r}"
                ) from None
    if val is None:
        val = DEFAULT_MAX_PHOTONS
    if isinstance(val, str):  # a config string converts as the flag does
        try:
            val = int(val)
        except ValueError:
            pass
    # Never rounded or truncated: 2.7 or true is refused, not run at 2 or 1.
    if isinstance(val, bool) or not isinstance(val, int):
        raise UsageError(f"cutoff must be an integer, got {val!r}")
    return FockCutoff(val)


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc}") from None


def _fmt(x) -> str:
    """Shortest round-trip decimal serialization of a float."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

_BOUNDS_HEADER = [
    "n[rounds]",
    "seconds[s]",
    "lower_qubits[qubits]",
    "upper_qubits[qubits]",
    "assisted_lower_qubits[qubits]",
    "rate_R[qubits/round]",
    "capacity_C[qubits/mode]",
    "q[1]",
    "nbar_s[photons]",
]


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    eta = _setting(args, cfg, "eta")
    nbar_b = _setting(args, cfg, "nbar_b")
    delta = _setting(args, cfg, "delta")
    n_spec = _setting(args, cfg, "n")
    if eta is None or nbar_b is None or delta is None or n_spec is None:
        raise UsageError("bounds requires --eta, --nbar-b, --delta and --n")
    modes_per_sec = _setting(args, cfg, "modes_per_sec")
    fmt = _setting(args, cfg, "format", "csv")
    out = _setting(args, cfg, "out")
    params = ChannelParams(float(eta), float(nbar_b))
    delta = _parse_delta(delta)
    n_values = _parse_n_range(str(n_spec))
    points = cb.bounds_curve(
        params, delta, n_values,
        float(modes_per_sec) if modes_per_sec is not None else None,
    )
    for pt in points:
        if pt.upper_qubits < pt.lower_qubits:
            raise ValueError(
                f"converse below achievability at n={pt.n!r}: "
                f"upper={pt.upper_qubits!r} < lower={pt.lower_qubits!r}"
            )
    rows = [
        [pt.n, pt.seconds if pt.seconds is not None else "",
         pt.lower_qubits, pt.upper_qubits, pt.assisted_lower_qubits,
         pt.rate_R, pt.capacity_C, pt.q, pt.nbar_s]
        for pt in points
    ]
    if fmt == "csv":
        lines = [
            "# eta=" + _fmt(params.eta) + " nbar_b=" + _fmt(params.nbar_b)
            + " delta=" + _fmt(delta)
            + (" modes_per_sec=" + _fmt(modes_per_sec)
               if modes_per_sec is not None else ""),
            ",".join(_BOUNDS_HEADER),
        ]
        for row in rows:
            lines.append(",".join("" if v == "" else _fmt(v) for v in row))
        _write_out("\n".join(lines) + "\n", out)
    elif fmt == "json":
        doc = {
            "eta": params.eta,
            "nbar_b": params.nbar_b,
            "delta": delta,
            "modes_per_sec": float(modes_per_sec) if modes_per_sec is not None else None,
            "columns": _BOUNDS_HEADER,
            "rows": [[None if v == "" else float(v) for v in row] for row in rows],
        }
        _write_out(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import oracle

    cfg = _load_config(args.config)
    out = _setting(args, cfg, "out")
    checks = args.check or cfg.get("check") or None
    reports = oracle.run_all_checks(checks)
    _write_out("".join(r.to_json() + "\n" for r in reports), out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# willie-state
# ---------------------------------------------------------------------------


def cmd_willie_state(args) -> int:
    cfg = _load_config(args.config)
    eta = _setting(args, cfg, "eta")
    nbar_b = _setting(args, cfg, "nbar_b")
    if eta is None or nbar_b is None:
        raise UsageError("willie-state requires --eta and --nbar-b")
    params = ChannelParams(float(eta), float(nbar_b))
    qubit = _parse_qubit(_setting(args, cfg, "qubit", "plus"))
    cutoff = _resolve_cutoff(args, cfg)
    source = _setting(args, cfg, "source", "closed")
    fmt = _setting(args, cfg, "format", "csv")
    out = _setting(args, cfg, "out")
    if source == "closed":
        state = cf.willie_state_closed(qubit, params, cutoff)
        entries, leak = state.dense(), state.truncation_leak
    elif source == "numeric":
        from . import oracle

        rho = oracle.willie_state_numeric(qubit, params, cutoff)
        entries, leak = rho.entries, rho.truncation_leak
    else:
        raise UsageError(f"--source must be closed or numeric, got {source!r}")
    d = cutoff.dim
    rows, cols = np.nonzero(entries)  # row-major order
    vals = entries[rows, cols]
    records = list(zip(*(a.tolist() for a in (
        rows // d, rows % d, cols // d, cols % d, vals.real, vals.imag))))
    if fmt == "csv":
        lines = [
            "# eta=" + _fmt(params.eta) + " nbar_b=" + _fmt(params.nbar_b)
            + " cutoff=" + str(cutoff.max_photons)
            + " truncation_leak=" + _fmt(leak),
            "f[photons],g[photons],f_prime[photons],g_prime[photons],re[1],im[1]",
        ]
        for f, g, fp, gp, re, im in records:
            lines.append(f"{f},{g},{fp},{gp},{_fmt(re)},{_fmt(im)}")
        _write_out("\n".join(lines) + "\n", out)
    elif fmt == "json":
        doc = {
            "eta": params.eta,
            "nbar_b": params.nbar_b,
            "cutoff": cutoff.max_photons,
            "source": source,
            "qubit": {"alpha_sq": qubit.alpha_sq, "beta_sq": qubit.beta_sq,
                      "gamma_re": qubit.gamma.real, "gamma_im": qubit.gamma.imag},
            "truncation_leak": leak,
            "columns": ["f", "g", "f_prime", "g_prime", "re", "im"],
            "entries": [list(r) for r in records],
        }
        _write_out(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eb-report
# ---------------------------------------------------------------------------


def cmd_eb_report(args) -> int:
    cfg = _load_config(args.config)
    eta = _setting(args, cfg, "eta")
    nbar_b = _setting(args, cfg, "nbar_b")
    if eta is None or nbar_b is None:
        raise UsageError("eb-report requires --eta and --nbar-b")
    params = ChannelParams(float(eta), float(nbar_b))
    mechanism = _setting(args, cfg, "mechanism", "attenuate")
    if mechanism == "attenuate":
        margin = _setting(args, cfg, "margin")
        plan = (eb.plan_lemma1(params, float(margin)) if margin is not None
                else eb.plan_lemma1(params))
    elif mechanism == "amplify":
        nbar_prime = _setting(args, cfg, "nbar_prime")
        plan = eb.plan_lemma2(
            params, float(nbar_prime) if nbar_prime is not None else None
        )
    else:
        raise UsageError(
            f"--mechanism must be attenuate or amplify, got {mechanism!r}"
        )
    cov = plan.effective_covert_params
    rate = plan.effective_rate_params
    doc = {
        "eta": params.eta,
        "nbar_b": params.nbar_b,
        "is_entanglement_breaking": eb.is_entanglement_breaking(params),
        "mechanism": plan.mechanism.value,
        "tau": plan.tau,
        "gain_eb": plan.gain_eb,
        "nbar_prime": plan.nbar_prime,
        "effective_covert_params": {"eta": cov.eta, "nbar_b": cov.nbar_b},
        "effective_rate_params": {"eta": rate.eta, "nbar_b": rate.nbar_b},
        "c_cov": cb.c_cov(params),
        "c_cov_effective": cb.c_cov(cov),
        "rate_R": cb.hashing_rate(params),
        "rate_R_effective": cb.hashing_rate(rate),
        "assisted_rate_effective": cb.assisted_rate(rate),
    }
    delta = _setting(args, cfg, "delta")
    n_spec = _setting(args, cfg, "n")
    if (delta is None) != (n_spec is None):
        raise UsageError("eb-report takes --delta and --n together")
    if delta is not None:
        try:
            n = float(n_spec)
        except ValueError:
            raise UsageError(f"--n must be one round count, got {n_spec!r}") from None
        delta = _parse_delta(delta)
        doc["n"], doc["delta"] = n, delta
        doc["lower_qubits_effective"] = float(
            cb.achievable_qubits(cov, delta, n, cb.hashing_rate(rate))
        )
        doc["upper_qubits_effective"] = cb.upper_bound_qubits(cov, delta, n)
    fmt = _setting(args, cfg, "format", "json")
    out = _setting(args, cfg, "out")
    if fmt == "json":
        _write_out(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)
    elif fmt == "csv":
        lines = ["key,value"]
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, dict):
                for kk in sorted(v):
                    lines.append(f"{k}.{kk},{_fmt(v[kk])}")
            elif isinstance(v, bool):
                lines.append(f"{k},{str(v).lower()}")
            elif isinstance(v, float):
                lines.append(f"{k},{_fmt(v)}")
            else:
                lines.append(f"{k},{v}")
        _write_out("\n".join(lines) + "\n", out)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: standard output)")
    p.add_argument("--config", help="JSON config file; flags win over it")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, help="channel transmittance in [0, 1]")
    p.add_argument("--nbar-b", type=float,
                   help="environment thermal mean photon number")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    _add_io(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="covert-bosonic", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("bounds", help="sweep achievability/converse bounds")
    _add_common(p)
    p.add_argument("--delta", type=float, help="covertness budget in [0, 1/2)")
    p.add_argument("--n", help="round counts, geometric range start:stop:points <= 1e6")
    p.add_argument("--modes-per-sec", type=float,
                   help="modulation rate, finite and > 0; adds a seconds "
                        "column (2n/rate)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    _add_io(p)
    p.add_argument("--check", action="append",
                   help="check name (repeatable; default: all)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("willie-state", help="dump the warden's output state")
    _add_common(p)
    p.add_argument("--cutoff", type=int,
                   help="Fock cutoff (max photons per mode)")
    p.add_argument("--qubit",
                   help="named state or alpha_sq:beta_sq[:gamma_re[:gamma_im]]")
    p.add_argument("--source", choices=("closed", "numeric"),
                   help="closed form or brute-force simulation")
    p.set_defaults(func=cmd_willie_state)

    p = sub.add_parser("eb-report",
                       help="entanglement-breaking construction report")
    _add_common(p)
    p.add_argument("--mechanism", choices=("attenuate", "amplify"),
                   help="construction to use (default attenuate)")
    p.add_argument("--margin", type=float,
                   help="attenuation safety margin in (0, 1)")
    p.add_argument("--nbar-prime", type=float,
                   help="added thermal photons for the amplify mechanism")
    p.add_argument("--delta", type=float,
                   help="covertness budget in [0, 1/2); needs --n")
    p.add_argument("--n", help="one round count for the recomputed bounds; "
                               "needs --delta")
    p.set_defaults(func=cmd_eb_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required "
                             "(bounds, verify, willie-state, eb-report)")
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
