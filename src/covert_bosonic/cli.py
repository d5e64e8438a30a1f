"""Command-line surface for bound sweeps, state dumps, entanglement-breaking
reports and the verification suite.

All output is machine readable and bit-deterministic for a fixed
configuration: numbers are serialized with Python's shortest round-trip
``repr``, CSV uses ',' delimiters with '.' decimals and a header row with
units, and nothing time- or host-dependent is emitted.

JSON is strict: a non-finite top-level value (``c_cov`` at eta = 1) is
written as null, while CSV writes ``inf``.

Exit codes: 0 success, 1 usage error, 2 validation/physics error,
3 verification failure.  Configuration may come from flags or a JSON config
file (``--config``); flags win over the file.  Each config value is handed
to the parser as the flag it names (``{"nbar_b": 0.1}`` as
``--nbar-b=0.1``), so it gets that flag's conversion and choices and the
same usage error; null means unset, and keys the subcommand does not take
are ignored.  ``willie-state`` alone takes a Fock cutoff, an integer from 1
to 90: ``--cutoff``, then the file, then the built-in default.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise: the Fock-space
# eigensolves are small, and two OpenBLAS threads sometimes spend 30x longer
# on them.  BLAS reads these once, when numpy first loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import sys
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import covert_bounds as cb
from . import eb_engineering as eb

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3

MAX_CUTOFF = 90


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
    # A 1e6-point CSV sweep takes ~5.5 s and ~185 MB peak RSS on two cores,
    # down from 12 s and 1.1 GB when every point was built as an object.
    if not 1 <= points <= 10**6:
        raise UsageError(f"--n points must be from 1 to 1e6, got {spec!r}")
    if points == 1:
        if start != stop:
            raise UsageError("--n with one point needs start == stop")
        return [start]
    if not 0 < start < stop:
        raise UsageError("--n needs 0 < start < stop")
    return np.geomspace(start, stop, points).tolist()


def _parse_qubit(spec: str):
    """Qubit spec: a named state ('zero', 'one', 'plus', 'minus') or
    'alpha_sq:beta_sq:gamma_re:gamma_im'."""
    from . import closed_form as cf

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
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a huge integer
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    # Values are handed to the parser as flag text, so each must be a JSON
    # scalar (null means unset); "qubit" and "out" are strings and "check"
    # is a list of strings.
    for key, val in cfg.items():
        if key == "check":
            ok = isinstance(val, list) and all(isinstance(c, str) for c in val)
        else:
            ok = isinstance(val, str if key in ("qubit", "out") else (str, int, float))
        if not (ok or val is None):
            raise UsageError(f"config value for {key!r} has the wrong type: {val!r}")
    return cfg


def _config_tokens(args) -> list[str]:
    """The config file as '--key=value' flags, for each key the subcommand
    declares and the command line left unset; one flag per "check" entry.
    The '=' form keeps a value starting with '-' from reading as a flag."""
    tokens = []
    for key, val in _load_config(args.config).items():
        if val is not None and getattr(args, key, 0) is None:
            flag = "--" + key.replace("_", "-")
            tokens += [f"{flag}={v}" for v in (val if key == "check" else [val])]
    return tokens


def _resolve_cutoff(args):
    """``--cutoff`` (or the config file), else the default; outside
    1..MAX_CUTOFF is refused."""
    from .fock_core import DEFAULT_MAX_PHOTONS, FockCutoff

    val = DEFAULT_MAX_PHOTONS if args.cutoff is None else args.cutoff
    if not 1 <= val <= MAX_CUTOFF:  # the dump walks (N+1)^2 rows of 3 entries
        raise UsageError(f"cutoff must be from 1 to {MAX_CUTOFF}, got {val}")
    return FockCutoff(val)


def _channel(args, command: str, *more: str) -> cb.ChannelParams:
    """The channel of ``args``, which must also set each setting in ``more``."""
    names = ("eta", "nbar_b", *more)
    if any(getattr(args, name) is None for name in names):
        flags = ["--" + name.replace("_", "-") for name in names]
        raise UsageError(f"{command} requires {', '.join(flags[:-1])} and {flags[-1]}")
    return cb.ChannelParams(args.eta, args.nbar_b)


# Lines per write, and rows per formatting slice of a bounds sweep.
_CHUNK = 4096


def _write_lines(lines: Iterable[str], out: Optional[str]) -> None:
    """Write each of ``lines`` and a newline to the file ``out``, or to
    standard output, ``_CHUNK`` lines at a time: every command's one writer.
    A failed write (a closed pipe, a full device) is a usage error."""
    try:
        if out is None:
            _write_chunks(sys.stdout, lines)  # looked up now: redirect_stdout sees it
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                _write_chunks(fh, lines)
    except OSError as exc:
        if out is not None:
            raise UsageError(f"cannot write {out!r}: {exc}") from None
        # The exit flush of what is still buffered goes to the null device.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise UsageError(f"cannot write to standard output: {exc}") from None


def _write_chunks(fh, lines: Iterable[str]) -> None:
    lines = iter(lines)
    while chunk := list(islice(lines, _CHUNK)):
        fh.write("\n".join(chunk) + "\n")


def _emit(args, default_format: str, doc: dict, csv_lines: Iterable[str]) -> None:
    """Write ``doc`` as strict JSON (a non-finite top-level float becomes
    null) or ``csv_lines``, by ``--format`` or the command's default.  The
    JSON text is whole before its first byte is written."""
    if (args.format or default_format) == "csv":
        _write_lines(csv_lines, args.out)
        return
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in doc.items()}
    _write_lines([json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)], args.out)


def _fmt(x) -> str:
    """Shortest round-trip decimal serialization of a float."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# (CSV header, BoundsPoint field) of each column, in output order.
_BOUNDS_COLUMNS = (
    ("n[rounds]", "n"),
    ("seconds[s]", "seconds"),
    ("lower_qubits[qubits]", "lower_qubits"),
    ("upper_qubits[qubits]", "upper_qubits"),
    ("assisted_lower_qubits[qubits]", "assisted_lower_qubits"),
    ("rate_R[qubits/round]", "rate_R"),
    ("capacity_C[qubits/mode]", "capacity_C"),
    ("q[1]", "q"),
    ("nbar_s[photons]", "nbar_s"),
)
_BOUNDS_HEADER = [header for header, _ in _BOUNDS_COLUMNS]


def _bounds_rows(columns: list, absent: str = "", sep: str = ",") -> Iterator[str]:
    """The rows of ``columns``, each an array or one value for every row
    (None writes ``absent``), their cells joined by ``sep``, formatted
    ``_CHUNK`` rows at a time.  A slice bit-identical to the previous array
    column's (q and nbar_s below the clamp) reuses its text."""
    columns = [c if isinstance(c, np.ndarray) else absent if c is None else _fmt(c)
               for c in columns]
    for start in range(0, len(columns[0]), _CHUNK):
        cells, prev = [], None
        for c in columns:
            if isinstance(c, str):
                cells.append(repeat(c))
                continue
            part = c[start:start + _CHUNK]
            if (key := part.tobytes()) != prev:
                prev, text = key, list(map(repr, part.tolist()))
            cells.append(text)
        yield from map(sep.join, zip(*cells))


def _bounds_json(doc: dict, columns: list) -> Iterator[str]:
    """The lines of ``doc`` with the rows of ``columns`` as strict JSON, the
    text of ``json.dumps(..., sort_keys=True, indent=2)``, whose "rows" sort
    last, with the rows formatted as :func:`_bounds_rows` streams them.  A
    non-finite value is refused here, as that call refuses it."""
    finite = np.ones(len(columns[0]), dtype=bool)
    for c in columns:
        if c is not None:
            finite &= np.isfinite(c)
    if not finite.all():  # dump the first such row for json's own message
        i = int(np.argmin(finite))
        json.dumps([c[i].item() if isinstance(c, np.ndarray) else c for c in columns],
                   indent=2, allow_nan=False)
    head, tail = json.dumps({**doc, "rows": []}, sort_keys=True, indent=2,
                            allow_nan=False).rsplit("[]", 1)
    last = len(finite) - 1
    rows = ("    [\n      " + row + ("\n    ]," if i < last else "\n    ]")
            for i, row in enumerate(_bounds_rows(columns, "null", ",\n      ")))
    return chain([head + "["], rows, ["  ]" + tail])


def cmd_bounds(args) -> int:
    params = _channel(args, "bounds", "delta", "n")
    cols = cb._bounds_columns(params, args.delta, _parse_n_range(args.n),
                              args.modes_per_sec)
    n, upper, lower = cols["n"], cols["upper_qubits"], cols["lower_qubits"]
    bad = np.flatnonzero(upper < lower)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"converse below achievability at n={n[i].item()!r}: "
            f"upper={upper[i].item()!r} < lower={lower[i].item()!r}"
        )
    columns = [cols[field] for _, field in _BOUNDS_COLUMNS]
    if args.format == "json":
        doc = {"eta": params.eta, "nbar_b": params.nbar_b, "delta": args.delta,
               "modes_per_sec": args.modes_per_sec, "columns": _BOUNDS_HEADER}
        _write_lines(_bounds_json(doc, columns), args.out)
        return EXIT_OK
    comment = ("# eta=" + _fmt(params.eta) + " nbar_b=" + _fmt(params.nbar_b)
               + " delta=" + _fmt(args.delta)
               + ("" if args.modes_per_sec is None
                  else " modes_per_sec=" + _fmt(args.modes_per_sec)))
    _write_lines(chain([comment, ",".join(_BOUNDS_HEADER)], _bounds_rows(columns)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import oracle

    reports = oracle.run_all_checks(args.check)
    _write_lines([r.to_json() for r in reports], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# willie-state
# ---------------------------------------------------------------------------


def _layout_records(state) -> list:
    """(f, g, f', g', re, im) of each nonzero entry of a layout's matrix,
    row-major, walked from ``diag`` and ``upper`` with no (N+1)^4 matrix.
    Row |f g> holds at most its lower <f g|rho|f-1 g+1> (the conjugate of
    the upper entry of row |f-1 g+1>), its diagonal and its upper
    <f g|rho|f+1 g-1>, in that column order."""
    d = state.cutoff.dim
    vals = np.zeros((d, d, 3), dtype=complex)
    vals[1:, :-1, 0] = np.conj(state.upper[:-1, 1:])
    vals[:, :, 1], vals[:, :, 2] = state.diag, state.upper
    f, g, k = np.nonzero(vals)
    v = vals[f, g, k]
    return list(zip(*(a.tolist() for a in (f, g, f + k - 1, g - k + 1, v.real, v.imag))))


def cmd_willie_state(args) -> int:
    # The Fock-space modules load here only, so the bound commands never
    # load them.
    from . import closed_form as cf

    params = _channel(args, "willie-state")
    qubit = _parse_qubit(args.qubit or "plus")
    cutoff = _resolve_cutoff(args)
    source = args.source or "closed"
    if source == "closed":
        state = cf.willie_state_closed(qubit, params, cutoff)
    else:
        from . import oracle

        state = oracle.willie_state_numeric(qubit, params, cutoff)
    leak = state.truncation_leak
    records = _layout_records(state)
    doc = {
        "eta": params.eta,
        "nbar_b": params.nbar_b,
        "cutoff": cutoff.max_photons,
        "source": source,
        "qubit": {"alpha_sq": qubit.alpha_sq, "beta_sq": qubit.beta_sq,
                  "gamma_re": qubit.gamma.real, "gamma_im": qubit.gamma.imag},
        "truncation_leak": leak,
        "columns": ["f", "g", "f_prime", "g_prime", "re", "im"],
        "entries": records,
    }
    _emit(args, "csv", doc, chain(
        ["# eta=" + _fmt(params.eta) + " nbar_b=" + _fmt(params.nbar_b)
         + " cutoff=" + str(cutoff.max_photons) + " truncation_leak=" + _fmt(leak),
         "f[photons],g[photons],f_prime[photons],g_prime[photons],re[1],im[1]"],
        (f"{f},{g},{fp},{gp},{_fmt(re)},{_fmt(im)}" for f, g, fp, gp, re, im in records)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eb-report
# ---------------------------------------------------------------------------


def _key_value_lines(doc: dict) -> Iterator[str]:
    """One 'key,value' CSV line per entry of ``doc``, nested keys dotted."""
    yield "key,value"
    for k, v in sorted(doc.items()):
        if isinstance(v, dict):
            yield from (f"{k}.{kk},{_fmt(v[kk])}" for kk in sorted(v))
        elif isinstance(v, bool):
            yield f"{k},{str(v).lower()}"
        else:
            yield f"{k},{_fmt(v) if isinstance(v, float) else v}"


def cmd_eb_report(args) -> int:
    params = _channel(args, "eb-report")
    if (args.mechanism or "attenuate") == "attenuate":
        plan = eb.plan_lemma1(params, eb.DEFAULT_MARGIN if args.margin is None
                              else args.margin)
    else:
        plan = eb.plan_lemma2(params, args.nbar_prime)
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
    if (args.delta is None) != (args.n is None):
        raise UsageError("eb-report takes --delta and --n together")
    if args.delta is not None:
        doc["n"], doc["delta"] = args.n, args.delta
        doc["lower_qubits_effective"] = float(
            cb.achievable_qubits(cov, args.delta, args.n, cb.hashing_rate(rate))
        )
        doc["upper_qubits_effective"] = cb.upper_bound_qubits(cov, args.delta, args.n)
    _emit(args, "json", doc, _key_value_lines(doc))
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
                   help=f"Fock cutoff (max photons per mode), 1 to {MAX_CUTOFF}")
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
    p.add_argument("--n", type=float,
                   help="one round count for the recomputed bounds; needs --delta")
    p.set_defaults(func=cmd_eb_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required "
                             "(bounds, verify, willie-state, eb-report)")
        # Parse again with the config values as flags, so each gets its
        # flag's conversion and choices.
        tokens = _config_tokens(args)
        if tokens:
            args = parser.parse_args(argv + tokens)
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
