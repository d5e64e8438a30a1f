"""Seeded inputs for the benchmark workloads.

Every pass of a run draws its inputs from ``random.Random`` seeded with the
workload name, the run seed and the pass index, so the same seed always
yields the same inputs.  Inputs are plain numbers (no program objects), so
they can be recorded with each result and generated without importing the
program.  Standard library only.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify", "cutoff-ladder", "bounds-sweep")

# verify: a sub-grid of oracle.default_channel_grid() (4 eta rows x 3 nbar_b
# columns, eta-major) x oracle.default_qubit_set() (12 qubits).  The channels
# take distinct eta rows because the oracle caches the beamsplitter per eta:
# two channels sharing a row would make a pass cheaper than one that does not.
GRID_ETA_ROWS = 4
GRID_NBAR_COLS = 3
QUBIT_SET_SIZE = 12
VERIFY_CHANNELS = 3
VERIFY_QUBITS = 3

# cutoff-ladder: the paper's Fig. 2 regime, where the acceptance tolerances
# hold even at N = 10.  |zeta| <= 0.5 keeps the N = 10 characteristic
# function within its own convergence check (N vs N - 2, 1e-6).
LADDER_CUTOFFS = (10, 20, 30)
LADDER_ETA = (0.05, 0.99)
LADDER_NBAR = (0.01, 0.12)
LADDER_GAIN = (1.05, 2.0)
LADDER_ZETAS = 3
LADDER_ZETA_MAX = 0.5
# Every three consecutive passes take eta, and the gain, once from each third
# of its range, so that every run sees the same mix of cheap and dear matrix
# exponentials.
LADDER_STRATA = 3

# bounds-sweep library phase: ops of LIBRARY_POINTS geometric n-values, with
# (eta, log10 nbar_b, delta) on a Latin hypercube.  About a fifth of these
# channels have an undefined converse (eta <= (1 - eta) nbar_b / 2).
LIBRARY_OPS = 200
LIBRARY_POINTS = 1000
N_RANGE = (1e4, 1e14)
LIBRARY_ETA = (0.01, 0.99)
LIBRARY_LOG10_NBAR = (-3.0, 1.0)
DELTA = (1e-4, 0.5 - 1e-4)
# bounds-sweep CLI phase: a channel whose converse is defined, so the
# in-process run and the cold start both exit 0.
CLI_POINTS = 10_000
CLI_ETA = (0.1, 0.99)
CLI_NBAR = (0.01, 0.12)
CLI_LOG10_MODES_PER_SEC = (6.0, 9.0)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _qubit(rng: random.Random) -> dict:
    """A mixed or pure logical qubit with |gamma|^2 <= alpha_sq * beta_sq."""
    a2 = rng.uniform(0.05, 0.95)
    mag = rng.uniform(0.0, 1.0) * math.sqrt(a2 * (1.0 - a2))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return {"alpha_sq": a2, "beta_sq": 1.0 - a2,
            "gamma_re": mag * math.cos(phase), "gamma_im": mag * math.sin(phase)}


def _zeta(rng: random.Random, r_max: float) -> list:
    r = rng.uniform(0.0, r_max)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(phase), r * math.sin(phase)]


def verify_inputs(seed: int, pass_index: int) -> dict:
    rng = _rng("verify", seed, pass_index)
    rows = rng.sample(range(GRID_ETA_ROWS), VERIFY_CHANNELS)
    channels = [r * GRID_NBAR_COLS + rng.randrange(GRID_NBAR_COLS) for r in rows]
    qubits = rng.sample(range(QUBIT_SET_SIZE), VERIFY_QUBITS)
    return {"channel_indices": channels, "qubit_indices": qubits}


def ladder_inputs(seed: int, pass_index: int) -> dict:
    rng = _rng("cutoff-ladder", seed, pass_index)
    lo, hi = LADDER_ETA
    eta_stratum = pass_index % LADDER_STRATA
    gain_stratum = 2 * pass_index % LADDER_STRATA
    g_lo, g_hi = LADDER_GAIN
    return {
        "eta": lo + (hi - lo) * (eta_stratum + rng.random()) / LADDER_STRATA,
        "nbar_b": rng.uniform(*LADDER_NBAR),
        "gain": g_lo + (g_hi - g_lo) * (gain_stratum + rng.random()) / LADDER_STRATA,
        "qubit": _qubit(rng),
        "zetas": [[_zeta(rng, LADDER_ZETA_MAX), _zeta(rng, LADDER_ZETA_MAX)]
                  for _ in range(LADDER_ZETAS)],
        "cutoffs": list(LADDER_CUTOFFS),
    }


def _latin_hypercube(rng: random.Random, n: int, ranges) -> list:
    """n points, one in each of n equal slices of every range, so that every
    pass holds about the same share of channels with an undefined converse."""
    columns = []
    for lo, hi in ranges:
        slices = list(range(n))
        rng.shuffle(slices)
        columns.append([lo + (hi - lo) * (k + rng.random()) / n for k in slices])
    return list(zip(*columns))


def bounds_inputs(seed: int, pass_index: int) -> dict:
    rng = _rng("bounds-sweep", seed, pass_index)
    library = [
        {"eta": eta, "nbar_b": 10.0 ** log_nbar, "delta": delta}
        for eta, log_nbar, delta in _latin_hypercube(
            rng, LIBRARY_OPS, (LIBRARY_ETA, LIBRARY_LOG10_NBAR, DELTA))
    ]
    cli = {
        "eta": rng.uniform(*CLI_ETA),
        "nbar_b": rng.uniform(*CLI_NBAR),
        "delta": rng.uniform(*DELTA),
        "modes_per_sec": 10.0 ** rng.uniform(*CLI_LOG10_MODES_PER_SEC),
        "points": CLI_POINTS,
        "n_spec": f"{N_RANGE[0]!r}:{N_RANGE[1]!r}:{CLI_POINTS}",
        "cold_n": 10.0 ** rng.uniform(math.log10(N_RANGE[0]), math.log10(N_RANGE[1])),
    }
    return {"library": library, "library_points": LIBRARY_POINTS,
            "n_range": list(N_RANGE), "cli": cli}


GENERATORS = {
    "verify": verify_inputs,
    "cutoff-ladder": ladder_inputs,
    "bounds-sweep": bounds_inputs,
}


def generate(workload: str, seed: int, pass_index: int) -> dict:
    """Inputs of one pass; identical for identical arguments."""
    return GENERATORS[workload](seed, pass_index)


def cold_start_args(workload: str, seed: int) -> list:
    """CLI arguments of the workload's smallest question, asked by a fresh
    process: a one-point sweep, a single quadrature check, or a small state
    dump.  Drawn from the inputs of pass 0."""
    if workload == "bounds-sweep":
        c = bounds_inputs(seed, 0)["cli"]
        return ["bounds", "--eta", repr(c["eta"]), "--nbar-b", repr(c["nbar_b"]),
                "--delta", repr(c["delta"]), "--n", repr(c["cold_n"]),
                "--format", "csv"]
    if workload == "verify":
        return ["verify", "--check", "laguerre_diag"]
    if workload == "cutoff-ladder":
        x = ladder_inputs(seed, 0)
        q = x["qubit"]
        spec = ":".join(repr(q[k]) for k in ("alpha_sq", "beta_sq", "gamma_re", "gamma_im"))
        return ["willie-state", "--eta", repr(x["eta"]), "--nbar-b", repr(x["nbar_b"]),
                "--qubit", spec, "--source", "numeric",
                "--cutoff", str(LADDER_CUTOFFS[0]), "--format", "csv"]
    raise ValueError(f"unknown workload {workload!r}")
