"""Square-root-law bound pipeline for covert qubit transmission.

Detectability is kept below a budget delta by thinning transmissions: each
of the n two-mode rounds carries a dual-rail qubit with probability q, and
q <= 2 c_cov delta / sqrt(n) guarantees the relative-entropy covertness
criterion.  The achievable count of reliable covert qubits then scales as
sqrt(n) times the covertness constant times a hashing-bound rate for the
induced depolarizing channel; the converse side bounds the count by twice
the per-mode quantum capacity of an amplifier channel under the matching
mean-photon-number constraint.

All logarithms in reported quantities are base 2 (bits/qubits); the [x]+
clamp is always max(x, 0) applied after evaluating the full expression.
Every function here is pure, so curve sweeps may fan out freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .closed_form import DivergenceUndefinedError, p_fail, p_prime, p_total
from .fock_core import ChannelParams

__all__ = [
    "BoundsPoint",
    "GainDecompositionError",
    "c_cov",
    "q_max",
    "qre_bound",
    "hashing_rate",
    "achievable_qubits",
    "lower_bound_qubits",
    "assisted_rate",
    "assisted_lower_bound_qubits",
    "converse_gain",
    "g_func",
    "converse_capacity",
    "nbar_s_max",
    "upper_bound_qubits",
    "upper_bound_srl_coefficient",
    "bounds_curve",
]


class GainDecompositionError(ValueError):
    """The amplifier/pure-loss decomposition behind the converse is invalid
    for these parameters (gain denominator not positive)."""


@dataclass(slots=True)
class BoundsPoint:
    """One sweep sample: round count n with both bound ordinates (qubits),
    the per-round rates behind them, and the operating point (q, nbar_s)."""

    n: float
    lower_qubits: float
    upper_qubits: float
    assisted_lower_qubits: float
    rate_R: float
    capacity_C: float
    q: float
    nbar_s: float
    seconds: Optional[float] = None


def c_cov(params: ChannelParams) -> float:
    """Covertness constant sqrt(2 eta nbar_b (1 + eta nbar_b)) / (1 - eta).

    Infinite at eta = 1 (the warden receives nothing) and zero at
    nbar_b = 0 (any transmission is perfectly distinguishable).
    """
    if params.eta == 1.0:
        return math.inf
    n = params.eta * params.nbar_b
    return math.sqrt(2.0 * n * (1.0 + n)) / (1.0 - params.eta)


# The array functions below evaluate a whole sweep for bounds_curve; the
# scalar functions are 0-d views of them.  They follow scalar float
# arithmetic: inf/NaN (c_cov is infinite at eta = 1) propagate silently, and
# np.fmin/np.fmax match Python's min(1, x)/max(0, x), which return the
# constant when x is NaN.


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta >= 0.0):  # NaN or inf would make q 1
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")


def _nbar_s(params: ChannelParams, delta: float, n) -> np.ndarray:
    """2 c_cov delta / sqrt(n): the covertness cap on the signal photon
    number, and the transmission probability before clamping to 1."""
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n)):
        raise ValueError("n must be finite")
    if np.any(n < 1):
        raise ValueError("n must be >= 1")
    _check_delta(delta)
    if delta == 0.0:  # no budget, no signal, even where c_cov is infinite
        return np.zeros_like(n)
    return 2.0 * c_cov(params) * delta / np.sqrt(n)


def _q(params: ChannelParams, delta: float, n) -> np.ndarray:
    return np.fmin(1.0, _nbar_s(params, delta, n))


def _log2(x: np.ndarray) -> np.ndarray:
    # libm log2 per element: numpy's vectorized log2 differs from it in the
    # last bit on ~0.1% of inputs, and the converse subtracts two nearly
    # equal g() terms, which would carry that bit into the output.
    flat = np.fromiter(map(math.log2, x.ravel().tolist()), float, count=x.size)
    return flat.reshape(x.shape)


def _g(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"g is defined for x >= 0, got {x[x < 0][0]}")
    # At x = 0 both terms vanish exactly, which gives g(0) = 0.
    with np.errstate(invalid="ignore"):
        return (1.0 + x) * _log2(1.0 + x) - x * _log2(np.where(x > 0.0, x, 1.0))


def _capacity(params: ChannelParams, nbar_s) -> np.ndarray:
    nbar_s = np.asarray(nbar_s, dtype=float)
    if np.any(nbar_s < 0):
        raise ValueError("nbar_s must be >= 0")
    g = converse_gain(params)
    gbar = g - 1.0
    with np.errstate(invalid="ignore"):
        val = _g(((g + 1.0) * nbar_s + gbar) / 2.0) - _g(gbar * (1.0 + nbar_s) / 2.0)
    return np.fmax(0.0, val)


def _converse(params: ChannelParams, delta: float, n):
    """(C(nbar_s_max), 2 n C(nbar_s_max)) over an array of n."""
    cap = _capacity(params, _nbar_s(params, delta, n))
    return cap, 2.0 * np.asarray(n, dtype=float) * cap


def achievable_qubits(params: ChannelParams, delta: float, n, rate: float):
    """Expected covert qubits q_max * n * rate over n rounds, elementwise on
    an array of n.  ``params`` sets the covertness budget; the per-round
    ``rate`` is separate because an engineered channel takes it from
    different effective parameters."""
    return _q(params, delta, n) * np.asarray(n, dtype=float) * rate


def q_max(params: ChannelParams, delta: float, n: float) -> float:
    """Largest covert per-round transmission probability,
    min(1, 2 c_cov delta / sqrt(n))."""
    return float(_q(params, delta, n))


def qre_bound(params: ChannelParams, q: float, n: float) -> float:
    """Covertness criterion value sqrt(D/8) <= q (1-eta) sqrt(n) /
    (2 sqrt(2 eta nbar_b (1 + eta nbar_b))); equals delta at q = q_max in
    the unclamped regime."""
    if params.nbar_b == 0.0:
        raise DivergenceUndefinedError("criterion diverges at nbar_b = 0")
    occ = params.eta * params.nbar_b
    return q * (1.0 - params.eta) * math.sqrt(n) / (
        2.0 * math.sqrt(2.0 * occ * (1.0 + occ))
    )


def _depolarizing_hashing(p: float) -> float:
    """[1 - H(1 - 3p/4, p/4, p/4, p/4)]+ for a depolarizing channel of
    parameter p, with the Shannon entropy in bits and 0 log 0 = 0."""
    probs = (1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)
    h = float(-sum(x * math.log2(x) for x in probs if x > 0.0))
    return max(0.0, 1.0 - h)


def hashing_rate(params: ChannelParams) -> float:
    """Achievable qubit rate per round, [1 - H(p_vec)]+ for the depolarizing
    channel the projected receiver sees."""
    return _depolarizing_hashing(p_total(params))


def lower_bound_qubits(params: ChannelParams, delta: float, n: float) -> float:
    """Achievable expected covert qubits over n rounds: q_max * n * R,
    i.e. 2 sqrt(n) c_cov R delta when q_max is unclamped."""
    return float(achievable_qubits(params, delta, n, hashing_rate(params)))


def assisted_rate(params: ChannelParams) -> float:
    """Qubit rate with a two-way classical side channel: the receiver
    reports which projections succeeded and the parties distill
    entanglement on those rounds, giving (1 - p_fail)[1 - H(p'_vec)]+."""
    return (1.0 - p_fail(params)) * _depolarizing_hashing(p_prime(params))


def assisted_lower_bound_qubits(
    params: ChannelParams, delta: float, n: float
) -> float:
    return float(achievable_qubits(params, delta, n, assisted_rate(params)))


def converse_gain(params: ChannelParams) -> float:
    """Gain G = eta / (eta - (1-eta) nbar_b / 2) of the amplifier component
    in the channel decomposition used by the converse."""
    denom = params.eta - (1.0 - params.eta) * params.nbar_b / 2.0
    if denom <= 0.0:
        raise GainDecompositionError(
            f"amplifier/pure-loss decomposition invalid: eta - (1-eta) nbar_b/2 "
            f"= {denom!r} <= 0"
        )
    return params.eta / denom


def g_func(x: float) -> float:
    """Bosonic entropy function g(x) = (1+x) log2(1+x) - x log2(x); g(0) = 0."""
    return float(_g(x))


def converse_capacity(params: ChannelParams, nbar_s: float) -> float:
    """Qubits per mode through the amplifier component at signal mean photon
    number nbar_s:

        [g(((G+1) nbar_s + Gbar) / 2) - g(Gbar (1 + nbar_s) / 2)]+
    """
    return float(_capacity(params, nbar_s))


def nbar_s_max(params: ChannelParams, delta: float, n: float) -> float:
    """Covertness cap on the signal mean photon number, 2 c_cov delta / sqrt(n)."""
    return float(_nbar_s(params, delta, n))


def upper_bound_qubits(params: ChannelParams, delta: float, n: float) -> float:
    """Converse: at most 2 n C(nbar_s_max) covert qubits over n rounds."""
    if delta == 0.0:
        return 0.0
    return float(_converse(params, delta, n)[1])


def upper_bound_srl_coefficient(params: ChannelParams, delta: float) -> float:
    """Large-n limit of upper_bound_qubits / sqrt(n):
    4 c_cov delta log2(1 + 2/Gbar), from first-order expansion of the
    capacity around nbar_s = 0."""
    _check_delta(delta)
    gbar = converse_gain(params) - 1.0
    return 4.0 * c_cov(params) * delta * math.log2(1.0 + 2.0 / gbar)


def bounds_curve(
    params: ChannelParams,
    delta: float,
    n_values: Sequence[float],
    modes_per_second: Optional[float] = None,
) -> list[BoundsPoint]:
    """Evaluate both bounds over an ascending sweep of finite round counts.

    Each round occupies two optical modes, so with a modulation rate (finite
    and positive) the abscissa in seconds is 2 n / modes_per_second.  Output
    order follows input order and every quantity is deterministic.
    """
    if modes_per_second is not None and not (
        math.isfinite(modes_per_second) and modes_per_second > 0.0
    ):
        raise ValueError(
            f"modes_per_second must be finite and > 0, got {modes_per_second!r}"
        )
    n = np.asarray(list(n_values), dtype=float)
    if len(n) == 0:
        return []
    if np.any(n <= 0) or np.any(np.diff(n) <= 0):
        raise ValueError("n_values must be positive and strictly ascending")
    nbar_s = _nbar_s(params, delta, n)
    q = _q(params, delta, n)
    rate = hashing_rate(params)
    lower = achievable_qubits(params, delta, n, rate)
    assisted = achievable_qubits(params, delta, n, assisted_rate(params))
    cap, upper = _converse(params, delta, n)
    seconds = (
        [None] * len(n) if modes_per_second is None
        else (2.0 * n / modes_per_second).tolist()
    )
    columns = (n.tolist(), lower.tolist(), upper.tolist(), assisted.tolist(),
               itertools.repeat(rate), cap.tolist(), q.tolist(), nbar_s.tolist(),
               seconds)  # in BoundsPoint field order
    return [BoundsPoint(*row) for row in zip(*columns)]
