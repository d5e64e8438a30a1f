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

This module is the home of the channel model, :class:`ChannelParams`, and
of the receiver's dual-rail parameters (``p_fail``, ``p_prime``,
``p_total``): closed-form scalar arithmetic that needs no Fock space.  It
imports nothing from the package, so the bound pipeline loads no
Fock-space code; every other module takes these names from here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "ChannelParams",
    "DivergenceUndefinedError",
    "p_fail",
    "p_prime",
    "p_total",
    "BoundsPoint",
    "GainDecompositionError",
    "c_cov",
    "q_max",
    "qre_bound",
    "hashing_rate",
    "achievable_qubits",
    "assisted_rate",
    "converse_gain",
    "upper_bound_qubits",
    "upper_bound_srl_coefficient",
    "bounds_curve",
]


@dataclass(frozen=True)
class ChannelParams:
    """Lossy thermal-noise bosonic channel: a beamsplitter of transmittance
    ``eta`` mixing the signal with a thermal state of mean photon number
    ``nbar_b``."""

    eta: float
    nbar_b: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not (math.isfinite(self.nbar_b) and self.nbar_b >= 0.0):
            raise ValueError(f"nbar_b must be finite and >= 0, got {self.nbar_b}")


class DivergenceUndefinedError(ValueError):
    """The divergence diverges: the quiet state is not full rank (eta nbar_b = 0)."""


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

    Infinite at eta = 1 (the warden receives nothing) and zero where
    eta nbar_b = 0 (any transmission is perfectly distinguishable).
    """
    if params.eta == 1.0:
        return math.inf
    n = params.eta * params.nbar_b
    return math.sqrt(2.0 * n * (1.0 + n)) / (1.0 - params.eta)


def p_fail(params: ChannelParams) -> float:
    """Probability that projecting the receiver's two modes onto the
    dual-rail basis {|01>, |10>} fails:

        1 - (2 nbar_b (1+nbar_b)(1-eta)^2 + eta) / (1 + (1-eta) nbar_b)^4

    Independent of the transmitted logical state.  Both populations
    <01|rho^B|01> and <10|rho^B|10> are subtracted, the convention fixed by
    the oracle's numeric receiver state.
    """
    eta, nb = params.eta, params.nbar_b
    return float(
        1.0 - (2.0 * nb * (1.0 + nb) * (1.0 - eta) ** 2 + eta)
        / (1.0 + (1.0 - eta) * nb) ** 4
    )


def p_prime(params: ChannelParams) -> float:
    """Depolarizing parameter of the channel restricted to the projected
    dual-rail subspace.  Undefined at eta = nbar_b = 0, where the projection
    never succeeds (p_fail = 1)."""
    eta, nb = params.eta, params.nbar_b
    x = 2.0 * (1.0 - eta) ** 2 * nb * (1.0 + nb)
    if eta + x == 0.0:
        raise ValueError("p_prime is undefined at eta = nbar_b = 0: "
                         "the dual-rail projection never succeeds (p_fail = 1)")
    return float(x / (eta + x))


def p_total(params: ChannelParams) -> float:
    """Overall depolarizing parameter seen by the decoder,

        p = p' + (1 - p') p_fail = 1 - eta / (1 + (1-eta) nbar_b)^4.
    """
    eta, nb = params.eta, params.nbar_b
    return float(1.0 - eta / (1.0 + (1.0 - eta) * nb) ** 4)


# Every ordinate is an array expression of one quantity, the covertness cap
# nbar_s = 2 c_cov delta / sqrt(n): q = min(1, nbar_s), the achievable count
# q n R and the converse 2 n C(nbar_s).  bounds_curve checks a sweep's delta
# and n once, computes nbar_s once and evaluates each column from it; the
# other functions evaluate the same expressions at their own n.  They follow
# scalar float arithmetic: np.fmin/np.fmax match Python's min(1, x)/max(0, x),
# which return the constant when x is NaN.  c_cov is infinite at eta = 1; q
# then clamps to 1, and the converse refuses the infinite nbar_s.


def _check_delta(delta: float) -> None:
    # At delta >= 1/2 the criterion (1/4)||rho_1 - rho_0||_1 <= delta holds
    # for every pair of states; NaN or inf would make q 1.
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"delta must be in [0, 1/2), got {delta!r}")


def _check_n(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n)):
        raise ValueError("n must be finite")
    if np.any(n < 1):
        raise ValueError("n must be >= 1")
    return n


def _nbar_s(params: ChannelParams, delta: float, n) -> np.ndarray:
    """2 c_cov delta / sqrt(n): the covertness cap on the signal photon
    number, and the transmission probability before clamping to 1.  Checks
    delta, then n."""
    _check_delta(delta)
    n = _check_n(n)
    if delta == 0.0:  # no budget, no signal, even where c_cov is infinite
        return np.zeros_like(n)
    return 2.0 * c_cov(params) * delta / np.sqrt(n)


def _log2(x: np.ndarray) -> np.ndarray:
    # libm log2 per element: numpy's vectorized log2 differs from it in the
    # last bit on ~0.1% of inputs, and the converse subtracts two nearly
    # equal g() terms, which would carry that bit into the output.
    flat = np.fromiter(map(math.log2, x.ravel().tolist()), float, count=x.size)
    return flat.reshape(x.shape)


def _g(x) -> np.ndarray:
    """Bosonic entropy function g(x) = (1+x) log2(1+x) - x log2(x); g(0) = 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"g is defined for x >= 0, got {x[x < 0][0]}")
    # At x = 0 both terms vanish exactly, which gives g(0) = 0.
    with np.errstate(invalid="ignore"):
        return (1.0 + x) * _log2(1.0 + x) - x * _log2(np.where(x > 0.0, x, 1.0))


def _capacity(params: ChannelParams, nbar_s) -> np.ndarray:
    """Qubits per mode through the amplifier component at signal mean photon
    number nbar_s, which must be finite and >= 0:

        [g(((G+1) nbar_s + Gbar) / 2) - g(Gbar (1 + nbar_s) / 2)]+
    """
    nbar_s = np.asarray(nbar_s, dtype=float)
    if not np.all(np.isfinite(nbar_s)):
        # g(inf) - g(inf) is NaN, which the [.]+ clamp would turn into 0.
        raise ValueError(
            f"nbar_s must be finite, got {float(nbar_s[~np.isfinite(nbar_s)][0])}; "
            "an infinite nbar_s_max (eta = 1, delta > 0) means covertness sets "
            "no power limit, so the converse is unbounded")
    if np.any(nbar_s < 0):
        raise ValueError("nbar_s must be >= 0")
    g = converse_gain(params)
    gbar = g - 1.0
    with np.errstate(invalid="ignore"):
        val = _g(((g + 1.0) * nbar_s + gbar) / 2.0) - _g(gbar * (1.0 + nbar_s) / 2.0)
    return np.fmax(0.0, val)


def achievable_qubits(params: ChannelParams, delta: float, n, rate: float):
    """Expected covert qubits q_max * n * rate over n rounds, elementwise on
    an array of n.  ``params`` sets the covertness budget; the per-round
    ``rate`` is separate because an engineered channel takes it from
    different effective parameters."""
    return np.fmin(1.0, _nbar_s(params, delta, n)) * np.asarray(n, dtype=float) * rate


def q_max(params: ChannelParams, delta: float, n: float) -> float:
    """Largest covert per-round transmission probability,
    min(1, 2 c_cov delta / sqrt(n))."""
    return float(np.fmin(1.0, _nbar_s(params, delta, n)))


def qre_bound(params: ChannelParams, q: float, n: float) -> float:
    """Covertness criterion value sqrt(D/8) <= q sqrt(n) / (2 c_cov); equals
    delta at q = q_max in the unclamped regime.  ``q`` must lie in [0, 1]
    and ``n`` be finite and >= 1."""
    if not (math.isfinite(q) and 0.0 <= q <= 1.0):
        raise ValueError(f"q must be finite and in [0, 1], got {q!r}")
    _check_n(n)
    if params.eta * params.nbar_b == 0.0:
        raise DivergenceUndefinedError("criterion diverges at eta nbar_b = 0")
    return q * math.sqrt(n) / (2.0 * c_cov(params))


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


def assisted_rate(params: ChannelParams) -> float:
    """Qubit rate with a two-way classical side channel: the receiver
    reports which projections succeeded and the parties distill
    entanglement on those rounds, giving (1 - p_fail)[1 - H(p'_vec)]+;
    exactly 0 where no projection succeeds."""
    if p_fail(params) == 1.0:
        return 0.0
    return (1.0 - p_fail(params)) * _depolarizing_hashing(p_prime(params))


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


def upper_bound_qubits(params: ChannelParams, delta: float, n: float) -> float:
    """Converse: at most 2 n C(nbar_s) covert qubits over n rounds."""
    cap = _capacity(params, _nbar_s(params, delta, n))
    return float(2.0 * np.asarray(n, dtype=float) * cap)


def upper_bound_srl_coefficient(params: ChannelParams, delta: float) -> float:
    """Large-n limit of upper_bound_qubits / sqrt(n):
    4 c_cov delta log2(1 + 2/Gbar), from first-order expansion of the
    capacity around nbar_s = 0; 0 where no signal is sent, and refused
    where the converse is.  Gbar = G - 1 is taken as
    ((1-eta) nbar_b/2) / (eta - (1-eta) nbar_b/2), not from G, which rounds
    to 1 when the noise term is below half an ulp of eta."""
    nbar_s = float(_nbar_s(params, delta, 1.0))  # 2 c_cov delta
    _capacity(params, nbar_s)  # refuses where the converse refuses
    if nbar_s == 0.0:
        return 0.0
    noise = (1.0 - params.eta) * params.nbar_b / 2.0
    gbar = noise / (params.eta - noise)
    return 2.0 * nbar_s * math.log2(1.0 + 2.0 / gbar)


def _bounds_columns(
    params: ChannelParams,
    delta: float,
    n_values: Sequence[float],
    modes_per_second: Optional[float],
) -> dict:
    """:func:`bounds_curve`'s checks, then its columns keyed by
    :class:`BoundsPoint` field, in field order: an array over the sweep, or
    one value for every point (``rate_R``, and ``seconds`` without a
    modulation rate).  An empty sweep has no columns."""
    n = np.asarray(list(n_values), dtype=float)
    nbar_s = _nbar_s(params, delta, n)
    if np.any(np.diff(n) <= 0):
        raise ValueError("n_values must be strictly ascending")
    seconds = None
    if modes_per_second is not None:
        with np.errstate(all="ignore"):
            seconds = 2.0 * n / modes_per_second
        if not (math.isfinite(modes_per_second) and modes_per_second > 0.0
                and np.all(np.isfinite(seconds))):
            raise ValueError("modes_per_second must be finite and > 0, and 2 n / "
                             f"modes_per_second finite, got {modes_per_second!r}")
    if len(n) == 0:
        return {}
    q = np.fmin(1.0, nbar_s)
    rate = hashing_rate(params)
    lower = q * n * rate
    assisted = q * n * assisted_rate(params)
    cap = _capacity(params, nbar_s)
    upper = 2.0 * n * cap
    return {"n": n, "lower_qubits": lower, "upper_qubits": upper,
            "assisted_lower_qubits": assisted, "rate_R": rate, "capacity_C": cap,
            "q": q, "nbar_s": nbar_s, "seconds": seconds}


def _rows(columns: Iterable) -> Iterator[tuple]:
    """The rows of ``columns``, each an array or one value for every row."""
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else itertools.repeat(c)
                 for c in columns))


def bounds_curve(
    params: ChannelParams,
    delta: float,
    n_values: Sequence[float],
    modes_per_second: Optional[float] = None,
) -> list[BoundsPoint]:
    """Evaluate both bounds over a strictly ascending sweep of finite round
    counts n >= 1, in one pass over the checked inputs.

    Each round occupies two optical modes, so with a modulation rate (finite
    and positive) the abscissa in seconds is 2 n / modes_per_second.  Output
    order follows input order and every quantity is deterministic.
    """
    columns = _bounds_columns(params, delta, n_values, modes_per_second)
    return [BoundsPoint(*row) for row in _rows(columns.values())]
