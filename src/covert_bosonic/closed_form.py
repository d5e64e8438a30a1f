"""Closed-form output states and divergences for dual-rail input.

A dual-rail qubit sent through the lossy thermal-noise channel produces,
at the warden's two reflected modes, a state that is tri-diagonal in the
Fock basis: population terms |fg><fg| plus single-excitation-exchange
coherences |fg><f+1,g-1| and |fg><f-1,g+1| (total photon number is
conserved across the two modes of the support pattern).  This module
evaluates those coefficients, the matching anti-normally ordered
characteristic function and the chi-squared divergence against the quiet
(thermal product) state.  Everything is cross-checked entrywise by the
brute-force channel simulation in :mod:`covert_bosonic.oracle`.  The
states come as :class:`TriDiagonalWillieState`, defined in ``fock_core``
(the oracle fills the same layout without this module).  The channel
model and the receiver's dual-rail projection parameters live in
:mod:`covert_bosonic.covert_bounds`, which needs no Fock space.

Conventions fixed by that numeric cross-check (the relevant algebra
admits cheap transposition/sign typos, so the simulation is treated as
authoritative):

* the gamma term of the chi-squared closed form enters as ``2 (1-eta)^2
  |gamma|^2`` (an exponent of 4 fails the equality case |gamma| =
  |alpha beta| and disagrees with the numeric divergence);
* the coherence <fg|rho^W|f+1,g-1> equals ``+gamma * w2(g, f)``, i.e.
  the argument order is swapped relative to the diagonal convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covert_bounds import ChannelParams, DivergenceUndefinedError
from .fock_core import FockCutoff, TriDiagonalWillieState, thermal_occupation

__all__ = [
    "LogicalQubit",
    "willie_state_closed",
    "bob_state_closed",
    "willie_char_fn_closed",
    "chi2_closed",
    "chi2_bound",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class LogicalQubit:
    """A (possibly mixed) dual-rail input in the logical basis.

    ``alpha_sq`` and ``beta_sq`` are the populations of logical |0> = |01>
    and |1> = |10>; ``gamma`` is the off-diagonal coherence.  Positivity of
    the 2x2 logical density matrix requires |gamma|^2 <= alpha_sq*beta_sq.
    """

    alpha_sq: float
    beta_sq: float
    gamma: complex = 0.0

    def __post_init__(self):
        self._check(self.alpha_sq, self.beta_sq, self.gamma)

    @staticmethod
    def _check(alpha_sq, beta_sq, gamma) -> None:
        """Refuse what no qubit may hold, elementwise over arrays of one
        shape (``ValueError``, naming the first offending value)."""
        a, b, g = np.asarray(alpha_sq), np.asarray(beta_sq), np.asarray(gamma)
        if not np.all((0.0 <= a) & (a <= 1.0) & (0.0 <= b) & (b <= 1.0)):
            raise ValueError("populations must lie in [0, 1]")
        total = a + b
        off = np.abs(total - 1.0) > _NORM_TOL
        if np.any(off):
            raise ValueError(
                f"populations must sum to 1, got {np.extract(off, total)[0].item()!r}")
        finite = np.isfinite(g)
        if not np.all(finite):
            raise ValueError(f"gamma must be finite, got {np.extract(~finite, g)[0].item()!r}")
        if np.any(np.square(np.abs(g)) > a * b + _NORM_TOL):
            raise ValueError("|gamma|^2 exceeds alpha_sq * beta_sq (not PSD)")

    @classmethod
    def pure(cls, alpha: complex, beta: complex) -> "LogicalQubit":
        """Pure state alpha|01> + beta|10> (amplitudes, normalized)."""
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("amplitudes must be normalized")
        a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
        g = alpha * np.conj(beta)
        # Clamp roundoff so the positivity check cannot trip on exact purity.
        if abs(g) ** 2 > a2 * b2:
            g *= np.sqrt(a2 * b2) / abs(g)
        return cls(a2, b2, complex(g))

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.alpha_sq, self.gamma], [np.conj(self.gamma), self.beta_sq]]
        )


def _tridiagonal_state(
    qubit: LogicalQubit, reflect: float, occupancy: float, cutoff: FockCutoff
) -> TriDiagonalWillieState:
    """Tri-diagonal output state of a thermal-noise beamsplitter port with
    signal reflectance ``reflect`` and thermal occupancy ``occupancy``.

    With n = occupancy and p_k = n^k / (1+n)^(k+1) the thermal weights,

        w1(f, g) = [p_g - reflect (n^g - g n^(g-1)) / (1+n)^(g+2)] p_f
        w2(f, g) = reflect n^(f+g-1) / (1+n)^(f+g+3) sqrt(f (g+1))

    give diag[f, g] = alpha_sq w1(f, g) + beta_sq w1(g, f) and, on the
    photon-exchange pairs (g >= 1), upper[f, g] = gamma w2(g, f).  The
    (n - g) n^(g-1) factor is expanded to n^g - g n^(g-1), so g = 0 never
    touches a negative power (removable singularity); w2(g, f) is needed
    only for g >= 1, where its n^(f+g-1) has no pole.
    """
    d = cutoff.dim
    n = occupancy
    # Python's scalar ** is libm pow; numpy.power on arrays rounds differently
    # in a few percent of cells, so the powers come from these tables.
    n_pow = np.array([n**k for k in range(2 * d)])
    n1_pow = np.array([(1.0 + n) ** k for k in range(2 * d + 2)])
    thermal = np.array([thermal_occupation(k, n) for k in range(d)])
    g = np.arange(d)
    corr = n_pow[g] - np.where(g >= 1, g * n_pow[np.maximum(g - 1, 0)], 0.0)
    w1 = (thermal[g] - reflect * corr / n1_pow[g + 2])[None, :] * thermal[:, None]
    diag = qubit.alpha_sq * w1 + qubit.beta_sq * w1.T
    f, g = np.arange(d - 1)[:, None], np.arange(1, d)[None, :]  # the exchange pairs
    w2 = reflect * n_pow[f + g - 1] / n1_pow[f + g + 3] * np.sqrt(g * (f + 1))
    upper = np.zeros((d, d), dtype=complex)
    upper[:-1, 1:] = qubit.gamma * w2
    return TriDiagonalWillieState(cutoff, diag, upper)


def willie_state_closed(
    qubit: LogicalQubit, params: ChannelParams, cutoff: FockCutoff
) -> TriDiagonalWillieState:
    """Warden's two-mode output state for a dual-rail input.

    The warden's port sees reflectance 1 - eta of the signal and thermal
    occupancy eta * nbar_b from the environment.  At eta = 1 this is the
    bare thermal product state, independent of the input.
    """
    return _tridiagonal_state(
        qubit, 1.0 - params.eta, params.eta * params.nbar_b, cutoff
    )


def bob_state_closed(
    qubit: LogicalQubit, params: ChannelParams, cutoff: FockCutoff
) -> TriDiagonalWillieState:
    """Receiver's two-mode output state: same form with eta <-> 1 - eta."""
    return _tridiagonal_state(
        qubit, params.eta, (1.0 - params.eta) * params.nbar_b, cutoff
    )


def willie_char_fn_closed(
    qubit: LogicalQubit, params: ChannelParams, zeta1: complex, zeta2: complex
) -> complex:
    """Anti-normal characteristic function of the warden's output state.

    With reflectance r = 1 - eta and port occupancy n = eta nbar_b,

        exp(-(1 + n)(|z1|^2 + |z2|^2))
        * [1 - r (|a|^2 |z2|^2 + |b|^2 |z1|^2 + g z1 z2* + g* z1* z2)]
    """
    z1s = abs(zeta1) ** 2
    z2s = abs(zeta2) ** 2
    cross = qubit.gamma * zeta1 * np.conj(zeta2)
    bracket = 1.0 - (1.0 - params.eta) * (
        qubit.alpha_sq * z2s + qubit.beta_sq * z1s + cross + np.conj(cross)
    )
    occupancy = params.eta * params.nbar_b
    return complex(np.exp(-(1.0 + occupancy) * (z1s + z2s)) * bracket)


def chi2_closed(qubit: LogicalQubit, params: ChannelParams) -> float:
    """Chi-squared divergence between the warden's output for this input and
    the quiet thermal product state:

        (1-eta)^2 (alpha^4 + beta^4 + 2|gamma|^2) / (N (1 + N)),  N = eta nbar_b

    Phase of gamma does not enter.  Maximized (over valid inputs) by pure
    qubits with |gamma| = |alpha beta|, where it equals :func:`chi2_bound`;
    the balanced classical mixture gives exactly half the bound.
    """
    if params.eta == 1.0:
        return 0.0
    if params.eta * params.nbar_b == 0.0:
        raise DivergenceUndefinedError(
            "quiet state is not full rank at eta nbar_b = 0; divergence is infinite"
        )
    return float(_chi2(params, qubit.alpha_sq, qubit.beta_sq, qubit.gamma))


def _chi2(params: ChannelParams, alpha_sq, beta_sq, gamma) -> np.ndarray:
    """The formula of :func:`chi2_closed`, elementwise over arrays of one
    shape of qubit entries (unchecked; eta < 1 and eta nbar_b > 0), each value
    equal bit for bit to the scalar call."""
    n = params.eta * params.nbar_b
    pops = np.square(alpha_sq) + np.square(beta_sq)
    return (1.0 - params.eta) ** 2 * (pops + 2.0 * np.square(np.abs(gamma))) / (n * (1.0 + n))


def chi2_bound(params: ChannelParams) -> float:
    """Input-independent bound (1-eta)^2 / (eta nbar_b (1 + eta nbar_b)):
    the divergence of logical |0>, a pure qubit with |gamma| = |alpha beta|."""
    return chi2_closed(LogicalQubit(1.0, 0.0), params)
