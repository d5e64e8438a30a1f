"""Truncated Fock-space linear algebra for small bosonic systems.

Everything here works with dense complex matrices over the photon-number
basis |0>, ..., |N> of each mode, with multi-mode states indexed in
row-major mode order (the first mode is the slowest index).  States carry
an explicit ``truncation_leak`` so callers can tell how much probability
mass fell above the cutoff and escalate N when needed.

All objects are immutable after construction and all operations are pure
functions, so evaluations are safe to run in parallel over parameter
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .closed_form import LogicalQubit

__all__ = [
    "DEFAULT_MAX_PHOTONS",
    "FockCutoff",
    "ChannelParams",
    "DensityOperator",
    "StateValidationError",
    "RankDeficiencyError",
    "TruncationError",
    "annihilation_op",
    "mode_annihilation_op",
    "thermal_occupation",
    "thermal_state",
    "photon_exchange_indices",
    "dual_rail_density",
    "tensor",
    "partial_trace",
    "beamsplitter_unitary",
    "two_mode_amplifier_unitary",
    "apply_unitary",
    "anti_normal_char_fn",
    "trace_distance",
    "qre",
    "chi2_numeric",
]

# Thermal tails decay geometrically, so N=20 covers the occupancies this
# library targets (eta * nbar_b well below 1).  Callers can escalate.
DEFAULT_MAX_PHOTONS = 20

_HERMITICITY_TOL = 1e-12
_PSD_TOL = 1e-10
_TRACE_TOL = 1e-12


class StateValidationError(ValueError):
    """A matrix failed the density-operator checks (Hermiticity/PSD/trace)."""


class RankDeficiencyError(ValueError):
    """The reference state is singular on the truncated support."""


class TruncationError(ValueError):
    """The Fock cutoff is too small for the requested evaluation."""


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode photon-number truncation; basis states |0>..|max_photons|."""

    max_photons: int

    def __post_init__(self):
        if self.max_photons < 1:
            raise ValueError(f"max_photons must be >= 1, got {self.max_photons}")

    @property
    def dim(self) -> int:
        return self.max_photons + 1


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


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, trace-(almost-)one operator on a truncated multi-mode
    Fock space.

    ``entries`` has dimension ``(N+1)**num_modes`` square; the basis index of
    a photon tuple (k_0, ..., k_{m-1}) is the row-major flattening with mode 0
    slowest.  ``truncation_leak`` is the probability mass lost above the
    cutoff; the trace must lie in [1 - truncation_leak, 1 + 1e-12].
    """

    num_modes: int
    cutoff: FockCutoff
    entries: np.ndarray
    truncation_leak: float = 0.0

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("num_modes must be positive")
        dim = self.cutoff.dim ** self.num_modes
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim}, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > _HERMITICITY_TOL:
            raise StateValidationError("operator is not Hermitian to 1e-12")
        # Cholesky of the shifted matrix succeeds iff all eigenvalues exceed
        # -_PSD_TOL; it is several times cheaper than a full eigendecomposition,
        # which is only run on failure to produce a precise error message.
        try:
            np.linalg.cholesky(m + _PSD_TOL * np.eye(dim))
        except np.linalg.LinAlgError:
            evals = np.linalg.eigvalsh(m)
            if evals[0] < -_PSD_TOL:
                # Never repaired silently: a negative eigenvalue beyond
                # tolerance means an upstream bug, and clipping would mask it.
                raise StateValidationError(
                    f"operator has eigenvalue {evals[0]:.3e} < -{_PSD_TOL:g}"
                ) from None
        tr = float(np.trace(m).real)
        if not (1.0 - self.truncation_leak - _TRACE_TOL <= tr <= 1.0 + _TRACE_TOL):
            raise StateValidationError(
                f"trace {tr!r} outside [1 - leak, 1 + 1e-12] with leak "
                f"{self.truncation_leak!r}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.cutoff.dim ** self.num_modes


def annihilation_op(cutoff: FockCutoff) -> np.ndarray:
    """Single-mode annihilation operator: a|k> = sqrt(k)|k-1>."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff.dim)), 1).astype(complex)


def mode_annihilation_op(mode: int, num_modes: int, cutoff: FockCutoff) -> np.ndarray:
    """Annihilation operator acting on one mode of a multi-mode space."""
    if not 0 <= mode < num_modes:
        raise ValueError(f"mode {mode} out of range for {num_modes} modes")
    d = cutoff.dim
    op = np.array([[1.0 + 0.0j]])
    for i in range(num_modes):
        op = np.kron(op, annihilation_op(cutoff) if i == mode else np.eye(d))
    return op


def thermal_occupation(k: np.ndarray | int, nbar: float) -> np.ndarray | float:
    """Photon-number distribution of a thermal state: nbar^k/(1+nbar)^(k+1)."""
    return nbar**k / (1.0 + nbar) ** (np.asarray(k) + 1)


def thermal_state(nbar: float, cutoff: FockCutoff) -> DensityOperator:
    """Single-mode thermal state with mean photon number ``nbar``, truncated.

    Diagonal in the Fock basis; the geometric tail above the cutoff is
    reported as the truncation leak.
    """
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    k = np.arange(cutoff.dim)
    diag = np.asarray(thermal_occupation(k, nbar), dtype=float)
    leak = float(max(0.0, 1.0 - diag.sum()))
    return DensityOperator(1, cutoff, np.diag(diag).astype(complex), leak)


def photon_exchange_indices(cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Flat two-mode indices (i, j) of every single-photon exchange
    |f, g> -> |f+1, g-1> inside the cutoff: i = f d + g and j = (f+1) d + g-1
    for g >= 1 and f < max_photons, in increasing i.

    With the diagonal, these pairs and their transposes are the support of
    a tri-diagonal two-mode state such as the warden's output; f + g is the
    same at both ends of each pair.
    """
    d = cutoff.dim
    f, g = np.divmod(np.arange(d * d), d)
    i = np.flatnonzero((g >= 1) & (f + 1 < d))
    return i, i + d - 1


def dual_rail_density(qubit: "LogicalQubit", cutoff: FockCutoff) -> DensityOperator:
    """Two-mode state of a dual-rail qubit: logical |0> = |01>, |1> = |10>.

    The only nonzero entries are <01|rho|01> = |alpha|^2, <10|rho|10> =
    |beta|^2 and the coherence <01|rho|10> = gamma (plus its conjugate).
    """
    if cutoff.max_photons < 1:
        raise ValueError("cutoff must allow at least one photon per mode")
    d = cutoff.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    i01 = 0 * d + 1
    i10 = 1 * d + 0
    m[i01, i01] = qubit.alpha_sq
    m[i10, i10] = qubit.beta_sq
    m[i01, i10] = qubit.gamma
    m[i10, i01] = np.conj(qubit.gamma)
    return DensityOperator(2, cutoff, m, 0.0)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product of two states; mode counts add."""
    if a.cutoff != b.cutoff:
        raise ValueError("cutoff mismatch in tensor product")
    leak = 1.0 - (1.0 - a.truncation_leak) * (1.0 - b.truncation_leak)
    return DensityOperator(
        a.num_modes + b.num_modes, a.cutoff, np.kron(a.entries, b.entries), leak
    )


def partial_trace(state: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out all modes not listed in ``keep``; preserves the trace."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must name at least one mode")
    if keep[0] < 0 or keep[-1] >= state.num_modes:
        raise ValueError(f"mode indices {keep} invalid for {state.num_modes} modes")
    d = state.cutoff.dim
    n = state.num_modes
    t = state.entries.reshape((d,) * (2 * n))
    traced = [m for m in range(n) if m not in keep]
    # Contract row index m with column index n + m, highest first so the
    # remaining axis numbers stay valid.
    for m in sorted(traced, reverse=True):
        t = np.trace(t, axis1=m, axis2=t.ndim // 2 + m)
    k = len(keep)
    dim = d**k
    return DensityOperator(k, state.cutoff, t.reshape(dim, dim), state.truncation_leak)


def _parity_on_mode(mode: int, num_modes: int, cutoff: FockCutoff) -> np.ndarray:
    d = cutoff.dim
    op = np.array([1.0])
    signs = (-1.0) ** np.arange(d)
    for i in range(num_modes):
        op = np.kron(op, signs if i == mode else np.ones(d))
    return op


def beamsplitter_unitary(
    eta: float, mode_a: int, mode_b: int, num_modes: int, cutoff: FockCutoff
) -> np.ndarray:
    """Beamsplitter coupling modes a and b with transmittance ``eta``.

    Output convention (Heisenberg picture, with a = input on mode_a and
    b = input on mode_b):

        mode_a out:  sqrt(eta) a + sqrt(1-eta) b       (transmitted port)
        mode_b out:  sqrt(1-eta) a - sqrt(eta) b       (reflected port)

    The minus sign on the reflected port is realized by composing a Fock
    rotation exp(theta (a^dag b - a b^dag)) with a photon-number parity on
    mode_b; a plain rotation alone cannot produce this det = -1 mode map.
    The unitary conserves total photon number blockwise, so it is exact on
    any state fully supported below the cutoff.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    from scipy.linalg import expm

    theta = np.arccos(np.sqrt(eta))
    a = mode_annihilation_op(mode_a, num_modes, cutoff)
    b = mode_annihilation_op(mode_b, num_modes, cutoff)
    rot = expm(theta * (a.conj().T @ b - a @ b.conj().T))
    return _parity_on_mode(mode_b, num_modes, cutoff)[:, None] * rot


def two_mode_amplifier_unitary(
    gain: float, mode_a: int, mode_b: int, num_modes: int, cutoff: FockCutoff
) -> np.ndarray:
    """Two-mode squeezer realizing a quantum-limited amplifier of gain G.

    Heisenberg map: mode_a out = sqrt(G) a + sqrt(G-1) b^dag, with
    cosh(r) = sqrt(G).  The generator is anti-Hermitian so the returned
    matrix is exactly unitary on the truncated space, but the physical map
    does not conserve photon number; callers should check the output
    state's weight near the cutoff (its truncation leak) for G not close
    to 1.
    """
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")
    from scipy.linalg import expm

    r = np.arccosh(np.sqrt(gain))
    a = mode_annihilation_op(mode_a, num_modes, cutoff)
    b = mode_annihilation_op(mode_b, num_modes, cutoff)
    return expm(r * (a.conj().T @ b.conj().T - a @ b))


def apply_unitary(state: DensityOperator, u: np.ndarray) -> DensityOperator:
    """Conjugate a state by a unitary: rho -> U rho U^dag."""
    out = u @ state.entries @ u.conj().T
    out = 0.5 * (out + out.conj().T)  # scrub roundoff asymmetry only
    return DensityOperator(state.num_modes, state.cutoff, out, state.truncation_leak)


@lru_cache(maxsize=512)
def _char_fn_ops_cached(z: complex, max_photons: int) -> np.ndarray:
    """Single-mode factor exp(-z* a) exp(z a^dag) of the anti-normally
    ordered characteristic function kernel."""
    from scipy.linalg import expm

    a = annihilation_op(FockCutoff(max_photons))
    out = expm(-np.conj(z) * a) @ expm(z * a.conj().T)
    out.setflags(write=False)
    return out


def anti_normal_char_fn(
    state: DensityOperator,
    zeta1: complex,
    zeta2: complex,
    *,
    error_tol: float = 1e-6,
) -> complex:
    """Anti-normally ordered characteristic function of a two-mode state:

        tr[rho exp(-z1* a1) exp(z1 a1^dag) exp(-z2* a2) exp(z2 a2^dag)]

    The displacement exponentials are evaluated as truncated operator
    exponentials.  Convergence is estimated by recomputing with the cutoff
    lowered by two; if the two values differ by more than ``error_tol`` the
    result is rejected with :class:`TruncationError`.
    """
    if state.num_modes != 2:
        raise ValueError("anti_normal_char_fn expects a two-mode state")
    value = _char_fn_trace(state.entries, state.cutoff, zeta1, zeta2)
    n = state.cutoff.max_photons
    if n >= 3:
        lower = FockCutoff(n - 2)
        d = lower.dim
        sub = state.entries.reshape(n + 1, n + 1, n + 1, n + 1)[:d, :d, :d, :d]
        ref = _char_fn_trace(sub.reshape(d * d, d * d), lower, zeta1, zeta2)
        if abs(value - ref) > error_tol:
            raise TruncationError(
                f"characteristic function not converged at N={n}: "
                f"|delta| = {abs(value - ref):.3e} > {error_tol:g}"
            )
    return complex(value)


def _char_fn_trace(entries, cutoff, zeta1, zeta2) -> complex:
    # tr[rho (K1 x K2)] contracted mode by mode; avoids materializing the
    # Kronecker-product kernel.
    d = cutoff.dim
    k1 = _char_fn_ops_cached(complex(zeta1), cutoff.max_photons)
    k2 = _char_fn_ops_cached(complex(zeta2), cutoff.max_photons)
    return complex(
        np.einsum("ijkl,ki,lj->", entries.reshape(d, d, d, d), k1, k2,
                  optimize=True)
    )


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) || a - b ||_1 via eigenvalues of the Hermitian difference."""
    _check_same_space(a, b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.entries - b.entries))))


def qre(a: DensityOperator, b: DensityOperator, *, base: float = 2.0) -> float:
    """Quantum relative entropy tr[a log a - a log b], base-2 by default.

    ``b`` must be full rank on the truncated support; a singular reference
    raises :class:`RankDeficiencyError` rather than silently regularizing.
    """
    _check_same_space(a, b)
    wb, vb = np.linalg.eigh(b.entries)
    if wb[0] <= 0.0:
        raise RankDeficiencyError(
            f"reference state is rank deficient (min eigenvalue {wb[0]:.3e})"
        )
    wa, va = np.linalg.eigh(a.entries)
    wa = np.clip(wa, 0.0, None)
    ent_a = float(np.sum(wa[wa > 0] * np.log(wa[wa > 0])))
    log_b = (vb * np.log(wb)) @ vb.conj().T
    cross = float(np.trace(a.entries @ log_b).real)
    return (ent_a - cross) / np.log(base)


def chi2_numeric(a: DensityOperator, b: DensityOperator) -> float:
    """Quantum chi-squared divergence tr[a^2 b^-1] - 1."""
    _check_same_space(a, b)
    wb, vb = np.linalg.eigh(b.entries)
    if wb[0] <= 0.0:
        raise RankDeficiencyError(
            f"reference state is rank deficient (min eigenvalue {wb[0]:.3e})"
        )
    inv_b = (vb / wb) @ vb.conj().T
    return float(np.trace(a.entries @ a.entries @ inv_b).real) - 1.0


def _check_same_space(a: DensityOperator, b: DensityOperator):
    if a.num_modes != b.num_modes or a.cutoff != b.cutoff:
        raise ValueError("operators live on different truncated spaces")
