"""Dense multi-mode Fock algebra, kept as an independent test reference.

The package builds every unitary on modes (0, 1) of a two-mode space and
never materializes a state of more than two modes.  These helpers do the
same optics the slow way, over whole multi-mode spaces: spectator modes
and mode swaps by Kronecker products, conjugation by a dense unitary,
partial traces, and the two-mode state as one dense product of rail
images.  Tests compare the package's two-mode and rail-by-rail results
against them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from covert_bosonic.closed_form import LogicalQubit
from covert_bosonic.fock_core import DensityOperator, FockCutoff, annihilation_op


def mode_annihilation_op(mode: int, num_modes: int, cutoff: FockCutoff) -> np.ndarray:
    """Annihilation operator acting on one mode of a multi-mode space."""
    if not 0 <= mode < num_modes:
        raise ValueError(f"mode {mode} out of range for {num_modes} modes")
    d = cutoff.dim
    op = np.array([[1.0 + 0.0j]])
    for i in range(num_modes):
        op = np.kron(op, annihilation_op(cutoff) if i == mode else np.eye(d))
    return op


def dual_rail_density(qubit: LogicalQubit, cutoff: FockCutoff) -> DensityOperator:
    """Two-mode state of a dual-rail qubit: logical |0> = |01>, |1> = |10>.

    The only nonzero entries are <01|rho|01> = |alpha|^2, <10|rho|10> =
    |beta|^2 and the coherence <01|rho|10> = gamma (plus its conjugate).
    """
    d = cutoff.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    i01 = 0 * d + 1
    i10 = 1 * d + 0
    m[i01, i01] = qubit.alpha_sq
    m[i10, i10] = qubit.beta_sq
    m[i01, i10] = qubit.gamma
    m[i10, i01] = np.conj(qubit.gamma)
    return DensityOperator(2, cutoff, m, 0.0)


def two_mode(qubit: LogicalQubit, rail: dict) -> np.ndarray:
    """Dense two-mode output from one rail's images of the basis operators
    |x><x'| (keyed (x, x')): the logical matrix element (x, x') weights
    kron(image (x, x'), image (1-x, 1-x')), summed as one einsum over all
    d^4 entries and made Hermitian."""
    basis = ((0, 0), (0, 1), (1, 0), (1, 1))
    weights = np.array([qubit.alpha_sq, qubit.gamma, np.conj(qubit.gamma), qubit.beta_sq])
    left = np.stack([rail[b] for b in basis]) * weights[:, None, None]
    right = np.stack([rail[(1 - x, 1 - xp)] for x, xp in basis])
    d = left.shape[1]
    m = np.einsum("sij,skl->ikjl", left, right, optimize=True).reshape(d * d, d * d)
    return 0.5 * (m + m.conj().T)


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


def apply_unitary(state: DensityOperator, u: np.ndarray) -> DensityOperator:
    """Conjugate a state by a unitary: rho -> U rho U^dag."""
    out = u @ state.entries @ u.conj().T
    out = 0.5 * (out + out.conj().T)  # scrub roundoff asymmetry only
    return DensityOperator(state.num_modes, state.cutoff, out, state.truncation_leak)


def embed(core: np.ndarray, mode_a: int, mode_b: int, num_modes: int,
          cutoff: FockCutoff) -> np.ndarray:
    """A two-mode operator on modes (0, 1), such as the package's unitaries,
    acting on ``mode_a`` and ``mode_b`` of a ``num_modes``-mode space and as
    the identity on every other mode."""
    modes = (mode_a, mode_b)
    if mode_a == mode_b or not all(0 <= m < num_modes for m in modes):
        raise ValueError(f"modes {modes} must be distinct modes of {num_modes}")
    if modes == (0, 1) and num_modes == 2:
        return core
    d = cutoff.dim
    rest = [m for m in range(num_modes) if m not in modes]
    t = np.kron(core, np.eye(d ** len(rest))).reshape((d,) * (2 * num_modes))
    axes = np.argsort([mode_a, mode_b, *rest]).tolist()
    t = t.transpose(axes + [num_modes + a for a in axes])
    return t.reshape(d**num_modes, d**num_modes)
