"""Dense multi-mode Fock algebra, kept as an independent test reference.

The package builds every unitary on modes (0, 1) of a two-mode space and
never materializes a state of more than two modes.  These helpers do the
same optics the slow way, over whole multi-mode spaces: spectator modes
and mode swaps by Kronecker products, conjugation by a dense unitary,
partial traces, the two-mode state as one dense product of rail images,
a stage's shift map as one gather over all shifts, the characteristic
function as a plain trace over the whole matrix, and the divergences and
state checks block by block with general Hermitian eigensolvers.
Tests compare the package's two-mode, rail-by-rail and layout results
against them.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from covert_bosonic.closed_form import LogicalQubit
from covert_bosonic.fock_core import (
    DensityOperator,
    FockCutoff,
    RankDeficiencyError,
    StateValidationError,
    creation_exponential,
)


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


def char_fn_kernel(zeta: complex, max_photons: int) -> np.ndarray:
    """The whole single-mode kernel K = exp(-z* a) exp(z a^dag) at cutoff
    ``max_photons``, built from creation_exponential (exp(-z* a) is the
    adjoint of exp(-z a^dag))."""
    cut = FockCutoff(max_photons)
    return creation_exponential(-zeta, cut).conj().T @ creation_exponential(zeta, cut)


def char_fn_trace(entries: np.ndarray, zeta1: complex, zeta2: complex,
                  max_photons: int | None = None) -> complex:
    """Anti-normally ordered characteristic function of a two-mode matrix as
    the plain trace tr[rho (K1 x K2)] of the dense kernels of :func:`char_fn_kernel`.

    With ``max_photons`` the trace runs on the entries whose photon numbers
    are all at most it, with the kernels of that cutoff; by default on all."""
    d = math.isqrt(len(entries))
    n = d - 1 if max_photons is None else max_photons
    rho = entries.reshape((d,) * 4)[:n + 1, :n + 1, :n + 1, :n + 1].reshape((n + 1)**2, -1)
    k1, k2 = (char_fn_kernel(z, n) for z in (zeta1, zeta2))
    return complex(np.einsum("ij,ji->", rho, np.kron(k1, k2)))


def sector_eigensystems(step: int, max_photons: int) -> tuple:
    """(D V, mu) of every chain of fock_core._chains, one dense symmetric
    eigensolve per chain on its own tri-diagonal T: the per-chain reference
    for the stacked build."""
    from covert_bosonic.fock_core import _chains

    idx = _chains(step, max_photons)[0]
    d = max_photons + 1
    left = np.zeros((len(idx), d, d), dtype=complex)
    mu = np.zeros((len(idx), d))
    for c, row in enumerate(idx):
        f, g = np.divmod(row[row >= 0], d)
        x = np.sqrt((f[:-1] + 1.0) * np.maximum(g[:-1], g[1:]))
        n = len(f)
        mu[c, :n], v = np.linalg.eigh(np.diag(x, 1) + np.diag(x, -1))
        left[c, :n, :n] = np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(n) % 4, None] * v
    return left, mu


def stage_transfer(stage: tuple, max_photons: int, inputs: int) -> tuple:
    """(M, rows) of oracle._stage_transfer as one gather over all 2d - 1
    shifts at once, (2d - 1) x inputs x (ancilla inputs) index arrays and a
    single stacked product: the one-shot reference for the grouped build."""
    from covert_bosonic.fock_core import _chains, thermal_occupation
    from covert_bosonic.oracle import _SIGNAL

    builder, param, nbar, keep = stage
    blocks, step = builder(param, max_photons, inputs)
    _, chain, position = _chains(step, max_photons)
    tau = -step
    signal = keep == _SIGNAL
    sigma = 1 if signal else tau
    d = max_photons + 1
    w = thermal_occupation(np.arange(d), nbar)
    k = np.flatnonzero(w)[None, None, :]
    s = np.arange(2 * d - 1)[:, None, None]
    i = np.arange(inputs)[None, :, None]
    rows = s - (d - 1 if sigma == 1 else 0) + sigma * i
    traced = k + tau * (i - rows) if signal else i + tau * (k - rows)
    inside = (rows >= 0) & (rows < d) & (traced >= 0) & (traced < d)
    out = np.where(inside, rows * d + traced if signal else traced * d + rows, 0)
    col = i * d + k
    e = np.where(inside, blocks[chain[col], position[out], position[col]], 0.0)
    m = (e * w[k]) @ e.transpose(0, 2, 1)
    return m, np.clip(rows[:, :, 0], 0, d - 1)


def paired_blocks(a, b) -> list:
    """Matching blocks of two states on one space, trimmed of padding: block
    by block on their shared table, or the whole matrices when one of them
    is a single block and the other is not."""
    if a.num_modes != b.num_modes or a.cutoff != b.cutoff:
        raise ValueError("operators live on different truncated spaces")
    if a._idx.shape != b._idx.shape:
        return [(a.entries, b.entries)]
    sizes = np.count_nonzero(a._idx >= 0, axis=1)
    return [(x[:n, :n], y[:n, :n]) for x, y, n in zip(a._blocks, b._blocks, sizes)]


def reference_blocks(a, b) -> list:
    """(block of a, eigenvalues and eigenvectors of b's matching block) per
    shared block, b full rank, each block of b diagonalized by a dense
    Hermitian eigensolver."""
    out = [(x, *np.linalg.eigh(y)) for x, y in paired_blocks(a, b)]
    low = min(float(w[0]) for _, w, _ in out)
    if low <= 0.0:
        raise RankDeficiencyError(f"reference state is rank deficient (min eigenvalue {low:.3e})")
    return out


def trace_distance(a, b) -> float:
    """(1/2) || a - b ||_1, one Hermitian eigensolve per block."""
    return 0.5 * sum(float(np.sum(np.abs(np.linalg.eigvalsh(x - y))))
                     for x, y in paired_blocks(a, b))


def qre(a, b, base: float = 2.0) -> float:
    """tr[a log a - a log b], the entropy and the log of b block by block."""
    ent_a = cross = 0.0
    for x, w, v in reference_blocks(a, b):
        wa = np.clip(np.linalg.eigvalsh(x), 0.0, None)
        ent_a += float(np.sum(wa[wa > 0] * np.log(wa[wa > 0])))
        cross += float(np.trace(x @ ((v * np.log(w)) @ v.conj().T)).real)
    return (ent_a - cross) / np.log(base)


def chi2_numeric(a, b) -> float:
    """tr[a^2 b^-1] - 1, the inverse of b block by block."""
    return sum(float(np.trace(x @ x @ ((v / w) @ v.conj().T)).real)
               for x, w, v in reference_blocks(a, b)) - 1.0


def check_blocks(blocks: np.ndarray, idx: np.ndarray) -> None:
    """The block checks on any stack: Hermitian to 1e-12 in row slices,
    then positive semi-definite to 1e-10 by a shifted Cholesky of groups of
    blocks, and on its failure the lowest eigenvalue over the whole stack."""
    width = idx.shape[1]
    rows, group = (max(1, 2**14 // (n * width)) for n in (len(idx), width))
    for r in range(0, width, rows):
        x, y = blocks[:, r:r + rows], blocks[:, :, r:r + rows].conj().swapaxes(1, 2)
        if np.max(np.abs(x - y)) > 1e-12:
            raise StateValidationError("operator is not Hermitian to 1e-12")
    if len(idx) > 1:
        try:
            for g in range(0, len(idx), group):
                shift = np.where(idx[g:g + group] < 0, 1.0, 1e-10)[:, :, None]
                np.linalg.cholesky(blocks[g:g + group] + shift * np.eye(width))
            return
        except np.linalg.LinAlgError:
            pass
    low = np.linalg.eigvalsh(blocks).min()
    if low < -1e-10:
        raise StateValidationError(f"operator has eigenvalue {low:.3e} < -1e-10")
