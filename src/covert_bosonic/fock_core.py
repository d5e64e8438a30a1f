"""Truncated Fock-space linear algebra for small bosonic systems.

Operators are exchanged as dense complex matrices over the photon-number
basis |0>, ..., |N> of each mode, with multi-mode states indexed in
row-major mode order (the first mode is the slowest index).  States carry
an explicit ``truncation_leak`` so callers can tell how much probability
mass fell above the cutoff and escalate N when needed.

Every optical stage the package simulates couples one signal mode with one
ancilla, so the beamsplitter and amplifier unitaries are built on modes
(0, 1) of a two-mode space and nowhere else; their ``(mode_a, mode_b,
num_modes)`` arguments must be ``(0, 1, 2)`` and remain only for existing
positional callers.

The algebra underneath runs on photon-number sectors.  A beamsplitter
conserves the photon number of its two modes (an amplifier their
difference), so each unitary is a stack of sector blocks, never an
exponential of the whole space.  Each sector's generator is its strength
times a fixed tri-diagonal matrix, whose eigensystem is computed once per
cutoff and cached; a new transmittance or gain costs one phase per
eigenvalue and one batched product over the blocks.  A state finds
its blocks once, at construction: the sectors of equal total photon number
when its matrix vanishes off them (every state the optics here produce),
otherwise the whole space as one block.  Validation, the divergences and
the characteristic function of a :class:`DensityOperator` then read only
those blocks.  A dual-rail input leaves such a channel's two-mode output
tri-diagonal, a diagonal and one photon-exchange coherence per (f, g); the
closed forms and the oracle's numeric states alike fill that layout,
:class:`TriDiagonalWillieState`.  The layout is a checked state in its own
right: it validates each sector as a tri-diagonal matrix and carries a
two-mode block map, so the characteristic function and the divergences
read its entries directly.  Only ``dense()`` makes its matrix.

The characteristic function's displacement factors are exponentials of
nilpotent ladder operators, finite sums (:func:`creation_exponential`), so
no general matrix exponential is needed and numpy suffices.

All objects are immutable after construction and all operations are pure
functions, so evaluations are safe to run in parallel over parameter
grids.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "DEFAULT_MAX_PHOTONS",
    "FockCutoff",
    "ChannelParams",
    "DensityOperator",
    "StateValidationError",
    "RankDeficiencyError",
    "TruncationError",
    "annihilation_op",
    "creation_exponential",
    "thermal_occupation",
    "thermal_state",
    "photon_exchange_indices",
    "TriDiagonalWillieState",
    "tensor",
    "beamsplitter_unitary",
    "two_mode_amplifier_unitary",
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
# Largest change of the char fn, cutoff N against N - 2, counted as converged.
_CHAR_FN_TOL = 1e-6


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
        n = self.max_photons
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"max_photons must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"max_photons must be >= 1, got {n}")
        object.__setattr__(self, "max_photons", int(n))

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

    The checks run block by block over the state's photon-number sectors
    (see the module docstring); an entry off them, however small, makes the
    whole space one block.
    """

    num_modes: int
    cutoff: FockCutoff
    entries: np.ndarray
    truncation_leak: float = 0.0

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("num_modes must be positive")
        leak = self.truncation_leak
        if not (math.isfinite(leak) and 0.0 <= leak <= 1.0):
            raise ValueError(f"truncation_leak must be finite and in [0, 1], got {leak!r}")
        dim = self.cutoff.dim ** self.num_modes
        m = np.ascontiguousarray(self.entries, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim}, got {m.shape}")
        sectors = _photon_number_sectors(self.num_modes, self.cutoff.max_photons)
        values = m[sectors[1], sectors[2]]
        # Every nonzero entry lies in a sector iff the sectors hold as many
        # nonzero parts (real and imaginary counted apart) as the matrix.
        if np.count_nonzero(values.view(float)) != np.count_nonzero(m.view(float)):
            sectors, values = _whole_space(dim), m.ravel()
        # A NaN counts as nonzero, so a non-finite entry off the sectors has
        # already made the whole space one block: checking the in-block
        # values checks every entry.
        if not np.isfinite(values).all():
            raise StateValidationError("operator has non-finite entries")
        # Private: the block map and the in-block entries it selects.
        object.__setattr__(self, "_sectors", sectors)
        object.__setattr__(self, "_values", values)
        for block in _blocks(self):
            if np.max(np.abs(block - block.conj().T)) > _HERMITICITY_TOL:
                raise StateValidationError("operator is not Hermitian to 1e-12")
            # Cholesky of the shifted block succeeds iff every eigenvalue
            # exceeds -_PSD_TOL, several times cheaper than an eigensolver.
            try:
                np.linalg.cholesky(block + _PSD_TOL * np.eye(len(block)))
            except np.linalg.LinAlgError:
                _refuse_negative(block)
        tr = float(np.trace(m).real)
        if not (1.0 - self.truncation_leak - _TRACE_TOL <= tr <= 1.0 + _TRACE_TOL):
            raise StateValidationError(
                f"trace {tr!r} outside [1 - leak, 1 + 1e-12] with leak "
                f"{self.truncation_leak!r}"
            )
        m.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.cutoff.dim ** self.num_modes


def annihilation_op(cutoff: FockCutoff) -> np.ndarray:
    """Single-mode annihilation operator: a|k> = sqrt(k)|k-1>."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff.dim)), 1).astype(complex)


def creation_exponential(w: complex | np.ndarray, cutoff: FockCutoff) -> np.ndarray:
    """exp(w a^dag) on the truncated single-mode space, for a scalar ``w``
    or stacked over an array of them (shape ``w.shape + (N+1, N+1)``).

    a^dag is nilpotent there, so the exponential is its Taylor sum up to
    k = N, and (a^dag)^k has one nonzero diagonal: entry (m, n), m >= n, is
    the one term w^k sqrt(m!/n!) / k! with k = m - n.  Column n is thus the
    running product down its rows of w sqrt(m) / (m - n) from row n + 1.
    w = 0 gives the identity exactly; a non-finite ``w`` raises
    ``ValueError``.
    """
    w = np.asarray(w, dtype=complex)
    if not np.isfinite(w).all():
        raise ValueError(f"w must be finite, got {w}")
    m = np.arange(cutoff.dim)[:, None]
    k = m - np.arange(cutoff.dim)
    step = np.where(k > 0, w[..., None, None] * np.sqrt(m) / np.maximum(k, 1), 1.0)
    return np.tril(np.cumprod(step, axis=-2))


def thermal_occupation(k: np.ndarray | int, nbar: float) -> np.ndarray | float:
    """Photon-number distribution of a thermal state: nbar^k/(1+nbar)^(k+1)."""
    return nbar**k / (1.0 + nbar) ** (np.asarray(k) + 1)


def thermal_state(nbar: float, cutoff: FockCutoff) -> DensityOperator:
    """Single-mode thermal state with mean photon number ``nbar``, truncated.

    Diagonal in the Fock basis; the geometric tail above the cutoff is
    reported as the truncation leak.
    """
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
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


@dataclass(frozen=True)
class TriDiagonalWillieState:
    """Sparse tri-diagonal representation of the warden-side output state.

    ``diag[f, g]`` is <fg|rho|fg>; ``upper[f, g]`` is <fg|rho|f+1,g-1>
    (zero where g = 0 or f+1 exceeds the cutoff); the lower coherences are
    the conjugates of the matching upper entries.  Total photon number f+g
    is conserved between bra and ket on every nonzero entry.

    The layout is a checked state, held to the criteria of
    :class:`DensityOperator` without building its matrix: both arrays must
    be (N+1) x (N+1) (``ValueError``), finite, with ``upper`` zero where
    the docstring above says so (``ValueError``), a real diagonal, the
    trace at most 1 + 1e-12, and every sector of equal f + g, a Hermitian
    tri-diagonal matrix over |f, K-f>, positive semi-definite to 1e-10
    (:class:`StateValidationError`).  The arrays are stored read-only.
    """

    cutoff: FockCutoff
    diag: np.ndarray
    upper: np.ndarray
    num_modes = 2

    def __post_init__(self):
        d = self.cutoff.dim
        diag, upper = np.asarray(self.diag), np.asarray(self.upper)
        if diag.shape != (d, d) or upper.shape != (d, d):
            raise ValueError(f"diag and upper must be {d}x{d}, got "
                             f"{diag.shape} and {upper.shape}")
        if not (np.isfinite(diag).all() and np.isfinite(upper).all()):
            raise StateValidationError("layout has non-finite entries")
        if np.any(upper[:, 0]) or np.any(upper[-1]):
            raise ValueError("upper must vanish where g = 0 or f = max_photons")
        # <fg|rho|fg> - its conjugate, as DensityOperator measures it.
        if 2.0 * np.max(np.abs(np.imag(diag))) > _HERMITICITY_TOL:
            raise StateValidationError("operator is not Hermitian to 1e-12")
        diag = np.array(np.real(diag), dtype=float)
        upper = np.array(upper, dtype=complex)
        _check_layout_psd(diag, upper)
        tr = float(diag.sum())
        if not 0.0 <= tr <= 1.0 + _TRACE_TOL:
            raise StateValidationError(f"trace {tr!r} outside [0, 1 + 1e-12]")
        for name, a in (("diag", diag), ("upper", upper)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        # Private, as in DensityOperator: the block map, sectors of f + g.
        object.__setattr__(self, "_sectors", _photon_number_sectors(2, d - 1))

    @cached_property
    def _values(self) -> np.ndarray:
        """The in-block entries: diagonal, exchange pairs, conjugates, zeros."""
        pairs, where, *_ = _layout_coordinates(self.cutoff.max_photons)
        upper = self.upper.ravel()[pairs]
        values = np.zeros(len(self._sectors[1]), dtype=complex)
        values[where] = np.concatenate([self.diag.ravel(), upper, upper.conj()])
        values.setflags(write=False)
        return values

    @property
    def truncation_leak(self) -> float:
        return float(max(0.0, 1.0 - self.diag.sum()))

    def dense(self) -> np.ndarray:
        return _scatter(self)

    def to_density_operator(self) -> DensityOperator:
        return DensityOperator(2, self.cutoff, self.dense(), self.truncation_leak)


def _check_layout_psd(diag: np.ndarray, upper: np.ndarray) -> None:
    """Refuse a layout with a sector that has an eigenvalue below -1e-10.

    Sector K is tri-diagonal with a_i = diag and b_i = upper at its i-th
    state (f_0 + i, K - f_0 - i).  Its shift by 1e-10 is positive definite
    iff every pivot p_0 = a_0 + 1e-10, p_i = a_i + 1e-10 - |b_(i-1)|^2 /
    p_(i-1) is positive: the shifted Cholesky of :class:`DensityOperator`
    on all sectors at once, with an eigendecomposition only on failure."""
    idx = _chains(-1, len(diag) - 1)[0]
    pad = idx < 0
    # Padding continues each sector with a decoupled unit entry.
    a = np.where(pad, 1.0, diag.ravel()[idx]) + _PSD_TOL
    b2 = np.where(pad, 0.0, np.abs(upper.ravel()[idx]) ** 2)
    p = a[:, 0]
    ok = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, a.shape[1]):
            p = a[:, i] - b2[:, i - 1] / p
            ok &= p > 0.0
    for k in np.flatnonzero(~ok):
        cells = idx[k, ~pad[k]]
        b = upper.ravel()[cells][:-1]
        _refuse_negative(np.diag(diag.ravel()[cells]) + np.diag(b, 1) + np.diag(b.conj(), -1))


def _refuse_negative(block: np.ndarray) -> None:
    """Refuse a Hermitian block with an eigenvalue below -1e-10, never
    clipped: such an eigenvalue means an upstream bug."""
    low = np.linalg.eigvalsh(block)[0]
    if low < -_PSD_TOL:
        raise StateValidationError(f"operator has eigenvalue {low:.3e} < -1e-10") from None


@lru_cache(maxsize=8)
def _layout_coordinates(max_photons: int) -> tuple:
    """The flat positions in ``upper`` of the exchange pairs, then the
    positions among the sectors' in-block entries of a layout's diagonal,
    pairs and their transposes, and the :func:`_block_coordinates` there."""
    rows, cols = photon_exchange_indices(FockCutoff(max_photons))
    diagonal = np.arange((max_photons + 1) ** 2)
    bra = np.concatenate([diagonal, rows, cols])
    ket = np.concatenate([diagonal, cols, rows])
    _, chain, position = _chains(-1, max_photons)
    sizes = np.bincount(chain)
    start = np.cumsum(sizes**2) - sizes**2
    where = start[chain[bra]] + sizes[chain[bra]] * position[bra] + position[ket]
    out = (rows, where, *(a[where] for a in _block_coordinates(max_photons, False)))
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=4)
def _block_coordinates(max_photons: int, whole: bool) -> tuple:
    """(f, g, fp, gp, low) of every in-block entry <f g|rho|fp gp> of the
    two-mode sectors or, with ``whole``, of the whole space; ``low`` marks
    those inside cutoff N - 2."""
    d = max_photons + 1
    _, rows, cols = _whole_space(d * d) if whole else _photon_number_sectors(2, max_photons)
    out = (*np.divmod(rows, d), *np.divmod(cols, d))
    out += (np.max(out, axis=0) <= max_photons - 2,)
    for a in out:
        a.setflags(write=False)
    return out


# A block map is (sizes, rows, cols): the sizes of the diagonal blocks of a
# matrix, and the row and column of every entry inside a block, block by
# block and row-major within each.


@lru_cache(maxsize=16)
def _photon_number_sectors(num_modes: int, max_photons: int) -> tuple:
    """Block map of the sectors of equal total photon number of a
    ``num_modes``-mode space, in increasing photon number, each in
    increasing basis index."""
    d = max_photons + 1
    total = np.indices((d,) * num_modes).sum(axis=0).ravel()
    order = np.argsort(total, kind="stable")
    sizes = np.bincount(total)
    sectors = np.split(order, np.cumsum(sizes)[:-1])
    rows = np.concatenate([np.repeat(s, len(s)) for s in sectors])
    cols = np.concatenate([np.tile(s, len(s)) for s in sectors])
    for a in (rows, cols):
        a.setflags(write=False)
    return tuple(sizes.tolist()), rows, cols


@lru_cache(maxsize=2)
def _whole_space(dim: int) -> tuple:
    """Block map of the whole space as one block."""
    rows, cols = np.divmod(np.arange(dim * dim), dim)
    for a in (rows, cols):
        a.setflags(write=False)
    return (dim,), rows, cols


def _blocks(state: "DensityOperator") -> Iterable[np.ndarray]:
    """The diagonal blocks of a state, as views of its in-block entries."""
    start = 0
    for s in state._sectors[0]:
        yield state._values[start:start + s * s].reshape(s, s)
        start += s * s


def _paired_blocks(a: "DensityOperator", b: "DensityOperator"):
    """Matching diagonal blocks of two states on one space: their shared
    block map, or the whole matrices when the maps differ."""
    if a.num_modes != b.num_modes or a.cutoff != b.cutoff:
        raise ValueError("operators live on different truncated spaces")
    if a._sectors[0] == b._sectors[0]:  # on one space, equal sizes: one map
        return zip(_blocks(a), _blocks(b))
    return [(_scatter(a), _scatter(b))]


def _scatter(state) -> np.ndarray:
    """A state's matrix: its in-block entries in place, zero elsewhere."""
    _, rows, cols = state._sectors
    dim = state.cutoff.dim ** state.num_modes
    m = np.zeros((dim, dim), dtype=complex)
    m[rows, cols] = state._values
    return m


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product of two states; mode counts add."""
    if a.cutoff != b.cutoff:
        raise ValueError("cutoff mismatch in tensor product")
    leak = 1.0 - (1.0 - a.truncation_leak) * (1.0 - b.truncation_leak)
    return DensityOperator(
        a.num_modes + b.num_modes, a.cutoff, np.kron(a.entries, b.entries), leak
    )


@lru_cache(maxsize=8)
def _chains(step: int, max_photons: int) -> tuple:
    """(idx, chain, position) of the 2N+1 chains of constant g - ``step`` f,
    in increasing g - step f: row c of ``idx`` lists chain c's flat indices
    f d + g by increasing f, padded with -1, and index i sits at
    idx[chain[i], position[i]].  Step -1 gives the sectors of equal f + g."""
    d = max_photons + 1
    f, g = np.divmod(np.arange(d * d), d)
    chain = g - step * f + (max_photons if step == 1 else 0)
    # A chain starts at f = 0 or at the edge g = 0 (step +1), g = N (step -1).
    position = np.minimum(f, g if step == 1 else max_photons - g)
    idx = np.full((2 * d - 1, d), -1)
    idx[chain, position] = np.arange(d * d)
    for a in (idx, chain, position):
        a.setflags(write=False)
    return idx, chain, position


# i^k, exactly: the similarity D = diag(i^k) that makes a sector's generator
# symmetric (see _sector_eigensystems).
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@lru_cache(maxsize=8)
def _sector_eigensystems(step: int, max_photons: int) -> tuple:
    """(D V, mu) for every chain of :func:`_chains`, a sector of the
    generator X - X^dag of :func:`_sector_blocks`, zero-padded.

    A sector's generator is real, antisymmetric and tri-diagonal with
    sub-diagonal x_k, so with D = diag(i^k) it equals D (-i T) D^-1 for the
    real symmetric tri-diagonal T with off-diagonals x_k and zero diagonal.
    T = V diag(mu) V^T gives exp(s (X - X^dag)) = (D V) e^(-i s mu) (D V)^dag
    on the sector, for any strength s.  Each T is at most (N+1) x (N+1),
    small enough for a dense symmetric eigensolver."""
    idx = _chains(step, max_photons)[0]
    d = max_photons + 1
    left = np.zeros((len(idx), d, d), dtype=complex)
    mu = np.zeros((len(idx), d))
    for c, row in enumerate(idx):
        f, g = np.divmod(row[row >= 0], d)
        x = np.sqrt((f[:-1] + 1.0) * np.maximum(g[:-1], g[1:]))
        n = len(f)
        mu[c, :n], v = np.linalg.eigh(np.diag(x, 1) + np.diag(x, -1))
        left[c, :n, :n] = _I_POWERS[np.arange(n) % 4, None] * v
    for a in (left, mu):
        a.setflags(write=False)
    return left, mu


def _sector_blocks(strength: float, step: int, max_photons: int) -> np.ndarray:
    """exp(strength (X - X^dag)) on a two-mode space, X = a^dag b for
    ``step`` -1 and a^dag b^dag for ``step`` +1, as real blocks (2N+1, N+1,
    N+1), one per chain of :func:`_chains`; padding entries are never read.

    X takes |f, g> to sqrt((f+1) max(g, g+step)) |f+1, g+step> inside the
    cutoff, so each chain is a sector.  Strength 0 is the identity exactly."""
    left, mu = _sector_eigensystems(step, max_photons)
    if strength == 0.0:
        return np.broadcast_to(np.eye(max_photons + 1), left.shape)
    # The exponential of a real generator is real: drop the roundoff the
    # complex similarity leaves in the imaginary part.
    phases = np.exp(-1j * strength * mu)[:, None, :]
    return ((left * phases) @ left.conj().swapaxes(1, 2)).real


def _beamsplitter_blocks(eta: float, max_photons: int) -> tuple:
    """(blocks, step) of :func:`beamsplitter_unitary`."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    parity = (-1.0) ** (_chains(-1, max_photons)[0] % (max_photons + 1))  # of mode 1
    return _sector_blocks(np.arccos(np.sqrt(eta)), -1, max_photons) * parity[:, :, None], -1


def _amplifier_blocks(gain: float, max_photons: int) -> tuple:
    """(blocks, step) of :func:`two_mode_amplifier_unitary`."""
    if not (math.isfinite(gain) and gain >= 1.0):
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    return _sector_blocks(np.arccosh(np.sqrt(gain)), 1, max_photons), 1


def _unitary(blocks: np.ndarray, step: int) -> np.ndarray:
    """The dense two-mode matrix with ``blocks`` on the chains of ``step``."""
    d = blocks.shape[1]
    idx = _chains(step, d - 1)[0]
    rows, cols = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
    inside = (rows >= 0) & (cols >= 0)
    u = np.zeros((d * d, d * d), dtype=complex)
    u[rows[inside], cols[inside]] = blocks[inside]
    return u


def _check_two_mode(mode_a: int, mode_b: int, num_modes: int) -> None:
    if (mode_a, mode_b, num_modes) != (0, 1, 2):
        raise ValueError(
            "unitaries are built on modes (0, 1) of a two-mode space only, "
            f"got modes ({mode_a}, {mode_b}) of {num_modes}"
        )


def beamsplitter_unitary(
    eta: float, mode_a: int, mode_b: int, num_modes: int, cutoff: FockCutoff
) -> np.ndarray:
    """Beamsplitter of transmittance ``eta`` on a two-mode space.

    Only ``(mode_a, mode_b, num_modes) = (0, 1, 2)`` is built (signal on
    mode 0, ancilla on mode 1); any other triple raises ``ValueError``.
    The mode arguments remain only so that positional callers keep working.

    Output convention (Heisenberg picture, with a = input on mode 0 and
    b = input on mode 1):

        mode 0 out:  sqrt(eta) a + sqrt(1-eta) b       (transmitted port)
        mode 1 out:  sqrt(1-eta) a - sqrt(eta) b       (reflected port)

    The minus sign on the reflected port is realized by composing a Fock
    rotation exp(theta (a^dag b - a b^dag)) with a photon-number parity on
    mode 1; a plain rotation alone cannot produce this det = -1 mode map.
    The rotation conserves n_a + n_b: it is the scatter of its blocks on
    the sectors of equal n_a + n_b.  At eta = 1 (theta = 0) it is the
    parity map exactly.  It is exact on any state supported below the cutoff.
    """
    _check_two_mode(mode_a, mode_b, num_modes)
    return _unitary(*_beamsplitter_blocks(eta, cutoff.max_photons))


def two_mode_amplifier_unitary(
    gain: float, mode_a: int, mode_b: int, num_modes: int, cutoff: FockCutoff
) -> np.ndarray:
    """Two-mode squeezer realizing a quantum-limited amplifier of gain G.

    Built on modes (0, 1) of a two-mode space only, under the same mode
    contract as :func:`beamsplitter_unitary`; G must be finite and >= 1.
    Heisenberg map: mode 0 out = sqrt(G) a + sqrt(G-1) b^dag, with
    cosh(r) = sqrt(G).  The generator r (a^dag b^dag - a b) conserves
    n_a - n_b: the unitary is the scatter of its blocks on the sectors of
    equal n_a - n_b; at G = 1 it is the identity exactly.
    Every block is unitary on the truncated space, but the physical map
    does not conserve photon number; callers should check the output
    state's weight near the cutoff (its truncation leak) for G not close
    to 1.
    """
    _check_two_mode(mode_a, mode_b, num_modes)
    return _unitary(*_amplifier_blocks(gain, cutoff.max_photons))


@lru_cache(maxsize=512)
def _char_fn_ops_cached(z: complex, max_photons: int) -> np.ndarray:
    """Single-mode factor exp(-z* a) exp(z a^dag) of the anti-normally
    ordered characteristic function kernel; exp(-z* a) is the adjoint of
    exp(-z a^dag)."""
    cutoff = FockCutoff(max_photons)
    out = creation_exponential(-z, cutoff).conj().T @ creation_exponential(z, cutoff)
    out.setflags(write=False)
    return out


def anti_normal_char_fn(
    state: DensityOperator | TriDiagonalWillieState, zeta1: complex, zeta2: complex
) -> complex:
    """Anti-normally ordered characteristic function of a two-mode state:

        tr[rho exp(-z1* a1) exp(z1 a1^dag) exp(-z2* a2) exp(z2 a2^dag)]

    ``state`` is a two-mode :class:`DensityOperator` or a
    :class:`TriDiagonalWillieState`; both reduce to a list of entries with
    their photon numbers (the in-block entries of the former, the diagonal
    and exchange coherences of the latter, no dense matrix), and only those
    enter the trace.  The displacement factors are the exact exponentials
    of the truncated ladder operators (:func:`creation_exponential`).
    Convergence is estimated by recomputing with the cutoff lowered by two;
    if the two values differ by more than 1e-6 the result is rejected with
    :class:`TruncationError`, as is any cutoff below 3, which leaves no
    lower cutoff to compare with.
    """
    if state.num_modes != 2:
        raise ValueError("anti_normal_char_fn expects a two-mode state")
    if not (cmath.isfinite(zeta1) and cmath.isfinite(zeta2)):
        raise ValueError(f"zeta must be finite, got ({zeta1}, {zeta2})")
    n = state.cutoff.max_photons
    if n < 3:  # no cutoff n - 2 >= 1 to compare with
        raise TruncationError(f"characteristic function unchecked at N={n} < 3")
    values = state._values
    if isinstance(state, TriDiagonalWillieState):  # its pattern entries only
        _, where, *coordinates = _layout_coordinates(n)
        values = values[where]
    else:
        coordinates = _block_coordinates(n, len(state._sectors[0]) == 1)
    f, g, fp, gp, low = coordinates
    value = _char_fn_trace(values, f, g, fp, gp, n, zeta1, zeta2)
    ref = _char_fn_trace(values[low], f[low], g[low], fp[low], gp[low],
                         n - 2, zeta1, zeta2)
    if abs(value - ref) > _CHAR_FN_TOL:
        raise TruncationError(
            f"characteristic function not converged at N={n}: "
            f"|delta| = {abs(value - ref):.3e} > {_CHAR_FN_TOL:g}"
        )
    return complex(value)


def _char_fn_trace(values, f, g, fp, gp, max_photons, zeta1, zeta2) -> complex:
    # tr[rho (K1 x K2)] = sum of <f g|rho|fp gp> K1[fp, f] K2[gp, g] over the
    # given entries; avoids materializing the Kronecker-product kernel.
    k1 = _char_fn_ops_cached(complex(zeta1), max_photons)
    k2 = _char_fn_ops_cached(complex(zeta2), max_photons)
    return complex(np.sum(values * k1[fp, f] * k2[gp, g]))


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) || a - b ||_1 via eigenvalues of the Hermitian difference,
    block by block; a or b may be a :class:`TriDiagonalWillieState`."""
    return 0.5 * sum(float(np.sum(np.abs(np.linalg.eigvalsh(x - y))))
                     for x, y in _paired_blocks(a, b))


def qre(a: DensityOperator, b: DensityOperator, *, base: float = 2.0) -> float:
    """Quantum relative entropy tr[a log a - a log b], base-2 by default.

    ``b`` must be full rank on the truncated support; a singular reference
    raises :class:`RankDeficiencyError` rather than silently regularizing.
    ``base`` must be finite, positive and not 1; a or b may be a layout.
    """
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise ValueError(f"base must be finite, > 0 and != 1, got {base!r}")
    ent_a = cross = 0.0
    for x, wb, vb in _against_reference(a, b):
        wa = np.clip(np.linalg.eigvalsh(x), 0.0, None)
        ent_a += float(np.sum(wa[wa > 0] * np.log(wa[wa > 0])))
        log_b = (vb * np.log(wb)) @ vb.conj().T
        cross += float(np.trace(x @ log_b).real)
    return (ent_a - cross) / np.log(base)


def chi2_numeric(a: DensityOperator, b: DensityOperator) -> float:
    """Quantum chi-squared divergence tr[a^2 b^-1] - 1; a or b may be a layout."""
    total = 0.0
    for x, wb, vb in _against_reference(a, b):
        inv_b = (vb / wb) @ vb.conj().T
        total += float(np.trace(x @ x @ inv_b).real)
    return total - 1.0


def _against_reference(a: DensityOperator, b: DensityOperator) -> list:
    """(block of a, eigenvalues and eigenvectors of the matching block of
    b) for each shared block; b must be full rank."""
    pairs = [(x, *np.linalg.eigh(y)) for x, y in _paired_blocks(a, b)]
    low = min(float(wb[0]) for _, wb, _ in pairs)
    if low <= 0.0:
        raise RankDeficiencyError(
            f"reference state is rank deficient (min eigenvalue {low:.3e})"
        )
    return pairs
