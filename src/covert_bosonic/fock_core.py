"""Truncated Fock-space linear algebra for small bosonic systems.

Matrices are dense, complex for states and real for unitaries, over the
photon-number basis |0>, ..., |N> of each mode, with multi-mode states
indexed in row-major mode order (the first mode is the slowest index).
States carry an explicit ``truncation_leak`` so callers can tell how much
probability mass fell above the cutoff and escalate N when needed.

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
eigenvalue and batched products over groups of blocks, forming only the
leading columns a caller asks for (an input of few photons needs few;
the dense unitaries ask for all).  One table, grouping the flat basis
indices by a conserved number, describes every such structure: the
chains of each unitary, and the sectors of equal total photon number of
a state.  A state keeps only its blocks, as one padded
stack on its table: the sectors when its matrix vanishes off them (every
state the optics here produce), otherwise the whole space as one block.
Validation, products and divergences read those blocks.  A diagonal
reference (the thermal product) is read from its diagonal; any other is
diagonalized block by block in each call.  Spectra come from
``_spectrum``, and the checks take a non-diagonal stack's lowest
eigenvalue from it: a tri-diagonal stack (a layout, or a layout minus a
diagonal reference) is one real eigensolve.  The matrix is the
``entries`` property, scattered anew on each read (one block is its own).
A dual-rail input leaves such a channel's two-mode output tri-diagonal, a
diagonal and one photon-exchange coherence per (f, g); the closed forms
and the oracle's numeric states alike are that layout,
:class:`TriDiagonalWillieState`.  The layout is a checked state in its own
right: it validates each sector as a tri-diagonal matrix, the divergences
read its blocks, and the characteristic function, which takes no other
state, reads its two arrays directly.

The characteristic function's displacement factors are exponentials of
nilpotent ladder operators, finite sums (:func:`creation_exponential`), so
no general matrix exponential is needed and numpy suffices.  It takes
arrays of points as well as scalars, its kernels cached per tuple of
points: the three diagonals of each the trace reads, O(P (N+1)) for P
points, in O(P (N+1)^2) time.

All objects are immutable after construction and all operations are pure
functions, so evaluations are safe to run in parallel over parameter
grids.

:class:`ChannelParams` is defined in :mod:`covert_bosonic.covert_bounds`
and re-exported here, the package's one re-export, because the benchmark
builds its channels through this module; a benchmark change can drop it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .covert_bounds import ChannelParams

__all__ = [
    "DEFAULT_MAX_PHOTONS",
    "FockCutoff",
    "ChannelParams",
    "DensityOperator",
    "StateValidationError",
    "RankDeficiencyError",
    "TruncationError",
    "creation_exponential",
    "thermal_occupation",
    "thermal_state",
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


class _BlockState:
    """A state kept as a padded block stack ``_blocks`` on table ``_idx``."""

    @property
    def entries(self) -> np.ndarray:
        """The read-only matrix: a one-block state's block, else the blocks scattered anew."""
        m = self._blocks[0] if len(self._idx) == 1 else _scatter(self._blocks, self._idx)
        m.setflags(write=False)
        return m

    @cached_property
    def _diagonal(self) -> np.ndarray | None:
        """:func:`_padded_diagonal` of the state's own stack."""
        return _padded_diagonal(self._blocks, self._idx)


@dataclass(frozen=True, eq=False, init=False)
class DensityOperator(_BlockState):
    """Hermitian, PSD, trace-(almost-)one operator on a truncated multi-mode
    Fock space, built from its matrix ``entries``, ``(N+1)**num_modes``
    square; the basis index of a photon tuple (k_0, ..., k_{m-1}) is the
    row-major flattening with mode 0 slowest.  ``truncation_leak`` is the
    probability mass lost above the cutoff; the trace must lie in
    [1 - truncation_leak, 1 + 1e-12].

    The checks run block by block over the state's photon-number sectors
    (see the module docstring); an entry off them, however small, makes the
    whole space one block.  The state keeps the blocks, not the matrix, and
    equals only itself; ``dataclasses.replace`` refuses it.
    """

    num_modes: int
    cutoff: FockCutoff
    truncation_leak: float = 0.0

    def __init__(self, num_modes, cutoff, entries, truncation_leak=0.0):
        if num_modes < 1:
            raise ValueError("num_modes must be positive")
        leak = truncation_leak
        if not (math.isfinite(leak) and 0.0 <= leak <= 1.0):
            raise ValueError(f"truncation_leak must be finite and in [0, 1], got {leak!r}")
        dim = cutoff.dim ** num_modes
        m = np.ascontiguousarray(entries, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim}, got {m.shape}")
        m.setflags(write=False)
        idx = _sectors(num_modes, cutoff.max_photons)
        src, dst, _ = _cells(idx)
        blocks = np.zeros(idx.shape + idx.shape[1:], dtype=complex)
        blocks.put(src, m.take(dst))
        # Every nonzero entry lies in a sector iff the sectors hold as many
        # nonzero parts (real and imaginary counted apart) as the matrix.
        if np.count_nonzero(blocks.view(float)) != np.count_nonzero(m.view(float)):
            idx, blocks = np.arange(dim)[None], m[None]
        # A NaN counts as nonzero, so a non-finite entry off the sectors has already
        # made the whole space one block: checking the blocks checks every entry.
        _check_state(idx, blocks, leak)
        vars(self).update(vars(self._checked(num_modes, cutoff, idx, blocks, leak)))

    @classmethod
    def _checked(cls, num_modes, cutoff, idx, blocks, leak) -> "DensityOperator":
        """The state of a block stack on table ``idx`` that passes every check
        above, taken as it is."""
        self = object.__new__(cls)
        blocks.setflags(write=False)
        # Private: the photon-number table and the block stack on it.
        vars(self).update(num_modes=num_modes, cutoff=cutoff, truncation_leak=leak,
                          _idx=idx, _blocks=blocks)
        return self

    @property
    def dim(self) -> int:
        return self.cutoff.dim ** self.num_modes


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
    diag = np.asarray(thermal_occupation(np.arange(cutoff.dim), nbar), dtype=float)
    leak = float(max(0.0, 1.0 - diag.sum()))
    return DensityOperator(1, cutoff, np.diag(diag).astype(complex), leak)


@dataclass(frozen=True, eq=False)
class TriDiagonalWillieState(_BlockState):
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
    (:class:`StateValidationError`).  The arrays are stored read-only.  A
    layout equals only itself, and hashes by identity.
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
        for name, a in (("diag", np.array(np.real(diag), dtype=float)),
                        ("upper", np.array(upper, dtype=complex))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        # Private, as in DensityOperator: the table of the sectors of f + g.
        object.__setattr__(self, "_idx", _sectors(2, d - 1))
        if not _pivots_positive(self.diag, self.upper, self._idx):
            _check_blocks(self._blocks, self._idx)
        tr = float(self.diag.sum())
        if not 0.0 <= tr <= 1.0 + _TRACE_TOL:
            raise StateValidationError(f"trace {tr!r} outside [0, 1 + 1e-12]")

    @cached_property
    def _blocks(self) -> np.ndarray:
        """The sectors as a padded stack: ``diag`` on the diagonal of each,
        ``upper`` above it and its conjugate below, zero on the padding."""
        pad = self._idx < 0
        b = np.where(pad, 0.0, self.upper.ravel()[self._idx])[:, :-1]
        i = np.arange(pad.shape[1])
        blocks = np.zeros(pad.shape + pad.shape[1:], dtype=complex)
        blocks[:, i, i] = np.where(pad, 0.0, self.diag.ravel()[self._idx])
        blocks[:, i[:-1], i[1:]] = b
        blocks[:, i[1:], i[:-1]] = b.conj()
        blocks.setflags(write=False)
        return blocks

    @property
    def truncation_leak(self) -> float:
        return float(max(0.0, 1.0 - self.diag.sum()))

    def to_density_operator(self) -> DensityOperator:
        return DensityOperator._checked(2, self.cutoff, self._idx, self._blocks,
                                        self.truncation_leak)


def _pivots_positive(diag: np.ndarray, upper: np.ndarray, idx: np.ndarray) -> bool:
    """Whether every sector of a layout on table ``idx`` stays positive
    definite when shifted by 1e-10.

    Sector K is tri-diagonal with a_i = diag and b_i = upper at its i-th
    state (f_0 + i, K - f_0 - i).  Its shift is positive definite iff every
    pivot p_0 = a_0 + 1e-10, p_i = a_i + 1e-10 - |b_(i-1)|^2 / p_(i-1) is
    positive, on all sectors at once in O(d^2).  A layout that fails goes
    to :func:`_check_blocks`, which names its lowest eigenvalue."""
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
    return bool(ok.all())


def _groups(count: int, cells: int) -> list:
    """Slices of range(``count``) of at most 2^14 cells (or one item), ``cells`` per item."""
    size = max(1, 2**14 // cells)
    return [slice(g, g + size) for g in range(0, count, size)]


def _table(key: np.ndarray) -> tuple:
    """(idx, group, position) grouping the flat indices i by equal
    ``key[i]``: the groups in increasing key, each in increasing index.  Row
    g of ``idx`` lists group g padded with -1, and index i sits at
    idx[group[i], position[i]].  Every block structure here is such a table,
    and a block stack on it is (groups, width, width), zero on the padding."""
    order = np.argsort(key, kind="stable")
    _, group, sizes = np.unique(key, return_inverse=True, return_counts=True)
    position = np.empty_like(order)
    position[order] = np.arange(len(key)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx = np.full((len(sizes), sizes.max()), -1)
    idx[group, position] = np.arange(len(key))
    for a in (idx, group, position):
        a.setflags(write=False)
    return idx, group, position


@lru_cache(maxsize=16)
def _sectors(num_modes: int, max_photons: int) -> np.ndarray:
    """Table of the sectors of equal total photon number of a
    ``num_modes``-mode space."""
    d = max_photons + 1
    return _table(np.indices((d,) * num_modes).sum(axis=0).ravel())[0]


@lru_cache(maxsize=8)
def _chains(step: int, max_photons: int) -> tuple:
    """:func:`_table` of the 2N+1 chains of constant g - ``step`` f of a
    two-mode space, f d + g its flat index; step -1 gives the sectors of
    equal f + g."""
    f, g = np.divmod(np.arange((max_photons + 1) ** 2), max_photons + 1)
    return _table(g - step * f)


def _cells(idx: np.ndarray) -> tuple:
    """(src, dst, dim): the flat positions in a block stack on table ``idx`` of
    its cells off the padding, and of their entries in the dim x dim matrix."""
    return _cell_positions(idx.dtype.str, idx.shape, idx.tobytes())


@lru_cache(maxsize=16)
def _cell_positions(dtype: str, shape: tuple, table: bytes) -> tuple:
    """:func:`_cells`, cached per table, keyed by its contents."""
    idx = np.frombuffer(table, dtype=dtype).reshape(shape)
    dim, inside = int(idx.max()) + 1, (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
    out = np.flatnonzero(inside), (idx[:, :, None] * dim + idx[:, None, :])[inside], dim
    for a in out[:2]:
        a.setflags(write=False)
    return out


def _scatter(blocks: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The matrix of a block stack on table ``idx``, zero off the blocks, in its dtype."""
    src, dst, dim = _cells(idx)
    m = np.zeros((dim, dim), dtype=blocks.dtype)
    m.put(dst, blocks.take(src))
    return m


def _diagonals(blocks: np.ndarray) -> np.ndarray | None:
    """The diagonals of a block stack if they hold all its nonzero entries, else None."""
    main = np.diagonal(blocks, axis1=1, axis2=2)
    return main if np.count_nonzero(blocks) == np.count_nonzero(main) else None


def _padded_diagonal(blocks: np.ndarray, idx: np.ndarray) -> np.ndarray | None:
    """The real diagonal of each block of a stack on table ``idx``, padded
    with 1, if every block is diagonal; else None."""
    main = _diagonals(blocks)
    return None if main is None else np.where(idx < 0, 1.0, main.real)


def _check_blocks(blocks: np.ndarray, idx: np.ndarray) -> None:
    """Refuse a block stack on table ``idx`` that is not Hermitian to 1e-12
    or has an eigenvalue below -1e-10, naming the lowest over all blocks.
    Such an eigenvalue means an upstream bug and is never clipped.  Diagonal
    blocks are read from their diagonals, their eigenvalues.  Any other
    stack is tested for Hermiticity over :func:`_groups` of rows and takes
    its lowest eigenvalue from :func:`_spectrum`."""
    if (main := _diagonals(blocks)) is not None:
        if 2.0 * np.max(np.abs(main.imag)) > _HERMITICITY_TOL:
            raise StateValidationError("operator is not Hermitian to 1e-12")
        low = main.real.min()
    else:
        for c in _groups(idx.shape[1], idx.size):
            x, y = blocks[:, c], blocks[:, :, c].conj().swapaxes(1, 2)
            if np.max(np.abs(x - y)) > _HERMITICITY_TOL:
                raise StateValidationError("operator is not Hermitian to 1e-12")
        low = _spectrum(blocks, idx).min()
    if low < -_PSD_TOL:
        raise StateValidationError(f"operator has eigenvalue {low:.3e} < -1e-10")


def _check_state(idx: np.ndarray, blocks: np.ndarray, leak: float) -> None:
    """Refuse blocks on table ``idx`` that are not finite, fail :func:`_check_blocks`,
    or whose diagonals sum to a trace outside [1 - leak, 1 + 1e-12]."""
    if not np.isfinite(blocks).all():
        raise StateValidationError("operator has non-finite entries")
    _check_blocks(blocks, idx)
    tr = float(np.trace(blocks, axis1=1, axis2=2).sum().real)
    if not (1.0 - leak - _TRACE_TOL <= tr <= 1.0 + _TRACE_TOL):
        raise StateValidationError(
            f"trace {tr!r} outside [1 - leak, 1 + 1e-12] with leak {leak!r}")


def _paired_stacks(a: "DensityOperator", b: "DensityOperator") -> tuple:
    """(x, y, idx): the block stacks of two states on one space, on their
    shared table ``idx``, or their whole matrices as one block each when one
    of them is a single block and the other is not."""
    if a.num_modes != b.num_modes or a.cutoff != b.cutoff:
        raise ValueError("operators live on different truncated spaces")
    if a._idx.shape != b._idx.shape:  # sectors against the whole space
        x = a.entries
        return x[None], b.entries[None], np.arange(len(x))[None]
    return a._blocks, b._blocks, a._idx


def _trimmed(stack: np.ndarray, idx: np.ndarray) -> list:
    """The blocks of a stack on table ``idx``, trimmed of padding."""
    return [y[:n, :n] for y, n in zip(stack, np.count_nonzero(idx >= 0, axis=1))]


def _spectrum(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The eigenvalues of every block of a Hermitian stack on table ``idx``;
    padding adds zeros, which change neither sum |w| nor sum w log w.  A
    tri-diagonal stack is one real eigensolve: the diagonal phase similarity
    takes each coupling c to |c|.  Any other is solved block by block."""
    i = np.arange(x.shape[1])
    main, low = np.diagonal(x, axis1=1, axis2=2), x[:, i[1:], i[:-1]]
    if np.count_nonzero(x) > (np.count_nonzero(main) + np.count_nonzero(low)
                              + np.count_nonzero(x[:, i[:-1], i[1:]])):
        return np.concatenate([np.linalg.eigvalsh(y) for y in _trimmed(x, idx)])
    t = np.zeros(x.shape)  # eigvalsh reads the lower triangle, as for x
    t[:, i, i], t[:, i[1:], i[:-1]] = main.real, np.abs(low)
    return np.linalg.eigvalsh(t).ravel()


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product of two states; mode counts add.  The products a_ij b_kl
    are gathered into the blocks of the joint sectors (into one whole-space
    block if either state is one block) and checked; nothing is scattered."""
    if a.cutoff != b.cutoff:
        raise ValueError("cutoff mismatch in tensor product")
    modes = a.num_modes + b.num_modes
    if len(a._idx) == 1 or len(b._idx) == 1:
        idx, blocks = np.arange(a.dim * b.dim)[None], np.kron(a.entries, b.entries)[None]
    else:
        idx = _sectors(modes, a.cutoff.max_photons)
        src, dst, dim = _cells(idx)
        (r1, r2), (c1, c2) = (np.divmod(x, b.dim) for x in np.divmod(dst, dim))
        blocks = np.zeros(idx.shape + idx.shape[1:], dtype=complex)
        blocks.put(src, a.entries[r1, c1] * b.entries[r2, c2])
    leak = 1.0 - (1.0 - a.truncation_leak) * (1.0 - b.truncation_leak)
    _check_state(idx, blocks, leak)
    return DensityOperator._checked(modes, a.cutoff, idx, blocks, leak)


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
    small enough for a dense symmetric eigensolver, called once on the
    stack of the chains of each length."""
    idx = _chains(step, max_photons)[0]
    d = max_photons + 1
    f, g = np.divmod(idx, d)
    # x[c, k] couples the k-th and (k+1)-th states of chain c; none is read past its end.
    x = np.sqrt((f[:, :-1] + 1.0) * np.maximum(g[:, :-1], g[:, 1:]))
    sizes = (idx >= 0).sum(axis=1)
    left = np.zeros((len(idx), d, d), dtype=complex)
    mu = np.zeros((len(idx), d))
    for n in range(1, d + 1):  # chain lengths
        chains, k = np.flatnonzero(sizes == n), np.arange(n - 1)
        t = np.zeros((len(chains), n, n))
        t[:, k, k + 1] = t[:, k + 1, k] = x[chains, :n - 1]
        mu[chains, :n], v = np.linalg.eigh(t)
        left[chains, :n, :n] = _I_POWERS[np.arange(n) % 4, None] * v
    for a in (left, mu):
        a.setflags(write=False)
    return left, mu


def _sector_blocks(strength: float, step: int, max_photons: int, columns: int) -> np.ndarray:
    """exp(strength (X - X^dag)) on a two-mode space, X = a^dag b for
    ``step`` -1 and a^dag b^dag for ``step`` +1, as real blocks (2N+1, N+1,
    ``columns``), the leading columns of one block per chain of
    :func:`_chains`; padding entries are never read.  A chain lists its
    states in increasing mode-0 photon number f, so the leading columns
    hold every input with f < ``columns``.

    X takes |f, g> to sqrt((f+1) max(g, g+step)) |f+1, g+step> inside the
    cutoff, so each chain is a sector.  Strength 0 is the identity exactly.
    The product runs over :func:`_groups` of chains, one gemm per chain as
    over the whole stack."""
    left, mu = _sector_eigensystems(step, max_photons)
    if strength == 0.0:
        return np.broadcast_to(np.eye(max_photons + 1, columns), left.shape[:2] + (columns,))
    # The exponential of a real generator is real: drop the roundoff the
    # complex similarity leaves in the imaginary part.
    phases = np.exp(-1j * strength * mu)[:, None, :]
    out = np.empty(left.shape[:2] + (columns,))
    for c in _groups(len(left), left[0].size):
        out[c] = ((left[c] * phases[c]) @ left[c, :columns].conj().swapaxes(1, 2)).real
    return out


def _beamsplitter_blocks(eta: float, max_photons: int, columns: int) -> tuple:
    """(blocks, step) of :func:`beamsplitter_unitary`, ``columns`` leading
    columns of each block."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    parity = (-1.0) ** (_chains(-1, max_photons)[0] % (max_photons + 1))  # of mode 1
    blocks = _sector_blocks(np.arccos(np.sqrt(eta)), -1, max_photons, columns)
    return blocks * parity[:, :, None], -1


def _amplifier_blocks(gain: float, max_photons: int, columns: int) -> tuple:
    """(blocks, step) of :func:`two_mode_amplifier_unitary`, ``columns``
    leading columns of each block."""
    if not (math.isfinite(gain) and gain >= 1.0):
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    return _sector_blocks(np.arccosh(np.sqrt(gain)), 1, max_photons, columns), 1


def _unitary(blocks_of, param: float, modes: tuple, cutoff: FockCutoff) -> np.ndarray:
    """The scatter of the blocks ``blocks_of(param, N)`` builds, on modes
    ``(mode_a, mode_b, num_modes)``, which must be (0, 1, 2)."""
    if modes != (0, 1, 2):
        raise ValueError("unitaries are built on modes (0, 1) of a two-mode space only, "
                         "got modes ({}, {}) of {}".format(*modes))
    blocks, step = blocks_of(param, cutoff.max_photons, cutoff.dim)
    return _scatter(blocks, _chains(step, cutoff.max_photons)[0])


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
    the sectors of equal n_a + n_b, as float64.  At eta = 1 (theta = 0) it is
    the parity map exactly.  It is exact on any state supported below the cutoff.
    """
    return _unitary(_beamsplitter_blocks, eta, (mode_a, mode_b, num_modes), cutoff)


def two_mode_amplifier_unitary(
    gain: float, mode_a: int, mode_b: int, num_modes: int, cutoff: FockCutoff
) -> np.ndarray:
    """Two-mode squeezer realizing a quantum-limited amplifier of gain G.

    Built on modes (0, 1) of a two-mode space only, under the same mode
    contract as :func:`beamsplitter_unitary`; G must be finite and >= 1.
    Heisenberg map: mode 0 out = sqrt(G) a + sqrt(G-1) b^dag, with
    cosh(r) = sqrt(G).  The generator r (a^dag b^dag - a b) conserves
    n_a - n_b: the unitary is the scatter of its blocks on the sectors of
    equal n_a - n_b, as float64; at G = 1 it is the identity exactly.
    Every block is unitary on the truncated space, but the physical map
    does not conserve photon number; callers should check the output
    state's weight near the cutoff (its truncation leak) for G not close
    to 1.
    """
    return _unitary(_amplifier_blocks, gain, (mode_a, mode_b, num_modes), cutoff)


@lru_cache(maxsize=64)
def _char_fn_kernels(zetas: tuple, max_photons: int) -> tuple:
    """The diagonals K[m, m], K[m+1, m] and K[m, m+1] of the single-mode
    kernel K = exp(-z* a) exp(z a^dag), the only entries the trace reads,
    each stacked over the points z of ``zetas``: O(P (N+1)) kept for P points.

    exp(-z* a) is the adjoint of E(-z) = exp(-z a^dag), and E(-z) is E(z)
    with entry (j, m) negated where j - m is odd, bit for bit, so one
    :func:`creation_exponential` serves both factors and each diagonal is a
    column sum of an elementwise product of them, in O(P (N+1)^2) time."""
    e = creation_exponential(np.array(zetas, dtype=complex), FockCutoff(max_photons))
    j = np.arange(max_photons + 1)
    f = e.conj() * (-1.0) ** (j[:, None] - j)  # conj(E(-z)): K[m, n] = sum_j f[j, m] e[j, n]
    out = ((f * e).sum(axis=-2), (f[..., 1:] * e[..., :-1]).sum(axis=-2),
           (f[..., :-1] * e[..., 1:]).sum(axis=-2))
    for a in out:
        a.setflags(write=False)
    return out


def anti_normal_char_fn(
    state: TriDiagonalWillieState,
    zeta1: complex | np.ndarray,
    zeta2: complex | np.ndarray,
) -> complex | np.ndarray:
    """Anti-normally ordered characteristic function of a two-mode state:

        tr[rho exp(-z1* a1) exp(z1 a1^dag) exp(-z2* a2) exp(z2 a2^dag)]

    ``state`` is a :class:`TriDiagonalWillieState`: the trace runs over its
    diagonal and exchange coherences, each weighted by its photon numbers,
    with no dense matrix.  Any other state, a :class:`DensityOperator`
    included, raises ``TypeError``.  The displacement factors are the exact
    exponentials of the truncated ladder operators
    (:func:`creation_exponential`).

    ``zeta1`` and ``zeta2`` are scalars, giving a ``complex``, or arrays of
    one shape, giving a complex array of that shape, one value per point
    (zeta1[i], zeta2[i]), each equal bit for bit to the scalar call there.
    Every zeta must be finite (``ValueError``).  Convergence is estimated at
    every point by recomputing with the cutoff lowered by two; if the two
    values differ by more than 1e-6 at any point the whole evaluation is
    rejected with :class:`TruncationError`, which names the worst point, as
    is any cutoff below 3, which leaves no lower cutoff to compare with.
    """
    if not isinstance(state, TriDiagonalWillieState):
        raise TypeError("anti_normal_char_fn takes a TriDiagonalWillieState, "
                        f"got {type(state).__name__}")
    z1, z2 = np.asarray(zeta1, dtype=complex), np.asarray(zeta2, dtype=complex)
    if z1.shape != z2.shape:
        raise ValueError(f"zeta1 and zeta2 must have one shape, got {z1.shape} and {z2.shape}")
    if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
        raise ValueError(f"zeta must be finite, got ({zeta1}, {zeta2})")
    n = state.cutoff.max_photons
    if n < 3:  # no cutoff n - 2 >= 1 to compare with
        raise TruncationError(f"characteristic function unchecked at N={n} < 3")
    points = tuple(z1.ravel().tolist()), tuple(z2.ravel().tolist())
    value, ref = (_layout_trace(state.diag, state.upper,
                                *(_char_fn_kernels(z, m) for z in points))
                  for m in (n, n - 2))
    delta = np.abs(value - ref)
    if not np.all(delta <= _CHAR_FN_TOL):  # a NaN counts as unconverged
        worst = int(np.argmax(np.where(np.isnan(delta), np.inf, delta)))
        raise TruncationError(f"characteristic function not converged at N={n}: |delta| = "
                              f"{delta[worst]:.3e} > {_CHAR_FN_TOL:g} at zeta = "
                              f"({points[0][worst]}, {points[1][worst]})")
    return complex(value[0]) if z1.ndim == 0 else value.reshape(z1.shape)


def _layout_trace(diag, upper, k1, k2) -> np.ndarray:
    # tr[rho (K1 x K2)] = sum of <f g|rho|fp gp> K1[fp, f] K2[gp, g] over a
    # layout's entries inside the kernels' cutoff: three bilinear forms
    # sum x[f, g] u[f] v[g] per point of the diagonal kernels k1, k2 (see
    # _char_fn_kernels), the diagonal, then the pairs <f g|rho|f+1 g-1> with
    # K1[f+1, f] K2[g-1, g] and their conjugates with K1[f, f+1] K2[g, g-1].
    # Each form is one (1, d) @ (d, d) product and one row sum per point, so
    # each point's value does not depend on the other points.
    d = k1[0].shape[-1]
    pair = upper[:d - 1, 1:d]
    forms = ((diag[:d, :d], k1[0], k2[0]), (pair, k1[1], k2[2]), (pair.conj(), k1[2], k2[1]))
    return sum(((u[:, None] @ x)[:, 0] * v).sum(axis=-1) for x, u, v in forms)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) || a - b ||_1 from the eigenvalues of the Hermitian difference
    (see :func:`_spectrum`); a or b may be a :class:`TriDiagonalWillieState`."""
    x, y, idx = _paired_stacks(a, b)
    return 0.5 * float(np.sum(np.abs(_spectrum(x - y, idx))))


def qre(a: DensityOperator, b: DensityOperator, *, base: float = 2.0) -> float:
    """Quantum relative entropy tr[a log a - a log b], base-2 by default.

    ``b`` must be full rank on the truncated support; a singular reference
    raises :class:`RankDeficiencyError` rather than silently regularizing.
    ``base`` must be finite, positive and not 1; a or b may be a layout.
    Against a diagonal b the cross term is sum a_ii log b_i, else each
    block of a meets the log of b's block, built from its eigensystem.
    """
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise ValueError(f"base must be finite, > 0 and != 1, got {base!r}")
    x, idx, ref = _against_reference(a, b)
    wa = np.clip(_spectrum(x, idx), 0.0, None)
    ent_a = float(np.sum(wa[wa > 0] * np.log(wa[wa > 0])))
    if isinstance(ref, np.ndarray):
        cross = float(np.sum(np.diagonal(x, axis1=1, axis2=2).real * np.log(ref)))
    else:
        cross = sum(float(np.trace(y @ ((v * np.log(w)) @ v.conj().T)).real)
                    for y, (w, v) in zip(_trimmed(x, idx), ref))
    return (ent_a - cross) / np.log(base)


def chi2_numeric(a: DensityOperator, b: DensityOperator) -> float:
    """Quantum chi-squared divergence tr[a^2 b^-1] - 1; a or b may be a
    layout.  Against a diagonal b it is sum |a_ij|^2 / b_j - 1, else each
    block of a meets the inverse of b's block, built from its eigensystem."""
    x, idx, ref = _against_reference(a, b)
    if isinstance(ref, np.ndarray):
        return float(np.sum((x.real**2 + x.imag**2) / ref[:, None, :])) - 1.0
    return sum(float(np.trace(y @ y @ ((v / w) @ v.conj().T)).real)
               for y, (w, v) in zip(_trimmed(x, idx), ref)) - 1.0


def _against_reference(a: DensityOperator, b: DensityOperator) -> tuple:
    """(x, idx, ref): a's block stack on table ``idx`` (see
    :func:`_paired_stacks`) and one reading of b on that table, refused
    unless full rank.  ref is b's :func:`_padded_diagonal` if every block
    of b is diagonal, else each block's (eigenvalues, eigenvectors), solved
    in this call."""
    x, y, idx = _paired_stacks(a, b)
    ref = b._diagonal if len(idx) == len(b._idx) else _padded_diagonal(y, idx)
    if ref is None:
        ref = [np.linalg.eigh(block) for block in _trimmed(y, idx)]
        low = min(float(w[0]) for w, _ in ref)
    else:
        low = float(ref.min())
    if low <= 0.0:
        raise RankDeficiencyError(f"reference state is rank deficient (min eigenvalue {low:.3e})")
    return x, idx, ref
