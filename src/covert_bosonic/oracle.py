"""Brute-force verification of every closed form in this package.

The closed-form expressions in :mod:`covert_bosonic.closed_form` (and the
receiver's dual-rail parameters in :mod:`covert_bosonic.covert_bounds`)
involve enough index bookkeeping that transposition or sign typos are
cheap to make and expensive to notice.  This module re-derives every quantity
numerically from :mod:`covert_bosonic.fock_core` primitives alone --
the sector blocks of truncated beamsplitter/amplifier unitaries, truncated
ladder exponentials and the periodic trapezoid rule -- and reports the
discrepancies.  Its numeric states use no ``closed_form`` code, so an error
in the analytic layer cannot cancel here.

Every numeric state comes from one optical picture: each rail of the
dual-rail qubit passes through a chain of stages, two-mode unitaries (a
beamsplitter of transmittance t or an amplifier of gain G) on the rail and
an ancilla entering thermal or in vacuum, one output port kept.  The rails
pass through independent copies of the chain, so the four logical basis
operators |x><x'| go through one rail's chain and the two-mode output is
reassembled by linearity, without materializing the four-mode matrix
(the tests check this against the dense four-mode route in
``tests/dense_reference.py``).  Each stage conserves a photon number, so it
runs as a shift map on the rail's bands, gathered from the stage unitary's
sector blocks; no dense d^4 unitary is built.  A map covers only the
signal photon numbers its input holds: |x><x'| holds at most one photon,
so a rail's first stage forms 2 of each block's d columns.  A rail's
images, built once per chain and cutoff, are the oracle's one cache of
optics; each map lives only while its rail is built.  The image of
|x><x'| lies on the band row - col = x - x', so every numeric
state is read from the images into the tri-diagonal (diag, upper) layout
of :class:`TriDiagonalWillieState` that the closed forms fill; an image
with weight off its band is refused, and the layout checks itself (sector
PSD, trace) as a :class:`DensityOperator` would.  The checks compare those
arrays or pass the layout to the characteristic function or, against the
diagonal layout of the thermal product, to the divergences.  The
``*_state_numeric`` functions hand out that checked layout too, so no
numeric state is dense unless a caller reads its ``entries``.

Every check is a pure function returning a :class:`VerificationReport`;
checks are independent and may run concurrently.  A check takes at most
its channels and qubits (by default the 12 + 12 of :func:`default_channel_grid`
and :func:`default_qubit_set`) and builds its states with ``*_state_numeric``
(willie_state reads the off-band weight its rails carry); all else is fixed:

  check                   grid                                cutoff  tolerance
  willie_state            pattern entries; images off band    30      1e-8; 1e-10
  chi2                    chi2_closed; 10^4-point lattice     20..30  1e-6 relative; 1e-9
  char_fn                 25 zeta points, |zeta| <= 2         30      1e-8
  pinsker_and_detector    q in {0.01, 0.1, 1}                 20      1e-10
  depolarizing_reduction  the logical 2x2 block, from images  30      1e-8
  laguerre_diag/offdiag   m <= 5, r in {0.25, 0.5, 1, 2}      10      1e-8 (*)
  eb_pipelines            3 plans x 25 zeta points            30      1e-8

chi2 skips eta = 1 (chi2 = 0) and eta nbar_b = 0 (divergent), raises its
cutoff with the thermal occupancy and compares each numeric chi2 with
chi2_closed; its bound is checked against the supremum of the closed form
over a fixed 10^4-point lattice of the logical state space (alpha_sq at
cell midpoints, coherence fractions by golden-ratio steps), built and
evaluated as arrays (the formula behind chi2_closed, bit for bit) and held
once to LogicalQubit's constraints, so a lattice that strays off the state
space is refused.  Each channel's quiet reference, a diagonal layout, is
built once for all its qubits.  char_fn and eb_pipelines evaluate each
numeric state's char fn once over the whole zeta grid.  char_fn has 2
seeded qubits; pinsker_and_detector runs at (eta, nbar_b) = (0.9, 0.12)
and |+> unless given others; eb_pipelines sends 0.8|01> + 0.6i|10> through
the attenuate plans at (0.9, 0.12) and (0.5, 0.5) and the amplify plan
with nbar' = 0.52 at (0.5, 0.5).
(*) each ring integral by the periodic trapezoid rule on 22 angles, exact
for the truncated kernel, whose factors are finite Taylor sums
(:func:`creation_exponential`); the closed forms are finite sums too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import groupby, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import closed_form as cf
from . import covert_bounds as cb
from .covert_bounds import ChannelParams
from .eb_engineering import EbPlan, plan_lemma1, plan_lemma2
from .fock_core import (
    FockCutoff,
    TriDiagonalWillieState,
    TruncationError,
    _amplifier_blocks,
    _beamsplitter_blocks,
    _chains,
    _groups,
    anti_normal_char_fn,
    chi2_numeric,
    creation_exponential,
    qre,
    thermal_occupation,
    trace_distance,
)

__all__ = [
    "VerificationReport",
    "default_channel_grid",
    "default_qubit_set",
    "willie_state_numeric",
    "bob_state_numeric",
    "engineered_willie_state_numeric",
    "verify_willie_state",
    "verify_chi2",
    "verify_char_fn",
    "verify_pinsker_and_detector",
    "verify_depolarizing_reduction",
    "verify_laguerre_lemma5",
    "verify_laguerre_lemma6",
    "verify_eb_pipelines",
    "run_all_checks",
    "ALL_CHECKS",
]

DEFAULT_ORACLE_CUTOFF = FockCutoff(30)
_LEAK_LIMIT = 1e-6

# The fixed settings of the checks, tabled in the module docstring.
_TOLERANCE = 1e-8
_PATTERN_TOLERANCE = 1e-10
_CHI2_REL_TOLERANCE = 1e-6
_CHI2_BOUND_SAMPLES = 10_000
_PINSKER_Q_VALUES = (0.01, 0.1, 1.0)
_PINSKER_CUTOFF = FockCutoff(20)
_PINSKER_SLACK = 1e-10
_RING_ORDERS = range(6)
_RING_RADII = (0.25, 0.5, 1.0, 2.0)
# The kernel element only explores number states up to max(m, m'), so any
# cutoff at or above the largest order is exact.
_RING_CUTOFF = FockCutoff(10)
_ZETA_GRID = tuple(
    (complex(r * np.exp(1j * phase)),
     complex((0.3 + 0.3 * j) * np.exp(1j * (phase + 0.7 * i))))
    for i, r in enumerate((0.1, 0.5, 1.0, 1.5, 2.0))
    for j, phase in enumerate((0.0, 1.1, 2.3, 3.7, 5.2))
)
_ZETA_ARRAYS = tuple(np.array(z) for z in zip(*_ZETA_GRID))
# A naturally breaking channel and one that is not.  Keep the amplifier gain
# modest: the truncated tail of the amplified state scales as
# (1 - 1/G)^cutoff and must stay below the tolerance.
_EB_CASES = tuple((p, plan(p)) for p, plan in (
    (ChannelParams(0.9, 0.12), plan_lemma1), (ChannelParams(0.5, 0.5), plan_lemma1),
    (ChannelParams(0.5, 0.5), partial(plan_lemma2, nbar_prime=0.52))))
_EB_QUBIT = cf.LogicalQubit.pure(0.8, 0.6j)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one closed-form-vs-numeric check over a parameter grid."""

    check_name: str
    grid_size: int
    max_abs_error: float
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_case_inputs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """One JSON line, keys sorted; complex inputs become strings."""
        inputs = {k: (str(v) if isinstance(v, complex) else v)
                  for k, v in self.worst_case_inputs.items()}
        return json.dumps({**self.__dict__, "worst_case_inputs": inputs},
                          sort_keys=True)


def default_channel_grid() -> list[ChannelParams]:
    """Edge-heavy channel grid: near-opaque through near-transparent."""
    return [
        ChannelParams(eta, nb)
        for eta in (0.1, 0.5, 0.9, 0.99)
        for nb in (0.01, 0.12, 0.5)
    ]


# (alpha_sq, gamma) of the seeded mixed qubits: alpha_sq uniform on
# [0.05, 0.95], |gamma| a uniform fraction of |alpha beta|, arg gamma uniform.
_SEEDED_QUBITS = (
    (0.6125859199442003, 0.07023463714797158 - 0.4314064107139386j),
    (0.25268647099153263, 0.09139152908650933 - 0.09306812362053356j),
    (0.05473877410901726, 0.054444834737527995 - 0.17869442024961335j),
    (0.47114145755934866, -0.026872793876046918 + 0.1488574470874824j),
    (0.2793826288887121, -0.19962235502356887 - 0.005706272079430832j),
    (0.5481476168670432, 0.13121858328671504 - 0.47774418830083565j),
    (0.6099613064970464, 0.10431332008835237 + 0.47095996492788295j),
    (0.1941908304720601, 0.23312941137068163 + 0.06605302078235407j),
)


def default_qubit_set(n_random: int = 4) -> list[cf.LogicalQubit]:
    """Poles, equator states at four coherence phases, partially dephased
    states, plus the first ``n_random`` (0 to 8) seeded mixed states.

    The seeded states are frozen literals, the first draws of numpy's
    ``default_rng(7)`` as exact floats: NumPy's random number generator
    policy (NEP 19) does not keep a seeded stream the same across versions,
    and the default grid, hence the verify golden, must not move with it."""
    if not 0 <= n_random <= len(_SEEDED_QUBITS):
        raise ValueError(f"n_random must lie in [0, {len(_SEEDED_QUBITS)}], got {n_random}")
    s = 1.0 / math.sqrt(2.0)
    qubits = [
        cf.LogicalQubit(1.0, 0.0),
        cf.LogicalQubit(0.0, 1.0),
    ]
    for phase in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        qubits.append(cf.LogicalQubit.pure(s, s * np.exp(1j * phase)))
    qubits.append(cf.LogicalQubit(0.5, 0.5, 0.0))  # balanced classical mixture
    qubits.append(cf.LogicalQubit(0.3, 0.7, 0.5 * math.sqrt(0.21)))
    qubits += [cf.LogicalQubit(a2, 1.0 - a2, gamma)
               for a2, gamma in _SEEDED_QUBITS[:n_random]]
    return qubits


# ---------------------------------------------------------------------------
# Numeric states: one rail through a chain of stages, exact at the cutoff
# ---------------------------------------------------------------------------


# Output ports of a stage: a beamsplitter's transmitted and reflected ports.
_SIGNAL, _ANCILLA = 0, 1
# Photon numbers (x, x') of the rail basis operators |x><x'|.
_RAIL_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _stage_transfer(stage: tuple, max_photons: int, inputs: int) -> tuple:
    """One stage as a shift map, (M, rows), on operators supported on signal
    photon numbers below ``inputs``.

    A stage is (builder, param, nbar, keep): the sector-block builder of a
    beamsplitter (param the transmittance) or an amplifier (param the gain)
    on (signal, ancilla); the ancilla enters thermal with mean photon
    number nbar (vacuum at 0) and port ``keep`` is kept, the other traced
    out.  The blocks conserve n_signal + tau n_ancilla, tau = -step (+1 for
    a beamsplitter, -1 for an amplifier), so once the ancilla is traced out
    the stage keeps every band row - col of a single-mode operator, up to
    the sign sigma (-1 only for an amplifier's idler port):

        out[rows[s, i], rows[s, j]] += M[s, i, j] x[i, j],
        rows[s, i] = s + sigma i - (d - 1 if sigma = 1 else 0),

    for the 2d - 1 shifts s and i, j < ``inputs``.  M sums E[s, i, k]
    E[s, j, k], weighted by the ancilla input k, where E[s, i, k] is the
    block entry from |i, k> to the output with rows[s, i] photons kept; the
    input |i, k> lies in its chain's first i + 1 columns, so only ``inputs``
    columns are formed.  ``rows`` is clipped to the cutoff where M vanishes.

    E and M are formed over :func:`_groups` of shifts, one gemm per shift as
    over all shifts at once."""
    builder, param, nbar, keep = stage
    blocks, step = builder(param, max_photons, inputs)
    _, chain, position = _chains(step, max_photons)
    tau = -step
    sigma = 1 if keep == _SIGNAL else tau
    d = max_photons + 1
    w = thermal_occupation(np.arange(d), nbar)
    k = np.flatnonzero(w)[None, None, :]
    i = np.arange(inputs)[None, :, None]
    shifts = np.arange(2 * d - 1)[:, None, None] - (d - 1 if sigma == 1 else 0)
    col = i * d + k
    chain_col, position_col, weight = chain[col], position[col], w[k]
    m = np.empty((2 * d - 1, inputs, inputs))
    for c in _groups(2 * d - 1, col.size):
        rows = shifts[c] + sigma * i
        # The traced port's photon number, fixed by the conserved quantity.
        traced = k + tau * (i - rows) if keep == _SIGNAL else i + tau * (k - rows)
        inside = (rows >= 0) & (rows < d) & (traced >= 0) & (traced < d)
        out = np.where(inside, rows * d + traced if keep == _SIGNAL else traced * d + rows, 0)
        e = np.where(inside, blocks[chain_col, position[out], position_col], 0.0)
        np.matmul(e * weight, e.transpose(0, 2, 1), out=m[c])
    return m, np.clip((shifts + sigma * i)[:, :, 0], 0, d - 1)


def _apply_stage(x: np.ndarray, m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Push a single-mode operator through the shift map (M, rows) of a
    stage (:func:`_stage_transfer`), reading the nonzero entries of ``x``
    only, 2d - 1 entries of M each."""
    d = len(x)
    i, j = np.nonzero(x)
    vals = (m[:, i, j] * x[i, j]).ravel()
    flat = (rows[:, i] * d + rows[:, j]).ravel()
    out = np.bincount(flat, vals.real, d * d) + 1j * np.bincount(flat, vals.imag, d * d)
    return out.reshape(d, d)


@lru_cache(maxsize=256)
def _rail_images(stages: tuple, max_photons: int) -> tuple[dict, float]:
    """(images, off_band): the images of the four logical basis operators
    |x><x'| of one rail under a chain of stages, keyed by (x, x'), and
    their largest entry off the band row - col = x - x'.  Neither the
    mapping nor its arrays change afterwards.

    Each stage's map is built here at most once per input count, for all
    four operators.  An operator on photon numbers <= 1 (a rail's input, or
    its image under a vacuum pure-loss stage) takes the map on 2 inputs,
    any other the map on all d: the map's shape fixes the BLAS products
    that build it, and so its last bits.  Qubit-independent, so sweeps over
    many inputs through the same optics reuse the images and their scan."""
    d = max_photons + 1
    images = {}
    for x, xp in _RAIL_BASIS:
        images[(x, xp)] = np.zeros((d, d), dtype=complex)
        images[(x, xp)][x, xp] = 1.0
    for stage in stages:
        maps = {}
        for key, op in images.items():
            inputs = d if op[2:].any() or op[:, 2:].any() else 2
            if inputs not in maps:
                maps[inputs] = _stage_transfer(stage, max_photons, inputs)
            images[key] = _apply_stage(op, *maps[inputs])
    band = np.subtract.outer(np.arange(d), np.arange(d))
    off_band = max(float(np.max(np.abs(op[band != x - xp]), initial=0.0))
                   for (x, xp), op in images.items())
    for op in images.values():
        op.setflags(write=False)
    return images, off_band


def _channel(params: ChannelParams, keep: int) -> tuple:
    """The physical channel as a one-stage chain."""
    return ((_beamsplitter_blocks, params.eta, params.nbar_b, keep),)


def _tri_diagonal(qubit: cf.LogicalQubit, rail: dict) -> tuple[np.ndarray, np.ndarray]:
    """(diag, upper) of :class:`TriDiagonalWillieState` for the two-mode
    output, from one rail's basis-operator images.  Logical |0> = |01> and
    |1> = |10>, so the logical matrix element (x, x') weights image (x, x')
    on the first mode times image (1-x, 1-x') on the second.  Weight off the
    images' bands is not read; callers check the off-band weight that
    :func:`_rail_images` returns with them."""
    d = len(rail[(0, 0)])
    diag = np.zeros((d, d), dtype=complex)
    upper = np.zeros((d, d), dtype=complex)
    weights = (qubit.alpha_sq, qubit.gamma, np.conj(qubit.gamma), qubit.beta_sq)
    for w, (x, xp) in zip(weights, _RAIL_BASIS):
        left, right = rail[(x, xp)], rail[(1 - x, 1 - xp)]
        diag += np.outer(w * np.diag(left), np.diag(right))
        upper[:-1, 1:] += np.outer(w * np.diag(left, 1), np.diag(right, -1))
    return diag.real, upper


def _assemble_two_mode(
    qubit: cf.LogicalQubit, stages: tuple, cutoff: FockCutoff
) -> TriDiagonalWillieState:
    """Two-mode output of both rails passed through ``stages``, as the
    checked layout.  The layout holds only the tri-diagonal pattern, so a
    rail image with weight off its band, which would put weight off the
    pattern, is refused."""
    rail, off = _rail_images(stages, cutoff.max_photons)
    if off > 0.0:
        raise ValueError(f"rail image has weight {off:.3e} off its band; "
                         "the two-mode output is not tri-diagonal")
    state = TriDiagonalWillieState(cutoff, *_tri_diagonal(qubit, rail))
    if state.truncation_leak > _LEAK_LIMIT:
        raise TruncationError(f"truncation leak {state.truncation_leak:.3e} exceeds "
                              f"{_LEAK_LIMIT:g}; raise the cutoff")
    return state


def willie_state_numeric(
    qubit: cf.LogicalQubit,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> TriDiagonalWillieState:
    """Warden's two-mode output, simulated from channel primitives: mix each
    rail with its thermal environment on a truncated beamsplitter and keep
    the reflected ports.  The state is the checked layout of
    :func:`_assemble_two_mode`; its ``entries`` scatter the matrix."""
    return _assemble_two_mode(qubit, _channel(params, _ANCILLA), cutoff)


def bob_state_numeric(
    qubit: cf.LogicalQubit,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> TriDiagonalWillieState:
    """Receiver's two-mode output: same simulation, transmitted ports kept."""
    return _assemble_two_mode(qubit, _channel(params, _SIGNAL), cutoff)


def engineered_willie_state_numeric(
    qubit: cf.LogicalQubit,
    plan: EbPlan,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> TriDiagonalWillieState:
    """Warden's output through the full entanglement-breaking optical train:
    optional amplifier (vacuum idler), optional pure-loss stage (vacuum
    port), then the physical channel."""
    return _assemble_two_mode(qubit, _engineered(plan, params), cutoff)


def _engineered(plan: EbPlan, params: ChannelParams) -> tuple:
    """The entanglement-breaking optical train to the warden as a chain."""
    stages = ()
    if plan.gain_eb > 1.0:
        stages += ((_amplifier_blocks, plan.gain_eb, 0.0, _SIGNAL),)
    if plan.tau < 1.0:
        stages += ((_beamsplitter_blocks, plan.tau, 0.0, _SIGNAL),)
    return stages + _channel(params, _ANCILLA)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _grid(channel_grid: Optional[Sequence[ChannelParams]],
          qubits: Optional[Sequence[cf.LogicalQubit]], n_random: int = 4) -> Iterator:
    """A check's (channel, qubit) pairs, channel-major; the default grids,
    with ``n_random`` seeded qubits, stand in for an empty or missing one."""
    return product(channel_grid or default_channel_grid(),
                   qubits or default_qubit_set(n_random))


def verify_willie_state(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
) -> VerificationReport:
    """Closed form vs numeric warden state in their shared tri-diagonal
    layout (the diagonal and the photon-exchange coherences), plus a check
    that each channel's rail image of |x><x'| vanishes off its band,
    row - col = x - x'.  By linearity the band check implies, for every
    qubit, that the numeric state vanishes off the photon-number-conserving
    tri-diagonal pattern, so the layout holds all of it."""
    cutoff = DEFAULT_ORACLE_CUTOFF
    off_band = [0.0]

    def errors():
        for params, qubit in _grid(channel_grid, qubits):
            # The one rail read: its off-band weight is reported, not refused.
            rail, off = _rail_images(_channel(params, _ANCILLA), cutoff.max_photons)
            off_band.append(off)
            closed = cf.willie_state_closed(qubit, params, cutoff)
            diag, upper = _tri_diagonal(qubit, rail)
            err = max(np.max(np.abs(diag - closed.diag)),
                      np.max(np.abs(upper - closed.upper)))
            yield float(err), _inputs(params, qubit)

    # The off-band maximum goes in the relative-error slot.
    report = _report("willie_state", errors(), _TOLERANCE)
    off = max(off_band)
    return replace(report, max_rel_error=off,
                   passed=report.passed and off <= _PATTERN_TOLERANCE)


def verify_chi2(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
) -> VerificationReport:
    """Chi-squared closed form vs the numeric trace computation, the
    input-independent bound (over a fixed lattice of the logical state
    space, with equality at full-coherence pure states), and the
    balanced-mixture half-bound identity, except at eta = 1 and
    eta nbar_b = 0."""
    pairs = [(params, qubit) for params, qubit in _grid(channel_grid, qubits)
             if params.eta != 1.0 and params.eta * params.nbar_b != 0.0]
    # The lattice as arrays of qubit entries, held once to LogicalQubit's
    # constraints, so a builder that strays off the state space is refused.
    sampled = _chi2_samples()
    cf.LogicalQubit._check(*sampled)
    s = 1.0 / math.sqrt(2.0)
    for params in dict.fromkeys(params for params, _ in pairs):
        # Supremum over the lattice vs the bound, then the equality and
        # half-bound identities.
        bound = cf.chi2_bound(params)
        top = float(np.max(cf._chi2(params, *sampled)))
        equality = cf.chi2_closed(cf.LogicalQubit.pure(s, s), params)
        half = cf.chi2_closed(cf.LogicalQubit(0.5, 0.5, 0.0), params)
        identity = max(abs(equality - bound), abs(half - 0.5 * bound))
        for err, limit, violation in (
            (top - bound, 1e-9, "sampled value exceeds bound"),
            (identity, 1e-9 * max(bound, 1.0), "equality/half-bound identity"),
        ):
            if err > limit:
                inputs = dict(eta=params.eta, nbar_b=params.nbar_b, violation=violation)
                return _report("chi2", [(err, inputs)], _CHI2_REL_TOLERANCE, passed=False)

    def errors():
        # The walk is channel-major: one quiet reference per channel.
        for params, group in groupby(pairs, key=itemgetter(0)):
            occ = params.eta * params.nbar_b
            # The truncated chi-squared tail decays only like (occ/(1+occ))^N
            # (the inverse thermal weights cancel one factor of the state
            # tail), so escalate the cutoff with the occupancy.
            quiet = _quiet(occ, FockCutoff(max(20, min(30, math.ceil(
                math.log(1e-11) / math.log(occ / (1.0 + occ)))))))
            for _, qubit in group:
                num = chi2_numeric(willie_state_numeric(qubit, params, quiet.cutoff), quiet)
                clo = cf.chi2_closed(qubit, params)
                yield abs(num - clo) / max(abs(clo), 1e-30), _inputs(params, qubit)

    return _report("chi2", errors(), _CHI2_REL_TOLERANCE)


def _chi2_samples() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha_sq, beta_sq, gamma) over a fixed lattice of the logical state
    space: alpha_sq = (k + 1/2) / K for k < K, and coherence fraction
    frac(k phi) of |alpha beta|, phi the golden ratio's fractional part, so
    the fractions fill [0, 1) evenly against alpha_sq."""
    k = np.arange(_CHI2_BOUND_SAMPLES)
    a2 = (k + 0.5) / _CHI2_BOUND_SAMPLES
    coh = np.modf(k * 0.6180339887498949)[0] * np.sqrt(a2 * (1.0 - a2))
    return a2, 1.0 - a2, coh


def _quiet(occ: float, cutoff: FockCutoff) -> TriDiagonalWillieState:
    """The warden's quiet state: the diagonal layout of two thermal modes."""
    p = thermal_occupation(np.arange(cutoff.dim), occ)
    return TriDiagonalWillieState(cutoff, np.outer(p, p), np.zeros((cutoff.dim,) * 2))


def verify_char_fn(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
) -> VerificationReport:
    """Closed-form characteristic function vs the truncated operator trace
    on the numeric warden state, read from its layout, for |zeta| <= 2."""

    def errors():
        for params, qubit in _grid(channel_grid, qubits, n_random=2):
            yield from _char_fn_errors(willie_state_numeric(qubit, params),
                                       partial(cf.willie_char_fn_closed, qubit, params),
                                       _inputs(params, qubit))

    return _report("char_fn", errors(), _TOLERANCE)


def _char_fn_errors(numeric: TriDiagonalWillieState, closed: Callable, inputs: dict):
    """|numeric - closed| characteristic function at each zeta grid point,
    the numeric values from one evaluation over the whole grid."""
    values = anti_normal_char_fn(numeric, *_ZETA_ARRAYS)
    for (z1, z2), value in zip(_ZETA_GRID, values.tolist()):
        yield abs(value - closed(z1, z2)), {**inputs, "zeta1": str(z1), "zeta2": str(z2)}


def verify_pinsker_and_detector(
    params: ChannelParams = ChannelParams(0.9, 0.12),
    qubit: cf.LogicalQubit = cf.LogicalQubit.pure(1 / math.sqrt(2), 1 / math.sqrt(2)),
) -> VerificationReport:
    """Single-round covertness chain: with rho1 = (1-q) rho0 + q rhoW,

        (1/4)||rho1 - rho0||_1  <=  sqrt(D(rho1||rho0)/8)
                                 <=  q sqrt(chi2(rhoW||rho0)) / sqrt(8).

    The relative entropy here is in natural-log units: the chain's middle
    step (relative entropy bounded by chi-squared) holds in nats, and the
    standard Pinsker constant 1/8 is the nats form.
    """
    cutoff = _PINSKER_CUTOFF
    quiet = _quiet(params.eta * params.nbar_b, cutoff)
    rho_w = willie_state_numeric(qubit, params, cutoff)
    chi2 = cf.chi2_closed(qubit, params)

    def errors():
        for q in _PINSKER_Q_VALUES:
            mix = TriDiagonalWillieState(
                cutoff, (1.0 - q) * quiet.diag + q * rho_w.diag, q * rho_w.upper)
            td_term = 0.25 * 2.0 * trace_distance(mix, quiet)
            d_nats = qre(mix, quiet, base=math.e)
            mid = math.sqrt(max(d_nats, 0.0) / 8.0)
            right = q * math.sqrt(chi2) / math.sqrt(8.0)
            yield (max(td_term - mid, mid - right, 0.0),
                   {**_inputs(params, qubit), "q": q})

    return _report("pinsker_and_detector", errors(), _PINSKER_SLACK)


def verify_depolarizing_reduction(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
) -> VerificationReport:
    """Project the numeric receiver state onto span{|01>, |10>}, replace the
    failed weight with the maximally mixed logical state, and compare with a
    depolarizing channel of parameter p = 1 - eta/(1 + (1-eta) nbar_b)^4
    acting on the input.  This also audits the p' closed form, since
    p = p' + (1-p') p_fail.  The 2x2 block is read from the receiver's
    checked tri-diagonal layout; no dense two-mode state is built."""

    def errors():
        for params, qubit in _grid(channel_grid, qubits):
            state = bob_state_numeric(qubit, params)
            # <01|rho|01>, <01|rho|10> and <10|rho|10>.
            block = np.array([[state.diag[0, 1], state.upper[0, 1]],
                              [np.conj(state.upper[0, 1]), state.diag[1, 0]]])
            fail_weight = 1.0 - float(np.trace(block).real)
            projected = block + fail_weight * np.eye(2) / 2.0
            p = cb.p_total(params)
            target = (1.0 - p) * qubit.matrix() + p * np.eye(2) / 2.0
            err = float(np.max(np.abs(projected - target)))
            # p_fail closed form vs the projected weight itself.
            yield (max(err, abs(fail_weight - cb.p_fail(params))),
                   _inputs(params, qubit))

    return _report("depolarizing_reduction", errors(), _TOLERANCE)


@lru_cache(maxsize=8)
def _ring_kernels(r: float, max_photons: int) -> tuple:
    """Angles th_p = 2 pi p / P for P = 2 (N+1), and the truncated kernels
    e^(z c^dag) e^(-z* c) at z = r e^(i th_p), one batched pair of
    exponentials per radius; e^(-z* c) is the adjoint of e^(-z c^dag)."""
    cutoff = FockCutoff(max_photons)
    count = 2 * (max_photons + 1)
    theta = 2.0 * np.pi * np.arange(count) / count
    z = r * np.exp(1j * theta)
    kernels = (creation_exponential(z, cutoff)
               @ creation_exponential(-z, cutoff).conj().swapaxes(-1, -2))
    for x in (theta, kernels):
        x.setflags(write=False)
    return theta, kernels


def _ring_quad(m: int, mp: int, r: float, cutoff: FockCutoff,
               weight: Callable[[np.ndarray], complex] = lambda t: 1.0) -> complex:
    """int_0^2pi weight(th) <m| e^(r e^(i th) c^dag) e^(-r e^(-i th) c) |mp> dth
    by the periodic trapezoid rule on the angles of :func:`_ring_kernels`.

    The truncated kernel element, times the weight (one harmonic here), is a
    trigonometric polynomial with harmonics |k| <= N+1 < P, which the rule
    integrates exactly."""
    theta, kernels = _ring_kernels(r, cutoff.max_photons)
    return complex(2.0 * np.pi / len(theta) * np.sum(weight(theta) * kernels[:, m, mp]))


def laguerre_ring_integral(m: int, r: float, cutoff: FockCutoff) -> complex:
    """Quadrature of the diagonal displacement-kernel ring integral."""
    return _ring_quad(m, m, r, cutoff)


def laguerre_offdiag_ring_integral(m: int, r: float, cutoff: FockCutoff) -> complex:
    """Quadrature of the ring integral with weight e^(-i th) and element
    <m|...|m-1>, the only one the weight leaves nonzero."""
    if m < 1:
        return 0.0
    return _ring_quad(m, m - 1, r, cutoff, lambda t: np.exp(-1j * t))


def laguerre_offdiag_closed(m: int, r: float) -> float:
    """Closed form of the off-diagonal ring integral:

        2 pi r sqrt(m) sum_{k=0}^{m-1} (-r^2)^k binom(m-1, k) / (k! (k+1))

    Fixed against the quadrature: the coefficient sequence uses
    binom(m-1, k), and the overall sign is positive for this phase/element
    pairing (the negative-signed variant belongs to the conjugate pairing).
    """
    total = sum(
        (-(r**2)) ** k * math.comb(m - 1, k) / (math.factorial(k) * (k + 1))
        for k in range(m)
    )
    return float(2.0 * np.pi * r * math.sqrt(m) * total)


def laguerre_diag_closed(m: int, r: float) -> float:
    """Closed form of the diagonal ring integral, 2 pi L_m(r^2):

        2 pi sum_{k=0}^{m} (-r^2)^k binom(m, k) / k!
    """
    total = sum((-(r**2)) ** k * math.comb(m, k) / math.factorial(k)
                for k in range(m + 1))
    return float(2.0 * np.pi * total)


def verify_laguerre_lemma5() -> VerificationReport:
    """Ring integral of the diagonal kernel element vs 2 pi L_m(r^2)."""
    return _ring_check("laguerre_diag", laguerre_ring_integral, laguerre_diag_closed)


def verify_laguerre_lemma6() -> VerificationReport:
    """Phase-weighted off-diagonal ring integral vs its closed form."""
    return _ring_check("laguerre_offdiag", laguerre_offdiag_ring_integral,
                       laguerre_offdiag_closed)


def _ring_check(name, integral, closed) -> VerificationReport:
    """Worst |integral(m, r) - closed(m, r)| over the ring orders and radii."""
    return _report(name, ((abs(integral(m, r, _RING_CUTOFF) - closed(m, r)),
                           {"m": m, "r": r})
                          for m in _RING_ORDERS for r in _RING_RADII), _TOLERANCE)


def verify_eb_pipelines() -> VerificationReport:
    """Full optical-train simulation of the entanglement-breaking
    constructions vs the single-channel closed form with effective
    parameters, compared through the characteristic function of the
    numeric state's layout."""

    def errors():
        for params, plan in _EB_CASES:
            yield from _char_fn_errors(
                engineered_willie_state_numeric(_EB_QUBIT, plan, params),
                partial(cf.willie_char_fn_closed, _EB_QUBIT,
                        plan.effective_covert_params),
                {"eta": params.eta, "nbar_b": params.nbar_b,
                 "mechanism": plan.mechanism.value})

    return _report("eb_pipelines", errors(), _TOLERANCE)


def _inputs(params: ChannelParams, qubit: cf.LogicalQubit) -> dict:
    return {
        "eta": params.eta,
        "nbar_b": params.nbar_b,
        "alpha_sq": qubit.alpha_sq,
        "gamma": str(qubit.gamma),
    }


def _report(name: str, errors: Iterable[tuple[float, dict]], tolerance: float,
            passed: Optional[bool] = None) -> VerificationReport:
    """Report on the largest error over ``errors``, (err, inputs) pairs, one
    per grid point; that error is both the absolute and the relative figure.
    The check passes when it is within tolerance unless ``passed`` says
    otherwise."""
    worst, count = (0.0, {}), 0
    for err, inputs in errors:
        count += 1
        if err > worst[0]:
            worst = (err, inputs)
    err = float(worst[0])
    return VerificationReport(
        check_name=name, grid_size=count, max_abs_error=err, max_rel_error=err,
        tolerance=tolerance, passed=err <= tolerance if passed is None else passed,
        worst_case_inputs=worst[1],
    )


ALL_CHECKS = {
    "willie_state": verify_willie_state,
    "chi2": verify_chi2,
    "char_fn": verify_char_fn,
    "pinsker_and_detector": verify_pinsker_and_detector,
    "depolarizing_reduction": verify_depolarizing_reduction,
    "laguerre_diag": verify_laguerre_lemma5,
    "laguerre_offdiag": verify_laguerre_lemma6,
    "eb_pipelines": verify_eb_pipelines,
}


def run_all_checks(names: Optional[Sequence[str]] = None) -> list[VerificationReport]:
    """Run the selected (default: all) checks on their default grids,
    aggregated deterministically by check name."""
    selected = list(names) if names else sorted(ALL_CHECKS)
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; known: {sorted(ALL_CHECKS)}")
    return [ALL_CHECKS[name]() for name in sorted(selected)]
