"""Brute-force verification of every closed form in this package.

The closed-form expressions in :mod:`covert_bosonic.closed_form` involve
enough index bookkeeping that transposition or sign typos are cheap to
make and expensive to notice.  This module re-derives every quantity
numerically from :mod:`covert_bosonic.fock_core` primitives alone --
truncated beamsplitter/amplifier unitaries, operator exponentials and
adaptive quadrature -- and reports the discrepancies.  Its numeric states
use no ``closed_form`` code, so an error in the analytic layer cannot
cancel here.

Every numeric state comes from one optical picture.  Each rail of the
dual-rail qubit passes through a chain of stages: a two-mode unitary (a
beamsplitter of transmittance t or an amplifier of gain G) acts on the
rail and an ancilla that enters thermal or in vacuum, and one output port
is kept.  The warden's chain is one beamsplitter with the thermal
environment, reflected port kept; the receiver's is the same beamsplitter,
transmitted port kept; the entanglement-breaking constructions prepend
the plan's amplifier (vacuum idler) and pure-loss stage (vacuum port) to
the warden's chain.  The rails pass through independent copies of the
chain, so the four logical basis operators |x><x'| (x in {0, 1} photons)
go through one rail's chain and the two-mode output is reassembled by
linearity.  This equals conjugating the four-mode product state by a pair
of unitaries and tracing out the other ports, without materializing the
four-mode matrix (``tests/test_oracle.py`` checks the equivalence against
the direct four-mode route at a small cutoff).

Every check is a pure function returning a :class:`VerificationReport`;
checks are independent and may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import binom, eval_laguerre

from . import closed_form as cf
from .eb_engineering import EbMechanism, EbPlan, effective_willie_char_params
from .fock_core import (
    ChannelParams,
    DensityOperator,
    FockCutoff,
    TruncationError,
    annihilation_op,
    anti_normal_char_fn,
    beamsplitter_unitary,
    chi2_numeric,
    photon_exchange_indices,
    qre,
    tensor,
    thermal_occupation,
    thermal_state,
    trace_distance,
    two_mode_amplifier_unitary,
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
        d = dict(self.__dict__)
        d["worst_case_inputs"] = {
            k: (str(v) if isinstance(v, complex) else v)
            for k, v in self.worst_case_inputs.items()
        }
        return json.dumps(d, sort_keys=True)


def default_channel_grid() -> list[ChannelParams]:
    """Edge-heavy channel grid: near-opaque through near-transparent."""
    return [
        ChannelParams(eta, nb)
        for eta in (0.1, 0.5, 0.9, 0.99)
        for nb in (0.01, 0.12, 0.5)
    ]


def default_qubit_set(n_random: int = 4, seed: int = 7) -> list[cf.LogicalQubit]:
    """Poles, equator states at four coherence phases, partially dephased
    states, plus reproducible random mixed states."""
    s = 1.0 / math.sqrt(2.0)
    qubits = [
        cf.LogicalQubit(1.0, 0.0),
        cf.LogicalQubit(0.0, 1.0),
    ]
    for phase in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        qubits.append(cf.LogicalQubit.pure(s, s * np.exp(1j * phase)))
    qubits.append(cf.LogicalQubit(0.5, 0.5, 0.0))  # balanced classical mixture
    qubits.append(cf.LogicalQubit(0.3, 0.7, 0.5 * math.sqrt(0.21)))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        a2 = rng.uniform(0.05, 0.95)
        mag = rng.uniform(0.0, 1.0) * math.sqrt(a2 * (1.0 - a2))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        qubits.append(cf.LogicalQubit(a2, 1.0 - a2, mag * np.exp(1j * phase)))
    return qubits


# ---------------------------------------------------------------------------
# Numeric states: one rail through a chain of stages, exact at the cutoff
# ---------------------------------------------------------------------------


# Output ports of a stage: a beamsplitter's transmitted and reflected ports.
_SIGNAL, _ANCILLA = 0, 1
# Photon numbers (x, x') of the rail basis operators |x><x'|.
_RAIL_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))


@lru_cache(maxsize=32)
def _stage_unitary(unitary: Callable, param: float, max_photons: int) -> np.ndarray:
    """Stage unitary reshaped to U[out_sig, out_anc, in_sig, in_anc]."""
    d = max_photons + 1
    u = unitary(param, 0, 1, 2, FockCutoff(max_photons)).reshape(d, d, d, d)
    u.setflags(write=False)
    return u


def _apply_stage(x: np.ndarray, stage: tuple, max_photons: int) -> np.ndarray:
    """Push a single-mode operator through one stage and trace out the port
    not kept.

    A stage is (unitary, param, nbar, keep): :func:`beamsplitter_unitary`
    with param the transmittance, or :func:`two_mode_amplifier_unitary`
    with param the gain, acting on (signal, ancilla); the ancilla enters
    thermal with mean photon number nbar (vacuum at 0) and port ``keep`` is
    kept.  Only the nonzero rows and columns of ``x`` and the nonzero
    ancilla weights enter the contraction, so a rank-1 basis operator costs
    d^4 and a general operator d^5."""
    unitary, param, nbar, keep = stage
    u = _stage_unitary(unitary, param, max_photons)
    if keep == _ANCILLA:
        u = u.transpose(1, 0, 2, 3)  # kept port first
    w = thermal_occupation(np.arange(max_photons + 1), nbar)
    k = np.flatnonzero(w)
    i = np.flatnonzero(np.any(x != 0, axis=1))
    j = np.flatnonzero(np.any(x != 0, axis=0))
    left = np.einsum("bwik,ij->bwjk", u[:, :, i[:, None], k], x[np.ix_(i, j)],
                     optimize=True)
    right = u[:, :, j[:, None], k].conj() * w[k]
    return np.einsum("bwjk,cwjk->bc", left, right, optimize=True)


@lru_cache(maxsize=256)
def _rail_images(stages: tuple, max_photons: int) -> dict:
    """Images of the four logical basis operators |x><x'| of one rail
    under a chain of stages.

    Qubit-independent, so sweeps over many inputs through the same optics
    reuse these."""
    d = max_photons + 1
    out = {}
    for x, xp in _RAIL_BASIS:
        op = np.zeros((d, d), dtype=complex)
        op[x, xp] = 1.0
        for stage in stages:
            op = _apply_stage(op, stage, max_photons)
        op.setflags(write=False)
        out[(x, xp)] = op
    return out


def _channel(params: ChannelParams, keep: int) -> tuple:
    """The physical channel as a one-stage chain."""
    return ((beamsplitter_unitary, params.eta, params.nbar_b, keep),)


def _two_mode(qubit: cf.LogicalQubit, rail: dict) -> np.ndarray:
    """Two-mode output from one rail's basis-operator images.  Logical
    |0> = |01> and |1> = |10>, so the logical matrix element (x, x') weights
    kron(image (x, x'), image (1-x, 1-x'))."""
    w = np.array([qubit.alpha_sq, qubit.gamma, np.conj(qubit.gamma), qubit.beta_sq])
    left = np.stack([rail[b] for b in _RAIL_BASIS]) * w[:, None, None]
    right = np.stack([rail[(1 - x, 1 - xp)] for x, xp in _RAIL_BASIS])
    d = left.shape[1]
    return np.einsum("sij,skl->ikjl", left, right, optimize=True).reshape(d * d, d * d)


def _assemble_two_mode(
    qubit: cf.LogicalQubit, stages: tuple, cutoff: FockCutoff
) -> DensityOperator:
    """Two-mode output of both rails passed through ``stages``."""
    m = _two_mode(qubit, _rail_images(stages, cutoff.max_photons))
    m = 0.5 * (m + m.conj().T)
    leak = float(max(0.0, 1.0 - np.trace(m).real))
    if leak > _LEAK_LIMIT:
        raise TruncationError(
            f"truncation leak {leak:.3e} exceeds {_LEAK_LIMIT:g}; raise the cutoff"
        )
    return DensityOperator(2, cutoff, m, leak)


def willie_state_numeric(
    qubit: cf.LogicalQubit,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> DensityOperator:
    """Warden's two-mode output, simulated from channel primitives: mix each
    rail with its thermal environment on a truncated beamsplitter and keep
    the reflected ports."""
    return _assemble_two_mode(qubit, _channel(params, _ANCILLA), cutoff)


def bob_state_numeric(
    qubit: cf.LogicalQubit,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> DensityOperator:
    """Receiver's two-mode output: same simulation, transmitted ports kept."""
    return _assemble_two_mode(qubit, _channel(params, _SIGNAL), cutoff)


def engineered_willie_state_numeric(
    qubit: cf.LogicalQubit,
    plan: EbPlan,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> DensityOperator:
    """Warden's output through the full entanglement-breaking optical train:
    optional amplifier (vacuum idler), optional pure-loss stage (vacuum
    port), then the physical channel."""
    stages = ()
    if plan.mechanism is EbMechanism.AMPLIFY and plan.gain_eb > 1.0:
        stages += ((two_mode_amplifier_unitary, plan.gain_eb, 0.0, _SIGNAL),)
    if plan.tau < 1.0:
        stages += ((beamsplitter_unitary, plan.tau, 0.0, _SIGNAL),)
    return _assemble_two_mode(qubit, stages + _channel(params, _ANCILLA), cutoff)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def verify_willie_state(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
    tolerance: float = 1e-8,
    pattern_tolerance: float = 1e-10,
) -> VerificationReport:
    """Entrywise closed form vs numeric warden state, plus a check that the
    numeric state vanishes off the photon-number-conserving tri-diagonal
    support pattern."""
    channel_grid = list(channel_grid or default_channel_grid())
    qubits = list(qubits or default_qubit_set())
    d = cutoff.dim
    pattern_off = ~np.eye(d * d, dtype=bool)
    rows, cols = photon_exchange_indices(cutoff)
    pattern_off[rows, cols] = False
    pattern_off[cols, rows] = False
    off_pattern = [0.0]

    def errors():
        for params in channel_grid:
            # Skip the per-qubit density-operator validation (covered by
            # unit tests).
            rail = _rail_images(_channel(params, _ANCILLA), cutoff.max_photons)
            for qubit in qubits:
                numeric = _two_mode(qubit, rail)
                closed = cf.willie_state_closed(qubit, params, cutoff).dense()
                off_pattern.append(float(np.max(np.abs(numeric[pattern_off]))))
                yield float(np.max(np.abs(numeric - closed))), _inputs(params, qubit)

    # The off-pattern maximum goes in the relative-error slot.
    report = _report("willie_state", errors(), tolerance)
    off = max(off_pattern)
    return replace(report, max_rel_error=off,
                   passed=report.passed and off <= pattern_tolerance)


def verify_chi2(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
    cutoff: Optional[FockCutoff] = None,
    rel_tolerance: float = 1e-6,
    bound_samples: int = 10_000,
    seed: int = 11,
) -> VerificationReport:
    """Chi-squared closed form vs the numeric trace computation, the
    input-independent bound (sampled over the logical state space, with
    equality at full-coherence pure states), and the balanced-mixture
    half-bound identity."""
    channels = [p for p in (channel_grid or default_channel_grid())
                if p.eta != 1.0 and p.nbar_b != 0.0]
    qubits = list(qubits or default_qubit_set())
    for params in channels:
        # Sampled supremum over the logical state space vs the bound, then
        # the equality and half-bound identities.
        occ = params.eta * params.nbar_b
        rng = np.random.default_rng(seed)
        bound = cf.chi2_bound(params)
        a2 = rng.uniform(0.0, 1.0, bound_samples)
        gmag = rng.uniform(0.0, 1.0, bound_samples) * np.sqrt(a2 * (1.0 - a2))
        vals = (
            (1.0 - params.eta) ** 2
            * (a2**2 + (1.0 - a2) ** 2 + 2.0 * gmag**2)
            / (occ * (1.0 + occ))
        )
        inputs = {"eta": params.eta, "nbar_b": params.nbar_b}
        if np.max(vals) > bound + 1e-9:
            return _report("chi2", [(np.max(vals) - bound, {
                **inputs, "violation": "sampled value exceeds bound"})],
                rel_tolerance, passed=False)
        s = 1.0 / math.sqrt(2.0)
        equality = cf.chi2_closed(cf.LogicalQubit.pure(s, s), params)
        half = cf.chi2_closed(cf.LogicalQubit(0.5, 0.5, 0.0), params)
        err = max(abs(equality - bound), abs(half - 0.5 * bound))
        if err > 1e-9 * max(bound, 1.0):
            return _report("chi2", [(err, {
                **inputs, "violation": "equality/half-bound identity"})],
                rel_tolerance, passed=False)

    def errors():
        for params in channels:
            occ = params.eta * params.nbar_b
            # The truncated chi-squared tail decays only like (occ/(1+occ))^N
            # (the inverse thermal weights cancel one factor of the state
            # tail), so escalate the cutoff with the occupancy.
            cut = cutoff or FockCutoff(
                max(20, min(30, int(math.ceil(math.log(1e-11)
                                              / math.log(occ / (1.0 + occ))))))
            )
            quiet = tensor(thermal_state(occ, cut), thermal_state(occ, cut))
            for qubit in qubits:
                num = chi2_numeric(willie_state_numeric(qubit, params, cut), quiet)
                clo = cf.chi2_closed(qubit, params)
                yield abs(num - clo) / max(abs(clo), 1e-30), _inputs(params, qubit)

    return _report("chi2", errors(), rel_tolerance)


def verify_char_fn(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
    zeta_grid: Optional[Sequence[tuple[complex, complex]]] = None,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Closed-form characteristic function vs the truncated operator trace
    on the numeric warden state, for |zeta| <= 2."""
    channel_grid = list(channel_grid or default_channel_grid())
    qubits = list(qubits or default_qubit_set(n_random=2))
    zeta_grid = list(zeta_grid or _default_zeta_grid())

    def errors():
        for params in channel_grid:
            for qubit in qubits:
                numeric = willie_state_numeric(qubit, params, cutoff)
                for z1, z2 in zeta_grid:
                    num = anti_normal_char_fn(numeric, z1, z2)
                    clo = cf.willie_char_fn_closed(qubit, params, z1, z2)
                    yield abs(num - clo), {**_inputs(params, qubit),
                                           "zeta1": str(z1), "zeta2": str(z2)}

    return _report("char_fn", errors(), tolerance)


def verify_pinsker_and_detector(
    params: ChannelParams,
    qubit: cf.LogicalQubit,
    q_values: Sequence[float] = (0.01, 0.1, 1.0),
    cutoff: FockCutoff = FockCutoff(20),
    slack: float = 1e-10,
) -> VerificationReport:
    """Single-round covertness chain: with rho1 = (1-q) rho0 + q rhoW,

        (1/4)||rho1 - rho0||_1  <=  sqrt(D(rho1||rho0)/8)
                                 <=  q sqrt(chi2(rhoW||rho0)) / sqrt(8).

    The relative entropy here is in natural-log units: the chain's middle
    step (relative entropy bounded by chi-squared) holds in nats, and the
    standard Pinsker constant 1/8 is the nats form.
    """
    occ = params.eta * params.nbar_b
    quiet = tensor(thermal_state(occ, cutoff), thermal_state(occ, cutoff))
    rho_w = willie_state_numeric(qubit, params, cutoff)
    chi2 = cf.chi2_closed(qubit, params)

    def errors():
        for q in q_values:
            mix = DensityOperator(
                2, cutoff,
                (1.0 - q) * quiet.entries + q * rho_w.entries,
                max(quiet.truncation_leak, rho_w.truncation_leak),
            )
            td_term = 0.25 * 2.0 * trace_distance(mix, quiet)
            d_nats = qre(mix, quiet, base=math.e) if q > 0 else 0.0
            mid = math.sqrt(max(d_nats, 0.0) / 8.0)
            right = q * math.sqrt(chi2) / math.sqrt(8.0)
            yield (max(td_term - mid, mid - right, 0.0),
                   {**_inputs(params, qubit), "q": q})

    return _report("pinsker_and_detector", errors(), slack)


def verify_depolarizing_reduction(
    channel_grid: Optional[Sequence[ChannelParams]] = None,
    qubits: Optional[Sequence[cf.LogicalQubit]] = None,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Project the numeric receiver state onto span{|01>, |10>}, replace the
    failed weight with the maximally mixed logical state, and compare with a
    depolarizing channel of parameter p = 1 - eta/(1 + (1-eta) nbar_b)^4
    acting on the input.  This also audits the p' closed form, since
    p = p' + (1-p') p_fail."""
    channel_grid = list(channel_grid or default_channel_grid())
    qubits = list(qubits or default_qubit_set())
    logical = np.ix_([1, cutoff.dim], [1, cutoff.dim])  # |01>, |10>

    def errors():
        for params in channel_grid:
            p = cf.p_total(params)
            for qubit in qubits:
                block = bob_state_numeric(qubit, params, cutoff).entries[logical]
                fail_weight = 1.0 - float(np.trace(block).real)
                projected = block + fail_weight * np.eye(2) / 2.0
                target = (1.0 - p) * qubit.matrix() + p * np.eye(2) / 2.0
                err = float(np.max(np.abs(projected - target)))
                # p_fail closed form vs the projected weight itself.
                yield (max(err, abs(fail_weight - cf.p_fail(params))),
                       _inputs(params, qubit))

    return _report("depolarizing_reduction", errors(), tolerance)


def _char_elem(m: int, mp: int, r: float, theta: float, cutoff: FockCutoff) -> complex:
    z = r * np.exp(1j * theta)
    a = annihilation_op(cutoff)
    mat = expm(z * a.conj().T) @ expm(-np.conj(z) * a)
    return complex(mat[m, mp])


def _ring_quad(f: Callable[[float], complex]) -> complex:
    """int_0^2pi f(th) dth of a complex integrand, one real quadrature per
    part."""
    re = quad(lambda t: f(t).real, 0.0, 2.0 * np.pi, epsabs=1e-9, limit=200)[0]
    im = quad(lambda t: f(t).imag, 0.0, 2.0 * np.pi, epsabs=1e-9, limit=200)[0]
    return complex(re, im)


def laguerre_ring_integral(m: int, r: float, cutoff: FockCutoff) -> complex:
    """Quadrature of the diagonal displacement-kernel ring integral
    int_0^2pi <m| e^(r e^(i th) c^dag) e^(-r e^(-i th) c) |m> dth."""
    return _ring_quad(lambda t: _char_elem(m, m, r, t, cutoff))


def laguerre_offdiag_ring_integral(m: int, r: float, cutoff: FockCutoff) -> complex:
    """Quadrature of the phase-weighted off-diagonal ring integral
    int_0^2pi e^(-i th) <m| e^(r e^(i th) c^dag) e^(-r e^(-i th) c) |m-1> dth
    (the only element the e^(-i th) weight leaves nonzero)."""
    if m < 1:
        return 0.0
    return _ring_quad(lambda t: np.exp(-1j * t) * _char_elem(m, m - 1, r, t, cutoff))


def laguerre_offdiag_closed(m: int, r: float) -> float:
    """Closed form of the off-diagonal ring integral:

        2 pi r sqrt(m) sum_{k=0}^{m-1} (-r^2)^k binom(m-1, k) / (k! (k+1))

    Fixed against the quadrature: the coefficient sequence uses
    binom(m-1, k), and the overall sign is positive for this phase/element
    pairing (the negative-signed variant belongs to the conjugate pairing).
    """
    if m < 1:
        return 0.0
    total = sum(
        (-(r**2)) ** k * binom(m - 1, k) / (math.factorial(k) * (k + 1))
        for k in range(m)
    )
    return float(2.0 * np.pi * r * math.sqrt(m) * total)


def verify_laguerre_lemma5(
    m_max: int = 5,
    r_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    cutoff: FockCutoff = FockCutoff(10),
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Ring integral of the diagonal kernel element vs 2 pi L_m(r^2).

    The kernel element only explores number states up to max(m, m'), so
    any cutoff at or above m_max is exact here."""
    return _ring_check(
        "laguerre_diag", lambda m, r: laguerre_ring_integral(m, r, cutoff),
        lambda m, r: 2.0 * np.pi * eval_laguerre(m, r**2), m_max, r_grid, tolerance)


def verify_laguerre_lemma6(
    m_max: int = 5,
    r_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    cutoff: FockCutoff = FockCutoff(10),
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Phase-weighted off-diagonal ring integral vs its closed form."""
    return _ring_check(
        "laguerre_offdiag", lambda m, r: laguerre_offdiag_ring_integral(m, r, cutoff),
        laguerre_offdiag_closed, m_max, r_grid, tolerance)


def _ring_check(name, numeric, closed, m_max, r_grid, tolerance) -> VerificationReport:
    """Worst |numeric(m, r) - closed(m, r)| over m <= m_max and r_grid."""
    return _report(name, ((abs(numeric(m, r) - closed(m, r)), {"m": m, "r": r})
                          for m in range(m_max + 1) for r in r_grid), tolerance)


def verify_eb_pipelines(
    cases: Optional[Sequence[tuple[ChannelParams, EbPlan]]] = None,
    qubit: Optional[cf.LogicalQubit] = None,
    zeta_grid: Optional[Sequence[tuple[complex, complex]]] = None,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Full optical-train simulation of the entanglement-breaking
    constructions vs the single-channel closed form with effective
    parameters, compared through the characteristic function."""
    from .eb_engineering import plan_lemma1, plan_lemma2

    if cases is None:
        hard = ChannelParams(0.5, 0.5)  # not naturally breaking
        easy = ChannelParams(0.9, 0.12)
        # Keep the amplifier gain modest: the truncated tail of the amplified
        # state scales as (1 - 1/G)^cutoff and must stay below the tolerance.
        cases = [
            (easy, plan_lemma1(easy)),
            (hard, plan_lemma1(hard)),
            (hard, plan_lemma2(hard, nbar_prime=0.52)),
        ]
    qubit = qubit or cf.LogicalQubit.pure(0.8, 0.6j)
    zeta_grid = list(zeta_grid or _default_zeta_grid())

    def errors():
        for params, plan in cases:
            numeric = engineered_willie_state_numeric(qubit, plan, params, cutoff)
            reflect, occupancy = effective_willie_char_params(plan, params)
            for z1, z2 in zeta_grid:
                num = anti_normal_char_fn(numeric, z1, z2)
                clo = cf.char_fn_closed_effective(qubit, reflect, occupancy, z1, z2)
                yield abs(num - clo), {"eta": params.eta, "nbar_b": params.nbar_b,
                                       "mechanism": plan.mechanism.value,
                                       "zeta1": str(z1), "zeta2": str(z2)}

    return _report("eb_pipelines", errors(), tolerance)


def _default_zeta_grid() -> list[tuple[complex, complex]]:
    """25 deterministic two-mode points with |zeta| <= 2."""
    grid = []
    for i, r in enumerate((0.1, 0.5, 1.0, 1.5, 2.0)):
        for j, phase in enumerate((0.0, 1.1, 2.3, 3.7, 5.2)):
            z1 = r * np.exp(1j * phase)
            z2 = (0.3 + 0.3 * j) * np.exp(1j * (phase + 0.7 * i))
            grid.append((complex(z1), complex(z2)))
    return grid


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


def _pinsker_default() -> VerificationReport:
    return verify_pinsker_and_detector(
        ChannelParams(0.9, 0.12), cf.LogicalQubit.pure(1 / math.sqrt(2), 1 / math.sqrt(2))
    )


ALL_CHECKS = {
    "willie_state": verify_willie_state,
    "chi2": verify_chi2,
    "char_fn": verify_char_fn,
    "pinsker_and_detector": _pinsker_default,
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
