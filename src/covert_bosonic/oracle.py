"""Brute-force verification of every closed form in this package.

The closed-form expressions in :mod:`covert_bosonic.closed_form` involve
enough index bookkeeping that transposition or sign typos are cheap to
make and expensive to notice.  This module re-derives every quantity
numerically from :mod:`covert_bosonic.fock_core` primitives alone --
truncated beamsplitter/amplifier unitaries, partial traces, operator
exponentials and adaptive quadrature -- and reports the discrepancies.
It deliberately shares no code with ``closed_form`` beyond those
primitives, so an error in the analytic layer cannot cancel here.

The channel acts on each (signal mode, environment mode) pair
independently, so the two-rail simulation factorizes: the four logical
basis operators |x><x'| (x in {0, 1} photons) are pushed through the
pair channel separately and the two-mode output is reassembled by
linearity.  This is algebraically identical to conjugating the full
four-mode product state by a pair of beamsplitter unitaries and tracing
out the receiver's ports, without ever materializing the four-mode
matrix (``tests/test_oracle.py`` confirms the equivalence against the
direct four-mode route at a small cutoff).

Every check is a pure function returning a :class:`VerificationReport`;
checks are independent and may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import binom, eval_laguerre

from . import closed_form as cf
from . import covert_bounds as cb
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
# Numeric channel application (pairwise, exact at the given cutoff)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _pair_unitary_tensor(eta: float, max_photons: int) -> np.ndarray:
    """Beamsplitter unitary on one (signal, environment) pair, reshaped to
    U[out_sig, out_env, in_sig, in_env]; out_env is the reflected port."""
    cut = FockCutoff(max_photons)
    u = beamsplitter_unitary(eta, 0, 1, 2, cut)
    d = cut.dim
    t = u.reshape(d, d, d, d)
    t.setflags(write=False)
    return t


def _pair_channel(
    x: np.ndarray, eta: float, env_diag: np.ndarray, keep: str, cutoff: FockCutoff
) -> np.ndarray:
    """Push a single-mode operator through one beamsplitter mixing it with a
    diagonal environment state; keep the transmitted or reflected port."""
    ut = _pair_unitary_tensor(eta, cutoff.max_photons)
    t1 = np.einsum("bwik,ij->bwjk", ut, x, optimize=True)
    if keep == "reflected":
        return np.einsum("bwjk,bvjk,k->wv", t1, ut.conj(), env_diag,
                         optimize=True)
    if keep == "transmitted":
        return np.einsum("bwjk,cwjk,k->bc", t1, ut.conj(), env_diag,
                         optimize=True)
    raise ValueError(f"keep must be 'transmitted' or 'reflected', got {keep!r}")


@lru_cache(maxsize=16)
def _amp_unitary_slice(gain: float, max_photons: int) -> np.ndarray:
    """Amplifier unitary columns with the idler in vacuum:
    Ua[out_sig, out_idler, in_sig]."""
    cut = FockCutoff(max_photons)
    u = two_mode_amplifier_unitary(gain, 0, 1, 2, cut)
    d = cut.dim
    t = u.reshape(d, d, d, d)[:, :, :, 0].copy()
    t.setflags(write=False)
    return t


def _amp_channel(x: np.ndarray, gain: float, cutoff: FockCutoff) -> np.ndarray:
    """Quantum-limited amplifier on a single-mode operator (idler traced)."""
    ua = _amp_unitary_slice(gain, cutoff.max_photons)
    return np.einsum("omi,ij,pmj->op", ua, x, ua.conj())


def _rail_basis_ops(cutoff: FockCutoff) -> dict:
    d = cutoff.dim
    ops = {}
    for x in (0, 1):
        for xp in (0, 1):
            m = np.zeros((d, d), dtype=complex)
            m[x, xp] = 1.0
            ops[(x, xp)] = m
    return ops


@lru_cache(maxsize=256)
def _rail_images(
    eta: float, nbar_b: float, keep: str, max_photons: int
) -> dict:
    """Images of the four logical basis operators under the pair channel.

    Qubit-independent, so sweeps over many inputs at fixed channel
    parameters reuse these."""
    env = thermal_state(nbar_b, FockCutoff(max_photons)).entries.diagonal().real
    ut = _pair_unitary_tensor(eta, max_photons)
    out = {}
    for x in (0, 1):
        for xp in (0, 1):
            # The basis operator |x><xp| selects two input-signal slices of
            # the beamsplitter tensor, so the general d^5 contraction in
            # _pair_channel collapses to a d^4 one.
            if keep == "reflected":
                out[(x, xp)] = np.einsum(
                    "bwk,bvk,k->wv", ut[:, :, x, :], ut[:, :, xp, :].conj(),
                    env, optimize=True,
                )
            elif keep == "transmitted":
                out[(x, xp)] = np.einsum(
                    "bwk,cwk,k->bc", ut[:, :, x, :], ut[:, :, xp, :].conj(),
                    env, optimize=True,
                )
            else:
                raise ValueError(
                    f"keep must be 'transmitted' or 'reflected', got {keep!r}"
                )
    for m in out.values():
        m.setflags(write=False)
    return out


def _assemble_two_mode(
    qubit: cf.LogicalQubit, rail: dict, cutoff: FockCutoff
) -> DensityOperator:
    """Reassemble the two-mode output from per-rail basis-operator images.

    Logical |0> = |01> puts 0 photons on mode 1 and 1 photon on mode 2, so
    the |01><01| population weights rail-1 image (0,0) and rail-2 image
    (1,1), and the coherences use the mixed images.
    """
    m = (
        qubit.alpha_sq * np.kron(rail[(0, 0)], rail[(1, 1)])
        + qubit.gamma * np.kron(rail[(0, 1)], rail[(1, 0)])
        + np.conj(qubit.gamma) * np.kron(rail[(1, 0)], rail[(0, 1)])
        + qubit.beta_sq * np.kron(rail[(1, 1)], rail[(0, 0)])
    )
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
    images = _rail_images(params.eta, params.nbar_b, "reflected", cutoff.max_photons)
    return _assemble_two_mode(qubit, images, cutoff)


def bob_state_numeric(
    qubit: cf.LogicalQubit,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> DensityOperator:
    """Receiver's two-mode output: same simulation, transmitted ports kept."""
    images = _rail_images(params.eta, params.nbar_b, "transmitted", cutoff.max_photons)
    return _assemble_two_mode(qubit, images, cutoff)


def engineered_willie_state_numeric(
    qubit: cf.LogicalQubit,
    plan: EbPlan,
    params: ChannelParams,
    cutoff: FockCutoff = DEFAULT_ORACLE_CUTOFF,
) -> DensityOperator:
    """Warden's output through the full entanglement-breaking optical train:
    optional amplifier (vacuum idler), optional pure-loss stage (vacuum
    port), then the physical channel."""
    env = thermal_state(params.nbar_b, cutoff).entries.diagonal().real
    vac = np.zeros(cutoff.dim)
    vac[0] = 1.0
    images = {}
    for key, op in _rail_basis_ops(cutoff).items():
        if plan.mechanism is EbMechanism.AMPLIFY and plan.gain_eb > 1.0:
            op = _amp_channel(op, plan.gain_eb, cutoff)
        if plan.tau < 1.0:
            op = _pair_channel(op, plan.tau, vac, "transmitted", cutoff)
        images[key] = _pair_channel(op, params.eta, env, "reflected", cutoff)
    return _assemble_two_mode(qubit, images, cutoff)


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
    worst = (0.0, {})
    off_pattern_worst = 0.0
    count = 0
    for params in channel_grid:
        rail = _rail_images(params.eta, params.nbar_b, "reflected",
                            cutoff.max_photons)
        # The output is linear in (alpha_sq, beta_sq, gamma), so precompute
        # the three independent two-mode blocks once per channel and skip
        # the per-qubit density-operator validation (covered by unit tests).
        k_a = np.kron(rail[(0, 0)], rail[(1, 1)])
        k_b = np.kron(rail[(1, 1)], rail[(0, 0)])
        k_g = np.kron(rail[(0, 1)], rail[(1, 0)])
        for qubit in qubits:
            count += 1
            numeric = (
                qubit.alpha_sq * k_a + qubit.beta_sq * k_b
                + qubit.gamma * k_g + np.conj(qubit.gamma) * k_g.conj().T
            )
            closed = cf.willie_state_closed(qubit, params, cutoff).dense()
            err = float(np.max(np.abs(numeric - closed)))
            off = float(np.max(np.abs(numeric[pattern_off])))
            off_pattern_worst = max(off_pattern_worst, off)
            if err > worst[0]:
                worst = (err, _inputs(params, qubit))
    passed = worst[0] <= tolerance and off_pattern_worst <= pattern_tolerance
    return VerificationReport(
        check_name="willie_state",
        grid_size=count,
        max_abs_error=worst[0],
        max_rel_error=off_pattern_worst,
        tolerance=tolerance,
        passed=passed,
        worst_case_inputs=worst[1],
    )


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
    channel_grid = list(channel_grid or default_channel_grid())
    qubits = list(qubits or default_qubit_set())
    worst = (0.0, {})
    count = 0
    for params in channel_grid:
        if params.eta == 1.0 or params.nbar_b == 0.0:
            continue
        occ = params.eta * params.nbar_b
        # The truncated chi-squared tail decays only like (occ/(1+occ))^N
        # (the inverse thermal weights cancel one factor of the state tail),
        # so escalate the cutoff with the occupancy.
        cut = cutoff or FockCutoff(
            max(20, min(30, int(math.ceil(math.log(1e-11)
                                          / math.log(occ / (1.0 + occ))))))
        )
        quiet = tensor(thermal_state(occ, cut), thermal_state(occ, cut))
        for qubit in qubits:
            count += 1
            num = chi2_numeric(willie_state_numeric(qubit, params, cut), quiet)
            clo = cf.chi2_closed(qubit, params)
            rel = abs(num - clo) / max(abs(clo), 1e-30)
            if rel > worst[0]:
                worst = (rel, _inputs(params, qubit))
        # Sampled supremum over the logical state space vs the bound.
        rng = np.random.default_rng(seed)
        bound = cf.chi2_bound(params)
        a2 = rng.uniform(0.0, 1.0, bound_samples)
        gmag = rng.uniform(0.0, 1.0, bound_samples) * np.sqrt(a2 * (1.0 - a2))
        vals = (
            (1.0 - params.eta) ** 2
            * (a2**2 + (1.0 - a2) ** 2 + 2.0 * gmag**2)
            / (occ * (1.0 + occ))
        )
        if np.max(vals) > bound + 1e-9:
            return _fail("chi2", count, float(np.max(vals) - bound), rel_tolerance,
                         {"eta": params.eta, "nbar_b": params.nbar_b,
                          "violation": "sampled value exceeds bound"})
        s = 1.0 / math.sqrt(2.0)
        equality = cf.chi2_closed(cf.LogicalQubit.pure(s, s), params)
        half = cf.chi2_closed(cf.LogicalQubit(0.5, 0.5, 0.0), params)
        if abs(equality - bound) > 1e-9 * max(bound, 1.0) or abs(
            half - 0.5 * bound
        ) > 1e-9 * max(bound, 1.0):
            return _fail("chi2", count, abs(equality - bound), rel_tolerance,
                         {"eta": params.eta, "nbar_b": params.nbar_b,
                          "violation": "equality/half-bound identity"})
    return VerificationReport(
        check_name="chi2",
        grid_size=count,
        max_abs_error=worst[0],
        max_rel_error=worst[0],
        tolerance=rel_tolerance,
        passed=worst[0] <= rel_tolerance,
        worst_case_inputs=worst[1],
    )


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
    worst = (0.0, {})
    count = 0
    for params in channel_grid:
        for qubit in qubits:
            numeric = willie_state_numeric(qubit, params, cutoff)
            for z1, z2 in zeta_grid:
                count += 1
                num = anti_normal_char_fn(numeric, z1, z2)
                clo = cf.willie_char_fn_closed(qubit, params, z1, z2)
                err = abs(num - clo)
                if err > worst[0]:
                    worst = (err, {**_inputs(params, qubit), "zeta1": str(z1),
                                   "zeta2": str(z2)})
    return VerificationReport(
        check_name="char_fn",
        grid_size=count,
        max_abs_error=worst[0],
        max_rel_error=worst[0],
        tolerance=tolerance,
        passed=worst[0] <= tolerance,
        worst_case_inputs=worst[1],
    )


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
    worst = 0.0
    worst_inputs: dict = {}
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
        violation = max(td_term - mid, mid - right, 0.0)
        if violation > worst:
            worst = violation
            worst_inputs = {**_inputs(params, qubit), "q": q}
    return VerificationReport(
        check_name="pinsker_and_detector",
        grid_size=len(list(q_values)),
        max_abs_error=worst,
        max_rel_error=worst,
        tolerance=slack,
        passed=worst <= slack,
        worst_case_inputs=worst_inputs,
    )


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
    d = cutoff.dim
    i01, i10 = 0 * d + 1, 1 * d + 0
    worst = (0.0, {})
    count = 0
    for params in channel_grid:
        p = cb.p_total(params)
        for qubit in qubits:
            count += 1
            rho_b = bob_state_numeric(qubit, params, cutoff).entries
            block = np.array(
                [[rho_b[i01, i01], rho_b[i01, i10]], [rho_b[i10, i01], rho_b[i10, i10]]]
            )
            fail_weight = 1.0 - float(np.trace(block).real)
            logical = block + fail_weight * np.eye(2) / 2.0
            target = (1.0 - p) * qubit.matrix() + p * np.eye(2) / 2.0
            err = float(np.max(np.abs(logical - target)))
            # p_fail closed form vs the projected weight itself.
            err = max(err, abs(fail_weight - cf.p_fail(params)))
            if err > worst[0]:
                worst = (err, _inputs(params, qubit))
    return VerificationReport(
        check_name="depolarizing_reduction",
        grid_size=count,
        max_abs_error=worst[0],
        max_rel_error=worst[0],
        tolerance=tolerance,
        passed=worst[0] <= tolerance,
        worst_case_inputs=worst[1],
    )


def _char_elem(m: int, mp: int, r: float, theta: float, cutoff: FockCutoff) -> complex:
    z = r * np.exp(1j * theta)
    a = annihilation_op(cutoff)
    mat = expm(z * a.conj().T) @ expm(-np.conj(z) * a)
    return complex(mat[m, mp])


def laguerre_ring_integral(m: int, r: float, cutoff: FockCutoff) -> complex:
    """Quadrature of the diagonal displacement-kernel ring integral
    int_0^2pi <m| e^(r e^(i th) c^dag) e^(-r e^(-i th) c) |m> dth."""
    re = quad(lambda t: _char_elem(m, m, r, t, cutoff).real, 0.0, 2.0 * np.pi,
              epsabs=1e-9, limit=200)[0]
    im = quad(lambda t: _char_elem(m, m, r, t, cutoff).imag, 0.0, 2.0 * np.pi,
              epsabs=1e-9, limit=200)[0]
    return complex(re, im)


def laguerre_offdiag_ring_integral(m: int, r: float, cutoff: FockCutoff) -> complex:
    """Quadrature of the phase-weighted off-diagonal ring integral
    int_0^2pi e^(-i th) <m| e^(r e^(i th) c^dag) e^(-r e^(-i th) c) |m-1> dth
    (the only element the e^(-i th) weight leaves nonzero)."""
    if m < 1:
        return 0.0
    f = lambda t: np.exp(-1j * t) * _char_elem(m, m - 1, r, t, cutoff)
    re = quad(lambda t: f(t).real, 0.0, 2.0 * np.pi, epsabs=1e-9, limit=200)[0]
    im = quad(lambda t: f(t).imag, 0.0, 2.0 * np.pi, epsabs=1e-9, limit=200)[0]
    return complex(re, im)


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
    worst = (0.0, {})
    count = 0
    for m in range(m_max + 1):
        for r in r_grid:
            count += 1
            num = laguerre_ring_integral(m, r, cutoff)
            closed = 2.0 * np.pi * eval_laguerre(m, r**2)
            err = abs(num - closed)
            if err > worst[0]:
                worst = (err, {"m": m, "r": r})
    return VerificationReport(
        check_name="laguerre_diag",
        grid_size=count,
        max_abs_error=worst[0],
        max_rel_error=worst[0],
        tolerance=tolerance,
        passed=worst[0] <= tolerance,
        worst_case_inputs=worst[1],
    )


def verify_laguerre_lemma6(
    m_max: int = 5,
    r_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    cutoff: FockCutoff = FockCutoff(10),
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Phase-weighted off-diagonal ring integral vs its closed form."""
    worst = (0.0, {})
    count = 0
    for m in range(m_max + 1):
        for r in r_grid:
            count += 1
            num = laguerre_offdiag_ring_integral(m, r, cutoff)
            err = abs(num - laguerre_offdiag_closed(m, r))
            if err > worst[0]:
                worst = (err, {"m": m, "r": r})
    return VerificationReport(
        check_name="laguerre_offdiag",
        grid_size=count,
        max_abs_error=worst[0],
        max_rel_error=worst[0],
        tolerance=tolerance,
        passed=worst[0] <= tolerance,
        worst_case_inputs=worst[1],
    )


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
    worst = (0.0, {})
    count = 0
    for params, plan in cases:
        numeric = engineered_willie_state_numeric(qubit, plan, params, cutoff)
        reflect, occupancy = effective_willie_char_params(plan, params)
        for z1, z2 in zeta_grid:
            count += 1
            num = anti_normal_char_fn(numeric, z1, z2)
            clo = cf.char_fn_closed_effective(qubit, reflect, occupancy, z1, z2)
            err = abs(num - clo)
            if err > worst[0]:
                worst = (err, {"eta": params.eta, "nbar_b": params.nbar_b,
                               "mechanism": plan.mechanism.value,
                               "zeta1": str(z1), "zeta2": str(z2)})
    return VerificationReport(
        check_name="eb_pipelines",
        grid_size=count,
        max_abs_error=worst[0],
        max_rel_error=worst[0],
        tolerance=tolerance,
        passed=worst[0] <= tolerance,
        worst_case_inputs=worst[1],
    )


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


def _fail(name, count, err, tol, inputs) -> VerificationReport:
    return VerificationReport(
        check_name=name, grid_size=count, max_abs_error=float(err),
        max_rel_error=float(err), tolerance=tol, passed=False,
        worst_case_inputs=inputs,
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
