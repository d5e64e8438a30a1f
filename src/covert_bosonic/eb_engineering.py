"""Engineering an entanglement-breaking channel to the warden.

The achievability analysis needs the sender-to-warden channel to be
entanglement breaking, which for a thermal-noise beamsplitter means
eta * nbar_b > 1 - eta.  When the physical channel does not satisfy this,
the sender can prepend either extra loss (a beamsplitter of transmittance
tau with a vacuum port) or extra noise (a quantum-limited amplifier of
gain G_eb followed by loss 1/G_eb).  Both constructions are equivalent,
at the warden's port, to a single thermal-noise beamsplitter with
modified effective parameters; those effective parameters are what feed
back into the covertness constant and the achievable rate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .fock_core import ChannelParams

__all__ = [
    "EbMechanism",
    "EbPlan",
    "EbInfeasibleError",
    "is_entanglement_breaking",
    "lemma2_nbar_prime_lower_bound",
    "lemma2_nbar_prime_upper_bound",
    "plan_lemma1",
    "plan_lemma2",
]

DEFAULT_MARGIN = 0.9
DEFAULT_NBAR_PRIME_FACTOR = 1.1


class EbInfeasibleError(ValueError):
    """No valid construction exists for the requested parameters."""


class EbMechanism(enum.Enum):
    NONE_NEEDED = "none_needed"
    ATTENUATE = "attenuate"
    AMPLIFY = "amplify"


@dataclass(frozen=True)
class EbPlan:
    """One concrete way to make the sender-to-warden channel entanglement
    breaking, with the parameter substitutions it induces.

    ``effective_covert_params`` reproduces the engineered covertness
    constant and the warden's port, a thermal-noise beamsplitter of
    reflectance 1 - eta and occupancy eta nbar_b in these parameters;
    ``effective_rate_params`` reproduces the engineered achievable rate.
    Unused knobs sit at their identity values (tau = 1, gain_eb = 1,
    nbar_prime = 0).
    """

    mechanism: EbMechanism
    tau: float
    gain_eb: float
    nbar_prime: float
    effective_covert_params: ChannelParams
    effective_rate_params: ChannelParams


def is_entanglement_breaking(params: ChannelParams) -> bool:
    """Strict condition eta * nbar_b > 1 - eta."""
    return params.eta * params.nbar_b > 1.0 - params.eta


def _identity_plan(params: ChannelParams) -> EbPlan:
    return EbPlan(
        mechanism=EbMechanism.NONE_NEEDED,
        tau=1.0,
        gain_eb=1.0,
        nbar_prime=0.0,
        effective_covert_params=params,
        effective_rate_params=params,
    )


def plan_lemma1(params: ChannelParams, margin: float = DEFAULT_MARGIN) -> EbPlan:
    """Break entanglement by attenuating the signal: a pure-loss stage of
    transmittance tau < (eta / (1 - eta)) nbar_b before the channel.

    ``margin`` in (0, 1) places tau strictly inside the inequality.  The
    warden-side reflectance becomes tau (1 - eta) while the thermal
    contribution eta * nbar_b is unchanged; the receiver-side channel has
    its transmittance reduced the same way (eta -> 1 - tau (1 - eta)).
    """
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    if is_entanglement_breaking(params):
        return _identity_plan(params)
    if params.eta >= 1.0 or params.nbar_b == 0.0:
        raise EbInfeasibleError(
            "attenuation cannot break entanglement: the bound on tau is zero"
        )
    tau = min(1.0, margin * params.eta * params.nbar_b / (1.0 - params.eta))
    eta_eff = 1.0 - tau * (1.0 - params.eta)
    occupancy = params.eta * params.nbar_b
    return EbPlan(
        mechanism=EbMechanism.ATTENUATE,
        tau=tau,
        gain_eb=1.0,
        nbar_prime=0.0,
        effective_covert_params=ChannelParams(eta_eff, occupancy / eta_eff),
        effective_rate_params=ChannelParams(eta_eff, params.nbar_b),
    )


def lemma2_nbar_prime_lower_bound(params: ChannelParams) -> float:
    """Least added thermal photon number that can break entanglement.

    Solving eta (nbar_b + nbar') > 1 - eta for nbar' gives
    (1-eta)/eta - nbar_b.
    """
    if params.eta == 0.0:
        raise EbInfeasibleError("eta = 0: the warden-side channel cannot break")
    return (1.0 - params.eta) / params.eta - params.nbar_b


def lemma2_nbar_prime_upper_bound(params: ChannelParams) -> float:
    """Supremum of the added noise this construction can deliver,
    (1-eta)/eta, approached as the gain grows without bound."""
    if params.eta == 0.0:
        raise EbInfeasibleError("eta = 0: the warden-side channel cannot break")
    return (1.0 - params.eta) / params.eta


def plan_lemma2(params: ChannelParams, nbar_prime: float | None = None) -> EbPlan:
    """Break entanglement by injecting thermal noise: a quantum-limited
    amplifier of gain G followed by a pure-loss stage of transmittance 1/G.

    The chain adds occupancy (1-eta)(1 - 1/G) at the warden's port (the
    idler enters the warden-port characteristic function normally ordered,
    so its vacuum contributes no Gaussian factor; the added noise comes
    from the vacuum port of the loss stage alone -- confirmed by the
    brute-force simulation in :mod:`covert_bosonic.oracle`).  Delivering
    added thermal photons nbar' therefore requires

        G = (1-eta) / ((1-eta) - eta * nbar'),

    which is finite only for nbar' < (1-eta)/eta: prepended optics cannot
    push the warden occupancy past eta*nbar_b + (1-eta).

    ``nbar_prime`` must lie strictly between the breaking bound
    (1-eta)/eta - nbar_b and that cap; by default it sits 10% above the
    bound, or at the midpoint of the window when 10% would overshoot.  The
    warden then sees the original reflectance with occupancy
    eta (nbar_b + nbar'); the receiver-side rate picks up the smaller
    added noise nbar'' = (1 - 1/G) eta / (1-eta).
    """
    if is_entanglement_breaking(params) and (nbar_prime is None or nbar_prime == 0.0):
        return _identity_plan(params)
    bound = lemma2_nbar_prime_lower_bound(params)
    cap = lemma2_nbar_prime_upper_bound(params)
    if bound >= cap:  # nbar_b = 0: the window is empty
        raise EbInfeasibleError(
            "no finite gain can break entanglement at nbar_b = 0"
        )
    if nbar_prime is None:
        nbar_prime = min(DEFAULT_NBAR_PRIME_FACTOR * bound, 0.5 * (bound + cap))
        if nbar_prime <= 0.0:
            return _identity_plan(params)
    if nbar_prime <= bound:
        raise EbInfeasibleError(
            f"nbar_prime = {nbar_prime!r} does not exceed the required bound "
            f"{bound!r}"
        )
    denom = (1.0 - params.eta) - params.eta * nbar_prime
    if denom <= 0.0:
        raise EbInfeasibleError(
            f"amplifier gain infeasible: (1-eta) - eta*nbar_prime = {denom!r} "
            f"<= 0; the construction caps added noise at {cap!r}"
        )
    gain = (1.0 - params.eta) / denom
    nbar_second = (1.0 - 1.0 / gain) * params.eta / (1.0 - params.eta)
    return EbPlan(
        mechanism=EbMechanism.AMPLIFY,
        tau=1.0 / gain,
        gain_eb=gain,
        nbar_prime=nbar_prime,
        effective_covert_params=ChannelParams(params.eta, params.nbar_b + nbar_prime),
        effective_rate_params=ChannelParams(params.eta, params.nbar_b + nbar_second),
    )

