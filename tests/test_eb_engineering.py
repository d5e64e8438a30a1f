import numpy as np
import pytest

from covert_bosonic.eb_engineering import (
    EbInfeasibleError,
    EbMechanism,
    is_entanglement_breaking,
    lemma2_nbar_prime_lower_bound,
    lemma2_nbar_prime_upper_bound,
    plan_lemma1,
    plan_lemma2,
)
from covert_bosonic.fock_core import (
    ChannelParams,
    FockCutoff,
    beamsplitter_unitary,
    tensor,
    thermal_state,
    two_mode_amplifier_unitary,
)
from dense_reference import apply_unitary, partial_trace

BREAKING = ChannelParams(0.9, 0.12)  # 0.108 > 0.1
NOT_BREAKING = ChannelParams(0.5, 0.5)  # 0.25 < 0.5


def warden_port(plan):
    """(reflectance, occupancy) of the warden's port under the plan's
    effective covert parameters."""
    p = plan.effective_covert_params
    return 1.0 - p.eta, p.eta * p.nbar_b


class TestBreakingCondition:
    def test_examples(self):
        assert is_entanglement_breaking(BREAKING)
        assert not is_entanglement_breaking(NOT_BREAKING)

    def test_boundary_is_strict(self):
        assert not is_entanglement_breaking(ChannelParams(0.5, 1.0))


class TestAttenuationPlan:
    def test_identity_when_already_breaking(self):
        plan = plan_lemma1(BREAKING)
        assert plan.mechanism is EbMechanism.NONE_NEEDED
        assert plan.tau == 1.0
        assert plan.effective_covert_params == BREAKING
        assert plan.effective_rate_params == BREAKING

    def test_example_values(self):
        plan = plan_lemma1(NOT_BREAKING, margin=0.9)
        assert plan.mechanism is EbMechanism.ATTENUATE
        assert plan.tau == pytest.approx(0.45)
        eta_eff = 1.0 - 0.45 * 0.5
        assert plan.effective_covert_params.eta == pytest.approx(eta_eff)
        assert plan.effective_covert_params.nbar_b == pytest.approx(0.25 / eta_eff)
        assert plan.effective_rate_params == ChannelParams(eta_eff, 0.5)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            plan_lemma1(NOT_BREAKING, margin=1.0)
        with pytest.raises(ValueError):
            plan_lemma1(NOT_BREAKING, margin=0.0)

    def test_infeasible_without_background(self):
        with pytest.raises(EbInfeasibleError):
            plan_lemma1(ChannelParams(0.5, 0.0))

    def test_result_breaks_entanglement(self):
        for eta in (0.2, 0.5, 0.8):
            for nb in (0.05, 0.2, 0.5):
                plan = plan_lemma1(ChannelParams(eta, nb))
                assert is_entanglement_breaking(plan.effective_covert_params)

    def test_stronger_attenuation_lowers_reflectance(self):
        weak = plan_lemma1(NOT_BREAKING, margin=0.9)
        strong = plan_lemma1(NOT_BREAKING, margin=0.5)
        r_weak, _ = warden_port(weak)
        r_strong, _ = warden_port(strong)
        assert r_strong < r_weak


class TestAmplificationPlan:
    def test_noise_window(self):
        assert lemma2_nbar_prime_lower_bound(NOT_BREAKING) == pytest.approx(0.5)
        assert lemma2_nbar_prime_upper_bound(NOT_BREAKING) == pytest.approx(1.0)

    def test_identity_when_already_breaking(self):
        plan = plan_lemma2(BREAKING)
        assert plan.mechanism is EbMechanism.NONE_NEEDED
        assert plan.gain_eb == 1.0

    def test_example_values(self):
        plan = plan_lemma2(NOT_BREAKING, nbar_prime=0.6)
        assert plan.mechanism is EbMechanism.AMPLIFY
        assert plan.gain_eb == pytest.approx(0.5 / 0.2)
        assert plan.tau == pytest.approx(0.4)
        assert plan.effective_covert_params == ChannelParams(0.5, 1.1)
        nbar_second = (1.0 - 0.4) * 1.0
        assert plan.effective_rate_params.nbar_b == pytest.approx(0.5 + nbar_second)

    def test_default_noise_sits_inside_window(self):
        plan = plan_lemma2(NOT_BREAKING)
        assert 0.5 < plan.nbar_prime < 1.0
        assert is_entanglement_breaking(plan.effective_covert_params)

    def test_insufficient_noise_rejected(self):
        with pytest.raises(EbInfeasibleError):
            plan_lemma2(NOT_BREAKING, nbar_prime=0.4)

    def test_noise_beyond_cap_rejected(self):
        with pytest.raises(EbInfeasibleError):
            plan_lemma2(NOT_BREAKING, nbar_prime=1.2)

    def test_infeasible_without_background(self):
        with pytest.raises(EbInfeasibleError):
            plan_lemma2(ChannelParams(0.4, 0.0))

    def test_result_breaks_entanglement(self):
        for eta in (0.2, 0.5, 0.7):
            for nb in (0.05, 0.2, 0.5):
                params = ChannelParams(eta, nb)
                if is_entanglement_breaking(params):
                    continue
                plan = plan_lemma2(params)
                assert is_entanglement_breaking(plan.effective_covert_params)

    def test_rate_side_noise_is_smaller_than_covert_side(self):
        plan = plan_lemma2(NOT_BREAKING, nbar_prime=0.6)
        added_rate = plan.effective_rate_params.nbar_b - 0.5
        # equal only at eta = 1/2; strictly smaller below it
        assert added_rate <= plan.nbar_prime + 1e-15
        plan2 = plan_lemma2(ChannelParams(0.3, 0.5), nbar_prime=2.0)
        assert plan2.effective_rate_params.nbar_b - 0.5 < plan2.nbar_prime

    def test_gain_rational_forms_agree(self):
        # (1-eta) / ((1-eta) - eta x)  ==  1 / (1 - eta x / (1-eta))
        rng = np.random.default_rng(3)
        for _ in range(100):
            eta = rng.uniform(0.05, 0.95)
            params = ChannelParams(eta, rng.uniform(0.0, 0.9) * (1 - eta) / eta)
            lo = lemma2_nbar_prime_lower_bound(params)
            hi = lemma2_nbar_prime_upper_bound(params)
            if lo <= 0:
                continue
            x = lo + 0.5 * (hi - lo)
            plan = plan_lemma2(params, nbar_prime=x)
            alt = 1.0 / (1.0 - eta * x / (1.0 - eta))
            assert abs(plan.gain_eb - alt) <= 1e-14 * alt


class TestWardenPortParameters:
    def test_attenuate_scales_reflectance_only(self):
        plan = plan_lemma1(NOT_BREAKING, margin=0.9)
        reflect, occ = warden_port(plan)
        assert reflect == pytest.approx(0.45 * 0.5)
        assert occ == pytest.approx(0.25)

    def test_amplify_raises_occupancy_only(self):
        plan = plan_lemma2(NOT_BREAKING, nbar_prime=0.6)
        reflect, occ = warden_port(plan)
        assert reflect == pytest.approx(0.5)
        assert occ == pytest.approx(0.5 * 1.1)

    def test_identity_plan_leaves_parameters_alone(self):
        plan = plan_lemma2(BREAKING)
        assert warden_port(plan) == (
            pytest.approx(0.1),
            pytest.approx(0.108),
        )


def _mean_photons(state, mode):
    cut = state.cutoff
    diag = np.arange(cut.dim, dtype=float)
    num = np.ones(1)
    for m in range(state.num_modes):
        num = np.kron(num, diag if m == mode else np.ones(cut.dim))
    return float(np.real(np.sum(num * np.diag(state.entries))))


def test_receiver_side_added_noise_matches_simulation():
    """Push vacuum through amplify-then-attenuate optics and the channel;
    the transmitted-port mean photon number must match the effective
    receiver-side parameters of the plan."""
    params = ChannelParams(0.5, 0.5)
    plan = plan_lemma2(params, nbar_prime=0.52)
    cut = FockCutoff(30)
    vac = thermal_state(0.0, cut)

    amp = two_mode_amplifier_unitary(plan.gain_eb, 0, 1, 2, cut)
    sig = partial_trace(apply_unitary(tensor(vac, vac), amp), keep=[0])

    loss = beamsplitter_unitary(plan.tau, 0, 1, 2, cut)
    sig = partial_trace(apply_unitary(tensor(sig, vac), loss), keep=[0])
    assert _mean_photons(sig, 0) == pytest.approx(1.0 - 1.0 / plan.gain_eb, abs=1e-3)

    chan = beamsplitter_unitary(params.eta, 0, 1, 2, cut)
    env = thermal_state(params.nbar_b, cut)
    out = partial_trace(apply_unitary(tensor(sig, env), chan), keep=[0])

    eff = plan.effective_rate_params
    expected = (1.0 - eff.eta) * eff.nbar_b  # vacuum input through the channel
    assert _mean_photons(out, 0) == pytest.approx(expected, abs=1e-3)
