import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_bosonic.closed_form import (
    DivergenceUndefinedError,
    LogicalQubit,
    bob_state_closed,
    chi2_bound,
    chi2_closed,
    willie_char_fn_closed,
    willie_state_closed,
)
from covert_bosonic.covert_bounds import p_fail, p_prime, p_total, qre_bound
from covert_bosonic.fock_core import (
    ChannelParams,
    FockCutoff,
    tensor,
    thermal_occupation,
    thermal_state,
)

FIG2 = ChannelParams(0.9, 0.12)
CUT = FockCutoff(12)
POLE = LogicalQubit(1.0, 0.0)  # diag is w1 itself
PLUS = LogicalQubit(0.5, 0.5, 0.5)  # upper is w2 / 2


def _w1_reference(f, g, reflect, n):
    """Population coefficient, one entry at a time in scalar arithmetic."""
    corr = n**g - (g * n ** (g - 1) if g >= 1 else 0.0)
    bracket = thermal_occupation(g, n) - reflect * corr / (1.0 + n) ** (g + 2)
    return float(bracket * thermal_occupation(f, n))


def _w2_reference(f, g, reflect, n):
    """Coherence coefficient, one entry at a time in scalar arithmetic."""
    if f == 0 or reflect == 0.0:
        return 0.0
    return float(
        reflect * n ** (g + f - 1) / (1.0 + n) ** (g + f + 3) * np.sqrt(f * (g + 1))
    )


def _state_reference(qubit, params, cutoff):
    """Loop-by-entry warden state: (diag, upper) with
    upper[f, g] = <fg|rho|f+1,g-1>."""
    reflect, n = 1.0 - params.eta, params.eta * params.nbar_b
    d = cutoff.dim
    diag = np.zeros((d, d))
    upper = np.zeros((d, d), dtype=complex)
    for f in range(d):
        for g in range(d):
            diag[f, g] = qubit.alpha_sq * _w1_reference(f, g, reflect, n) + (
                qubit.beta_sq * _w1_reference(g, f, reflect, n)
            )
            if g >= 1 and f + 1 < d:
                upper[f, g] = qubit.gamma * _w2_reference(g, f, reflect, n)
    return diag, upper


def valid_qubits():
    s = 1.0 / math.sqrt(2.0)
    return [
        LogicalQubit(1.0, 0.0),
        LogicalQubit(0.0, 1.0),
        LogicalQubit.pure(s, s),
        LogicalQubit.pure(s, s * 1j),
        LogicalQubit(0.5, 0.5, 0.0),
        LogicalQubit(0.3, 0.7, 0.2 - 0.3j),
    ]


class TestLogicalQubit:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            LogicalQubit(0.6, 0.6)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            LogicalQubit(0.5, 0.5, 0.6)

    @pytest.mark.parametrize("gamma", [complex("nan"), complex(0.0, math.nan),
                                       complex("inf"), math.nan])
    def test_non_finite_coherence_rejected(self, gamma):
        # abs(nan)**2 > ... is False, so the positivity check alone let NaN in.
        with pytest.raises(ValueError, match="finite"):
            LogicalQubit(1.0, 0.0, gamma)

    @pytest.mark.parametrize("column, bad, match", [
        (0, 1.2, "lie in"), (1, 0.3, "sum to 1, got 0.8"),
        (2, complex(math.inf, 0.0), "finite, got \\(inf\\+0j\\)"), (2, 0.6j, "exceeds"),
    ])
    def test_arrays_are_held_to_the_same_checks(self, column, bad, match):
        """One bad entry anywhere in arrays of qubit entries is refused as
        the scalar qubit holding it is."""
        entries = [np.full(4, 0.5), np.full(4, 0.5), np.full(4, 0.1 + 0.2j)]
        LogicalQubit._check(*entries)
        entries[column][2] = bad
        scalar = [e[2].item() for e in entries]
        with pytest.raises(ValueError, match=match):
            LogicalQubit(*scalar)
        with pytest.raises(ValueError, match=match):
            LogicalQubit._check(*entries)

    def test_pure_constructor(self):
        q = LogicalQubit.pure(0.6, 0.8j)
        assert q.alpha_sq == pytest.approx(0.36)
        assert q.beta_sq == pytest.approx(0.64)
        assert q.gamma == pytest.approx(0.6 * (-0.8j))

    def test_pure_requires_normalized_amplitudes(self):
        with pytest.raises(ValueError):
            LogicalQubit.pure(1.0, 1.0)

    def test_matrix_is_psd_with_unit_trace(self):
        for q in valid_qubits():
            m = q.matrix()
            assert np.trace(m) == pytest.approx(1.0)
            assert np.linalg.eigvalsh(m)[0] >= -1e-12


class TestCoefficients:
    def test_w1_at_eta_one_is_thermal_product(self):
        params = ChannelParams(1.0, 0.12)
        diag = willie_state_closed(POLE, params, CUT).diag
        for f in range(4):
            for g in range(4):
                expected = thermal_occupation(f, 0.12) * thermal_occupation(g, 0.12)
                assert diag[f, g] == pytest.approx(float(expected))

    def test_w1_g_zero_is_finite(self):
        # g=0 exercises the removable singularity of the g-1 exponent
        v = willie_state_closed(POLE, FIG2, CUT).diag[0, 0]
        n = 0.9 * 0.12
        expected = (1.0 / (1.0 + n) - (1.0 - 0.9) / (1.0 + n) ** 2) * (1.0 / (1.0 + n))
        assert v == pytest.approx(expected, rel=1e-14)

    def test_w2_zero_cases(self):
        # upper[f, g] = gamma w2(g, f): zero at g = 0 and at eta = 1
        assert willie_state_closed(PLUS, FIG2, CUT).upper[3, 0] == 0.0
        transparent = willie_state_closed(PLUS, ChannelParams(1.0, 0.12), CUT)
        assert np.count_nonzero(transparent.upper) == 0

    def test_w2_direct_value(self):
        n = 0.9 * 0.12
        expected = 0.1 * n**0 / (1.0 + n) ** 4 * math.sqrt(1.0)
        upper = willie_state_closed(PLUS, FIG2, CUT).upper
        assert upper[0, 1] == pytest.approx(0.5 * expected, rel=1e-14)

    @pytest.mark.parametrize("eta, nbar_b, max_photons", [
        (0.9, 0.12, 30), (0.3, 2.0, 20), (0.0, 0.7, 8), (1.0, 0.5, 8),
        (0.5, 0.0, 8),
    ])
    def test_state_matches_scalar_reference_exactly(self, eta, nbar_b, max_photons):
        params, cutoff = ChannelParams(eta, nbar_b), FockCutoff(max_photons)
        for q in valid_qubits():
            state = willie_state_closed(q, params, cutoff)
            diag, upper = _state_reference(q, params, cutoff)
            assert np.array_equal(state.diag, diag)
            assert np.array_equal(state.upper, upper)


class TestWillieState:
    def test_eta_one_is_thermal_product(self):
        params = ChannelParams(1.0, 0.12)
        state = willie_state_closed(LogicalQubit.pure(0.6, 0.8), params, CUT)
        th = thermal_state(0.12, CUT)
        product = tensor(th, th)
        assert np.allclose(state.entries, product.entries, atol=1e-12)

    def test_is_valid_density_operator(self):
        for q in valid_qubits():
            rho = willie_state_closed(q, FIG2, FockCutoff(20)).to_density_operator()
            assert rho.truncation_leak < 1e-10

    def test_pole_input_gives_diagonal_state(self):
        state = willie_state_closed(LogicalQubit(1.0, 0.0), FIG2, CUT)
        assert np.count_nonzero(state.upper) == 0
        d = CUT.dim
        for f in range(4):
            for g in range(4):
                assert state.diag[f, g] == pytest.approx(
                    _w1_reference(f, g, 1.0 - FIG2.eta, FIG2.eta * FIG2.nbar_b)
                )

    def test_support_pattern_conserves_total_photon_number(self):
        q = LogicalQubit.pure(0.6, 0.8j)
        dense = willie_state_closed(q, FIG2, CUT).entries
        d = CUT.dim
        for row in range(d * d):
            for col in range(d * d):
                if dense[row, col] != 0.0:
                    assert row // d + row % d == col // d + col % d

    def test_lower_is_conjugate_of_upper(self):
        q = LogicalQubit.pure(0.6, 0.8j)
        state = willie_state_closed(q, FIG2, CUT)
        dense = state.entries
        d = CUT.dim
        for f in range(1, d):
            for g in range(d - 1):
                lower = dense[f * d + g, (f - 1) * d + (g + 1)]
                assert lower == np.conj(state.upper[f - 1, g + 1])
        assert np.array_equal(dense, dense.conj().T)

    def test_bob_state_is_eta_swap(self):
        q = LogicalQubit(0.3, 0.7, 0.1j)
        swapped = ChannelParams(1.0 - FIG2.eta, FIG2.nbar_b)
        assert np.allclose(
            bob_state_closed(q, FIG2, CUT).entries,
            willie_state_closed(q, swapped, CUT).entries,
            atol=1e-15,
        )

    def test_bob_lossless_noiseless_returns_input(self):
        q = LogicalQubit(0.3, 0.7, 0.2 + 0.1j)
        dense = bob_state_closed(q, ChannelParams(1.0, 0.0), CUT).entries
        d = CUT.dim
        assert dense[0 * d + 1, 0 * d + 1] == pytest.approx(0.3)
        assert dense[1 * d + 0, 1 * d + 0] == pytest.approx(0.7)
        assert dense[0 * d + 1, 1 * d + 0] == pytest.approx(0.2 + 0.1j)
        assert np.trace(dense) == pytest.approx(1.0)


class TestCharFn:
    def test_origin_is_one(self):
        q = LogicalQubit.pure(0.6, 0.8)
        assert willie_char_fn_closed(q, FIG2, 0.0, 0.0) == pytest.approx(1.0)

    def test_eta_one_is_pure_gaussian(self):
        q = LogicalQubit.pure(0.6, 0.8)
        params = ChannelParams(1.0, 0.12)
        z1, z2 = 0.4 + 0.1j, -0.2j
        expected = math.exp(-(1 + 0.12) * (abs(z1) ** 2 + abs(z2) ** 2))
        assert willie_char_fn_closed(q, params, z1, z2) == pytest.approx(expected)

    def test_hermiticity_symmetry(self):
        # chi(-zeta) = conj(chi(zeta)) for any state
        q = LogicalQubit(0.3, 0.7, 0.2 - 0.3j)
        z1, z2 = 0.5 + 0.2j, -0.1 + 0.7j
        assert willie_char_fn_closed(q, FIG2, -z1, -z2) == pytest.approx(
            np.conj(willie_char_fn_closed(q, FIG2, z1, z2))
        )


class TestChi2:
    def test_eta_one_is_zero(self):
        assert chi2_closed(LogicalQubit.pure(0.6, 0.8), ChannelParams(1.0, 0.5)) == 0.0

    def test_nbar_zero_raises(self):
        with pytest.raises(DivergenceUndefinedError):
            chi2_closed(LogicalQubit(1.0, 0.0), ChannelParams(0.5, 0.0))
        with pytest.raises(DivergenceUndefinedError):
            chi2_bound(ChannelParams(0.5, 0.0))

    @pytest.mark.parametrize("params", [ChannelParams(0.0, 0.5),
                                        ChannelParams(1e-200, 1e-200)])
    def test_vacuum_warden_raises(self, params):
        # The warden's occupancy eta nbar_b is 0 (at 1e-200 by underflow).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceUndefinedError):
                chi2_closed(LogicalQubit(1.0, 0.0), params)
            with pytest.raises(DivergenceUndefinedError):
                chi2_bound(params)
            with pytest.raises(DivergenceUndefinedError):
                qre_bound(params, 0.5, 1e6)

    def test_bound_direct_values(self):
        assert chi2_bound(FIG2) == pytest.approx(0.01 / (0.108 * 1.108))
        assert chi2_bound(ChannelParams(0.5, 1.0)) == pytest.approx(0.25 / (0.5 * 1.5))

    def test_full_coherence_attains_bound(self):
        s = 1.0 / math.sqrt(2.0)
        for params in (FIG2, ChannelParams(0.5, 1.0), ChannelParams(0.2, 0.05)):
            q = LogicalQubit.pure(s, s)
            assert chi2_closed(q, params) == pytest.approx(
                chi2_bound(params), rel=1e-12
            )
            # any pure state with |gamma| = |alpha beta| attains it
            q2 = LogicalQubit.pure(0.6, 0.8j)
            assert chi2_closed(q2, params) == pytest.approx(
                chi2_bound(params), rel=1e-12
            )

    def test_balanced_mixture_is_half_bound(self):
        q = LogicalQubit(0.5, 0.5, 0.0)
        assert chi2_closed(q, FIG2) == pytest.approx(0.5 * chi2_bound(FIG2), rel=1e-12)

    def test_phase_of_gamma_does_not_enter(self):
        mags = LogicalQubit(0.4, 0.6, 0.3)
        rotated = LogicalQubit(0.4, 0.6, 0.3 * np.exp(1.1j))
        assert chi2_closed(mags, FIG2) == chi2_closed(rotated, FIG2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_bound_dominates_all_qubits(self, a2, frac, phase, eta, nbar):
        gamma = frac * math.sqrt(a2 * (1.0 - a2)) * np.exp(1j * phase)
        q = LogicalQubit(a2, 1.0 - a2, gamma)
        params = ChannelParams(eta, nbar)
        assert chi2_closed(q, params) <= chi2_bound(params) * (1 + 1e-12)


class TestDepolarizingParameters:
    def test_pure_loss_limit(self):
        params = ChannelParams(0.75, 0.0)
        assert p_fail(params) == pytest.approx(0.25)
        assert p_prime(params) == 0.0
        assert p_total(params) == pytest.approx(0.25)

    def test_identity_channel(self):
        params = ChannelParams(1.0, 0.0)
        assert p_fail(params) == 0.0
        assert p_total(params) == 0.0

    def test_fig2_value(self):
        assert p_total(FIG2) == pytest.approx(1.0 - 0.9 / 1.012**4)

    def test_combination_identity(self):
        for eta in (0.1, 0.5, 0.9, 0.99):
            for nb in (0.0, 0.01, 0.12, 0.5, 2.0):
                params = ChannelParams(eta, nb)
                combined = p_prime(params) + (1 - p_prime(params)) * p_fail(params)
                assert combined == pytest.approx(p_total(params), abs=1e-12)

    def test_p_fail_matches_bob_state_populations(self):
        d = FockCutoff(20).dim
        for params in (FIG2, ChannelParams(0.5, 0.5), ChannelParams(0.2, 0.05)):
            q = LogicalQubit.pure(0.6, 0.8)
            dense = bob_state_closed(q, params, FockCutoff(20)).entries
            kept = dense[0 * d + 1, 0 * d + 1] + dense[1 * d + 0, 1 * d + 0]
            assert 1.0 - kept.real == pytest.approx(p_fail(params), abs=1e-10)

    def test_p_total_monotonicity(self):
        etas = np.linspace(0.05, 0.95, 10)
        nbs = np.linspace(0.0, 1.0, 10)
        for nb in nbs:
            vals = [p_total(ChannelParams(e, nb)) for e in etas]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)
        for e in etas:
            vals = [p_total(ChannelParams(e, nb)) for nb in nbs]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
