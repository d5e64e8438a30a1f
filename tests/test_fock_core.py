import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from covert_bosonic.fock_core import (
    ChannelParams,
    DensityOperator,
    FockCutoff,
    RankDeficiencyError,
    StateValidationError,
    TruncationError,
    annihilation_op,
    anti_normal_char_fn,
    beamsplitter_unitary,
    chi2_numeric,
    qre,
    tensor,
    thermal_occupation,
    thermal_state,
    trace_distance,
    two_mode_amplifier_unitary,
)
from covert_bosonic.closed_form import LogicalQubit
from dense_reference import (
    apply_unitary,
    dual_rail_density,
    embed,
    mode_annihilation_op,
    partial_trace,
)

CUT = FockCutoff(6)


def random_state(rng, num_modes=1, cutoff=CUT):
    d = cutoff.dim**num_modes
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(num_modes, cutoff, m)


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(7, dtype=complex)
        m[0, 1] = 0.5
        m /= np.trace(m)
        with pytest.raises(StateValidationError):
            DensityOperator(1, CUT, m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(StateValidationError):
            DensityOperator(1, CUT, m)

    def test_rejects_bad_trace(self):
        m = np.eye(7, dtype=complex) / 3.0
        with pytest.raises(StateValidationError):
            DensityOperator(1, CUT, m)

    def test_trace_deficit_allowed_up_to_leak(self):
        m = np.diag([0.9, 0, 0, 0, 0, 0, 0]).astype(complex)
        DensityOperator(1, CUT, m, truncation_leak=0.1)
        with pytest.raises(StateValidationError):
            DensityOperator(1, CUT, m, truncation_leak=0.05)

    @pytest.mark.parametrize("leak", [math.inf, math.nan, -0.1, 5.0])
    def test_rejects_leak_outside_unit_interval(self, leak):
        with pytest.raises(ValueError, match="truncation_leak"):
            DensityOperator(1, CUT, np.zeros((7, 7)), truncation_leak=leak)

    @pytest.mark.parametrize("where", ["in_sector", "off_sector", "one_mode_inf"])
    def test_rejects_non_finite_entries(self, where):
        cut = FockCutoff(2)
        d = cut.dim
        if where == "one_mode_inf":
            m = np.diag([0.5, 0.5, 0.0]).astype(complex)
            m[0, 1] = m[1, 0] = np.inf
            num_modes = 1
        else:
            m = np.zeros((d * d, d * d), dtype=complex)
            m[1, 1] = m[d, d] = 0.5  # |01>, |10>
            if where == "in_sector":
                m[1, d] = m[d, 1] = np.nan  # <01|rho|10>
            else:
                m[0, d + 1] = m[d + 1, 0] = np.nan  # <00|rho|11>
            num_modes = 2
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityOperator(num_modes, cut, m)

    def test_entries_read_only(self):
        s = thermal_state(0.5, CUT)
        with pytest.raises(ValueError):
            s.entries[0, 0] = 1.0

    def test_channel_params_bounds(self):
        with pytest.raises(ValueError):
            ChannelParams(1.2, 0.1)
        with pytest.raises(ValueError):
            ChannelParams(0.5, -0.1)
        ChannelParams(0.0, 0.0)
        ChannelParams(1.0, 2.0)

    @pytest.mark.parametrize("eta, nbar_b", [
        (math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf),
    ])
    def test_channel_params_reject_non_finite(self, eta, nbar_b):
        with pytest.raises(ValueError):
            ChannelParams(eta, nbar_b)

    def test_cutoff_requires_at_least_one_photon(self):
        with pytest.raises(ValueError):
            FockCutoff(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_cutoff_requires_an_integer(self, n):
        with pytest.raises(TypeError):
            FockCutoff(n)

    def test_cutoff_takes_numpy_integers_as_int(self):
        cut = FockCutoff(np.int64(4))
        assert type(cut.max_photons) is int and cut == FockCutoff(4)


class TestOperators:
    def test_annihilation_matrix_elements(self):
        a = annihilation_op(CUT)
        for k in range(1, CUT.dim):
            assert a[k - 1, k] == pytest.approx(math.sqrt(k))
        assert np.count_nonzero(a) == CUT.dim - 1

    def test_mode_annihilation_commutes_across_modes(self):
        a0 = mode_annihilation_op(0, 2, FockCutoff(3))
        a1 = mode_annihilation_op(1, 2, FockCutoff(3))
        assert np.allclose(a0 @ a1, a1 @ a0)

    def test_thermal_state_mean_and_leak(self):
        nbar = 0.3
        s = thermal_state(nbar, FockCutoff(40))
        k = np.arange(41)
        mean = float(np.sum(k * np.diag(s.entries).real))
        assert mean == pytest.approx(nbar, abs=1e-10)
        assert s.truncation_leak < 1e-15
        small = thermal_state(2.0, FockCutoff(3))
        assert small.truncation_leak == pytest.approx(
            1.0 - sum(thermal_occupation(k, 2.0) for k in range(4))
        )

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_thermal_state_rejects_non_finite_nbar(self, nbar):
        with pytest.raises(ValueError, match="nbar must be finite"):
            thermal_state(nbar, CUT)

    def test_dual_rail_density_entries(self):
        q = LogicalQubit(0.3, 0.7, 0.2 + 0.1j)
        rho = dual_rail_density(q, CUT)
        d = CUT.dim
        assert rho.entries[0 * d + 1, 0 * d + 1] == pytest.approx(0.3)
        assert rho.entries[1 * d + 0, 1 * d + 0] == pytest.approx(0.7)
        assert rho.entries[0 * d + 1, 1 * d + 0] == pytest.approx(0.2 + 0.1j)
        assert np.trace(rho.entries) == pytest.approx(1.0)


class TestTensorAndTrace:
    def test_partial_trace_inverts_tensor(self):
        rng = np.random.default_rng(3)
        a = random_state(rng)
        b = random_state(rng)
        ab = tensor(a, b)
        assert np.allclose(partial_trace(ab, [0]).entries, a.entries, atol=1e-12)
        assert np.allclose(partial_trace(ab, [1]).entries, b.entries, atol=1e-12)

    def test_partial_trace_three_modes(self):
        rng = np.random.default_rng(4)
        cut = FockCutoff(2)
        a = random_state(rng, cutoff=cut)
        b = random_state(rng, cutoff=cut)
        c = random_state(rng, cutoff=cut)
        abc = tensor(tensor(a, b), c)
        kept = partial_trace(abc, [0, 2])
        assert np.allclose(kept.entries, np.kron(a.entries, c.entries), atol=1e-12)

    def test_partial_trace_validates_modes(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, num_modes=2, cutoff=FockCutoff(2))
        with pytest.raises(ValueError):
            partial_trace(s, [])
        with pytest.raises(ValueError):
            partial_trace(s, [2])


class TestBeamsplitter:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_unitarity(self, eta):
        u = beamsplitter_unitary(eta, 0, 1, 2, FockCutoff(4))
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)

    @pytest.mark.parametrize("eta", [0.17, 0.5, 0.83])
    def test_heisenberg_mode_map(self, eta):
        """U^dag a U = sqrt(eta) a + sqrt(1-eta) b on states clear of the
        cutoff; the reflected port picks up the minus sign."""
        cut = FockCutoff(8)
        u = beamsplitter_unitary(eta, 0, 1, 2, cut)
        a = mode_annihilation_op(0, 2, cut)
        b = mode_annihilation_op(1, 2, cut)
        d = cut.dim
        low = np.zeros(d * d, dtype=bool)
        for i in range(d):
            for j in range(d):
                if i + j <= 4:
                    low[i * d + j] = True
        t = math.sqrt(eta)
        r = math.sqrt(1.0 - eta)
        out_a = u.conj().T @ a @ u
        out_b = u.conj().T @ b @ u
        assert np.allclose(out_a[np.ix_(low, low)],
                           (t * a + r * b)[np.ix_(low, low)], atol=1e-12)
        assert np.allclose(out_b[np.ix_(low, low)],
                           (r * a - t * b)[np.ix_(low, low)], atol=1e-12)

    def test_thermal_states_are_invariant_in_distribution(self):
        """Mixing two equal thermal states leaves the reduced states thermal."""
        cut = FockCutoff(10)
        th = thermal_state(0.2, cut)
        joint = tensor(th, th)
        u = beamsplitter_unitary(0.7, 0, 1, 2, cut)
        out = apply_unitary(joint, u)
        red = partial_trace(out, [0])
        assert np.allclose(red.entries, th.entries, atol=1e-10)

    def test_amplifier_heisenberg_map(self):
        """U^dag a U = sqrt(G) a + sqrt(G-1) b^dag far below the cutoff.

        The squeezer does not conserve photon number, so the truncated map
        picks up contamination decaying like tanh(r)^(cutoff - subspace);
        the tolerance reflects that."""
        gain = 1.5
        cut = FockCutoff(30)
        u = two_mode_amplifier_unitary(gain, 0, 1, 2, cut)
        a = mode_annihilation_op(0, 2, cut)
        b = mode_annihilation_op(1, 2, cut)
        d = cut.dim
        low = np.zeros(d * d, dtype=bool)
        for i in range(d):
            for j in range(d):
                if i + j <= 3:
                    low[i * d + j] = True
        out_a = u.conj().T @ a @ u
        target = math.sqrt(gain) * a + math.sqrt(gain - 1.0) * b.conj().T
        assert np.allclose(out_a[np.ix_(low, low)], target[np.ix_(low, low)],
                           atol=1e-5)

    def test_amplifier_on_vacuum_gives_thermal(self):
        gain = 1.4
        cut = FockCutoff(25)
        vac = np.zeros((cut.dim, cut.dim), dtype=complex)
        vac[0, 0] = 1.0
        joint = tensor(DensityOperator(1, cut, vac),
                       DensityOperator(1, cut, vac.copy()))
        u = two_mode_amplifier_unitary(gain, 0, 1, 2, cut)
        out = partial_trace(apply_unitary(joint, u), [0])
        expected = thermal_state(gain - 1.0, cut)
        assert np.allclose(out.entries, expected.entries, atol=1e-10)


def dense_unitary(kind, param, mode_a, mode_b, num_modes, cut):
    """The unitary as one operator exponential over the whole space: the
    reference for the sector-by-sector build."""
    a = mode_annihilation_op(mode_a, num_modes, cut)
    b = mode_annihilation_op(mode_b, num_modes, cut)
    if kind == "amplifier":
        return expm(np.arccosh(np.sqrt(param)) * (a.conj().T @ b.conj().T - a @ b))
    rot = expm(np.arccos(np.sqrt(param)) * (a.conj().T @ b - a @ b.conj().T))
    n_b = np.diag(b.conj().T @ b).real.round()
    return ((-1.0) ** n_b)[:, None] * rot


class TestSectorUnitaries:
    @pytest.mark.parametrize("num_modes, modes, n", [
        (2, (0, 1), 8), (2, (1, 0), 8), (4, (0, 2), 3), (4, (1, 3), 3),
    ])
    @pytest.mark.parametrize("kind, param", [
        ("beamsplitter", 0.0), ("beamsplitter", 0.37), ("beamsplitter", 1.0),
        ("amplifier", 1.0), ("amplifier", 1.8),
    ])
    def test_matches_dense_exponential(self, kind, param, num_modes, modes, n):
        cut = FockCutoff(n)
        build = beamsplitter_unitary if kind == "beamsplitter" else two_mode_amplifier_unitary
        u = embed(build(param, 0, 1, 2, cut), *modes, num_modes, cut)
        ref = dense_unitary(kind, param, *modes, num_modes, cut)
        assert u.shape == ref.shape == (cut.dim**num_modes,) * 2
        assert np.max(np.abs(u - ref)) < 1e-13

    @pytest.mark.parametrize("modes", [(1, 1), (0, 2), (-1, 0)])
    def test_modes_must_be_distinct_and_in_range(self, modes):
        with pytest.raises(ValueError):
            beamsplitter_unitary(0.5, *modes, 2, FockCutoff(2))
        with pytest.raises(ValueError):
            two_mode_amplifier_unitary(1.5, *modes, 2, FockCutoff(2))

    @pytest.mark.parametrize("modes", [(1, 0, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4)])
    def test_only_modes_0_1_of_two_are_built(self, modes):
        with pytest.raises(ValueError, match=r"modes \(0, 1\) of a two-mode space"):
            beamsplitter_unitary(0.5, *modes, FockCutoff(2))
        with pytest.raises(ValueError, match=r"modes \(0, 1\) of a two-mode space"):
            two_mode_amplifier_unitary(1.5, *modes, FockCutoff(2))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, value):
        with pytest.raises(ValueError, match="eta must be in"):
            beamsplitter_unitary(value, 0, 1, 2, FockCutoff(3))
        with pytest.raises(ValueError, match="gain must be finite"):
            two_mode_amplifier_unitary(value, 0, 1, 2, FockCutoff(3))


def sector_expm_core(strength, step, max_photons):
    """exp(strength (X - X^dag)) on a two-mode space by one complex expm per
    sector (X = a^dag b for step -1, a^dag b^dag for step +1): the reference
    for the cached-eigensystem build."""
    d = max_photons + 1
    f, g = np.divmod(np.arange(d * d), d)
    label = g - step * f
    u = np.zeros((d * d, d * d), dtype=complex)
    for c in range(int(label.min()), int(label.max()) + 1):
        idx = np.flatnonzero(label == c)
        x = np.sqrt((f[idx[:-1]] + 1.0) * np.maximum(g[idx[:-1]], g[idx[1:]]))
        gen = strength * np.diag(x.astype(complex), -1)
        u[np.ix_(idx, idx)] = expm(gen - gen.T)
    return u


class TestSpectralBlocks:
    CUT = FockCutoff(30)

    @pytest.mark.parametrize("strength", [0.05, 0.3, 1.0, math.pi / 2])
    def test_beamsplitter_matches_sector_expm(self, strength):
        d = self.CUT.dim
        u = beamsplitter_unitary(math.cos(strength) ** 2, 0, 1, 2, self.CUT)
        parity = np.tile((-1.0) ** np.arange(d), d)[:, None]
        ref = parity * sector_expm_core(np.arccos(math.cos(strength)), -1, 30)
        assert np.max(np.abs(u - ref)) < 1e-13

    @pytest.mark.parametrize("strength", [0.05, 0.3, 1.0, math.pi / 2])
    def test_amplifier_matches_sector_expm(self, strength):
        u = two_mode_amplifier_unitary(math.cosh(strength) ** 2, 0, 1, 2, self.CUT)
        ref = sector_expm_core(np.arccosh(math.cosh(strength)), 1, 30)
        assert np.max(np.abs(u - ref)) < 1e-13

    def test_zero_strength_is_exact(self):
        cut = FockCutoff(6)
        d = cut.dim
        parity = np.diag(np.tile((-1.0) ** np.arange(d), d)).astype(complex)
        assert np.array_equal(beamsplitter_unitary(1.0, 0, 1, 2, cut), parity)
        assert np.array_equal(two_mode_amplifier_unitary(1.0, 0, 1, 2, cut),
                              np.eye(d * d, dtype=complex))


class TestCharFn:
    def test_thermal_product_closed_form(self):
        nbar = 0.25
        cut = FockCutoff(20)
        s = tensor(thermal_state(nbar, cut), thermal_state(nbar, cut))
        for z1, z2 in [(0.3, 0.1j), (1.0 + 0.5j, -0.2)]:
            val = anti_normal_char_fn(s, z1, z2)
            expected = math.exp(-(1 + nbar) * (abs(z1) ** 2 + abs(z2) ** 2))
            assert val == pytest.approx(expected, abs=1e-10)

    def test_truncation_error_raised_when_unconverged(self):
        s = tensor(thermal_state(1.5, FockCutoff(5)),
                   thermal_state(1.5, FockCutoff(5)))
        with pytest.raises(TruncationError):
            anti_normal_char_fn(s, 2.0, 2.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cutoff_without_a_reference_is_refused(self, n):
        # At N = 1 the truncated trace is 0.92, the exact value 2.1e-9.
        s = tensor(thermal_state(1.5, FockCutoff(n)), thermal_state(1.5, FockCutoff(n)))
        with pytest.raises(TruncationError, match="unchecked"):
            anti_normal_char_fn(s, 2.0, 2.0)

    @pytest.mark.parametrize("zetas", [(math.nan, 0.1), (0.1, complex(0.0, math.inf))])
    def test_rejects_non_finite_zeta(self, zetas):
        s = tensor(thermal_state(0.1, CUT), thermal_state(0.1, CUT))
        with pytest.raises(ValueError, match="zeta must be finite"):
            anti_normal_char_fn(s, *zetas)

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            anti_normal_char_fn(thermal_state(0.1, CUT), 0.1, 0.1)


class TestDivergences:
    def test_trace_distance_extremes(self):
        d = CUT.dim
        m0 = np.zeros((d, d), dtype=complex)
        m0[0, 0] = 1.0
        m1 = np.zeros((d, d), dtype=complex)
        m1[1, 1] = 1.0
        s0 = DensityOperator(1, CUT, m0)
        s1 = DensityOperator(1, CUT, m1)
        assert trace_distance(s0, s1) == pytest.approx(1.0)
        assert trace_distance(s0, s0) == pytest.approx(0.0)

    def test_qre_of_identical_states_is_zero(self):
        s = thermal_state(0.4, CUT)
        assert qre(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_qre_base_conversion(self):
        rng = np.random.default_rng(8)
        a = random_state(rng)
        b = thermal_state(0.5, CUT)
        assert qre(a, b, base=2.0) == pytest.approx(
            qre(a, b, base=math.e) / math.log(2.0)
        )

    @pytest.mark.parametrize("base", [1.0, -1.0, 0.0, math.inf, math.nan])
    def test_qre_rejects_bad_base(self, base):
        s = thermal_state(0.4, CUT)
        with pytest.raises(ValueError, match="base"):
            qre(s, s, base=base)

    def test_qre_rank_deficient_reference_raises(self):
        d = CUT.dim
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = 1.0
        pure = DensityOperator(1, CUT, m)
        full = thermal_state(0.5, CUT)
        with pytest.raises(RankDeficiencyError):
            qre(full, pure)
        with pytest.raises(RankDeficiencyError):
            chi2_numeric(full, pure)

    def test_chi2_of_identical_states_is_zero(self):
        rng = np.random.default_rng(9)
        s = random_state(rng)
        assert chi2_numeric(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_space_mismatch_rejected(self):
        a = thermal_state(0.4, CUT)
        b = thermal_state(0.4, FockCutoff(4))
        with pytest.raises(ValueError):
            trace_distance(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_divergence_properties_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        a = random_state(rng)
        b = random_state(rng)
        c = random_state(rng)
        td_ab = trace_distance(a, b)
        assert 0.0 <= td_ab <= 1.0 + 1e-12
        assert td_ab == pytest.approx(trace_distance(b, a))
        # triangle inequality
        assert td_ab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10
        d_nats = qre(a, b, base=math.e)
        assert d_nats >= -1e-10
        # quantum Pinsker: (1/2)||a-b||_1 <= sqrt(D/2) in nats
        assert td_ab <= math.sqrt(max(d_nats, 0.0) / 2.0) + 1e-8
        # relative entropy is bounded by chi-squared
        assert d_nats <= chi2_numeric(a, b) + 1e-8


def dense_divergences(a, b, zetas):
    """qre (bits), chi2, trace distance and char fn from the full matrices."""
    wa = np.clip(np.linalg.eigvalsh(a.entries), 0.0, None)
    wb, vb = np.linalg.eigh(b.entries)
    log_b = (vb * np.log(wb)) @ vb.conj().T
    ent = np.sum(wa[wa > 0] * np.log(wa[wa > 0]))
    qre_bits = (ent - np.trace(a.entries @ log_b).real) / math.log(2.0)
    chi2 = np.trace(a.entries @ a.entries @ np.linalg.inv(b.entries)).real - 1.0
    td = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.entries - b.entries)))
    op = annihilation_op(a.cutoff)
    kernel = [expm(-np.conj(z) * op) @ expm(z * op.conj().T) for z in zetas]
    char = np.trace(a.entries @ np.kron(*kernel))
    return qre_bits, chi2, td, char


class TestSectorBlocks:
    """States block-diagonal in total photon number are handled sector by
    sector; anything else is one block.  Both agree with dense algebra."""

    CUT = FockCutoff(12)

    def quiet(self):
        return tensor(thermal_state(0.3, self.CUT), thermal_state(0.3, self.CUT))

    def mixed_with_quiet(self, m):
        quiet = self.quiet()
        return DensityOperator(2, self.CUT, 0.5 * m + 0.5 * quiet.entries,
                               0.5 * quiet.truncation_leak)

    def bell_mixture(self):
        """(|00> + |11>)/sqrt(2) mixed with the thermal product: a coherence
        between sectors 0 and 2."""
        d = self.CUT.dim
        psi = np.zeros(d * d, dtype=complex)
        psi[[0, d + 1]] = 1.0 / math.sqrt(2.0)
        return self.mixed_with_quiet(np.outer(psi, psi.conj()))

    def dual_rail_mixture(self):
        return self.mixed_with_quiet(
            dual_rail_density(LogicalQubit(0.3, 0.7, 0.2 + 0.1j), self.CUT).entries)

    def test_block_choice(self):
        d2 = self.CUT.dim**2
        assert self.bell_mixture()._sectors[0] == (d2,)
        sectored = self.dual_rail_mixture()._sectors[0]
        assert len(sectored) == 2 * self.CUT.max_photons + 1 and sum(sectored) == d2

    @pytest.mark.parametrize("state", ["bell_mixture", "dual_rail_mixture"])
    def test_divergences_match_dense_algebra(self, state):
        a = getattr(self, state)()
        b = self.quiet()
        zetas = (0.3 + 0.2j, -0.4j)
        qre_bits, chi2, td, char = dense_divergences(a, b, zetas)
        assert abs(qre(a, b) - qre_bits) < 1e-12
        assert abs(chi2_numeric(a, b) - chi2) < 1e-12
        assert abs(trace_distance(a, b) - td) < 1e-12
        assert abs(trace_distance(b, a) - td) < 1e-12
        assert abs(anti_normal_char_fn(a, *zetas) - char) < 1e-12

    def test_negative_eigenvalue_inside_one_sector_is_named(self):
        cut = FockCutoff(2)
        d = cut.dim
        m = np.zeros((d * d, d * d), dtype=complex)
        m[1, 1] = m[d, d] = 0.5  # |01>, |10>
        m[1, d] = m[d, 1] = 0.6  # eigenvalues -0.1 and 1.1
        with pytest.raises(StateValidationError, match="-1.000e-01"):
            DensityOperator(2, cut, m)

    def test_tiny_off_sector_entry_makes_one_block(self):
        m = self.quiet().entries.copy()
        d = self.CUT.dim
        m[0, d + 1] = m[d + 1, 0] = 1e-300  # |00><11|
        state = DensityOperator(2, self.CUT, m, self.quiet().truncation_leak)
        assert state._sectors[0] == (d * d,)
        assert trace_distance(state, self.quiet()) < 1e-299
