import dataclasses
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
    TriDiagonalWillieState,
    TruncationError,
    anti_normal_char_fn,
    beamsplitter_unitary,
    chi2_numeric,
    creation_exponential,
    qre,
    tensor,
    thermal_occupation,
    thermal_state,
    trace_distance,
    two_mode_amplifier_unitary,
)
from covert_bosonic import fock_core, oracle
from covert_bosonic.closed_form import LogicalQubit, willie_state_closed
import dense_reference
from dense_reference import (
    annihilation_op,
    apply_unitary,
    char_fn_kernel,
    char_fn_trace,
    dual_rail_density,
    embed,
    mode_annihilation_op,
    partial_trace,
    sector_eigensystems,
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

    @pytest.mark.parametrize("max_photons", [10, 20, 30, 60])
    @pytest.mark.parametrize("step", [-1, 1])
    def test_stacked_eigensolves_match_per_chain_bytes(self, step, max_photons):
        got = fock_core._sector_eigensystems(step, max_photons)
        for a, b in zip(got, sector_eigensystems(step, max_photons)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("max_photons", [3, 10, 23, 31, 60])
    @pytest.mark.parametrize("step", [-1, 1])
    def test_grouped_product_is_the_whole_stack_product(self, step, max_photons):
        """The blocks, formed over groups of chains, are byte for byte the
        one product over the whole stack: one gemm of one shape per chain."""
        left, mu = fock_core._sector_eigensystems(step, max_photons)
        phases = np.exp(-1j * 0.4 * mu)[:, None, :]
        for columns in (2, max_photons + 1):
            want = ((left * phases) @ left[:, :columns].conj().swapaxes(1, 2)).real
            got = fock_core._sector_blocks(0.4, step, max_photons, columns)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_zero_strength_is_exact(self):
        cut = FockCutoff(6)
        d = cut.dim
        parity = np.diag(np.tile((-1.0) ** np.arange(d), d)).astype(complex)
        assert np.array_equal(beamsplitter_unitary(1.0, 0, 1, 2, cut), parity)
        assert np.array_equal(two_mode_amplifier_unitary(1.0, 0, 1, 2, cut),
                              np.eye(d * d, dtype=complex))


class TestCharFn:
    """On the diagonal layout of the thermal product, the one the oracle
    compares against."""

    def test_thermal_product_closed_form(self):
        nbar = 0.25
        s = oracle._quiet(nbar, FockCutoff(20))
        for z1, z2 in [(0.3, 0.1j), (1.0 + 0.5j, -0.2)]:
            val = anti_normal_char_fn(s, z1, z2)
            expected = math.exp(-(1 + nbar) * (abs(z1) ** 2 + abs(z2) ** 2))
            assert val == pytest.approx(expected, abs=1e-10)

    def test_truncation_error_raised_when_unconverged(self):
        with pytest.raises(TruncationError, match="not converged"):
            anti_normal_char_fn(oracle._quiet(1.5, FockCutoff(5)), 2.0, 2.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cutoff_without_a_reference_is_refused(self, n):
        # At N = 1 the truncated trace is 0.92, the exact value 2.1e-9.
        with pytest.raises(TruncationError, match="unchecked"):
            anti_normal_char_fn(oracle._quiet(1.5, FockCutoff(n)), 2.0, 2.0)

    @pytest.mark.parametrize("zetas", [(math.nan, 0.1), (0.1, complex(0.0, math.inf))])
    def test_rejects_non_finite_zeta(self, zetas):
        with pytest.raises(ValueError, match="zeta must be finite"):
            anti_normal_char_fn(oracle._quiet(0.1, CUT), *zetas)

    @pytest.mark.parametrize("state", ["one mode", "product", "wrapped layout"])
    def test_refuses_a_density_operator(self, state):
        """The char fn reads a layout only: a DensityOperator, even one
        wrapping a layout, is refused whatever its mode count."""
        thermal = thermal_state(0.1, CUT)
        rho = {"one mode": lambda: thermal,
               "product": lambda: tensor(thermal, thermal),
               "wrapped layout": lambda: oracle._quiet(0.1, CUT).to_density_operator()}[state]()
        with pytest.raises(TypeError, match="TriDiagonalWillieState"):
            anti_normal_char_fn(rho, 0.1, 0.1)

    def test_cached_kernels_hold_diagonals_only(self):
        """After a 2000-point call at N = 30 the kernels kept for both
        cutoffs hold no array of more than P (N+1) entries."""
        fock_core._char_fn_kernels.cache_clear()
        n, count = 30, 2000
        rng = np.random.default_rng(count)
        z1, z2 = (0.5 * rng.uniform(size=count) * np.exp(2j * np.pi * rng.uniform(size=count))
                  for _ in range(2))
        anti_normal_char_fn(oracle._quiet(0.1, FockCutoff(n)), z1, z2)
        assert fock_core._char_fn_kernels.cache_info().currsize == 4
        hits = fock_core._char_fn_kernels.cache_info().hits
        for z in (z1, z2):
            for m in (n, n - 2):
                kept = fock_core._char_fn_kernels(tuple(z.tolist()), m)
                assert max(a.size for a in kept) <= count * (n + 1)
        assert fock_core._char_fn_kernels.cache_info().hits == hits + 4


def creation_exponential_entries(w, cutoff):
    """exp(w a^dag) entry by entry: w^k sqrt(m!/n!) / k! for k = m - n >= 0."""
    d = cutoff.dim
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(m + 1):
            k = m - n
            out[m, n] = (w**k * math.sqrt(math.factorial(m) / math.factorial(n))
                         / math.factorial(k))
    return out


class TestCreationExponential:
    WS = [0.0, 0.1, 0.5 + 0.3j, 2.0, -1.5 + 1.2j, 2j]

    @pytest.mark.parametrize("n", [3, 10, 30])
    @pytest.mark.parametrize("w", WS)
    def test_matches_factorial_entries(self, n, w):
        cut = FockCutoff(n)
        got, ref = creation_exponential(w, cut), creation_exponential_entries(w, cut)
        below = np.tril(np.ones((cut.dim, cut.dim), dtype=bool))
        nonzero = below & (ref != 0)
        assert np.all(np.abs(got - ref)[nonzero] <= 1e-14 * np.abs(ref)[nonzero])
        assert np.all(got[~nonzero] == 0.0)  # exact zeros above the diagonal

    def test_zero_is_the_identity_exactly(self):
        assert np.array_equal(creation_exponential(0.0, FockCutoff(30)), np.eye(31))

    def test_stacked_equals_per_scalar(self):
        cut = FockCutoff(10)
        w = np.array(self.WS).reshape(2, 3)
        stacked = creation_exponential(w, cut)
        assert stacked.shape == (2, 3, 11, 11)
        for idx in np.ndindex(w.shape):
            assert np.array_equal(stacked[idx], creation_exponential(w[idx], cut))

    @pytest.mark.parametrize("n", [3, 30])
    def test_negated_point_negates_odd_diagonals_exactly(self, n):
        """E(-w) is E(w) with entry (m, k) negated where m - k is odd, bit
        for bit: the char fn kernels build both factors from one E(w)."""
        cut = FockCutoff(n)
        w = np.array(self.WS)
        sign = (-1.0) ** np.add.outer(np.arange(cut.dim), np.arange(cut.dim))
        assert np.array_equal(creation_exponential(-w, cut), creation_exponential(w, cut) * sign)

    @pytest.mark.parametrize("w", [math.nan, math.inf, complex(0.0, -math.inf),
                                   np.array([0.1, math.nan])])
    def test_rejects_non_finite(self, w):
        with pytest.raises(ValueError, match="must be finite"):
            creation_exponential(w, CUT)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0 + 1.0j, -2.0, 2j, 1.4 - 1.4j, -0.5j])
    def test_char_fn_factor_matches_expm(self, z):
        # The kernels keep the three diagonals the trace reads.  Entries reach
        # ~6e6 at |z| = 2, where one ulp is ~1e-9, so the bound is relative to
        # the largest entry.
        op = annihilation_op(FockCutoff(30))
        ref = expm(-np.conj(z) * op) @ expm(z * op.conj().T)
        got = fock_core._char_fn_kernels((complex(z),), 30)
        for kept, k in zip(got, (0, -1, 1)):
            want = np.diagonal(ref, k)
            assert kept.shape == (1, len(want))
            assert np.max(np.abs(kept[0] - want)) <= 1e-12 * np.max(np.abs(ref))


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

    @pytest.mark.parametrize("reference", ["quiet", "tensor"])
    def test_diagonal_reference_needs_no_eigensolver(self, reference, monkeypatch):
        """The thermal product, as the oracle's diagonal layout or as the
        tensor of two thermal states, is read from its diagonal: no
        divergence against it reaches np.linalg.eigh."""
        cut = FockCutoff(5)
        ref = (oracle._quiet(0.09, cut) if reference == "quiet"
               else tensor(thermal_state(0.3, cut), thermal_state(0.3, cut)))
        states = [TriDiagonalWillieState(cut, diag, 0.5 * upper)
                  for diag, upper in (random_layout(seed, 5, False) for seed in range(3))]

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for s in states:
            chi2_numeric(s, ref), qre(s, ref), trace_distance(s, ref)
            chi2_numeric(s.to_density_operator(), ref)
        assert ref._diagonal is not None

    @pytest.mark.parametrize("reference", ["layout", "dense"])
    def test_non_diagonal_reference_keeps_nothing(self, reference):
        """Repeated divergences against one full-rank reference that is not
        diagonal give what a fresh reference gives, bit for bit, and leave
        nothing on it but its cached diagonal reading (None)."""
        cut = FockCutoff(5)
        p = thermal_occupation(np.arange(cut.dim), 0.3)

        def mixed():
            diag, upper = random_layout(7, 5, False)
            layout = TriDiagonalWillieState(cut, 0.5 * (diag + np.outer(p, p)), 0.5 * upper)
            return layout if reference == "layout" else layout.to_density_operator()

        states = [TriDiagonalWillieState(cut, diag, 0.5 * upper)
                  for diag, upper in (random_layout(seed, 5, False) for seed in range(3))]
        fresh = [(chi2_numeric(s, mixed()), qre(s, mixed())) for s in states]
        ref = mixed()
        before = set(vars(ref)) | {"_blocks"}  # a layout builds its stack on first read
        for _ in range(2):
            assert [(chi2_numeric(s, ref), qre(s, ref)) for s in states] == fresh
        assert set(vars(ref)) - before == {"_diagonal"}
        assert ref._diagonal is None

    def test_default_oracle_divergences_read_a_diagonal(self, monkeypatch):
        """Every divergence the default chi2 and Pinsker checks take is
        against a reference read from its diagonal: none diagonalizes it."""
        readings = []
        against = fock_core._against_reference

        def recorded(a, b):
            out = against(a, b)
            readings.append(isinstance(out[2], np.ndarray))
            return out

        monkeypatch.setattr(fock_core, "_against_reference", recorded)
        for check in (oracle.verify_chi2, oracle.verify_pinsker_and_detector):
            count = len(readings)
            assert check().passed
            assert len(readings) > count, check.__name__
        assert all(readings)

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


STRUCTURE_CUTOFFS = [3, 10, 20, 30]
QUBITS = {"pure": LogicalQubit.pure(math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j)),
          "mixed": LogicalQubit(0.3, 0.7, 0.2 + 0.1j)}


def assert_divergences_match_per_block(a, b):
    """chi2, qre in bits and nats, and the trace distance both ways, each
    within 1e-12 max(1, |value|) of dense_reference's per-block route."""
    pairs = [(chi2_numeric(a, b), dense_reference.chi2_numeric(a, b)),
             (trace_distance(a, b), dense_reference.trace_distance(a, b)),
             (trace_distance(b, a), dense_reference.trace_distance(b, a))]
    pairs += [(qre(a, b, base=base), dense_reference.qre(a, b, base))
              for base in (2.0, math.e)]
    for got, want in pairs:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestStructuredDivergences:
    """A diagonal reference is read from its diagonal and a tri-diagonal
    stack's spectrum comes from one real eigensolve; both agree with the
    per-block divergences, which diagonalize every block of the reference
    and of a (or of a - b) as a dense Hermitian matrix."""

    PARAMS = ChannelParams(0.9, 0.12)

    def operands(self, n, qubit):
        cut = FockCutoff(n)
        state = willie_state_closed(QUBITS[qubit], self.PARAMS, cut)
        occ = self.PARAMS.eta * self.PARAMS.nbar_b
        quiet = oracle._quiet(occ, cut)
        mixed = TriDiagonalWillieState(cut, 0.5 * (state.diag + quiet.diag), 0.5 * state.upper)
        references = {("thermal", "layout"): quiet,
                      ("thermal", "dense"): tensor(thermal_state(occ, cut), thermal_state(occ, cut)),
                      ("mixed", "layout"): mixed,
                      ("mixed", "dense"): mixed.to_density_operator()}
        return state, references

    @pytest.mark.parametrize("b_form", ["layout", "dense"])
    @pytest.mark.parametrize("b_kind", ["thermal", "mixed"])
    @pytest.mark.parametrize("a_form", ["layout", "dense"])
    @pytest.mark.parametrize("qubit", sorted(QUBITS))
    @pytest.mark.parametrize("n", STRUCTURE_CUTOFFS)
    def test_match_the_per_block_route(self, n, qubit, a_form, b_kind, b_form):
        state, references = self.operands(n, qubit)
        a = state if a_form == "layout" else state.to_density_operator()
        b = references[b_kind, b_form]
        assert (b._diagonal is None) == (b_kind == "mixed")
        assert_divergences_match_per_block(a, b)

    @pytest.mark.parametrize("b_form", ["layout", "dense"])
    @pytest.mark.parametrize("n", STRUCTURE_CUTOFFS[:-1])
    def test_one_block_state_against_sectors(self, n, b_form):
        """A coherence off the sectors makes a one whole-space block; the
        thermal reference is then read as one diagonal block.  (At N = 30
        the dozen 961 x 961 eigensolves take seconds.)"""
        state, references = self.operands(n, "mixed")
        m = state.entries.copy()
        d = n + 1
        m[0, d + 1] = m[d + 1, 0] = 1e-14  # |00><11|
        a = DensityOperator(2, state.cutoff, m, state.truncation_leak)
        assert a._idx.shape == (1, d * d)
        assert_divergences_match_per_block(a, references["thermal", b_form])

    @pytest.mark.parametrize("b_kind", ["thermal", "mixed"])
    def test_layout_spectra_are_one_real_eigensolve(self, b_kind, monkeypatch):
        """qre's entropy and the trace distance of a layout against a
        layout each call eigvalsh once, on a real stack."""
        state, references = self.operands(10, "mixed")
        b = references[b_kind, "dense"]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            calls.append(m.dtype)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        qre(state, b), trace_distance(state, b)
        assert calls == [np.dtype(float)] * 2

    def test_sector_stack_that_is_not_tridiagonal(self):
        """Three-mode sectors hold coherences off the three diagonals: their
        spectra are solved block by block."""
        cut = FockCutoff(3)
        state, references = self.operands(3, "mixed")
        a = tensor(state.to_density_operator(), thermal_state(0.2, cut))
        b = tensor(references["thermal", "dense"], thermal_state(0.2, cut))
        i = np.arange(a._idx.shape[1])
        band = np.abs(i[:, None] - i) <= 1
        assert np.any(a._blocks[:, ~band]) and b._diagonal is not None
        assert_divergences_match_per_block(a, b)

    @pytest.mark.parametrize("form", ["layout", "dense"])
    @pytest.mark.parametrize("occ", [0.0, 1e-20])
    def test_diagonal_reference_with_a_zero_weight(self, occ, form):
        """A thermal reference with a zero weight (vacuum, or a tail that
        underflows at N = 30) is refused, with the per-block route's text."""
        cut = FockCutoff(30)
        ref = (oracle._quiet(occ, cut) if form == "layout"
               else tensor(thermal_state(occ, cut), thermal_state(occ, cut)))
        assert ref._diagonal is not None and ref._diagonal.min() == 0.0
        state = willie_state_closed(QUBITS["mixed"], self.PARAMS, cut)
        for divergence in (chi2_numeric, qre, dense_reference.chi2_numeric,
                           dense_reference.qre):
            with pytest.raises(RankDeficiencyError,
                               match=r"rank deficient \(min eigenvalue 0\.000e\+00\)"):
                divergence(state, ref)


class TestDiagonalChecks:
    """A stack of diagonal blocks is checked from its diagonals, with the
    outcomes and messages of the general route dense_reference keeps."""

    CUT = FockCutoff(3)

    def stack(self, value):
        """The thermal product's blocks with one diagonal entry set to ``value``."""
        quiet = tensor(thermal_state(0.2, self.CUT), thermal_state(0.2, self.CUT))
        blocks = quiet._blocks.copy()
        blocks[3, 1, 1] = value
        return blocks, quiet._idx

    @pytest.mark.parametrize("value, message", [
        (-2e-10, "eigenvalue -2.000e-10 < -1e-10"),
        (-1e-10, None),
        (0.1 + 6e-13j, "not Hermitian to 1e-12"),
        (0.1 + 4e-13j, None),
    ])
    def test_matches_the_general_route(self, value, message):
        blocks, idx = self.stack(value)
        assert fock_core._diagonals(blocks) is not None
        for check in (fock_core._check_blocks, dense_reference.check_blocks):
            if message is None:
                check(blocks, idx)
            else:
                with pytest.raises(StateValidationError, match=message):
                    check(blocks, idx)

    def test_nan_fails_the_finite_check(self):
        blocks, idx = self.stack(np.nan)
        with pytest.raises(StateValidationError, match="non-finite"):
            fock_core._check_state(idx, blocks, 0.0)
        m = np.diag(np.full(self.CUT.dim**2, 1.0 / self.CUT.dim**2)).astype(complex)
        m[5, 5] = np.nan
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityOperator(2, self.CUT, m)

    def test_thermal_product_needs_no_factorization(self, monkeypatch):
        cut = FockCutoff(30)
        thermal = thermal_state(0.1, cut)

        def refuse(*args, **kwargs):
            raise AssertionError("factorization called")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        quiet = tensor(thermal, thermal)
        assert quiet._diagonal is not None and len(quiet._idx) == 2 * cut.max_photons + 1


def dense_divergences(a, b, zetas):
    """qre (bits), chi2, trace distance and char fn from the full matrices,
    the char fn's kernels by scipy's expm."""
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


def kernels(z1, z2, max_photons):
    """The char fn's single-mode kernel diagonals at the one point (z1, z2),
    each stacked over that point, at cutoff max_photons."""
    return tuple(fock_core._char_fn_kernels((complex(z),), max_photons) for z in (z1, z2))


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
        assert self.bell_mixture()._idx.shape == (1, d2)
        sectored = self.dual_rail_mixture()._idx
        assert len(sectored) == 2 * self.CUT.max_photons + 1
        assert np.array_equal(np.sort(sectored[sectored >= 0]), np.arange(d2))

    @pytest.mark.parametrize("state", ["bell_mixture", "dual_rail_mixture"])
    def test_divergences_match_dense_algebra(self, state):
        """The divergences against numpy's, and the char-fn trace the tests
        hold layouts to against the one with scipy's expm kernels."""
        a = getattr(self, state)()
        b = self.quiet()
        zetas = (0.3 + 0.2j, -0.4j)
        qre_bits, chi2, td, char = dense_divergences(a, b, zetas)
        assert abs(qre(a, b) - qre_bits) < 1e-12
        assert abs(chi2_numeric(a, b) - chi2) < 1e-12
        assert abs(trace_distance(a, b) - td) < 1e-12
        assert abs(trace_distance(b, a) - td) < 1e-12
        assert abs(char_fn_trace(a.entries, *zetas) - char) < 1e-12

    def test_negative_eigenvalue_inside_one_sector_is_named(self):
        cut = FockCutoff(2)
        d = cut.dim
        m = np.zeros((d * d, d * d), dtype=complex)
        m[1, 1] = m[d, d] = 0.5  # |01>, |10>
        m[1, d] = m[d, 1] = 0.6  # eigenvalues -0.1 and 1.1
        with pytest.raises(StateValidationError, match="-1.000e-01"):
            DensityOperator(2, cut, m)

    def test_lowest_eigenvalue_over_all_sectors_is_named(self):
        cut = FockCutoff(2)
        d = cut.dim
        m = np.zeros((d * d, d * d), dtype=complex)
        m[1, 1] = m[d, d] = 0.25  # |01>, |10>: eigenvalues -0.1 and 0.6
        m[1, d] = m[d, 1] = 0.35
        m[2, 2] = m[d + 1, d + 1] = 0.25  # |02>, |11>: eigenvalues -0.2 and 0.7
        m[2, d + 1] = m[d + 1, 2] = 0.45
        with pytest.raises(StateValidationError, match="-2.000e-01"):
            DensityOperator(2, cut, m)

    def test_tiny_off_sector_entry_makes_one_block(self):
        m = self.quiet().entries.copy()
        d = self.CUT.dim
        m[0, d + 1] = m[d + 1, 0] = 1e-300  # |00><11|
        state = DensityOperator(2, self.CUT, m, self.quiet().truncation_leak)
        assert state._idx.shape == (1, d * d)
        assert trace_distance(state, self.quiet()) < 1e-299


def reference_chains(step, max_photons):
    """The chain table by hand: chain g - step f (shifted to start at 0),
    and the position counted from where the chain enters the square."""
    d = max_photons + 1
    f, g = np.divmod(np.arange(d * d), d)
    chain = g - step * f + (max_photons if step == 1 else 0)
    position = np.minimum(f, g if step == 1 else max_photons - g)
    idx = np.full((2 * d - 1, d), -1)
    idx[chain, position] = np.arange(d * d)
    return idx, chain, position


def reference_sectors(num_modes, max_photons):
    """The sectors of equal total photon number by a stable argsort, split
    at the sector sizes and padded with -1."""
    d = max_photons + 1
    total = np.indices((d,) * num_modes).sum(axis=0).ravel()
    sectors = np.split(np.argsort(total, kind="stable"), np.cumsum(np.bincount(total))[:-1])
    idx = np.full((len(sectors), max(map(len, sectors))), -1)
    for k, sector in enumerate(sectors):
        idx[k, :len(sector)] = sector
    return idx


class TestPhotonNumberTable:
    """Every chain and sector table is built by one grouping routine; it
    reproduces the hand-written arithmetic exactly."""

    @pytest.mark.parametrize("max_photons", [1, 3, 10, 30])
    @pytest.mark.parametrize("step", [-1, 1])
    def test_chains_match_the_formulas(self, step, max_photons):
        got = fock_core._chains(step, max_photons)
        for a, b in zip(got, reference_chains(step, max_photons)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("max_photons", [1, 3, 10, 30])
    @pytest.mark.parametrize("num_modes", [1, 2, 3])
    def test_sectors_match_argsort_and_split(self, num_modes, max_photons):
        assert np.array_equal(fock_core._sectors(num_modes, max_photons),
                              reference_sectors(num_modes, max_photons))


def layout_matrix(cutoff, diag, upper):
    """The two-mode matrix of a (diag, upper) layout, scattered entry by
    entry: <fg|rho|fg> = diag[f, g] and <fg|rho|f+1,g-1> = upper[f, g]."""
    d = cutoff.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for f in range(d):
        for g in range(d):
            m[f * d + g, f * d + g] = diag[f, g]
            if g >= 1 and f + 1 < d:
                m[f * d + g, (f + 1) * d + g - 1] = upper[f, g]
                m[(f + 1) * d + g - 1, f * d + g] = np.conj(upper[f, g])
    return m


def random_layout(seed, max_photons, indefinite):
    """Random (diag, upper) of trace <= 1 whose exchange coherences are up to
    0.7 of the geometric mean of their two populations; with ``indefinite``
    one coherence exceeds twice that mean, so its sector has a negative
    eigenvalue well below -1e-10."""
    rng = np.random.default_rng(seed)
    d = max_photons + 1
    diag = rng.uniform(0.0, 1.0, (d, d))
    diag *= rng.uniform(0.5, 1.0) / diag.sum()
    mean = np.sqrt(diag[:-1, 1:] * diag[1:, :-1])  # pairs (f, g), (f+1, g-1)
    phase = np.exp(2j * np.pi * rng.uniform(size=mean.shape))
    upper = np.zeros((d, d), dtype=complex)
    upper[:-1, 1:] = rng.uniform(0.0, 0.7, mean.shape) * mean * phase
    if indefinite:
        f, g = rng.integers(0, d - 1), rng.integers(1, d)
        upper[f, g] = (2.0 * mean[f, g - 1] + 1e-3) * phase[f, g - 1]
    return diag, upper


class TestTriDiagonalLayout:
    """The layout is checked at construction, by the criteria of
    DensityOperator, without building its matrix."""

    CUT = FockCutoff(3)

    def pair(self, coherence):
        """Populations 1/4 on |01> and |10>, one coherence between them."""
        diag = np.zeros((4, 4))
        diag[0, 1] = diag[1, 0] = 0.25
        upper = np.zeros((4, 4), dtype=complex)
        upper[0, 1] = coherence
        return diag, upper

    def test_layouts_compare_and_hash_by_identity(self):
        a, b = (TriDiagonalWillieState(self.CUT, *self.pair(0.1)) for _ in range(2))
        assert a != b and not a == b and a == a
        assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)
        with pytest.raises(StateValidationError, match="eigenvalue"):
            dataclasses.replace(a, upper=self.pair(0.5)[1])
        assert dataclasses.replace(a, upper=self.pair(0.2)[1]) != a

    def test_short_diag_is_refused(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            TriDiagonalWillieState(self.CUT, np.full((2, 2), 0.25), np.zeros((4, 4)))

    def test_wrong_upper_shape_is_refused(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            TriDiagonalWillieState(self.CUT, np.zeros((4, 4)), np.zeros(16))

    @pytest.mark.parametrize("which", ["diag", "upper"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_refused(self, which, bad):
        arrays = dict(zip(("diag", "upper"), self.pair(0.1)))
        arrays[which] = arrays[which].astype(complex)
        arrays[which][1, 2] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            TriDiagonalWillieState(self.CUT, **arrays)

    def test_coherence_beyond_the_populations_is_refused(self):
        # Sector 1 is [[1/4, b], [b*, 1/4]]: eigenvalues 1/4 -+ |b|.
        TriDiagonalWillieState(self.CUT, *self.pair(0.25 + 1e-11))
        with pytest.raises(StateValidationError, match="-1.000e-09"):
            TriDiagonalWillieState(self.CUT, *self.pair(0.25 + 1e-9))

    @pytest.mark.parametrize("where", [(1, 0), (3, 2)])
    def test_upper_off_the_exchange_pairs_is_refused(self, where):
        diag, upper = self.pair(0.1)
        upper[where] = 1e-300
        with pytest.raises(ValueError, match="must vanish"):
            TriDiagonalWillieState(self.CUT, diag, upper)

    def test_complex_diagonal_is_refused(self):
        diag, upper = self.pair(0.1)
        with pytest.raises(StateValidationError, match="Hermitian"):
            TriDiagonalWillieState(self.CUT, diag + 1e-9j, upper)

    def test_trace_above_one_is_refused(self):
        diag, upper = self.pair(0.1)
        diag[2, 2] = 0.5 + 1e-9
        with pytest.raises(StateValidationError, match="trace"):
            TriDiagonalWillieState(self.CUT, diag, upper)

    def test_arrays_are_read_only_copies(self):
        diag, upper = self.pair(0.1)
        state = TriDiagonalWillieState(self.CUT, diag, upper)
        diag[0, 1] = 5.0
        assert state.diag[0, 1] == 0.25
        with pytest.raises(ValueError):
            state.upper[0, 1] = 0.2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_photons=st.integers(1, 6),
           indefinite=st.booleans())
    def test_check_agrees_with_dense_validation(self, seed, max_photons, indefinite):
        cut = FockCutoff(max_photons)
        diag, upper = random_layout(seed, max_photons, indefinite)

        def accepts(build):
            try:
                build()
            except StateValidationError:
                return False
            return True

        layout = accepts(lambda: TriDiagonalWillieState(cut, diag, upper))
        dense = accepts(lambda: DensityOperator(
            2, cut, layout_matrix(cut, diag, upper), max(0.0, 1.0 - diag.sum())))
        assert layout == dense
        if indefinite:
            assert not layout

    def test_values_are_the_dense_in_block_entries(self):
        cut = FockCutoff(5)
        diag, upper = random_layout(4, 5, indefinite=False)
        state = TriDiagonalWillieState(cut, diag, upper)
        dense = DensityOperator(2, cut, layout_matrix(cut, diag, upper),
                                state.truncation_leak)
        assert np.array_equal(state._idx, dense._idx)
        assert np.array_equal(state._blocks, dense._blocks)

    @pytest.mark.parametrize("measure", [chi2_numeric, qre, trace_distance])
    def test_divergences_read_the_layout(self, measure):
        """A layout, its DensityOperator and every mixed pair give the same
        value bit for bit, against a reference on the same sector table and
        against one on the whole space."""
        cut = FockCutoff(5)
        diag, upper = random_layout(5, 5, indefinite=False)
        state = TriDiagonalWillieState(cut, diag, upper * 0.5)
        p = thermal_occupation(np.arange(cut.dim), 0.4)
        quiet = TriDiagonalWillieState(cut, np.outer(p, p), np.zeros((cut.dim,) * 2))
        product = tensor(thermal_state(0.4, cut), thermal_state(0.4, cut))
        dense = state.to_density_operator()
        values = {measure(a, b) for a in (state, dense) for b in (quiet, product)}
        assert len(values) == 1
        # One coherence off the sectors makes the reference one block.
        m = product.entries.copy()
        m[0, cut.dim + 1] = m[cut.dim + 1, 0] = 1e-3  # |00><11|
        whole = DensityOperator(2, cut, m, product.truncation_leak)
        assert whole._idx.shape == (1, cut.dim**2)
        assert measure(state, whole) == measure(dense, whole)

    @pytest.mark.parametrize("max_photons", [5, 30])
    def test_char_fn_is_the_exchange_pair_trace(self, max_photons):
        """The char fn read from the two arrays is the plain trace
        tr[rho (K1 x K2)] of the layout's matrix, at both cutoffs it
        compares, to roundoff on a bound of the terms' magnitudes."""
        cut = FockCutoff(max_photons)
        diag, upper = random_layout(max_photons, max_photons, indefinite=False)
        state = TriDiagonalWillieState(cut, diag, upper * 0.5)
        d = cut.dim
        matrix = layout_matrix(cut, state.diag, state.upper)
        rng = np.random.default_rng(max_photons)
        for _ in range(6):
            z1, z2 = rng.uniform(0.0, 2.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            for n in (max_photons, max_photons - 2):
                got = fock_core._layout_trace(state.diag, state.upper, *kernels(z1, z2, n))
                k1, k2 = (char_fn_kernel(z, n) for z in (z1, z2))
                scale = np.abs(matrix).sum() * np.abs(k1).max() * np.abs(k2).max()
                assert abs(got[0] - char_fn_trace(matrix, z1, z2, n)) <= 1e-14 * scale
        p = thermal_occupation(np.arange(d), 0.01)  # converged at N - 2
        quiet = TriDiagonalWillieState(cut, np.outer(p, p), np.zeros((d, d)))
        z1, z2 = 0.2j, 0.1 - 0.1j
        want = fock_core._layout_trace(quiet.diag, quiet.upper, *kernels(z1, z2, max_photons))
        assert anti_normal_char_fn(quiet, z1, z2) == want

    def test_dense_is_the_scattered_layout(self):
        cut = FockCutoff(5)
        diag, upper = random_layout(3, 5, indefinite=False)
        upper *= 0.5  # coherences up to 0.35 of the mean: positive definite
        state = TriDiagonalWillieState(cut, diag, upper)
        assert np.array_equal(state.entries, layout_matrix(cut, diag, upper))


def assert_same_state(got, want):
    """``got`` holds what the validating constructor gave ``want``: the same
    entries (byte for byte), sector table, blocks and leak."""
    assert got.num_modes == want.num_modes and got.cutoff == want.cutoff
    assert got.entries.dtype == want.entries.dtype == complex
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got._idx.dtype == want._idx.dtype and np.array_equal(got._idx, want._idx)
    assert np.array_equal(got._blocks, want._blocks)
    assert got.truncation_leak == want.truncation_leak
    assert not (got.entries.flags.writeable or got._blocks.flags.writeable)


class TestCheckedConstructions:
    """``to_density_operator`` and ``tensor`` wrap blocks they have checked,
    without the scan of the public constructor, and give what it gives."""

    PARAMS = ChannelParams(0.8, 0.01)
    QUBITS = {"pure": LogicalQubit(0.5, 0.5, 0.5), "mixed": LogicalQubit(0.3, 0.7, 0.1 - 0.2j)}

    def layout(self, source, case, cut):
        if case == "leaky":
            diag, upper = random_layout(cut.max_photons, cut.max_photons, indefinite=False)
            return TriDiagonalWillieState(cut, diag, upper * 0.5)  # positive definite
        qubit = self.QUBITS[case]
        if source == "closed":
            return willie_state_closed(qubit, self.PARAMS, cut)
        stages = oracle._channel(self.PARAMS, oracle._ANCILLA)
        return oracle._assemble_two_mode(qubit, stages, cut)

    @pytest.mark.parametrize("max_photons", [3, 10, 30])
    @pytest.mark.parametrize("source, case", [
        ("closed", "pure"), ("closed", "mixed"), ("numeric", "pure"), ("numeric", "mixed"),
        ("random", "leaky"),
    ])
    def test_layout_wraps_as_the_validating_constructor(self, source, case, max_photons):
        cut = FockCutoff(max_photons)
        layout = self.layout(source, case, cut)
        if case == "leaky":
            assert layout.truncation_leak > 0.0
        want = DensityOperator(2, cut, layout.entries, layout.truncation_leak)
        assert_same_state(layout.to_density_operator(), want)

    def pair(self, kind, cut):
        rng = np.random.default_rng(cut.max_photons)
        thermal = thermal_state(0.3, cut)
        if kind == "thermal":
            return thermal_state(0.7, cut), thermal
        if kind == "diagonal":
            p = rng.uniform(0.1, 1.0, cut.dim)
            return DensityOperator(1, cut, np.diag(p / p.sum())), thermal
        if kind == "layout":
            return willie_state_closed(self.QUBITS["mixed"], self.PARAMS, cut).to_density_operator(), thermal
        m = thermal.entries.copy()  # "whole": one coherence off the sectors
        m[0, 1] = m[1, 0] = 1e-14
        whole = DensityOperator(1, cut, m, thermal.truncation_leak)
        assert whole._idx.shape == (1, cut.dim)
        return thermal, whole

    @pytest.mark.parametrize("max_photons", [3, 10])
    @pytest.mark.parametrize("kind", ["thermal", "diagonal", "layout", "whole"])
    def test_tensor_is_the_validated_kron(self, kind, max_photons):
        cut = FockCutoff(max_photons)
        a, b = self.pair(kind, cut)
        leak = 1.0 - (1.0 - a.truncation_leak) * (1.0 - b.truncation_leak)
        want = DensityOperator(a.num_modes + b.num_modes, cut, np.kron(a.entries, b.entries), leak)
        assert_same_state(tensor(a, b), want)

    def test_tensor_refuses_a_cutoff_mismatch(self):
        with pytest.raises(ValueError, match="cutoff mismatch"):
            tensor(thermal_state(0.4, CUT), thermal_state(0.4, FockCutoff(4)))

    def test_tensor_checks_the_product_trace(self):
        m = np.diag([0.5 + 1e-12, 0.5]).astype(complex)
        a = DensityOperator(1, FockCutoff(1), m)  # trace 1 + 1e-12, at the limit
        with pytest.raises(StateValidationError, match="trace"):
            tensor(a, a)

    @pytest.mark.parametrize("kind, param", [
        ("beamsplitter", 0.0), ("beamsplitter", 0.37), ("beamsplitter", 1.0),
        ("amplifier", 1.0), ("amplifier", 1.8),
    ])
    def test_unitaries_are_real(self, kind, param):
        """Each unitary is float64 and equals its blocks scattered, one by
        one, into a complex matrix."""
        n = 8
        if kind == "beamsplitter":
            u, (blocks, step) = (beamsplitter_unitary(param, 0, 1, 2, FockCutoff(n)),
                                 fock_core._beamsplitter_blocks(param, n, n + 1))
        else:
            u, (blocks, step) = (two_mode_amplifier_unitary(param, 0, 1, 2, FockCutoff(n)),
                                 fock_core._amplifier_blocks(param, n, n + 1))
        assert u.dtype == np.float64
        ref = np.zeros(u.shape, dtype=complex)
        for block, row in zip(blocks, fock_core._chains(step, n)[0]):
            k = np.count_nonzero(row >= 0)
            ref[np.ix_(row[:k], row[:k])] = block[:k, :k]
        assert np.array_equal(u, ref)


def largest_kept(state) -> int:
    """Cells of the largest array a state holds, counting the buffers that
    its views keep alive."""
    sizes = [0]
    for value in vars(state).values():
        for a in value if isinstance(value, (tuple, list)) else [value]:
            while isinstance(a, np.ndarray):
                sizes.append(a.size)
                a = a.base
    return max(sizes)


class TestBlockStorage:
    """A DensityOperator keeps its blocks, never its matrix, however it is
    made; ``entries`` scatters what the validating constructor gives."""

    @pytest.mark.parametrize("max_photons", [10, 30])
    def test_every_construction_keeps_no_matrix(self, max_photons):
        cut = FockCutoff(max_photons)
        layout = willie_state_closed(LogicalQubit(0.3, 0.7, 0.2 - 0.1j),
                                     ChannelParams(0.9, 0.12), cut)
        matrix, leak = layout_matrix(cut, layout.diag, layout.upper), layout.truncation_leak
        a, b = thermal_state(0.2, cut), thermal_state(0.3, cut)
        states = {
            "validated": (DensityOperator(2, cut, matrix, leak), matrix),
            "checked": (DensityOperator._checked(2, cut, layout._idx, layout._blocks.copy(),
                                                 leak), matrix),
            "tensor": (tensor(a, b), np.kron(a.entries, b.entries)),
            "to_density_operator": (layout.to_density_operator(), matrix),
        }
        for name, (state, dense) in states.items():
            assert len(state._idx) == 2 * max_photons + 1, name  # the sectors
            assert largest_kept(state) < cut.dim**4, name
            want = DensityOperator(2, cut, dense, state.truncation_leak)
            assert state.entries.tobytes() == want.entries.tobytes(), name
            assert not state.entries.flags.writeable
            assert largest_kept(state) < cut.dim**4, name  # reading kept nothing

    def test_states_with_other_blocks_compare_unequal(self):
        cut = FockCutoff(4)
        p = thermal_occupation(np.arange(cut.dim), 0.3)
        leak = 1.0 - p.sum()
        a, b = (DensityOperator(1, cut, np.diag(x), leak) for x in (p, p[::-1]))
        # Every field (num_modes, cutoff, truncation_leak) agrees; the blocks do not.
        fields = [(s.num_modes, s.cutoff, s.truncation_leak) for s in (a, b)]
        assert fields[0] == fields[1]
        assert a != b and not a == b and a == a
        assert tensor(a, b) != tensor(b, a)
        assert "entries" not in repr(a)
        with pytest.raises(TypeError):  # the matrix is no field to carry over
            dataclasses.replace(a, truncation_leak=0.0)
