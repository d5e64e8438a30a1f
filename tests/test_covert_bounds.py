import math

import numpy as np
import pytest

from covert_bosonic.covert_bounds import (
    BoundsPoint,
    GainDecompositionError,
    achievable_qubits,
    assisted_lower_bound_qubits,
    assisted_rate,
    bounds_curve,
    c_cov,
    converse_capacity,
    converse_gain,
    g_func,
    hashing_rate,
    lower_bound_qubits,
    nbar_s_max,
    q_max,
    qre_bound,
    upper_bound_qubits,
    upper_bound_srl_coefficient,
)
from covert_bosonic.closed_form import p_total
from covert_bosonic.fock_core import ChannelParams

FIG2 = ChannelParams(0.9, 0.12)


class TestCovertnessConstant:
    def test_direct_value(self):
        n = 0.108
        assert c_cov(FIG2) == pytest.approx(math.sqrt(2 * n * (1 + n)) / 0.1)

    def test_transparent_channel_is_infinite(self):
        assert c_cov(ChannelParams(1.0, 0.12)) == math.inf

    def test_zero_background_is_zero(self):
        assert c_cov(ChannelParams(0.5, 0.0)) == 0.0

    def test_q_max_clamped_to_one_at_small_n(self):
        assert q_max(FIG2, 0.4, 1) == 1.0

    def test_q_max_unclamped_formula(self):
        n = 1e10
        assert q_max(FIG2, 0.05, n) == pytest.approx(
            2 * c_cov(FIG2) * 0.05 / math.sqrt(n)
        )

    def test_criterion_saturates_at_q_max(self):
        for n in (1e6, 1e10):
            delta = 0.05
            q = q_max(FIG2, delta, n)
            assert qre_bound(FIG2, q, n) == pytest.approx(delta, abs=1e-12)

    def test_q_max_rejects_bad_inputs(self):
        for n in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                q_max(FIG2, 0.05, n)
        with pytest.raises(ValueError):
            q_max(FIG2, -0.1, 100)


class TestNonFiniteDelta:
    """A NaN or infinite budget would clamp q to 1 and put the achievable
    count above the converse; every function taking delta refuses it."""

    CALLS = {
        "q_max": lambda d: q_max(FIG2, d, 1e6),
        "nbar_s_max": lambda d: nbar_s_max(FIG2, d, 1e6),
        "lower_bound_qubits": lambda d: lower_bound_qubits(FIG2, d, 1e6),
        "assisted_lower_bound_qubits": lambda d: assisted_lower_bound_qubits(FIG2, d, 1e6),
        "upper_bound_qubits": lambda d: upper_bound_qubits(FIG2, d, 1e6),
        "upper_bound_srl_coefficient": lambda d: upper_bound_srl_coefficient(FIG2, d),
        "achievable_qubits": lambda d: achievable_qubits(FIG2, d, [1e6], 0.5),
        "bounds_curve": lambda d: bounds_curve(FIG2, d, [1e6]),
    }

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_refused(self, name, delta):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            self.CALLS[name](delta)

    def test_srl_coefficient_refuses_negative_delta(self):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            upper_bound_srl_coefficient(FIG2, -0.1)


class TestEntropyAndRates:
    def test_shannon_entropy_extremes(self):
        # p = 0: H(1, 0, 0, 0) = 0 with 0 log 0 = 0.  p = 1 (eta = 0): the
        # uniform Pauli vector has H = 2 bits, so 1 - H clamps to zero.
        assert hashing_rate(ChannelParams(1.0, 0.3)) == 1.0
        assert hashing_rate(ChannelParams(0.0, 0.3)) == 0.0

    def test_depolarizing_vector(self):
        # The hashing rate is 1 - H of [1 - 3p/4, p/4, p/4, p/4].
        p = p_total(FIG2)
        probs = (1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)
        h = -sum(x * math.log2(x) for x in probs)
        assert hashing_rate(FIG2) == pytest.approx(1.0 - h, rel=1e-14)

    def test_hashing_rate_identity_channel(self):
        assert hashing_rate(ChannelParams(1.0, 0.0)) == 1.0

    def test_hashing_rate_clamps_to_zero_in_deep_noise(self):
        assert hashing_rate(ChannelParams(0.5, 1.0)) == 0.0

    def test_assisted_rate_pure_loss(self):
        # with zero background, kept rounds are noiseless: rate = 1 - p_fail = eta
        assert assisted_rate(ChannelParams(0.6, 0.0)) == pytest.approx(0.6)

    def test_assisted_dominates_unassisted(self):
        for eta in (0.3, 0.6, 0.9, 0.99):
            for nb in (0.0, 0.05, 0.12, 0.5):
                params = ChannelParams(eta, nb)
                assert assisted_rate(params) >= hashing_rate(params) - 1e-12


class TestConverse:
    def test_gain_pure_loss_is_one(self):
        assert converse_gain(ChannelParams(0.7, 0.0)) == 1.0

    def test_gain_decomposition_failure(self):
        with pytest.raises(GainDecompositionError):
            converse_gain(ChannelParams(0.1, 10.0))

    def test_g_func_anchors(self):
        assert g_func(0.0) == 0.0
        assert g_func(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            g_func(-0.1)

    def test_capacity_zero_signal(self):
        assert converse_capacity(FIG2, 0.0) == 0.0

    def test_capacity_noiseless_limit(self):
        # G = 1: capacity reduces to g(nbar_s)
        params = ChannelParams(0.7, 0.0)
        for ns in (0.1, 0.5, 2.0):
            assert converse_capacity(params, ns) == pytest.approx(g_func(ns))

    def test_srl_coefficient_is_large_n_limit(self):
        delta = 0.05
        coef = upper_bound_srl_coefficient(FIG2, delta)
        prev_err = None
        for n in (1e8, 1e10, 1e12, 1e14):
            err = abs(upper_bound_qubits(FIG2, delta, n) / math.sqrt(n) - coef) / coef
            if prev_err is not None:
                assert err < prev_err
            prev_err = err
        assert prev_err < 1e-5


class TestBoundScaling:
    def test_lower_bound_follows_square_root_law(self):
        delta = 0.05
        vals = [
            lower_bound_qubits(FIG2, delta, n) / math.sqrt(n)
            for n in (1e6, 1e8, 1e10, 1e12)
        ]
        assert max(vals) - min(vals) < 1e-9 * vals[0]
        assert vals[0] == pytest.approx(2 * c_cov(FIG2) * delta * hashing_rate(FIG2))

    def test_bounds_scale_linearly_in_delta_at_large_n(self):
        n = 1e12
        for fn in (lower_bound_qubits, upper_bound_qubits, assisted_lower_bound_qubits):
            ratio = fn(FIG2, 0.1, n) / fn(FIG2, 0.05, n)
            assert ratio == pytest.approx(2.0, rel=0.01)

    def test_zero_delta_means_zero_qubits(self):
        assert lower_bound_qubits(FIG2, 0.0, 1e6) == 0.0
        assert upper_bound_qubits(FIG2, 0.0, 1e6) == 0.0
        assert assisted_lower_bound_qubits(FIG2, 0.0, 1e6) == 0.0

    def test_upper_dominates_lower(self):
        for n in np.geomspace(1e4, 1e14, 21):
            lo = lower_bound_qubits(FIG2, 0.05, n)
            hi = upper_bound_qubits(FIG2, 0.05, n)
            assert hi >= lo

    def test_achievable_qubits_takes_the_rate_separately(self):
        n = np.geomspace(1e4, 1e12, 5)
        got = achievable_qubits(FIG2, 0.05, n, 0.25)
        for v, n_i in zip(got, n):
            assert v == q_max(FIG2, 0.05, n_i) * n_i * 0.25

    def test_nbar_s_max_matches_q_max_unclamped(self):
        n = 1e10
        assert nbar_s_max(FIG2, 0.05, n) == pytest.approx(q_max(FIG2, 0.05, n))


class TestBoundsCurve:
    def test_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ValueError):
            bounds_curve(FIG2, 0.05, [100.0, 10.0])
        with pytest.raises(ValueError):
            bounds_curve(FIG2, 0.05, [0.0, 10.0])

    @pytest.mark.parametrize("n", [[math.nan], [1e6, math.nan], [1e6, math.inf]])
    def test_rejects_non_finite_n(self, n):
        with pytest.raises(ValueError, match="finite"):
            bounds_curve(FIG2, 0.05, n)

    @pytest.mark.parametrize("rate", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_bad_modes_per_second(self, rate):
        with pytest.raises(ValueError, match="modes_per_second"):
            bounds_curve(FIG2, 0.05, [1e6], modes_per_second=rate)

    def test_undefined_converse_refuses_the_sweep(self):
        with pytest.raises(GainDecompositionError):
            bounds_curve(ChannelParams(0.1, 10.0), 0.05, [1e4, 1e6])

    def test_empty_input(self):
        assert bounds_curve(FIG2, 0.05, []) == []

    def test_points_match_scalar_functions(self):
        ns = list(np.geomspace(1e4, 1e12, 9))
        pts = bounds_curve(FIG2, 0.05, ns, modes_per_second=1e8)
        assert len(pts) == 9
        for pt, n in zip(pts, ns):
            assert isinstance(pt, BoundsPoint)
            assert pt.lower_qubits == pytest.approx(lower_bound_qubits(FIG2, 0.05, n))
            assert pt.upper_qubits == pytest.approx(upper_bound_qubits(FIG2, 0.05, n))
            assert pt.assisted_lower_qubits == pytest.approx(
                assisted_lower_bound_qubits(FIG2, 0.05, n)
            )
            assert pt.q == q_max(FIG2, 0.05, n)
            assert pt.nbar_s == nbar_s_max(FIG2, 0.05, n)
            assert pt.seconds == pytest.approx(2.0 * n / 1e8)

    def test_seconds_omitted_without_rate(self):
        pts = bounds_curve(FIG2, 0.05, [1e6])
        assert pts[0].seconds is None


class TestZeroBudget:
    """delta = 0 allows no signal photons, even at eta = 1 where c_cov is
    infinite and the unguarded product inf * 0 would be NaN."""

    @pytest.mark.parametrize("params", [ChannelParams(1.0, 0.1), FIG2])
    def test_scalar_views_are_zero(self, params):
        assert q_max(params, 0.0, 1e6) == 0.0
        assert nbar_s_max(params, 0.0, 1e6) == 0.0
        assert lower_bound_qubits(params, 0.0, 1e6) == 0.0
        assert assisted_lower_bound_qubits(params, 0.0, 1e6) == 0.0
        assert upper_bound_qubits(params, 0.0, 1e6) == 0.0

    def test_sweep_columns_are_zero(self):
        pts = bounds_curve(ChannelParams(1.0, 0.1), 0.0, [1e2, 1e6, 1e10])
        for pt in pts:
            assert (pt.q, pt.nbar_s, pt.capacity_C) == (0.0, 0.0, 0.0)
            assert (pt.lower_qubits, pt.assisted_lower_qubits, pt.upper_qubits) == (
                0.0, 0.0, 0.0)

    def test_cli_sweep_succeeds(self, capsys):
        from covert_bosonic import cli

        code = cli.main(["bounds", "--eta", "1", "--nbar-b", "0.1", "--delta", "0",
                         "--n", "1e6"])
        out = capsys.readouterr().out
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert [float(row[i]) for i in (2, 3, 4, 7, 8)] == [0.0] * 5
