import json
import math
import re

import numpy as np
import pytest

from covert_bosonic import covert_bounds as cb
from covert_bosonic.covert_bounds import (
    BoundsPoint,
    GainDecompositionError,
    achievable_qubits,
    assisted_rate,
    bounds_curve,
    c_cov,
    converse_gain,
    hashing_rate,
    p_fail,
    p_prime,
    p_total,
    q_max,
    qre_bound,
    upper_bound_qubits,
    upper_bound_srl_coefficient,
)
from covert_bosonic.fock_core import ChannelParams

FIG2 = ChannelParams(0.9, 0.12)
DELTA_RULE = re.escape("delta must be in [0, 1/2), got ")


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

    @pytest.mark.parametrize("q, n, message", [
        (math.nan, 1e6, "q must be finite and in"), (math.inf, 1e6, "q must be"),
        (2.0, 1e6, "q must be"), (-0.1, 1e6, "q must be"),
        (0.1, math.nan, "n must be finite"), (0.1, math.inf, "n must be finite"),
        (0.1, -1.0, "n must be >= 1"), (0.1, 0.5, "n must be >= 1"),
    ])
    def test_qre_bound_rejects_bad_inputs(self, q, n, message):
        with pytest.raises(ValueError, match=message):
            qre_bound(FIG2, q, n)

    def test_q_max_rejects_bad_inputs(self):
        for n in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                q_max(FIG2, 0.05, n)
        with pytest.raises(ValueError):
            q_max(FIG2, -0.1, 100)


class TestNonFiniteDelta:
    """A NaN or infinite budget would clamp q to 1 and put the achievable
    count above the converse, and at delta >= 1/2 the detection criterion
    (1/4)||rho_1 - rho_0||_1 <= delta is vacuous; every function taking
    delta refuses a budget outside [0, 1/2) with one message."""

    CALLS = {
        "q_max": lambda d: q_max(FIG2, d, 1e6),
        "upper_bound_qubits": lambda d: upper_bound_qubits(FIG2, d, 1e6),
        "upper_bound_srl_coefficient": lambda d: upper_bound_srl_coefficient(FIG2, d),
        "achievable_qubits": lambda d: achievable_qubits(FIG2, d, [1e6], 0.5),
        "bounds_curve": lambda d: bounds_curve(FIG2, d, [1e6]),
    }

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -0.1, 0.5, 0.7])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_refused(self, name, delta):
        with pytest.raises(ValueError, match=DELTA_RULE + re.escape(repr(delta))):
            self.CALLS[name](delta)

    def test_empty_sweep_checks_delta(self):
        with pytest.raises(ValueError, match=DELTA_RULE):
            bounds_curve(FIG2, 0.5, [])


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

    def test_g_anchors(self):
        assert cb._g(0.0) == 0.0
        assert cb._g(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            cb._g(-0.1)

    def test_capacity_zero_signal(self):
        assert cb._capacity(FIG2, 0.0) == 0.0

    def test_capacity_noiseless_limit(self):
        # G = 1: capacity reduces to g(nbar_s)
        params = ChannelParams(0.7, 0.0)
        for ns in (0.1, 0.5, 2.0):
            assert cb._capacity(params, ns) == pytest.approx(cb._g(ns))

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

    def test_srl_coefficient_below_half_an_ulp_of_noise(self):
        # (1-eta) nbar_b/2 = 5e-22 rounds G to exactly 1; Gbar is ~5.6e-22.
        params, delta = ChannelParams(0.9, 1e-20), 0.05
        assert converse_gain(params) == 1.0
        gbar = 0.05e-20 / (0.9 - 0.05e-20)
        want = 4.0 * c_cov(params) * delta * math.log2(1.0 + 2.0 / gbar)
        got = upper_bound_srl_coefficient(params, delta)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("params, delta", [
        (ChannelParams(0.9, 0.0), 0.05), (ChannelParams(0.0, 0.5), 0.05),
        (ChannelParams(1.0, 0.12), 0.0), (FIG2, 0.0), (ChannelParams(1.0, 0.0), 0.0),
        (ChannelParams(1.0, 0.12), 0.05), (ChannelParams(1.0, 0.0), 0.05),
        (ChannelParams(0.1, 0.5), 0.05), (ChannelParams(0.0, 0.0), 0.0),
    ])
    def test_srl_coefficient_edges_follow_the_converse(self, params, delta):
        # 0 where the converse is 0 at every n; the converse's own error
        # where it refuses (eta = 1 with delta > 0, no gain decomposition).
        try:
            want = upper_bound_qubits(params, delta, 1e12) / 1e6
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                upper_bound_srl_coefficient(params, delta)
        else:
            assert want == 0.0
            assert upper_bound_srl_coefficient(params, delta) == 0.0


class TestBoundScaling:
    def test_lower_bound_follows_square_root_law(self):
        delta = 0.05
        vals = [pt.lower_qubits / math.sqrt(pt.n)
                for pt in bounds_curve(FIG2, delta, [1e6, 1e8, 1e10, 1e12])]
        assert max(vals) - min(vals) < 1e-9 * vals[0]
        assert vals[0] == pytest.approx(2 * c_cov(FIG2) * delta * hashing_rate(FIG2))

    def test_bounds_scale_linearly_in_delta_at_large_n(self):
        (lo,), (hi,) = (bounds_curve(FIG2, delta, [1e12]) for delta in (0.05, 0.1))
        for column in ("lower_qubits", "upper_qubits", "assisted_lower_qubits"):
            ratio = getattr(hi, column) / getattr(lo, column)
            assert ratio == pytest.approx(2.0, rel=0.01)

    def test_upper_dominates_lower(self):
        for pt in bounds_curve(FIG2, 0.05, np.geomspace(1e4, 1e14, 21)):
            assert pt.upper_qubits >= pt.lower_qubits

    def test_achievable_qubits_takes_the_rate_separately(self):
        n = np.geomspace(1e4, 1e12, 5)
        got = achievable_qubits(FIG2, 0.05, n, 0.25)
        for v, n_i in zip(got, n):
            assert v == q_max(FIG2, 0.05, n_i) * n_i * 0.25

    def test_nbar_s_is_q_until_q_clamps(self):
        clamped, unclamped = bounds_curve(FIG2, 0.4, [1.0, 1e10])
        assert clamped.q == 1.0 < clamped.nbar_s
        assert unclamped.nbar_s == unclamped.q == q_max(FIG2, 0.4, 1e10)


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

    def test_overflowing_seconds_are_refused(self):
        with pytest.raises(ValueError, match="modes_per_second finite"):
            bounds_curve(FIG2, 0.05, [1e4, 1e6], modes_per_second=1e-310)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_refuses_overflowing_seconds(self, fmt, capsys):
        from covert_bosonic import cli

        code = cli.main(["bounds", "--eta", "0.9", "--nbar-b", "0.12", "--delta", "0.05",
                         "--n", "1e4", "--modes-per-sec", "1e-310", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "modes_per_second" in json.loads(captured.err)["message"]

    def test_undefined_converse_refuses_the_sweep(self):
        with pytest.raises(GainDecompositionError):
            bounds_curve(ChannelParams(0.1, 10.0), 0.05, [1e4, 1e6])

    def test_empty_input(self):
        assert bounds_curve(FIG2, 0.05, []) == []

    def test_points_follow_the_paper_formulas(self):
        # nbar_s = 2 c_cov delta / sqrt(n), q = min(1, nbar_s), lower = q n R,
        # assisted = q n R_a and upper = 2 n C(nbar_s), with C the [.]+ of
        # g(((G+1) nbar_s + Gbar) / 2) - g(Gbar (1 + nbar_s) / 2).
        def g(x):
            return (1 + x) * math.log2(1 + x) - (x * math.log2(x) if x > 0 else 0.0)

        ns = list(np.geomspace(1e4, 1e12, 9))
        pts = bounds_curve(FIG2, 0.05, ns, modes_per_second=1e8)
        assert len(pts) == 9
        gain = converse_gain(FIG2)
        for pt, n in zip(pts, ns):
            assert isinstance(pt, BoundsPoint)
            nbar_s = 2 * c_cov(FIG2) * 0.05 / math.sqrt(n)
            q = min(1.0, nbar_s)
            cap = max(0.0, g(((gain + 1) * nbar_s + gain - 1) / 2)
                      - g((gain - 1) * (1 + nbar_s) / 2))
            assert pt.nbar_s == pytest.approx(nbar_s, rel=1e-15)
            assert pt.q == pytest.approx(q, rel=1e-15)
            assert pt.rate_R == hashing_rate(FIG2)
            assert pt.lower_qubits == pytest.approx(q * n * hashing_rate(FIG2), rel=1e-15)
            assert pt.assisted_lower_qubits == pytest.approx(
                q * n * assisted_rate(FIG2), rel=1e-15)
            assert pt.capacity_C == pytest.approx(cap, rel=1e-9)
            assert pt.upper_qubits == pytest.approx(2 * n * cap, rel=1e-9)
            assert pt.seconds == pytest.approx(2.0 * n / 1e8)

    def test_seconds_omitted_without_rate(self):
        pts = bounds_curve(FIG2, 0.05, [1e6])
        assert pts[0].seconds is None


class TestUnboundedConverse:
    """At eta = 1 with delta > 0, c_cov and so nbar_s are infinite:
    covertness sets no power limit, and the converse is unbounded.  It is
    refused rather than reported as 0 below the achievable count."""

    def test_sweep_is_refused(self):
        with pytest.raises(ValueError, match="converse is unbounded"):
            bounds_curve(ChannelParams(1.0, 0.12), 0.05, [1e6])

    def test_upper_bound_is_refused(self):
        with pytest.raises(ValueError, match="converse is unbounded"):
            upper_bound_qubits(ChannelParams(1.0, 0.12), 0.05, 1e6)

    @pytest.mark.parametrize("nbar_s", [math.nan, math.inf])
    def test_capacity_refuses_non_finite_nbar_s(self, nbar_s):
        with pytest.raises(ValueError, match="nbar_s must be finite"):
            cb._capacity(FIG2, nbar_s)

    @pytest.mark.parametrize("command", ["bounds", "eb-report"])
    def test_cli_exits_2(self, command, capsys):
        from covert_bosonic import cli

        code = cli.main([command, "--eta", "1", "--nbar-b", "0.1", "--delta", "0.05",
                         "--n", "1e6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "converse is unbounded" in json.loads(captured.err)["message"]


class TestZeroBudget:
    """delta = 0 allows no signal photons, even at eta = 1 where c_cov is
    infinite and the unguarded product inf * 0 would be NaN."""

    @pytest.mark.parametrize("params", [ChannelParams(1.0, 0.1), FIG2])
    def test_point_functions_are_zero(self, params):
        assert q_max(params, 0.0, 1e6) == 0.0
        assert achievable_qubits(params, 0.0, 1e6, 0.5) == 0.0
        assert upper_bound_qubits(params, 0.0, 1e6) == 0.0

    @pytest.mark.parametrize("params", [ChannelParams(1.0, 0.1), FIG2])
    def test_sweep_columns_are_zero(self, params):
        pts = bounds_curve(params, 0.0, [1e2, 1e6, 1e10])
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

    @pytest.mark.parametrize("n, message", [(-5.0, ">= 1"), (0.5, ">= 1"),
                                            (math.nan, "finite")])
    def test_bad_n_is_refused(self, n, message):
        for bound in (q_max, upper_bound_qubits):
            with pytest.raises(ValueError, match=message):
                bound(FIG2, 0.0, n)
        with pytest.raises(ValueError, match=message):
            bounds_curve(FIG2, 0.0, [n])

    def test_undefined_converse_is_refused_as_by_the_sweep(self):
        params = ChannelParams(0.1, 10.0)
        with pytest.raises(GainDecompositionError):
            bounds_curve(params, 0.0, [1e6])
        with pytest.raises(GainDecompositionError):
            upper_bound_qubits(params, 0.0, 1e6)

    def test_cli_eb_report_refuses_undefined_converse(self, capsys):
        from covert_bosonic import cli

        code = cli.main(["eb-report", "--eta", "0.1", "--nbar-b", "10", "--delta", "0",
                         "--n", "1e6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err)["error"] == "GainDecompositionError"


class TestNoProjection:
    """At eta = nbar_b = 0 nothing reaches the receiver: the dual-rail
    projection never succeeds, p' is undefined and the assisted rate is 0."""

    PARAMS = ChannelParams(0.0, 0.0)

    def test_library_values(self):
        assert p_fail(self.PARAMS) == 1.0
        assert assisted_rate(self.PARAMS) == 0.0
        with pytest.raises(ValueError, match="projection never succeeds"):
            p_prime(self.PARAMS)

    def test_sweep_reaches_the_converse_refusal(self):
        with pytest.raises(GainDecompositionError):
            bounds_curve(self.PARAMS, 0.05, [1e6])

    def test_cli_exits_2_with_the_converse_refusal(self, capsys):
        from covert_bosonic import cli

        code = cli.main(["bounds", "--eta", "0", "--nbar-b", "0", "--delta", "0.05",
                         "--n", "1e6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "GainDecompositionError"
        assert "eta - (1-eta) nbar_b/2 = 0.0" in err["message"]
