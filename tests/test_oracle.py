import inspect
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

import covert_bosonic.closed_form as closed_form
from covert_bosonic.closed_form import LogicalQubit, willie_state_closed
from covert_bosonic.eb_engineering import plan_lemma1, plan_lemma2
from covert_bosonic.fock_core import (
    ChannelParams,
    DensityOperator,
    FockCutoff,
    TriDiagonalWillieState,
    beamsplitter_unitary,
    tensor,
    thermal_occupation,
    thermal_state,
    two_mode_amplifier_unitary,
)
from covert_bosonic import oracle
from covert_bosonic.oracle import (
    ALL_CHECKS,
    VerificationReport,
    bob_state_numeric,
    default_channel_grid,
    default_qubit_set,
    engineered_willie_state_numeric,
    laguerre_offdiag_closed,
    laguerre_offdiag_ring_integral,
    laguerre_ring_integral,
    run_all_checks,
    verify_chi2,
    verify_laguerre_lemma6,
    verify_willie_state,
    willie_state_numeric,
)
from dense_reference import (apply_unitary, dual_rail_density, embed, partial_trace,
                             two_mode)


class TestPairwiseDecomposition:
    """The simulator factorizes the four-mode optical circuit into two
    independent rail+environment pairs; this cross-checks it against the
    unfactorized four-mode simulation at a small cutoff."""

    def _four_mode(self, qubit, params, cut, keep):
        rails = dual_rail_density(qubit, cut)
        env = thermal_state(params.nbar_b, cut)
        state = tensor(tensor(rails, env), env)
        u = beamsplitter_unitary(params.eta, 0, 1, 2, cut)
        u1 = embed(u, 0, 2, 4, cut)
        u2 = embed(u, 1, 3, 4, cut)
        return partial_trace(apply_unitary(apply_unitary(state, u1), u2), keep)

    def test_willie_port(self):
        cut = FockCutoff(5)
        params = ChannelParams(0.7, 0.05)
        qubit = LogicalQubit(0.3, 0.7, 0.2 - 0.3j)
        full = self._four_mode(qubit, params, cut, keep=[2, 3])
        pair = willie_state_numeric(qubit, params, cut)
        assert np.max(np.abs(full.entries - pair.entries)) < 1e-13

    def test_bob_port(self):
        cut = FockCutoff(5)
        params = ChannelParams(0.7, 0.05)
        qubit = LogicalQubit.pure(0.6, 0.8j)
        full = self._four_mode(qubit, params, cut, keep=[0, 1])
        pair = bob_state_numeric(qubit, params, cut)
        assert np.max(np.abs(full.entries - pair.entries)) < 1e-13


class TestEngineeredPipelines:
    """The engineered warden state entrywise against the same optics built
    from fock_core primitives, one rail at a time: tensor with the ancilla,
    conjugate by the stage unitary, trace out the other port."""

    CUT = FockCutoff(5)
    # Small backgrounds keep the thermal tail above N=5 below the oracle's
    # leak limit; the amplifier is exactly unitary on the truncated space.
    CASES = {
        "none": (ChannelParams(0.95, 0.08), plan_lemma1),
        "attenuate": (ChannelParams(0.9, 0.05), plan_lemma1),
        "amplify": (ChannelParams(0.9, 0.05), plan_lemma2),
    }

    def _stage(self, rho, u, ancilla, keep):
        return partial_trace(apply_unitary(tensor(rho, ancilla), u), [keep])

    def _rail(self, psi, plan, params):
        """One rail's output for the pure single-mode input psi (a valid
        state, unlike the basis operators |0><1| and |1><0|)."""
        cut = self.CUT
        vec = np.zeros(cut.dim, dtype=complex)
        vec[:2] = psi
        rho = DensityOperator(1, cut, np.outer(vec, vec.conj()))
        vacuum = thermal_state(0.0, cut)
        if plan.gain_eb > 1.0:
            amp = two_mode_amplifier_unitary(plan.gain_eb, 0, 1, 2, cut)
            rho = self._stage(rho, amp, vacuum, 0)
        if plan.tau < 1.0:
            loss = beamsplitter_unitary(plan.tau, 0, 1, 2, cut)
            rho = self._stage(rho, loss, vacuum, 0)
        rho = self._stage(rho, beamsplitter_unitary(params.eta, 0, 1, 2, cut),
                          thermal_state(params.nbar_b, cut), 1)
        return rho.entries

    @pytest.mark.parametrize("mechanism", sorted(CASES))
    def test_matches_primitive_optics(self, mechanism):
        params, planner = self.CASES[mechanism]
        plan = planner(params)
        assert plan.mechanism.value.startswith(mechanism)
        s = 1.0 / math.sqrt(2.0)
        out = {name: self._rail(psi, plan, params) for name, psi in {
            "0": (1, 0), "1": (0, 1), "+": (s, s), "-": (s, -s),
            "+i": (s, 1j * s), "-i": (s, -1j * s)}.items()}
        # Basis-operator images by linearity:
        # |0><1| = [(P+ - P-) + i (P+i - P-i)] / 2, |1><0| its adjoint.
        x = out["+"] - out["-"]
        y = 1j * (out["+i"] - out["-i"])
        img = {(0, 0): out["0"], (1, 1): out["1"], (0, 1): (x + y) / 2,
               (1, 0): (x - y) / 2}
        qubit = LogicalQubit(0.3, 0.7, 0.2 - 0.3j)
        reference = (
            qubit.alpha_sq * np.kron(img[(0, 0)], img[(1, 1)])
            + qubit.beta_sq * np.kron(img[(1, 1)], img[(0, 0)])
            + qubit.gamma * np.kron(img[(0, 1)], img[(1, 0)])
            + np.conj(qubit.gamma) * np.kron(img[(1, 0)], img[(0, 1)])
        )
        oracle_state = engineered_willie_state_numeric(qubit, plan, params, self.CUT)
        assert np.max(np.abs(oracle_state.entries - reference)) <= 1e-12


def dense_stage(x, stage, max_photons):
    """One stage by the dense d^4 contraction: the full stage unitary, the
    thermal ancilla weights, the port not kept traced out."""
    unitary, param, nbar, keep = stage
    d = max_photons + 1
    u = unitary(param, 0, 1, 2, FockCutoff(max_photons)).reshape(d, d, d, d)
    if keep == oracle._ANCILLA:
        u = u.transpose(1, 0, 2, 3)
    w = thermal_occupation(np.arange(d), nbar)
    left = np.einsum("bwik,ij->bwjk", u, x)
    return np.einsum("bwjk,cwjk->bc", left, u.conj() * w)


class TestStageTransfer:
    """Each stage's cached shift map against the dense contraction."""

    N = 8

    def operators(self):
        d = self.N + 1
        rng = np.random.default_rng(5)
        ops = []
        for x, xp in ((0, 0), (0, 1), (1, 0), (3, 5)):
            op = np.zeros((d, d), dtype=complex)
            op[x, xp] = 1.0
            ops.append(op)
        ops.append(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return ops

    @pytest.mark.parametrize("unitary, param", [
        (beamsplitter_unitary, 0.0), (beamsplitter_unitary, 0.37),
        (beamsplitter_unitary, 1.0), (two_mode_amplifier_unitary, 1.0),
        (two_mode_amplifier_unitary, 1.3),
    ])
    @pytest.mark.parametrize("nbar", [0.0, 0.2])
    @pytest.mark.parametrize("keep", [oracle._SIGNAL, oracle._ANCILLA])
    def test_matches_dense_contraction(self, unitary, param, nbar, keep):
        stage = (unitary, param, nbar, keep)
        for op in self.operators():
            got = oracle._apply_stage(op, stage, self.N)
            ref = dense_stage(op, stage, self.N)
            assert np.max(np.abs(got - ref)) < 1e-13

    def test_cache_holds_no_dense_unitary(self):
        d = self.N + 1
        stage = (beamsplitter_unitary, 0.41, 0.1, oracle._SIGNAL)
        arrays = oracle._stage_transfer(stage, self.N)
        assert all(a.size <= (2 * d - 1) * d * d for a in arrays)

    def test_unitary_off_conservation_is_refused(self):
        def broken(param, *args):
            u = beamsplitter_unitary(param, *args)
            u[0, 5] = 1e-3  # |0,0> <- |0,5>: conserves neither number
            return u

        op = np.zeros((self.N + 1,) * 2, dtype=complex)
        op[0, 0] = 1.0
        with pytest.raises(ValueError, match="conserves neither"):
            oracle._apply_stage(op, (broken, 0.5, 0.1, oracle._SIGNAL), self.N)


class TestImageChecks:
    """The tri-diagonal layout the oracle reads from the rail images holds
    the whole dense two-mode state."""

    CUT = FockCutoff(8)
    PARAMS = ChannelParams(0.7, 0.05)
    QUBIT = LogicalQubit(0.3, 0.7, 0.2 - 0.3j)

    def rail(self, keep):
        return oracle._rail_images(oracle._channel(self.PARAMS, keep),
                                   self.CUT.max_photons)

    def test_pattern_entries_match_dense_state(self):
        rail = self.rail(oracle._ANCILLA)
        layout = TriDiagonalWillieState(self.CUT, *oracle._tri_diagonal(self.QUBIT, rail))
        assert np.max(np.abs(layout.dense() - two_mode(self.QUBIT, rail))) < 1e-13

    def test_logical_block_matches_receiver_state(self):
        rail = self.rail(oracle._SIGNAL)
        diag, upper = oracle._tri_diagonal(self.QUBIT, rail)
        got = np.array([[diag[0, 1], upper[0, 1]], [np.conj(upper[0, 1]), diag[1, 0]]])
        logical = np.array([1, self.CUT.dim])  # |01>, |10>
        dense = two_mode(self.QUBIT, rail)
        assert np.max(np.abs(got - dense[np.ix_(logical, logical)])) < 1e-13

    def plant_off_band_entry(self, monkeypatch):
        images = oracle._rail_images

        def planted(stages, max_photons):
            rail = dict(images(stages, max_photons))
            op = rail[(0, 0)].copy()
            op[0, 2] = 1e-9  # band -2 of the image of |0><0|
            rail[(0, 0)] = op
            return rail

        monkeypatch.setattr(oracle, "_rail_images", planted)

    def test_off_band_entry_fails_willie_state(self, monkeypatch):
        assert verify_willie_state([self.PARAMS], [self.QUBIT], self.CUT).passed
        self.plant_off_band_entry(monkeypatch)
        report = verify_willie_state([self.PARAMS], [self.QUBIT], self.CUT)
        assert not report.passed
        assert report.max_rel_error == 1e-9

    def test_off_band_entry_is_refused_by_the_layout(self, monkeypatch):
        self.plant_off_band_entry(monkeypatch)
        stages = oracle._channel(self.PARAMS, oracle._ANCILLA)
        with pytest.raises(ValueError, match="off its band"):
            oracle._assemble_two_mode(self.QUBIT, stages, self.CUT)

    def test_layout_is_shared_with_closed_form(self):
        from covert_bosonic import fock_core

        assert closed_form.TriDiagonalWillieState is fock_core.TriDiagonalWillieState
        assert TriDiagonalWillieState.__module__ == fock_core.__name__


def test_numeric_states_use_no_closed_form(monkeypatch):
    """Every closed_form function raises, wherever a module holds it; the
    oracle's numeric states are still built (LogicalQubit keeps working)."""
    def refuse(*args, **kwargs):
        raise AssertionError("closed_form code called")

    targets = {
        id(obj) for obj in vars(closed_form).values()
        if callable(obj) and obj is not LogicalQubit
        and getattr(obj, "__module__", None) == closed_form.__name__
        and not (inspect.isclass(obj) and issubclass(obj, Exception))
    }
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("covert_bosonic") and mod is not None:
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    monkeypatch.setattr(mod, name, refuse)
    assert closed_form.willie_state_closed is refuse
    # Inputs used by no other test, so no cached image can stand in.
    cut = FockCutoff(4)
    qubit = LogicalQubit.pure(0.6, 0.8j)
    params = ChannelParams(0.77, 0.02)
    breaking = ChannelParams(0.97, 0.05)
    hard = ChannelParams(0.6, 0.02)
    states = [
        willie_state_numeric(qubit, params, cut),
        bob_state_numeric(qubit, params, cut),
        engineered_willie_state_numeric(qubit, plan_lemma1(breaking), breaking, cut),
        engineered_willie_state_numeric(qubit, plan_lemma1(hard), hard, cut),
        engineered_willie_state_numeric(qubit, plan_lemma2(hard), hard, cut),
    ]
    assert all(isinstance(s, DensityOperator) for s in states)


def test_chi2_check_bounds_the_closed_form_itself(monkeypatch):
    """The sampled-bound step evaluates chi2_closed, so a closed form that
    exceeds the bound only on part of the state space is caught, away from
    the identity points (alpha_sq = 1/2) and the grid's one qubit."""
    closed = closed_form.chi2_closed

    def wrong(qubit, params):
        value = closed(qubit, params)
        return 2.0 * value if 0.2 < qubit.alpha_sq < 0.4 else value

    monkeypatch.setattr(closed_form, "chi2_closed", wrong)
    report = verify_chi2([ChannelParams(0.9, 0.12)], [LogicalQubit(0.5, 0.5, 0.0)])
    assert not report.passed
    assert report.worst_case_inputs["violation"] == "sampled value exceeds bound"


class TestCutoffRobustness:
    def test_willie_state_agreement_is_cutoff_stable(self):
        params = ChannelParams(0.9, 0.12)
        qubit = LogicalQubit.pure(1 / math.sqrt(2), 1 / math.sqrt(2))
        for n in (20, 30):
            cut = FockCutoff(n)
            closed = willie_state_closed(qubit, params, cut).dense()
            numeric = willie_state_numeric(qubit, params, cut).entries
            assert np.max(np.abs(closed - numeric)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(eta=st.floats(0.05, 0.99), load=st.floats(0.0, 1.0),
           alpha_sq=st.floats(0.0, 1.0), coherence=st.floats(0.0, 1.0),
           phase=st.floats(0.0, 2.0 * math.pi))
    def test_numeric_matches_closed_form_at_n30(self, eta, load, alpha_sq,
                                                coherence, phase):
        # eta * nbar_b <= 1/2 keeps the warden's thermal tail negligible at
        # N = 30.  The simulated environment is truncated at N too, which
        # bounds nbar_b itself: up to 1 its tail stays below the tolerance,
        # and far above it the oracle raises TruncationError.  The qubit is
        # any valid logical state.
        params = ChannelParams(eta, load * min(1.0, 0.5 / eta))
        gamma = coherence * math.sqrt(alpha_sq * (1.0 - alpha_sq)) * np.exp(1j * phase)
        qubit = LogicalQubit(alpha_sq, 1.0 - alpha_sq, complex(gamma))
        cut = FockCutoff(30)
        closed = willie_state_closed(qubit, params, cut).dense()
        numeric = willie_state_numeric(qubit, params, cut).entries
        assert np.max(np.abs(closed - numeric)) < 1e-8


class TestDefaultGrids:
    def test_channel_grid_shape(self):
        grid = default_channel_grid()
        assert len(grid) == 12
        assert all(0 < p.eta < 1 and p.nbar_b > 0 for p in grid)

    def test_qubit_set_is_reproducible(self):
        a = default_qubit_set()
        b = default_qubit_set()
        assert len(a) == 12
        assert all(
            x.alpha_sq == y.alpha_sq and x.gamma == y.gamma for x, y in zip(a, b)
        )


class TestReports:
    def test_to_json_round_trip(self):
        rep = VerificationReport(
            check_name="demo",
            grid_size=3,
            max_abs_error=1e-12,
            max_rel_error=2e-12,
            tolerance=1e-8,
            passed=True,
            worst_case_inputs={"eta": 0.9, "zeta1": 0.5 + 0.25j},
        )
        d = json.loads(rep.to_json())
        assert d["check_name"] == "demo"
        assert d["passed"] is True
        assert d["worst_case_inputs"]["eta"] == 0.9
        assert complex(d["worst_case_inputs"]["zeta1"]) == 0.5 + 0.25j

    def test_unknown_check_name_rejected(self):
        with pytest.raises(ValueError):
            run_all_checks(["no_such_check"])

    def test_selected_checks_run_sorted(self):
        reports = run_all_checks(["laguerre_offdiag", "laguerre_diag"])
        assert [r.check_name for r in reports] == ["laguerre_diag", "laguerre_offdiag"]
        assert all(r.passed for r in reports)

    def test_all_checks_registry(self):
        assert set(ALL_CHECKS) == {
            "willie_state",
            "chi2",
            "char_fn",
            "pinsker_and_detector",
            "depolarizing_reduction",
            "laguerre_diag",
            "laguerre_offdiag",
            "eb_pipelines",
        }


class TestRingIntegrals:
    def test_diagonal_matches_laguerre_polynomial(self):
        cut = FockCutoff(10)
        for m in range(4):
            for r in (0.25, 1.0, 2.0):
                val = laguerre_ring_integral(m, r, cut)
                assert abs(val.imag) < 1e-9
                assert val.real == pytest.approx(
                    2 * np.pi * eval_laguerre(m, r**2), abs=1e-8
                )

    def test_vanishing_point(self):
        # L_1(1) = 0, so the m=1, r=1 ring integral vanishes
        val = laguerre_ring_integral(1, 1.0, FockCutoff(10))
        assert abs(val) < 1e-8

    def test_offdiag_quadrature_matches_closed_form(self):
        cut = FockCutoff(10)
        for m in (1, 2, 3):
            for r in (0.5, 1.0):
                q = laguerre_offdiag_ring_integral(m, r, cut)
                assert abs(q.imag) < 1e-9
                assert q.real == pytest.approx(
                    laguerre_offdiag_closed(m, r), abs=1e-8
                )

    def test_offdiag_vanishes_below_threshold(self):
        assert laguerre_offdiag_closed(0, 1.0) == 0.0
        assert laguerre_offdiag_ring_integral(0, 1.0, FockCutoff(10)) == 0.0

    def test_trapezoid_rule_tells_phases_apart(self, monkeypatch):
        # With weight e^(+i th) the integrand is a pure second harmonic, so
        # the ring integral vanishes and the lemma must fail.
        def conjugate_weight(m, r, cutoff):
            if m < 1:
                return 0.0
            return oracle._ring_quad(m, m - 1, r, cutoff, lambda t: np.exp(1j * t))

        assert verify_laguerre_lemma6().passed
        monkeypatch.setattr(oracle, "laguerre_offdiag_ring_integral", conjugate_weight)
        assert not verify_laguerre_lemma6().passed
