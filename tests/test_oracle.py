import inspect
import json
import math
import re
import sys
import tracemalloc
import warnings
from functools import lru_cache, partial

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
    TruncationError,
    anti_normal_char_fn,
    beamsplitter_unitary,
    tensor,
    thermal_occupation,
    thermal_state,
    two_mode_amplifier_unitary,
)
from covert_bosonic import fock_core, oracle
from covert_bosonic.oracle import (
    ALL_CHECKS,
    VerificationReport,
    bob_state_numeric,
    default_channel_grid,
    default_qubit_set,
    engineered_willie_state_numeric,
    laguerre_diag_closed,
    laguerre_offdiag_closed,
    laguerre_offdiag_ring_integral,
    laguerre_ring_integral,
    run_all_checks,
    verify_char_fn,
    verify_chi2,
    verify_eb_pipelines,
    verify_laguerre_lemma6,
    verify_willie_state,
    willie_state_numeric,
)
from dense_reference import (apply_unitary, char_fn_trace, dual_rail_density, embed,
                             partial_trace, stage_transfer, two_mode)


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


# The sector-block builder behind each dense unitary, and back.
BUILDERS = {beamsplitter_unitary: fock_core._beamsplitter_blocks,
            two_mode_amplifier_unitary: fock_core._amplifier_blocks}
DENSE = {builder: unitary for unitary, builder in BUILDERS.items()}


def dense_stage(x, stage, max_photons):
    """One stage by the dense d^4 contraction: the full stage unitary, the
    thermal ancilla weights, the port not kept traced out."""
    builder, param, nbar, keep = stage
    d = max_photons + 1
    u = DENSE[builder](param, 0, 1, 2, FockCutoff(max_photons)).reshape(d, d, d, d)
    if keep == oracle._ANCILLA:
        u = u.transpose(1, 0, 2, 3)
    w = thermal_occupation(np.arange(d), nbar)
    left = np.einsum("bwik,ij->bwjk", u, x)
    return np.einsum("bwjk,cwjk->bc", left, u.conj() * w)


class TestStageTransfer:
    """Each stage's shift map against the dense contraction."""

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
        ops.append(np.zeros((d, d), dtype=complex))  # no support: the zero operator
        return ops

    @pytest.mark.parametrize("unitary, param", [
        (beamsplitter_unitary, 0.0), (beamsplitter_unitary, 0.37),
        (beamsplitter_unitary, 1.0), (two_mode_amplifier_unitary, 1.0),
        (two_mode_amplifier_unitary, 1.3),
    ])
    @pytest.mark.parametrize("nbar", [0.0, 0.2])
    @pytest.mark.parametrize("keep", [oracle._SIGNAL, oracle._ANCILLA])
    def test_matches_dense_contraction(self, unitary, param, nbar, keep):
        """Through the map on all N + 1 inputs, and through the map on 2
        inputs too for an operator on photon numbers <= 1."""
        stage = (BUILDERS[unitary], param, nbar, keep)
        d = self.N + 1
        for op in self.operators():
            ref = dense_stage(op, stage, self.N)
            for inputs in (d,) if op[2:].any() or op[:, 2:].any() else (2, d):
                got = oracle._apply_stage(op, *oracle._stage_transfer(stage, self.N, inputs))
                assert got.shape == ref.shape and np.max(np.abs(got - ref)) < 1e-13

    def test_first_stage_builds_one_two_input_map(self, monkeypatch):
        """A rail's first stage builds one map for all four basis operators,
        on 2 inputs only: (2N+1) 2 2 entries of M, (2N+1) 2 of rows."""
        d = self.N + 1
        stage = (fock_core._beamsplitter_blocks, 0.41, 0.1, oracle._SIGNAL)
        transfer, built = oracle._stage_transfer, []

        def traced(*key):
            built.append(transfer(*key))
            return built[-1]

        monkeypatch.setattr(oracle, "_stage_transfer", traced)
        oracle._rail_images.__wrapped__((stage,), self.N)
        [(m, rows)] = built
        assert m.shape == (2 * d - 1, 2, 2) and rows.shape == (2 * d - 1, 2)

    STAGES = [(builder, param, nbar, keep)
              for builder, param in ((fock_core._beamsplitter_blocks, 0.9),
                                     (fock_core._amplifier_blocks, 1.5))
              for nbar in (0.0, 0.12) for keep in (oracle._SIGNAL, oracle._ANCILLA)]

    @staticmethod
    def leading(n, stage):
        """The stage's map on 2 inputs, and its map on all n + 1 inputs cut
        to the same corner."""
        m, rows = oracle._stage_transfer(stage, n, 2)
        full_m, full_rows = oracle._stage_transfer(stage, n, n + 1)
        return (m, rows), (np.ascontiguousarray(full_m[:, :2, :2]),
                           np.ascontiguousarray(full_rows[:, :2]))

    @pytest.mark.parametrize("n", [5, 10, 20, 23, 30])
    @pytest.mark.parametrize("stage", STAGES)
    def test_two_input_map_is_the_full_maps_corner(self, stage, n):
        """Byte for byte up to the oracle's default cutoff."""
        (m, rows), (full_m, full_rows) = self.leading(n, stage)
        assert m.tobytes() == full_m.tobytes() and rows.tobytes() == full_rows.tobytes()

    @pytest.mark.parametrize("n", [5, 10, 23, 30, 31, 45])
    @pytest.mark.parametrize("stage", STAGES)
    def test_grouped_map_is_the_one_shot_gather(self, stage, n):
        """The map built over groups of shifts equals the one-shot gather
        over all shifts byte for byte, on 2 and on all n + 1 inputs."""
        for inputs in (2, n + 1):
            m, rows = oracle._stage_transfer(stage, n, inputs)
            ref_m, ref_rows = stage_transfer(stage, n, inputs)
            assert m.shape == ref_m.shape and rows.shape == ref_rows.shape
            assert m.tobytes() == ref_m.tobytes() and rows.tobytes() == ref_rows.tobytes()

    @pytest.mark.parametrize("n", [31, 40])
    @pytest.mark.parametrize("stage", STAGES)
    def test_two_input_map_within_ulps_above_30(self, stage, n):
        """Above N = 30 a thermal ancilla's full map may take another BLAS
        kernel, so the two agree to the last few places only (5 ulps
        measured)."""
        (m, rows), (full_m, full_rows) = self.leading(n, stage)
        assert rows.tobytes() == full_rows.tobytes()
        np.testing.assert_array_max_ulp(m, full_m, maxulp=8)

    @pytest.mark.parametrize("builder, param", [(fock_core._beamsplitter_blocks, 0.37),
                                                (fock_core._amplifier_blocks, 1.3)])
    def test_leading_block_columns_are_the_full_blocks(self, builder, param):
        """Byte for byte at 2 columns, the oracle's only restriction.  (One
        column would be a matrix-vector product, whose last bits differ.)"""
        for n in range(3, 61):
            full, step = builder(param, n, n + 1)
            blocks, same_step = builder(param, n, 2)
            assert same_step == step and blocks.shape == full.shape[:2] + (2,)
            assert blocks.tobytes() == np.ascontiguousarray(full[:, :, :2]).tobytes()

    def test_rail_images_equal_full_map_images(self, monkeypatch):
        """Every rail image of the default grid and the entanglement-breaking
        chains, at the default cutoff, equals its image through maps on all
        N + 1 inputs, byte for byte."""
        n = oracle.DEFAULT_ORACLE_CUTOFF.max_photons
        chains = [oracle._channel(params, keep) for params in default_channel_grid()
                  for keep in (oracle._SIGNAL, oracle._ANCILLA)]
        chains += [oracle._engineered(plan, params) for params, plan in oracle._EB_CASES]
        build = oracle._rail_images.__wrapped__
        rails = [build(stages, n)[0] for stages in chains]
        transfer = oracle._stage_transfer
        monkeypatch.setattr(oracle, "_stage_transfer",
                            lambda stage, max_photons, inputs: transfer(
                                stage, max_photons, max_photons + 1))
        for stages, rail in zip(chains, rails):
            full = build(stages, n)[0]
            assert all(rail[key].tobytes() == full[key].tobytes() for key in oracle._RAIL_BASIS)

    def test_default_checks_build_each_map_once_per_rail(self, monkeypatch):
        """The traffic the rail build's local maps rest on: over a default
        run_all_checks(), no rail build asks twice for one (stage, cutoff,
        inputs) map, a first stage asks for 2 inputs, and the run builds
        41 maps for 40 distinct keys, so a cache of maps across rails would
        save one build."""
        builds, build, transfer = [], oracle._rail_images.__wrapped__, oracle._stage_transfer

        def traced_build(stages, max_photons):
            builds.append((stages[0], []))
            return build(stages, max_photons)

        def traced_transfer(stage, max_photons, inputs):
            builds[-1][1].append((stage, max_photons, inputs))
            return transfer(stage, max_photons, inputs)

        monkeypatch.setattr(oracle, "_rail_images", lru_cache(maxsize=256)(traced_build))
        monkeypatch.setattr(oracle, "_stage_transfer", traced_transfer)
        assert all(report.passed for report in run_all_checks())
        for first, keys in builds:
            assert len(set(keys)) == len(keys)
            assert all(inputs == 2 for stage, _, inputs in keys if stage == first)
        keys = [key for _, built in builds for key in built]
        assert (len(keys), len(set(keys))) == (41, 40)


def traced_peak_mb(run) -> float:
    """Peak traced allocation, in MB, while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemory:
    """No stage map or divergence check holds an (N+1)^4 array: their
    allocation peaks stay far below one, from cold caches."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        for cached in (oracle._rail_images, fock_core._sector_eigensystems,
                       fock_core._char_fn_kernels, fock_core._cell_positions):
            cached.cache_clear()

    @pytest.mark.parametrize("build", ["layout", "tensor", "beamsplitter", "amplifier"])
    def test_dense_objects_peak_near_their_size(self, build):
        """At N = 30 each unitary costs one scatter, its allocation peak
        under 1.5 times its own bytes; a state keeps blocks and scatters
        nothing, its peak under a quarter of its matrix's bytes."""
        cut = FockCutoff(30)
        layout = willie_state_closed(LogicalQubit(0.3, 0.7, 0.2), ChannelParams(0.9, 0.12), cut)
        thermal = thermal_state(0.1, cut)
        calls = {
            "layout": layout.to_density_operator,
            "tensor": lambda: tensor(thermal, thermal),
            "beamsplitter": lambda: beamsplitter_unitary(0.9, 0, 1, 2, cut),
            "amplifier": lambda: two_mode_amplifier_unitary(1.5, 0, 1, 2, cut),
        }
        out = []
        peak = traced_peak_mb(lambda: out.append(calls[build]()))
        result = getattr(out[0], "entries", out[0])
        assert result.shape == (cut.dim**2,) * 2
        limit = 0.25 if build in ("layout", "tensor") else 1.5
        assert peak < limit * result.nbytes / 1e6

    def test_whole_space_tensor(self):
        """A one-block factor makes the product one whole-space block, formed
        by np.kron and checked in slices: at N = 30 the peak stays under
        twice the 961 x 961 result, and the result is all that stays
        allocated.  (LAPACK's work copy in the eigensolver is outside
        tracemalloc.)"""
        cut = FockCutoff(30)
        thermal = thermal_state(0.1, cut)
        m = thermal.entries.copy()
        m[0, 1] = m[1, 0] = 1e-14  # one coherence off the sectors
        whole = DensityOperator(1, cut, m, thermal.truncation_leak)
        tracemalloc.start()
        try:
            state = tensor(whole, thermal)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = 16 * cut.dim**4
        assert state._idx.shape == (1, cut.dim**2) and state._blocks.nbytes == size
        assert peak < 2 * size and kept < size + 1e5

    def test_stage_build_at_n60(self):
        # A dense d^4 complex unitary alone is 16 * 61^4 bytes = 221 MB.
        stage = (fock_core._beamsplitter_blocks, 0.9, 0.12, oracle._ANCILLA)
        assert traced_peak_mb(lambda: oracle._stage_transfer(stage, 60, 61)) < 48

    def test_full_stage_build_at_n60_with_eigensystems(self):
        """With the eigensystems built, the full map's gather runs over
        groups of shifts: 7.9 MB measured, the blocks and M 3.6 MB each,
        against 22.2 MB for the one-shot gather."""
        stage = (fock_core._beamsplitter_blocks, 0.9, 0.12, oracle._ANCILLA)
        fock_core._sector_eigensystems(-1, 60)
        assert traced_peak_mb(lambda: oracle._stage_transfer(stage, 60, 61)) < 10

    def test_rail_stage_build_at_n60(self):
        """A rail's first stage forms 2 columns per chain: 8.0 MB measured,
        mostly the cached eigensystems, against 29.5 MB for the full map."""
        stage = (fock_core._beamsplitter_blocks, 0.9, 0.12, oracle._ANCILLA)
        assert traced_peak_mb(lambda: oracle._stage_transfer(stage, 60, 2)) < 20

    @pytest.mark.parametrize("columns, limit", [(61, 8), (2, 2)])
    def test_sector_blocks_at_n60(self, columns, limit):
        """With the eigensystems built, the blocks are formed over groups of
        chains: 4.4 MB measured for the full set (3.6 MB of it the result),
        0.6 MB for 2 columns, against 21.7 and 7.8 MB as one product."""
        fock_core._sector_eigensystems(-1, 60)
        assert traced_peak_mb(lambda: fock_core._sector_blocks(0.4, -1, 60, columns)) < limit

    def test_pinsker_and_detector(self):
        assert traced_peak_mb(oracle.verify_pinsker_and_detector) < 8

    def test_chi2_one_channel_one_qubit(self):
        run = partial(verify_chi2, [ChannelParams(0.9, 0.12)], [LogicalQubit(0.3, 0.7, 0.2)])
        assert traced_peak_mb(run) < 8


class TestImageChecks:
    """The tri-diagonal layout the oracle reads from the rail images holds
    the whole dense two-mode state."""

    CUT = FockCutoff(8)
    PARAMS = ChannelParams(0.7, 0.05)
    QUBIT = LogicalQubit(0.3, 0.7, 0.2 - 0.3j)

    def rail(self, keep):
        return oracle._rail_images(oracle._channel(self.PARAMS, keep),
                                   self.CUT.max_photons)[0]

    def test_pattern_entries_match_dense_state(self):
        rail = self.rail(oracle._ANCILLA)
        layout = TriDiagonalWillieState(self.CUT, *oracle._tri_diagonal(self.QUBIT, rail))
        assert np.max(np.abs(layout.entries - two_mode(self.QUBIT, rail))) < 1e-13

    def test_logical_block_matches_receiver_state(self):
        rail = self.rail(oracle._SIGNAL)
        diag, upper = oracle._tri_diagonal(self.QUBIT, rail)
        got = np.array([[diag[0, 1], upper[0, 1]], [np.conj(upper[0, 1]), diag[1, 0]]])
        logical = np.array([1, self.CUT.dim])  # |01>, |10>
        dense = two_mode(self.QUBIT, rail)
        assert np.max(np.abs(got - dense[np.ix_(logical, logical)])) < 1e-13

    def plant_off_band_entry(self, monkeypatch):
        """Every stage puts 1e-9 at (0, 2), band -2, off the band of every
        image, and each rail is built anew, uncached, so the build's own
        scan finds it."""
        apply = oracle._apply_stage

        def planted(x, m, rows):
            out = apply(x, m, rows)
            out[0, 2] = 1e-9
            return out

        monkeypatch.setattr(oracle, "_apply_stage", planted)
        monkeypatch.setattr(oracle, "_rail_images", oracle._rail_images.__wrapped__)

    def test_off_band_entry_fails_willie_state(self, monkeypatch):
        assert verify_willie_state([self.PARAMS], [self.QUBIT]).passed
        self.plant_off_band_entry(monkeypatch)
        report = verify_willie_state([self.PARAMS], [self.QUBIT])
        assert not report.passed
        assert report.max_rel_error == 1e-9

    def test_off_band_entry_is_refused_by_the_layout(self, monkeypatch):
        self.plant_off_band_entry(monkeypatch)
        with pytest.raises(ValueError, match="off its band"):
            oracle.willie_state_numeric(self.QUBIT, self.PARAMS, self.CUT)

    def test_off_band_entry_is_refused_by_depolarizing_reduction(self, monkeypatch):
        self.plant_off_band_entry(monkeypatch)
        with pytest.raises(ValueError, match="off its band"):
            oracle.verify_depolarizing_reduction([self.PARAMS], [self.QUBIT])

    def test_band_scan_runs_once_per_rail(self):
        """The rail build scans its images, so each rail is scanned once,
        when it is built: every later read is a hit of the cached build."""
        oracle._rail_images.cache_clear()
        for qubit in (self.QUBIT, LogicalQubit(1.0, 0.0), LogicalQubit(0.5, 0.5, 0.5j)):
            oracle.willie_state_numeric(qubit, self.PARAMS, self.CUT)
        # The check runs at the oracle's cutoff: one more rail, scanned once.
        qubits = [self.QUBIT, LogicalQubit(1.0, 0.0)]
        assert verify_willie_state([self.PARAMS], qubits).passed
        info = oracle._rail_images.cache_info()
        assert (info.misses, info.hits) == (2, 3)

    def test_layout_is_shared_with_closed_form(self):
        from covert_bosonic import fock_core

        assert closed_form.TriDiagonalWillieState is fock_core.TriDiagonalWillieState
        assert TriDiagonalWillieState.__module__ == fock_core.__name__


class TestLayoutCharFn:
    """The char fn read from a layout equals the plain trace over its dense
    matrix, and refuses exactly the points where that trace moves by more
    than 1e-6 when the cutoff drops by two."""

    PARAMS = ChannelParams(0.7, 0.05)
    QUBIT = LogicalQubit(0.3, 0.7, 0.2 - 0.3j)

    @staticmethod
    def outcome(state, z1, z2):
        try:
            return anti_normal_char_fn(state, z1, z2)
        except TruncationError:
            return None

    @pytest.mark.parametrize("n", [8, 30])
    @pytest.mark.parametrize("source", ["closed", "numeric"])
    def test_layout_matches_dense(self, n, source):
        cut = FockCutoff(n)
        layout = (willie_state_closed(self.QUBIT, self.PARAMS, cut) if source == "closed"
                  else oracle._assemble_two_mode(
                      self.QUBIT, oracle._channel(self.PARAMS, oracle._ANCILLA), cut))
        matrix = layout.entries
        converged = 0
        for z1, z2 in oracle._ZETA_GRID:
            got, want = self.outcome(layout, z1, z2), char_fn_trace(matrix, z1, z2)
            moved = abs(want - char_fn_trace(matrix, z1, z2, n - 2))
            assert (got is None) == (moved > 1e-6)
            if got is not None:
                converged += 1
                assert abs(got - want) < 1e-13
        # At N = 8 only the smallest |zeta| converge; at N = 30 all do.
        assert converged == (4 if n == 8 else len(oracle._ZETA_GRID))

    @pytest.mark.parametrize("n", [1, 2])
    def test_cutoff_without_a_reference_is_refused(self, n):
        layout = willie_state_closed(self.QUBIT, self.PARAMS, FockCutoff(n))
        with pytest.raises(TruncationError, match="unchecked"):
            anti_normal_char_fn(layout, 0.1, 0.1)

    def test_unconverged_layout_is_refused(self):
        layout = willie_state_closed(self.QUBIT, ChannelParams(1.0, 1.5), FockCutoff(5))
        with pytest.raises(TruncationError, match="not converged"):
            anti_normal_char_fn(layout, 2.0, 2.0)

    @pytest.mark.parametrize("zetas", [(math.nan, 0.1), (0.1, complex(0.0, math.inf))])
    def test_non_finite_zeta_is_refused(self, zetas):
        layout = willie_state_closed(self.QUBIT, self.PARAMS, FockCutoff(8))
        with pytest.raises(ValueError, match="zeta must be finite"):
            anti_normal_char_fn(layout, *zetas)


class TestCharFnArrays:
    """The char fn over arrays of zeta is the scalar call at each point, bit
    for bit, and refuses the whole batch for one bad point, on the numeric
    and the closed-form layout alike."""

    PARAMS = ChannelParams(0.7, 0.05)
    QUBIT = LogicalQubit(0.3, 0.7, 0.2 - 0.3j)

    def state(self, n, kind, params=PARAMS):
        if kind == "closed":
            return willie_state_closed(self.QUBIT, params, FockCutoff(n))
        return willie_state_numeric(self.QUBIT, params, FockCutoff(n))

    # Per cutoff, a channel and a scale of the oracle's zeta grid at which
    # every point converges: at N = 3 only a lossy, noiseless channel's
    # state (at most one photon) and |zeta| <= 2e-4 agree with N = 1.
    CONVERGED = {3: (ChannelParams(0.7, 0.0), 1e-4), 8: (PARAMS, 0.2), 30: (PARAMS, 1.0)}

    @pytest.mark.parametrize("n", [3, 8, 30])
    @pytest.mark.parametrize("kind", ["numeric", "closed"])
    def test_array_is_the_scalar_calls(self, n, kind):
        params, scale = self.CONVERGED[n]
        state = self.state(n, kind, params)
        for count in (1, 3, 25):
            points = [(z1 * scale, z2 * scale) for z1, z2 in oracle._ZETA_GRID[-count:]]
            z1, z2 = (np.array(z) for z in zip(*points))
            got = anti_normal_char_fn(state, z1, z2)
            assert got.shape == z1.shape and got.dtype == complex
            assert got.tolist() == [anti_normal_char_fn(state, *p) for p in points]
            # Any shape: one value per point, in place.
            grid = anti_normal_char_fn(state, z1[::-1, None], z2[::-1, None])
            assert grid.tolist() == got[::-1, None].tolist()

    @pytest.mark.parametrize("kind", ["numeric", "closed"])
    def test_one_unconverged_point_refuses_the_batch(self, kind):
        state = self.state(8, kind)
        bad = oracle._ZETA_GRID[-1]  # |zeta1| = 2
        assert TestLayoutCharFn.outcome(state, *bad) is None
        points = list(oracle._ZETA_GRID[:3]) + [bad]
        z1, z2 = (np.array(z) for z in zip(*points))
        named = re.escape(f"at zeta = ({bad[0]}, {bad[1]})")
        with pytest.raises(TruncationError, match=named):
            anti_normal_char_fn(state, z1, z2)

    @pytest.mark.parametrize("where", [0, 2])
    def test_non_finite_point_anywhere_is_refused(self, where):
        state = self.state(8, "numeric")
        z1, z2 = np.array([0.1, 0.2j, 0.3]), np.array([0.1j, 0.2, -0.1])
        (z1 if where else z2)[where] = complex(math.nan, 0.0)
        with pytest.raises(ValueError, match="zeta must be finite"):
            anti_normal_char_fn(state, z1, z2)

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="one shape"):
            anti_normal_char_fn(self.state(8, "numeric"), np.array([0.1, 0.2]), 0.1)

    @pytest.mark.parametrize("kind", ["numeric", "closed"])
    def test_scalar_input_returns_complex(self, kind):
        state = self.state(8, kind)
        assert type(anti_normal_char_fn(state, 0.1, 0.2j)) is complex
        assert type(anti_normal_char_fn(state, np.complex128(0.1), 0.2j)) is complex

    @pytest.mark.parametrize("kind", ["numeric", "closed"])
    def test_empty_arrays_give_an_empty_array(self, kind):
        empty = anti_normal_char_fn(self.state(8, kind), np.zeros((0, 2)), np.zeros((0, 2)))
        assert empty.shape == (0, 2) and empty.dtype == complex


def test_checks_build_no_dense_unitary_or_state(monkeypatch):
    """Every check passes on a 1 x 1 grid, from cold caches, while the
    dense unitaries, a layout's matrix and every DensityOperator raise:
    the oracle reads only sector blocks and checked layouts."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense unitary or state built")

    # The package serves fock_core's own objects on each access, so it needs
    # no patch of its own (one would restore the patched value on undo).
    for name in ("beamsplitter_unitary", "two_mode_amplifier_unitary"):
        for mod in (fock_core, oracle):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    monkeypatch.setattr(TriDiagonalWillieState, "entries", property(refuse))
    monkeypatch.setattr(DensityOperator, "__init__", refuse)
    monkeypatch.setattr(DensityOperator, "_checked", refuse)
    for cached in (oracle._rail_images, fock_core._char_fn_kernels, fock_core._cell_positions):
        cached.cache_clear()
    with pytest.raises(AssertionError, match="dense"):
        fock_core.two_mode_amplifier_unitary(1.5, 0, 1, 2, FockCutoff(3))
    with pytest.raises(AssertionError, match="dense"):
        thermal_state(0.1, FockCutoff(3))
    params, qubit = ChannelParams(0.85, 0.07), LogicalQubit(0.4, 0.6, 0.1 - 0.2j)
    grid = {"channel_grid": [params], "qubits": [qubit]}
    for name, check in ALL_CHECKS.items():
        if "channel_grid" in inspect.signature(check).parameters:
            report = check(**grid)
        elif name == "pinsker_and_detector":
            report = check(params, qubit)
        else:
            report = check()
        assert report.passed, name


def test_char_fn_checks_build_no_dense_state(monkeypatch):
    """char_fn and eb_pipelines read the warden state's layout; reading a
    layout's matrix raises, and both checks still pass.  willie_state_numeric
    builds no matrix either: only reading its ``entries`` raises."""
    def refuse(self):
        raise AssertionError("dense two-mode state built")

    monkeypatch.setattr(TriDiagonalWillieState, "entries", property(refuse))
    state = willie_state_numeric(LogicalQubit(1.0, 0.0), ChannelParams(0.9, 0.12))
    with pytest.raises(AssertionError, match="dense"):
        state.entries
    assert verify_char_fn([ChannelParams(0.9, 0.12)], [LogicalQubit(0.3, 0.7, 0.2)]).passed
    assert verify_eb_pipelines().passed


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
    assert all(isinstance(s, TriDiagonalWillieState) for s in states)


@pytest.mark.parametrize("build", [
    partial(willie_state_numeric, LogicalQubit(0.3, 0.7, 0.2 - 0.3j), ChannelParams(0.7, 0.05)),
    partial(bob_state_numeric, LogicalQubit.pure(0.6, 0.8j), ChannelParams(0.7, 0.05)),
    partial(engineered_willie_state_numeric, LogicalQubit(0.3, 0.7, 0.2 - 0.3j),
            plan_lemma2(ChannelParams(0.9, 0.05)), ChannelParams(0.9, 0.05)),
], ids=["willie", "bob", "engineered"])
@pytest.mark.parametrize("n", [5, 30])
def test_numeric_states_are_checked_layouts(build, n):
    """Each numeric state is the checked layout itself: its ``entries`` are,
    bit for bit, those of the DensityOperator it wraps into, and reading
    them leaves no matrix on the layout."""
    state = build(FockCutoff(n))
    assert type(state) is TriDiagonalWillieState
    entries = state.entries
    assert entries.tobytes() == state.to_density_operator().entries.tobytes()
    assert "entries" not in vars(state)


def test_chi2_check_bounds_the_closed_form_itself(monkeypatch):
    """The sampled-bound step evaluates the one formula behind chi2_closed,
    over arrays, so a closed form that exceeds the bound only on part of the
    state space is caught, away from the identity points (alpha_sq = 1/2)
    and the grid's one qubit."""
    closed = closed_form._chi2

    def wrong(params, alpha_sq, beta_sq, gamma):
        value = closed(params, alpha_sq, beta_sq, gamma)
        return np.where((0.2 < alpha_sq) & (alpha_sq < 0.4), 2.0 * value, value)

    monkeypatch.setattr(closed_form, "_chi2", wrong)
    report = verify_chi2([ChannelParams(0.9, 0.12)], [LogicalQubit(0.5, 0.5, 0.0)])
    assert not report.passed
    assert report.worst_case_inputs["violation"] == "sampled value exceeds bound"


def test_chi2_skips_a_vacuum_warden():
    # eta nbar_b = 0 (at 1e-200 by underflow): chi2 diverges, so the check
    # leaves those channels out, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_chi2([ChannelParams(0.0, 0.5), ChannelParams(1e-200, 1e-200)])
    assert report.passed and report.grid_size == 0


def chi2_samples():
    """The chi2 check's lattice, as arrays of qubit entries."""
    return oracle._chi2_samples()


@pytest.mark.parametrize("params", [ChannelParams(0.9, 0.12), ChannelParams(0.1, 0.01)])
def test_chi2_array_formula_is_chi2_closed(params):
    a2, b2, coh = chi2_samples()
    phase = np.exp(1j * np.linspace(0.0, 6.0, len(coh)))
    for gamma in (coh, coh * phase):
        got = closed_form._chi2(params, a2, b2, gamma)
        want = [closed_form.chi2_closed(LogicalQubit(a, b, g), params)
                for a, b, g in zip(a2.tolist(), b2.tolist(), gamma.tolist())]
        assert got.tolist() == want


def test_chi2_lattice_covers_the_state_space():
    """Populations at the cell midpoints of [0, 1], coherences up to their
    ceiling |alpha beta|, on the state space."""
    a2, b2, coh = chi2_samples()
    assert len(a2) == oracle._CHI2_BOUND_SAMPLES
    assert a2.min() > 0.0 and a2.max() < 1.0 and np.all(np.diff(a2) > 0)
    fraction = coh / np.sqrt(a2 * b2)
    assert fraction.min() == 0.0 and fraction.max() > 0.999
    LogicalQubit._check(a2, b2, coh)


def test_chi2_samples_are_held_to_the_qubit_constraints(monkeypatch):
    """A builder whose coherences stray beyond |alpha beta| is refused."""
    a2, b2, _ = chi2_samples()

    def straying():
        return a2, b2, 1.5 * np.sqrt(a2 * b2)

    monkeypatch.setattr(oracle, "_chi2_samples", straying)
    with pytest.raises(ValueError, match="exceeds alpha_sq"):
        verify_chi2([ChannelParams(0.9, 0.12)], [LogicalQubit(0.5, 0.5, 0.0)])


class TestCutoffRobustness:
    def test_willie_state_agreement_is_cutoff_stable(self):
        params = ChannelParams(0.9, 0.12)
        qubit = LogicalQubit.pure(1 / math.sqrt(2), 1 / math.sqrt(2))
        for n in (20, 30):
            cut = FockCutoff(n)
            closed = willie_state_closed(qubit, params, cut).entries
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
        closed = willie_state_closed(qubit, params, cut).entries
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

    def test_seeded_qubits_are_pinned(self):
        """The seeded qubits are the first draws of numpy's default_rng(7),
        frozen: the default grid, the acceptance grid (8 seeded qubits) and
        the verify golden's worst-case inputs rest on these exact values."""
        seeded = [(q.alpha_sq, q.beta_sq, q.gamma) for q in default_qubit_set(8)[-8:]]
        assert seeded == [(a2, 1.0 - a2, gamma) for a2, gamma in [
            (0.6125859199442003, 0.07023463714797158 - 0.4314064107139386j),
            (0.25268647099153263, 0.09139152908650933 - 0.09306812362053356j),
            (0.05473877410901726, 0.054444834737527995 - 0.17869442024961335j),
            (0.47114145755934866, -0.026872793876046918 + 0.1488574470874824j),
            (0.2793826288887121, -0.19962235502356887 - 0.005706272079430832j),
            (0.5481476168670432, 0.13121858328671504 - 0.47774418830083565j),
            (0.6099613064970464, 0.10431332008835237 + 0.47095996492788295j),
            (0.1941908304720601, 0.23312941137068163 + 0.06605302078235407j),
        ]]
        assert default_qubit_set(8)[:12] == default_qubit_set()

    @pytest.mark.parametrize("n_random", [-1, 9])
    def test_seeded_qubit_count_is_bounded(self, n_random):
        with pytest.raises(ValueError, match=r"n_random must lie in \[0, 8\]"):
            default_qubit_set(n_random)


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
    @pytest.mark.parametrize("m", oracle._RING_ORDERS)
    def test_diagonal_closed_form_is_the_laguerre_polynomial(self, m):
        for r in oracle._RING_RADII:
            ref = 2 * np.pi * eval_laguerre(m, r**2)
            assert laguerre_diag_closed(m, r) == pytest.approx(ref, rel=1e-12)

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
