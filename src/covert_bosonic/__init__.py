"""Covert quantum communication over lossy thermal-noise bosonic channels.

Numerical library for dual-rail covert qubit transmission: truncated
Fock-space primitives, closed-form warden/receiver output states and
divergences, square-root-law achievability and converse bound sweeps,
entanglement-breaking channel engineering, and an independent brute-force
verification oracle.  The ``covert-bosonic`` console script exposes the
sweeps, state dumps and verification suite for scripted use.

The public names are tabled below by home module and loaded lazily:
importing the package loads no submodule, and ``covert_bosonic.<name>``
imports the name's home module on first use and returns that module's own
object.  So the bound pipeline never loads the Fock-space modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fock_core": (
        "DEFAULT_MAX_PHOTONS", "FockCutoff", "DensityOperator",
        "StateValidationError", "RankDeficiencyError", "TruncationError",
        "thermal_state", "tensor", "beamsplitter_unitary",
        "two_mode_amplifier_unitary", "anti_normal_char_fn", "trace_distance",
        "qre", "chi2_numeric", "TriDiagonalWillieState",
    ),
    "closed_form": (
        "LogicalQubit", "willie_state_closed", "bob_state_closed",
        "willie_char_fn_closed", "chi2_closed", "chi2_bound",
    ),
    "covert_bounds": (
        "ChannelParams", "DivergenceUndefinedError", "p_fail", "p_prime",
        "p_total", "BoundsPoint", "GainDecompositionError", "c_cov", "q_max",
        "qre_bound", "hashing_rate", "assisted_rate", "converse_gain",
        "upper_bound_qubits", "upper_bound_srl_coefficient", "bounds_curve",
    ),
    "eb_engineering": (
        "EbMechanism", "EbPlan", "EbInfeasibleError", "is_entanglement_breaking",
        "lemma2_nbar_prime_lower_bound", "plan_lemma1", "plan_lemma2",
    ),
    "oracle": (
        "VerificationReport", "willie_state_numeric", "bob_state_numeric",
        "run_all_checks",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
