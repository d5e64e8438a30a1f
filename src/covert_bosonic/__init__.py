"""Covert quantum communication over lossy thermal-noise bosonic channels.

Numerical library for dual-rail covert qubit transmission: truncated
Fock-space primitives, closed-form warden/receiver output states and
divergences, square-root-law achievability and converse bound sweeps,
entanglement-breaking channel engineering, and an independent brute-force
verification oracle.  The ``covert-bosonic`` console script exposes the
sweeps, state dumps and verification suite for scripted use.
"""

from .closed_form import (
    DivergenceUndefinedError,
    LogicalQubit,
    TriDiagonalWillieState,
    bob_state_closed,
    chi2_bound,
    chi2_closed,
    p_fail,
    p_prime,
    p_total,
    willie_char_fn_closed,
    willie_state_closed,
)
from .covert_bounds import (
    BoundsPoint,
    GainDecompositionError,
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
from .eb_engineering import (
    EbInfeasibleError,
    EbMechanism,
    EbPlan,
    is_entanglement_breaking,
    lemma2_nbar_prime_lower_bound,
    plan_lemma1,
    plan_lemma2,
)
from .fock_core import (
    DEFAULT_MAX_PHOTONS,
    ChannelParams,
    DensityOperator,
    FockCutoff,
    RankDeficiencyError,
    StateValidationError,
    TruncationError,
    anti_normal_char_fn,
    beamsplitter_unitary,
    chi2_numeric,
    qre,
    tensor,
    thermal_state,
    trace_distance,
    two_mode_amplifier_unitary,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The oracle imports scipy; load it on first use of one of its names so
    # that importing the package, and the CLI's bound sweeps, stay cheap.
    if name in ("VerificationReport", "bob_state_numeric", "run_all_checks",
                "willie_state_numeric"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # fock_core
    "DEFAULT_MAX_PHOTONS",
    "FockCutoff",
    "ChannelParams",
    "DensityOperator",
    "StateValidationError",
    "RankDeficiencyError",
    "TruncationError",
    "thermal_state",
    "tensor",
    "beamsplitter_unitary",
    "two_mode_amplifier_unitary",
    "anti_normal_char_fn",
    "trace_distance",
    "qre",
    "chi2_numeric",
    # closed_form
    "LogicalQubit",
    "TriDiagonalWillieState",
    "DivergenceUndefinedError",
    "willie_state_closed",
    "bob_state_closed",
    "willie_char_fn_closed",
    "chi2_closed",
    "chi2_bound",
    "p_fail",
    "p_prime",
    "p_total",
    # covert_bounds
    "BoundsPoint",
    "GainDecompositionError",
    "c_cov",
    "q_max",
    "qre_bound",
    "hashing_rate",
    "lower_bound_qubits",
    "assisted_rate",
    "assisted_lower_bound_qubits",
    "converse_gain",
    "g_func",
    "converse_capacity",
    "nbar_s_max",
    "upper_bound_qubits",
    "upper_bound_srl_coefficient",
    "bounds_curve",
    # eb_engineering
    "EbMechanism",
    "EbPlan",
    "EbInfeasibleError",
    "is_entanglement_breaking",
    "lemma2_nbar_prime_lower_bound",
    "plan_lemma1",
    "plan_lemma2",
    # oracle
    "VerificationReport",
    "willie_state_numeric",
    "bob_state_numeric",
    "run_all_checks",
]
