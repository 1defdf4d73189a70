"""Deterministic-sequence convolutional compressed sensing.

Construct circulant sensing operators from sequences with good
autocorrelation properties, audit their coherence and the exponential-sum
bounds behind them, and run sparse-recovery experiments.
"""

import types

from .sequences import (
    Sequence,
    GolayPair,
    ClassifyReport,
    fzc,
    extended_polyphase,
    m_sequence,
    perfect_binary_from_m,
    golay_pair,
    golay,
    extended_golay,
    legendre,
    random_phase,
    random_binary,
    autocorr_periodic,
    autocorr_aperiodic,
    autocorr_periodic_all,
    classify,
    admissible_golay_length,
    PRIMITIVE_POLYNOMIALS,
)
from .gauss_sums import (
    BoundCheckRecord,
    gauss_sum,
    gauss_sum_sweep,
    complete_gauss_sum,
    complete_gauss_closed_form,
    reflection_identity_residual,
    q_identity_residual,
    bound_check,
)
from .operators import (
    CirculantOperator,
    SamplingSet,
    Basis,
    SensingOperator,
    random_sampling,
    equispaced_sampling,
    vector_to_csv,
)
from .coherence import (
    CoherenceReport,
    coherence_circulant,
    mutual_coherence,
    autocorrelation_bound_check,
    bound_table_report,
    dct_coherence_report,
    bound_table_csv,
)
from .recovery import (
    RecoveryProblem,
    RecoveryResult,
    omp,
    subspace_pursuit,
    subspace_pursuit_block,
    fista_lasso,
    SOLVERS,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    OfdmReport,
    PhaseReport,
    DctReport,
    AuditResult,
    attc_channel,
    papr,
    trial_seed,
    build_circulant,
    run_ofdm_experiment,
    run_phase_transition,
    run_dct_experiment,
    run_recover,
    read_pgm,
    audit_coherence_bounds,
    audit_gauss,
    audit_papr,
    audit_papr_sequence,
    ofdm_config,
    ofdm_reference_config,
    REFERENCE_OFDM_OUTPUT_SNR_DB,
    REFERENCE_OFDM_TOL_DB,
)

__version__ = "0.1.0"

# the public API is every name imported above, the submodules aside
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, types.ModuleType)] + ["__version__"]
