"""Deterministic-sequence convolutional compressed sensing.

Construct circulant sensing operators from sequences with good
autocorrelation properties, audit their coherence and the exponential-sum
bounds behind them, and run sparse-recovery experiments.
"""

import types

from .sequences import (
    fzc,
    extended_polyphase,
    m_sequence,
    perfect_binary_from_m,
    golay,
    extended_golay,
    legendre,
    random_phase,
    random_binary,
    classify,
)
from .gauss_sums import (
    gauss_sum,
    gauss_sum_sweep,
    complete_gauss_closed_form,
    reflection_identity_residual,
    q_identity_residual,
    bound_check,
)
from .operators import (
    CirculantOperator,
    Basis,
    SensingOperator,
    random_sampling,
)
from .coherence import (
    mutual_coherence,
    autocorrelation_bound_check,
    bound_table_report,
    dct_coherence_report,
)
from .recovery import (
    RecoveryProblem,
    subspace_pursuit,
    SOLVERS,
)
from .harness import (
    ExperimentConfig,
    attc_channel,
    papr,
    run_ofdm_experiment,
    run_phase_transition,
    run_dct_experiment,
    ofdm_reference_config,
    REFERENCE_OFDM_OUTPUT_SNR_DB,
)

__version__ = "0.1.0"

# the public API is every name imported above, the submodules aside: the
# names the quick start and the demos import; every other name lives in
# its module (convsense.recovery.omp, convsense.harness.audit_gauss)
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, types.ModuleType)] + ["__version__"]
