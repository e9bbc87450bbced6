"""Decentralized federated learning over noisy channels, simulated.

Gossip-based SGD variants (FedNDL1/2/3) and noisy model update tracking
(FedNMUT) on ring, torus, and fully connected client graphs, with a
reproducible experiment harness and executable checks of the supporting
analysis.
"""

from .algorithms import (
    RoundInputs,
    init_states,
    round_fedndl1,
    round_fedndl2,
    round_fedndl3,
    round_fednmut_array,
)
from .channel import derive_stream, sample_noise
from .data import Dataset, Problem, Shard, generate, partition_iid
from .harness import (
    ALGORITHMS,
    AveragedResult,
    LrSchedule,
    RunConfig,
    RunResult,
    analysis_regime,
    bound_sanity,
    eta_at,
    rate_fit,
    run_averaged,
    run_detailed,
    sweep,
)
from .metrics import consensus_error, mean_iterate, measure_block
from .objective import batch_gradients, ridge_optimum, sample_batches
from .theory_checks import (
    ConstantsEstimate,
    check_bias_zero_mean,
    check_contraction,
    estimate_sigma_sq,
    estimate_smoothness,
    estimate_zeta_sq,
    evaluate_theorem_bound,
    smoothness_lower_bound,
)
from .topology import MixingMatrix, TopologySpec, build_mixing

__all__ = [
    "ALGORITHMS",
    "AveragedResult",
    "ConstantsEstimate",
    "Dataset",
    "LrSchedule",
    "MixingMatrix",
    "Problem",
    "RoundInputs",
    "RunConfig",
    "RunResult",
    "Shard",
    "TopologySpec",
    "analysis_regime",
    "batch_gradients",
    "bound_sanity",
    "build_mixing",
    "check_bias_zero_mean",
    "check_contraction",
    "consensus_error",
    "derive_stream",
    "estimate_sigma_sq",
    "estimate_smoothness",
    "estimate_zeta_sq",
    "eta_at",
    "evaluate_theorem_bound",
    "generate",
    "init_states",
    "mean_iterate",
    "measure_block",
    "partition_iid",
    "rate_fit",
    "ridge_optimum",
    "round_fedndl1",
    "round_fedndl2",
    "round_fedndl3",
    "round_fednmut_array",
    "run_averaged",
    "run_detailed",
    "sample_batches",
    "sample_noise",
    "smoothness_lower_bound",
    "sweep",
]

__version__ = "0.1.0"
