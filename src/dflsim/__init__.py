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
from .channel import StreamKey, derive_stream, sample_noise
from .data import Dataset, Shard, generate, partition_iid
from .harness import (
    ALGORITHMS,
    AveragedResult,
    LrSchedule,
    RunConfig,
    RunResult,
    Setup,
    bound_sanity,
    eta_at,
    rate_fit,
    run_averaged,
    run_detailed,
    sweep,
)
from .metrics import consensus_error, mean_iterate, measure_block
from .objective import (
    batch_gradients,
    global_loss,
    local_loss,
    ridge_optimum,
    sample_batches,
    stochastic_gradient,
)
from .theory_checks import (
    ConstantsEstimate,
    check_bias_zero_mean,
    check_contraction,
    estimate_sigma_sq,
    estimate_smoothness,
    estimate_zeta_sq,
    evaluate_theorem_bound,
)
from .topology import MixingMatrix, TopologySpec, build_mixing, spectral_contraction

__all__ = [
    "ALGORITHMS",
    "AveragedResult",
    "ConstantsEstimate",
    "Dataset",
    "LrSchedule",
    "MixingMatrix",
    "RoundInputs",
    "RunConfig",
    "RunResult",
    "Setup",
    "Shard",
    "StreamKey",
    "TopologySpec",
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
    "global_loss",
    "init_states",
    "local_loss",
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
    "spectral_contraction",
    "stochastic_gradient",
    "sweep",
]

__version__ = "0.1.0"
