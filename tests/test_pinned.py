"""Pinned trajectories: SHA-256 of the cell-CSV bytes on a small grid.

Every refactor of the round loop either keeps each hash or re-pins it on
purpose, with the reason and the measured drift recorded in CHANGES.md.
The FedNMUT hashes are those of the array kernel, round_fednmut_array;
all hashes are those of stream layout 3 (see dflsim.channel), with
each round's gradients from one batch_gradients call and the metrics
evaluated in padded blocks of 16 states (dflsim.metrics.measure_block).
The schedule decays every 10 rounds, so 40 rounds use four step sizes.
The dataset follows the blocked data layout (see dflsim.data): true_w
and the label noise from default_rng(seed), the features in row blocks
of FEATURE_BLOCK // d rows, block b from SeedSequence(seed).spawn(..)[b].
At d=20 and m=160 the features are one block.

The hashes hold under OpenBLAS kernel SkylakeX with 2 OpenBLAS threads
(dflsim.cli.blas_info reads both, through scipy_openblas_get_corename64_
and scipy_openblas_get_num_threads64_ in numpy's linalg extension). The bits of the gossip and
gradient products depend on the kernel and on the thread count, so
another CPU or thread count can fail a hash with correct code. A failure
names the kernel and thread count in use.
"""

import hashlib

import pytest

from dflsim.cli import blas_info
from dflsim.harness import LrSchedule, RunConfig, run_averaged, write_cell_csv
from dflsim.topology import TopologySpec

# (algorithm, topology, noise variance, x0 mode) -> SHA-256 of the cell CSV
PINNED = {
    ("fedndl1", "ring", 0.0, "shared"): "5c6e5a5137f92bee103d5afa8b4be6a5396823393250ea1ca862d5561a94809d",
    ("fedndl1", "ring", 0.005, "shared"): "49ea7fd0e62878da05b2a51e925b45c83515b7cf2da8e3dc57cda30c01ee941a",
    ("fedndl1", "full", 0.0, "shared"): "0490816290d2b671203372e3aa27e6bdb94b90d32f13677989ceb13d1fdb8807",
    ("fedndl1", "full", 0.005, "shared"): "78e8878d81aa9fc591158eab29456967816ebcd770c7499bfa6dc437e33514c3",
    ("fedndl2", "ring", 0.0, "shared"): "b7f2db604143b38e9f4ac7a364479615c575f898823a8c0619617caf50f5015d",
    ("fedndl2", "ring", 0.005, "shared"): "6dd08915a7d1ff694438e17c8290907b4ec76214d83504343430088c764f17d0",
    ("fedndl2", "full", 0.0, "shared"): "49887fcd2cb28f90a856694132071a573e77d6548065c8de44497758926e9e39",
    ("fedndl2", "full", 0.005, "shared"): "cd762df6e0b4fcace44672390c512c03c0505e9729a7a33e370ac3ab7ccd662a",
    ("fedndl3", "ring", 0.0, "shared"): "bf42163c44bffa592cd8e3bbe12fb394299827fa0877736012d16ed420bd1914",
    ("fedndl3", "ring", 0.005, "shared"): "912b2815aa492433b51cb5404f7b4635a3cb4d43daeca30ad46950cb25bc17b5",
    ("fedndl3", "full", 0.0, "shared"): "7c035199bb4fbf24239d1aae06ea704b1915d4b97b54b99eea4aaed915fed6c0",
    ("fedndl3", "full", 0.005, "shared"): "d1f636de35189c3327a00c25c5fbb5159a59447afd08d259ff4c917704c82f75",
    ("fednmut", "ring", 0.0, "shared"): "af0a9ace306b49c41fabb5f9eff6e23057c7c55c96da22c9375ce6bee3316445",
    ("fednmut", "ring", 0.005, "shared"): "bf44c85f8d3892c761d847d1ccd086cbb1daa6663631ebf0bff8f51f1133e966",
    ("fednmut", "full", 0.0, "shared"): "62d33323820470c6e42870fc66252e1ec83583f02e1704e7830962c222c784b8",
    ("fednmut", "full", 0.005, "shared"): "2fea1f3de8c14f19fb222a590339f3e3b33f16b40c8cf9f51eaa44ce18f0bced",
    ("fednmut", "ring", 0.005, "independent"): "b0431ebc547439e7cd7c5ab5b9f1034307e80fb1a29fbea8f11c4468e91a8dac",
}


@pytest.mark.parametrize("cell", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_cell_csv_hash_is_pinned(cell, tmp_path):
    algorithm, topology, noise_variance, x0_mode = cell
    config = RunConfig(
        algorithm=algorithm,
        topology=TopologySpec(topology, 8),
        d=20,
        m=160,
        rounds=40,
        lr=LrSchedule(eta0=0.05),
        mu=0.02,
        noise_variance=noise_variance,
        batch_size=8,
        repeats=2,
        master_seed=3,
        x0_mode=x0_mode,
    )
    path = tmp_path / "cell.csv"
    write_cell_csv(path, run_averaged(config))
    blas = blas_info()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[cell], (
        f"hash changed under OpenBLAS kernel {blas.kernel} with {blas.threads} threads"
        " (pinned under SkylakeX with 2)"
    )
