"""Pinned trajectories: SHA-256 of the cell-CSV bytes on a small grid.

Every refactor of the round loop either keeps each hash or re-pins it on
purpose, with the reason and the measured drift recorded in CHANGES.md.
The FedNMUT hashes are those of the array kernel, round_fednmut_array;
all hashes are those of stream layout 3 (one stream per repeat and
purpose, from which the rounds draw in order; see dflsim.harness), with
each round's gradients from one batch_gradients call and the metrics
evaluated in padded blocks of 16 states (dflsim.metrics.measure_block).
The schedule decays every 10 rounds, so 40 rounds use four step sizes.
"""

import hashlib

import pytest

from dflsim.harness import LrSchedule, RunConfig, run_averaged, write_cell_csv
from dflsim.topology import TopologySpec

# (algorithm, topology, noise variance, x0 mode) -> SHA-256 of the cell CSV
PINNED = {
    ("fedndl1", "ring", 0.0, "shared_random"): "6383284feaa5b177d4b76f8cf7e1e6375132fc01409af551078597e6aeb47097",
    ("fedndl1", "ring", 0.005, "shared_random"): "ed6f49292b021fa76bb254f9061affe10c84c673ce56e68d5040b62ea2069763",
    ("fedndl1", "fully_connected", 0.0, "shared_random"): "2edbb96cc7a48c1ea58cb5cbc0614c89b9d3b2437325ef6ead8d6ddc3a431560",
    ("fedndl1", "fully_connected", 0.005, "shared_random"): "0f38595dc258ba762c8e2b22b99f1689c48c68966fdf0609f95038a0946390f8",
    ("fedndl2", "ring", 0.0, "shared_random"): "7d909a5956e80079a6300d69a49695b381f039403ca76909a8174d2507ab6fba",
    ("fedndl2", "ring", 0.005, "shared_random"): "b6a27d6b082a2980511cacdb7b67ce8c5b6e990708f19c93145d20c7e53c1a4a",
    ("fedndl2", "fully_connected", 0.0, "shared_random"): "9baf42c02a29bcece689a4c0f08547d37a632fce2eb3c685b20aeb1618ac5c39",
    ("fedndl2", "fully_connected", 0.005, "shared_random"): "88e64ad6a9cc428dccbb9c65eb6b28706c027c89eb77ab63a8df56a0345e1779",
    ("fedndl3", "ring", 0.0, "shared_random"): "cb2fa1e5b7b187bcbd3daa09bb1dee44ba4bbc144550d09319deb2f9830b91c1",
    ("fedndl3", "ring", 0.005, "shared_random"): "2a62725f485a6068e62da03d9cae43e0974119293a25786475c8151abe92cdcb",
    ("fedndl3", "fully_connected", 0.0, "shared_random"): "4e2900540309d334f8237c793181310a1d9d033c7652b0516070371b04c637fc",
    ("fedndl3", "fully_connected", 0.005, "shared_random"): "fb8afdd42e30120cd47670f3b2a2af6bac2d597fec1499141f844fcef7a69b68",
    ("fednmut", "ring", 0.0, "shared_random"): "252b7c65ee91dd3da32bf18fb7f40738aacef59c16f1c4552d363357cf37fa85",
    ("fednmut", "ring", 0.005, "shared_random"): "368eab333d9a61d09c86d592691604c027f76739ca17d2c30c7f5d220c24ce31",
    ("fednmut", "fully_connected", 0.0, "shared_random"): "22d912526fff9ee66965231869888422160f00cce63459344a6e6677c3bc7215",
    ("fednmut", "fully_connected", 0.005, "shared_random"): "074899c7b1f761df6dfb85d5529147073188a9c3762352a21d677d65a419d32b",
    ("fednmut", "ring", 0.005, "independent_random"): "d753f66fe86bf00309a33510e5593cc41ebdd9942a89f595c2297562fcce8bd8",
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
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[cell]
