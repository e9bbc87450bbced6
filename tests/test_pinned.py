"""Pinned trajectories: SHA-256 of the cell-CSV bytes on a small grid.

Every refactor of the round loop either keeps each hash or re-pins it on
purpose, with the reason and the measured drift recorded in CHANGES.md.
The FedNMUT hashes are those of the array kernel, round_fednmut_array;
all hashes are those of stream layout 2 (one stream per repeat, round and
purpose; see dflsim.harness) with the metrics evaluated in padded blocks
of eight states (dflsim.metrics.measure_block).
The schedule decays every 10 rounds, so 40 rounds use four step sizes.
"""

import hashlib

import pytest

from dflsim.harness import LrSchedule, RunConfig, run_averaged, write_cell_csv
from dflsim.topology import TopologySpec

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# (algorithm, topology, noise variance, x0 mode) -> SHA-256 of the cell CSV
PINNED = {
    ("fedndl1", "ring", 0.0, "shared_random"): "5dab4730fa52308f66719b3cfcc46250b5f47ca2eef370041eb190db8b36cb8c",
    ("fedndl1", "ring", 0.005, "shared_random"): "ba91f00979bd55ecec9d2f1affd12acc4b16624df515c57aaa11e786c9d8abb6",
    ("fedndl1", "fully_connected", 0.0, "shared_random"): "a6c5e5b4d22c457bb9964ac8a02d0b94783eeb89cf2a153646a15753f9770975",
    ("fedndl1", "fully_connected", 0.005, "shared_random"): "7e242d549f5562c56727cde3eeb6e7dfb71bc662d14291910e9c71a32111155c",
    ("fedndl2", "ring", 0.0, "shared_random"): "0999ba2376f0b437b136c7f6f05b898ce64df1122fa0c56a4cefdc22263e0a8e",
    ("fedndl2", "ring", 0.005, "shared_random"): "129918e3e0c63ef728c8774c3dd07ce317d999f3509a1fd5a6e7d76af917288d",
    ("fedndl2", "fully_connected", 0.0, "shared_random"): "314bc980aee2ee333191fd615df90c49747abb1a826112e60aaf42ec11eae094",
    ("fedndl2", "fully_connected", 0.005, "shared_random"): "29f58fe3104c1d3f9c2c099a0ef80dae202727c3260174746716d19f5ad511d0",
    ("fedndl3", "ring", 0.0, "shared_random"): "ec2bd1c7cd433539e64240e010654e13374fcf80ddd16b6c35b027208eabb231",
    ("fedndl3", "ring", 0.005, "shared_random"): "7b94275df2964f68886a75bd578d2ef38beafbd3876cb2dd8a1145142deeaf5c",
    ("fedndl3", "fully_connected", 0.0, "shared_random"): "dd0318403a9f2713e29fedfa421e0cfc92fec495521030f61b0ace31c8aade7a",
    ("fedndl3", "fully_connected", 0.005, "shared_random"): "cf59eaf0df816574e0ee115a896a9b5540b73c273df449edc02c154a775acde2",
    ("fednmut", "ring", 0.0, "shared_random"): "24c962ae598a2131a50ea846630f1dcf3c5c8c6b62146fb7f58e7e96465f01f5",
    ("fednmut", "ring", 0.005, "shared_random"): "713119bf28676a8f7664523669b57caf0822a5891cd7d5ba0cf9f016a96b5410",
    ("fednmut", "fully_connected", 0.0, "shared_random"): "d84b632db18748fd552c1c342eeaed434f30a572f0e8635f02a6daeb2c32aae0",
    ("fednmut", "fully_connected", 0.005, "shared_random"): "e33d2488770dd151cab0fb1110060b96a7fae2615bf66121cee0f7cfb605cb9e",
    ("fednmut", "ring", 0.005, "independent_random"): "80dc8da31474a21015e6b037d994944833d94e31c4e5a39a096395c7d0dd1079",
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
