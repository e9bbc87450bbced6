"""Pinned trajectories: SHA-256 of the cell-CSV bytes on a small grid.

Every refactor of the round loop either keeps each hash or re-pins it on
purpose, with the reason and the measured drift recorded in CHANGES.md.
The FedNMUT hashes are those of the array kernel, round_fednmut_array;
all hashes are those of stream layout 2 (one stream per repeat, round and
purpose; see dflsim.harness).
The schedule decays every 10 rounds, so 40 rounds use four step sizes.
"""

import hashlib

import pytest

from dflsim.harness import LrSchedule, RunConfig, run_averaged, write_cell_csv
from dflsim.topology import TopologySpec

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# (algorithm, topology, noise variance, x0 mode) -> SHA-256 of the cell CSV
PINNED = {
    ("fedndl1", "ring", 0.0, "shared_random"): "8549f86588733747a88d092ad363807657eb971b473c02ee05f3c061b7d1e531",
    ("fedndl1", "ring", 0.005, "shared_random"): "c1468c4227e899446554be66eb662d2884aa9ffd4b5d90f64f09a8e1d73d6b45",
    ("fedndl1", "fully_connected", 0.0, "shared_random"): "936fc983a5672ffdd77ee57919f67889f42afbf52a4130fbd199419d86ee3481",
    ("fedndl1", "fully_connected", 0.005, "shared_random"): "e29212a75b58e5ff46e9b0a1277da82fa245f9dbb6cb129948b6cf5b5cfaba9b",
    ("fedndl2", "ring", 0.0, "shared_random"): "854e0a2aaeceba389eecb58d6fe65e7c5494c85506bd15971f2cb374f9b0ab98",
    ("fedndl2", "ring", 0.005, "shared_random"): "aafd80f20dc35b4e54e5952b0330ec0be551d0520d32d84bcd0b5a42cd25317d",
    ("fedndl2", "fully_connected", 0.0, "shared_random"): "0496b5e7e83afbd2c71b2d5f9b3ea6f8d38ef8279cc082749fdc7f3516bb42da",
    ("fedndl2", "fully_connected", 0.005, "shared_random"): "3d90b0f04157acdd26276b584acbfb3058a7bd0d51fe6e884b7ee21d6b0ff769",
    ("fedndl3", "ring", 0.0, "shared_random"): "eb4d38cea1ddd928c365f2ee7b77c87a3fc0c105d19475a81a6c3a7c840ad5ae",
    ("fedndl3", "ring", 0.005, "shared_random"): "6e361aa0ab7a8465374662c48434b1c4a78582dc149b5123429c2a24a6e70815",
    ("fedndl3", "fully_connected", 0.0, "shared_random"): "7a6efd6be64034af2077c87f21f4f0f88363b01d35e1a2102b9150d6153b89d3",
    ("fedndl3", "fully_connected", 0.005, "shared_random"): "8763ab455ada6879a0e10096212ac4cca30a2a6793c4f9e5fc1214afdae19674",
    ("fednmut", "ring", 0.0, "shared_random"): "74757c9d81d7c6e7301f138d862f07d5331b2c107ad17b13fc7b4c722585375e",
    ("fednmut", "ring", 0.005, "shared_random"): "f890c574157f0caf3b76895e451a77511f081a5b1a3d4c3cfdde17df4d2ebc76",
    ("fednmut", "fully_connected", 0.0, "shared_random"): "57fa2ec0da8d051931295ce07c02f163dcedaf03322e86effed4d28ead3233f3",
    ("fednmut", "fully_connected", 0.005, "shared_random"): "b9c1a045ea673d950e628e3048857fad9885a0078428c37c5811f5965d5379ee",
    ("fednmut", "ring", 0.005, "independent_random"): "5fc32022b0b1f7a602ccc001f9ba0f35ec48d9f008f9bed3686a931b7929c43b",
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
