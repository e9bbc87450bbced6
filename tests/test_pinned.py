"""Pinned trajectories: SHA-256 of the cell-CSV bytes on a small grid.

Every refactor of the round loop either keeps each hash or re-pins it on
purpose, with the reason and the measured drift recorded in CHANGES.md.
The FedNMUT hashes are those of the array kernel, round_fednmut_array.
The schedule decays every 10 rounds, so 40 rounds use four step sizes.
"""

import hashlib

import pytest

from dflsim.harness import LrSchedule, RunConfig, run_averaged, write_cell_csv
from dflsim.topology import TopologySpec

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# (algorithm, topology, noise variance, x0 mode) -> SHA-256 of the cell CSV
PINNED = {
    ("fedndl1", "ring", 0.0, "shared_random"): "ad2de9d8c6a2e19cd4b0f3626dde006eb5e0fff0774eba422299b38ce9770f61",
    ("fedndl1", "ring", 0.005, "shared_random"): "42c749b039a0c662931e6aaa424094b03297da8e34578d53c03466d3275290a0",
    ("fedndl1", "fully_connected", 0.0, "shared_random"): "e86f50b44e7a3fbd67ca4b486a98e282e384b62c9c25ff1d4787e464a0fe7804",
    ("fedndl1", "fully_connected", 0.005, "shared_random"): "63be57fd2c60e287d7fe338741a3de95f9331cc496a0406bfcd21858a6d4fea6",
    ("fedndl2", "ring", 0.0, "shared_random"): "1f1ec11b864b1023dde870cd5ba4d37e84d267024ab83027fae11892823b047e",
    ("fedndl2", "ring", 0.005, "shared_random"): "78a37df992ec4427fbf9c90731c701b72d244486b3147d4800e9d5bc6762de17",
    ("fedndl2", "fully_connected", 0.0, "shared_random"): "54a1dfe5297ff039747e87f07176ce6c84f805b5e06fcde093a0ba32788a50db",
    ("fedndl2", "fully_connected", 0.005, "shared_random"): "1c7b30df77f30242d316ba37defdd3c5594d67040a195ca2c21222de6cf4bcf2",
    ("fedndl3", "ring", 0.0, "shared_random"): "057973ccc3c2d129218e143f188c476af62a0157c8e321ca152ddc3c1c434e8a",
    ("fedndl3", "ring", 0.005, "shared_random"): "59e859ca01c90689b5a642154ad6cf9c98db572c97965176e69d1038d63dbf6e",
    ("fedndl3", "fully_connected", 0.0, "shared_random"): "4d1533967e846763ea0b49c44e789219d28ffff17c834a988d0e0b30289c2ffc",
    ("fedndl3", "fully_connected", 0.005, "shared_random"): "56a7cce111f2fbb6fb01c9d2755f7d14e6314d77540e019d9a48f9db5b0df43c",
    ("fednmut", "ring", 0.0, "shared_random"): "489d1c993269c113fe09ba4497f9ed71ae16411881f5d4dc0f649216e6ae392f",
    ("fednmut", "ring", 0.005, "shared_random"): "693a593f5624d0dfc5b6e155ceea62e4b6afb243da2e0fdc46727d734f345af2",
    ("fednmut", "fully_connected", 0.0, "shared_random"): "e8aecc751130580c276a574a9bb2d3f3fdbfe504d98f643f27a02c2df545efca",
    ("fednmut", "fully_connected", 0.005, "shared_random"): "8e3772455db31ce431a0a82027756cff0d0b9f47098dccaa2cc0751ee8f0be7a",
    ("fednmut", "ring", 0.005, "independent_random"): "3fd585d3ec13d007fc4c915ae6c109a649a563deb92d86c91db2002da36668d9",
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
