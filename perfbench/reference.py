"""What the output check needs from dflsim, and the numpy facts, as one JSON line.

    python3 perfbench/reference.py --dim 200 --samples 2000 --lambda 1e-4 --seed 3

Runs in its own process so that the benchmark process never holds numpy
or a dataset: a child's ``ru_maxrss`` includes the RSS of the process
that spawned it, so the spawner has to stay small.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from dflsim.data import generate
from dflsim.harness import CSV_COLUMNS, RunConfig
from dflsim.objective import ridge_optimum


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--lambda", dest="lam", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    # The dataset the CLI builds for these sizes and seed, and its ridge optimum.
    dataset = generate(args.samples, args.dim, RunConfig().label_noise_variance, args.seed)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "f_star": ridge_optimum(dataset, args.lam)[1],
                "csv_columns": list(CSV_COLUMNS),
                "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": blas_threads(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
