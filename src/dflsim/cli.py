"""Command line interface: dflsim run | sweep | verify | rate."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .channel import PURPOSE_INIT, StreamKey, derive_stream
from .data import generate, partition_iid
from .harness import (
    ALGORITHMS,
    DegenerateSeriesError,
    LrSchedule,
    RunConfig,
    cell_id,
    rate_fit,
    run_averaged,
    run_detailed,
    sweep,
    write_cell_csv,
)
from .objective import ObjectiveConfig, global_loss, ridge_optimum
from .theory_checks import (
    ConstantsEstimate,
    check_bias_zero_mean,
    check_contraction,
    estimate_sigma_sq,
    estimate_smoothness,
    estimate_zeta_sq,
    evaluate_theorem_bound,
)
from .topology import FULLY_CONNECTED, RING, TORUS, TopologySpec, build_mixing

TOPOLOGY_NAMES = {"ring": RING, "torus": TORUS, "full": FULLY_CONNECTED}
X0_NAMES = {"zeros": "zeros", "shared": "shared_random", "independent": "independent_random"}

PAPER_SCALE_D = 2000
PAPER_SCALE_M = 10000

_FLAG_SPECS = [
    # (config-file key, dest, type)
    ("algorithm", "algorithm", str),
    ("topology", "topology", str),
    ("clients", "clients", int),
    ("dim", "dim", int),
    ("samples", "samples", int),
    ("rounds", "rounds", int),
    ("noise-var", "noise_var", float),
    ("mu", "mu", float),
    ("lambda", "lam", float),
    ("batch-size", "batch_size", int),
    ("lr0", "lr0", float),
    ("lr-gamma", "lr_gamma", float),
    ("lr-interval", "lr_interval", int),
    ("repeats", "repeats", int),
    ("seed", "seed", int),
    ("x0", "x0", str),
    ("out", "out", str),
    ("paper-scale", "paper_scale", bool),
]

_DEFAULTS = {
    "algorithm": "fednmut",
    "topology": "full",
    "clients": 16,
    "dim": 200,
    "samples": 2000,
    "rounds": 500,
    "noise_var": 0.0,
    "mu": 0.02,
    "lam": 1e-4,
    "batch_size": 32,
    "lr0": 0.2,
    "lr_gamma": 0.9,
    "lr_interval": 10,
    "repeats": 3,
    "seed": 1,
    "x0": "shared",
    "out": "dflsim_out",
    "paper_scale": False,
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # Defaults stay None so config-file values can fill unset flags.
    p.add_argument("--config", help="flat key = value config file; flags override it")
    p.add_argument("--algorithm", help="fedndl1|fedndl2|fedndl3|fednmut (sweep: comma list)")
    p.add_argument("--topology", help="ring|torus|full (sweep: comma list)")
    p.add_argument("--clients", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--noise-var", dest="noise_var", help="per-coordinate channel noise variance")
    p.add_argument("--mu", help="tracking scaling factor (sweep: comma list)")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--lr-gamma", dest="lr_gamma", type=float)
    p.add_argument("--lr-interval", dest="lr_interval", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--x0", choices=sorted(X0_NAMES))
    p.add_argument("--out")
    p.add_argument("--paper-scale", dest="paper_scale", action="store_const", const=True,
                   help=f"use d={PAPER_SCALE_D}, m={PAPER_SCALE_M}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def read_config_file(path: str) -> dict:
    """Flat key = value pairs, one per line, # starts a comment."""
    values = {}
    key_types = {key: typ for key, _, typ in _FLAG_SPECS}
    key_dest = {key: dest for key, dest, _ in _FLAG_SPECS}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in key_types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            typ = key_types[key]
            values[key_dest[key]] = _parse_bool(value) if typ is bool else typ(value)
    return values


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for _, dest, _ in _FLAG_SPECS:
        cli_value = getattr(args, dest, None)
        if cli_value is not None:
            merged[dest] = cli_value
    if merged["paper_scale"]:
        merged["dim"] = PAPER_SCALE_D
        merged["samples"] = PAPER_SCALE_M
    return merged


def _topology_spec(name: str, n: int) -> TopologySpec:
    name = name.strip()
    if name not in TOPOLOGY_NAMES:
        raise ValueError(f"unknown topology {name!r}, expected one of {sorted(TOPOLOGY_NAMES)}")
    return TopologySpec(TOPOLOGY_NAMES[name], n)


def config_from_options(opts: dict) -> RunConfig:
    algorithm = str(opts["algorithm"]).strip()
    return RunConfig(
        algorithm=algorithm,
        topology=_topology_spec(str(opts["topology"]), opts["clients"]),
        d=opts["dim"],
        m=opts["samples"],
        rounds=opts["rounds"],
        lr=LrSchedule(eta0=opts["lr0"], gamma=opts["lr_gamma"], decay_interval=opts["lr_interval"]),
        mu=float(opts["mu"]),
        noise_variance=float(opts["noise_var"]),
        lam=opts["lam"],
        batch_size=opts["batch_size"],
        repeats=opts["repeats"],
        master_seed=opts["seed"],
        x0_mode=X0_NAMES[opts["x0"]],
    )


def cmd_run(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    config = config_from_options(opts)
    avg = run_averaged(config)
    os.makedirs(opts["out"], exist_ok=True)
    path = os.path.join(opts["out"], cell_id(config) + ".csv")
    write_cell_csv(path, avg)
    print(f"wrote {path}")
    print(
        f"final round {int(avg.rounds[-1])}: loss={avg.loss_mean[-1]:.6g} "
        f"consensus_error={avg.consensus_error_mean[-1]:.6g} "
        f"grad_norm_sq={avg.grad_norm_sq_mean[-1]:.6g}"
    )
    return 0


def _comma_list(flag: str, value, convert) -> list:
    values = [convert(part.strip()) for part in str(value).split(",") if part.strip()]
    if not values:
        raise ValueError(f"--{flag} needs at least one value, got {value!r}")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    axes = {}
    algorithms = _comma_list("algorithm", opts["algorithm"], str)
    topologies = _comma_list("topology", opts["topology"], str)
    noise_vars = _comma_list("noise-var", opts["noise_var"], float)
    mus = _comma_list("mu", opts["mu"], float)
    for name in topologies:
        if name not in TOPOLOGY_NAMES:
            raise ValueError(f"unknown topology {name!r}, expected one of {sorted(TOPOLOGY_NAMES)}")
    if len(algorithms) > 1:
        axes["algorithm"] = algorithms
    if len(topologies) > 1:
        axes["topology"] = [TOPOLOGY_NAMES[t] for t in topologies]
    if len(noise_vars) > 1:
        axes["noise_variance"] = noise_vars
    if len(mus) > 1:
        axes["mu"] = mus
    base = dict(opts)
    base["algorithm"] = algorithms[0]
    base["topology"] = topologies[0]
    base["noise_var"] = noise_vars[0]
    base["mu"] = mus[0]
    template = config_from_options(base)
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    rows = sweep(template, axes, opts["out"])
    print(f"wrote {len(rows)} cells + manifest.csv under {opts['out']}")
    return 0


def cmd_rate(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    if args.csv:
        series = _read_csv_column(args.csv, "grad_norm_sq_mean")
    else:
        config = config_from_options(opts)
        avg = run_averaged(config)
        series = avg.grad_norm_sq_mean
    # Drop the trailing row so entry k is the state entering round k.
    try:
        slope = rate_fit(np.asarray(series)[:-1])
    except DegenerateSeriesError:
        print("slope: undefined (exact convergence, series is zero)")
        return 0
    print(f"slope: {slope:.4f}")
    return 0


def _read_csv_column(path: str, column: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = header.index(column)
        return np.array([float(line.strip().split(",")[idx]) for line in fh if line.strip()])


def _verify_battery(opts: dict) -> list[dict]:
    # The tracking run's config is built first, so a bad seed fails before
    # any check runs; its step size is set once L is known.
    config = RunConfig(
        algorithm="fednmut",
        topology=TopologySpec(FULLY_CONNECTED, 16),
        d=50,
        m=800,
        rounds=300,
        mu=0.02,
        noise_variance=0.0,
        lam=1e-4,
        batch_size=32,
        repeats=1,
        master_seed=opts["seed"],
    )
    config.validate()
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    n = 16
    expected_rho = {"ring": 0.0989187008424176, "torus": 0.64, "fully_connected": 1.0}
    for kind in (RING, TORUS, FULLY_CONNECTED):
        mixing = build_mixing(TopologySpec(kind, n))
        w = mixing.weights
        sym = float(np.max(np.abs(w - w.T)))
        row = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
        col = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
        rho_err = abs(mixing.rho - expected_rho[kind])
        record(
            f"mixing[{kind}]",
            sym == 0.0 and row <= 1e-12 and col <= 1e-12 and rho_err <= 1e-3,
            f"sym={sym:.3g} row={row:.3g} col={col:.3g} rho={mixing.rho:.6g}",
        )
        report = check_contraction(mixing, mixing.rho, trials=400, seed=7)
        record(
            f"contraction[{kind}]",
            report.passed,
            f"max_ratio={report.max_ratio:.6g} allowed={report.allowed:.6g}",
        )

    bias = check_bias_zero_mean(
        mu=0.02, per_coord_variance=0.005, n=16, d=4, T=100, trials=4000, seed=11
    )
    record(
        "bias-zero-mean",
        bias.passed,
        f"max|mean|={bias.max_abs_mean:.3g} max|mean|/se={bias.max_se_ratio:.3g}",
    )

    # Small noise-free tracking run checked against the worst-case bound
    # and the expected decay of the running average.
    dataset = generate(config.m, config.d, config.label_noise_variance, config.master_seed)
    shards = partition_iid(dataset, config.n)
    mixing = build_mixing(config.topology)
    lam = config.lam
    L = estimate_smoothness(dataset, shards, lam)
    eta = min(1.0 / (4.0 * L), mixing.rho / (7.0 * L)) / 2.0
    config.lr = LrSchedule(eta0=eta, gamma=1.0, decay_interval=1)
    result = run_detailed(config, 0, dataset=dataset, shards=shards, mixing=mixing, smoothness=L)
    grad_series = np.array([m.grad_norm_sq for m in result.metrics])[:-1]
    empirical = float(grad_series.mean())

    x_star, f_star = ridge_optimum(dataset, lam)
    init = derive_stream(StreamKey(config.master_seed, 0, 0, 0, PURPOSE_INIT)).standard_normal(50)
    rng = np.random.default_rng(1234)
    x_samples = [init, x_star, rng.standard_normal(50)]
    consts = ConstantsEstimate(
        L=L,
        sigma_sq=estimate_sigma_sq(x_samples, shards, dataset, ObjectiveConfig(lam, 32), rng),
        zeta_sq=estimate_zeta_sq(x_samples, shards, dataset, lam),
        D_sq_total=50 * config.noise_variance,
        B_bar_sq=float(np.mean(result.bias_sq)),
        f0_gap=global_loss(init, dataset, lam) - f_star,
    )
    bound = evaluate_theorem_bound(consts, mixing.rho, config.mu, eta, 16, config.rounds)
    record("bound-sanity", empirical <= bound, f"empirical={empirical:.6g} bound={bound:.6g}")

    slope = rate_fit(grad_series)
    record("rate-slope", slope <= -0.3, f"slope={slope:.4f}")
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    checks = _verify_battery(opts)
    os.makedirs(opts["out"], exist_ok=True)
    lines = []
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        line = f"{status} {check['name']}: {check['detail']}"
        lines.append(line)
        print(line)
    all_passed = all(c["passed"] for c in checks)
    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
    print(lines[-1])
    with open(os.path.join(opts["out"], "verify_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(opts["out"], "verify_summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"passed": all_passed, "checks": checks}, fh, indent=2)
        fh.write("\n")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dflsim",
        description="Simulate decentralized learning over noisy channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, extra_csv in (
        ("run", cmd_run, False),
        ("sweep", cmd_sweep, False),
        ("verify", cmd_verify, False),
        ("rate", cmd_rate, True),
    ):
        p = sub.add_parser(name)
        _add_common_flags(p)
        if extra_csv:
            p.add_argument("--csv", help="fit an existing per-cell CSV instead of running")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
