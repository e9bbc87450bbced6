"""Command line interface: dflsim run | sweep | verify | rate."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .harness import (
    ALGORITHMS,
    DegenerateSeriesError,
    LrSchedule,
    RunConfig,
    analysis_regime,
    bound_sanity,
    cell_id,
    rate_fit,
    run_averaged,
    sweep,
    sweep_cells,
    write_cell_csv,
)
from .theory_checks import check_bias_zero_mean, check_contraction
from .topology import FULLY_CONNECTED, RING, TORUS, TopologySpec, build_mixing

TOPOLOGY_NAMES = {"ring": RING, "torus": TORUS, "full": FULLY_CONNECTED}
X0_NAMES = {"zeros": "zeros", "shared": "shared_random", "independent": "independent_random"}

PAPER_SCALE_D = 2000
PAPER_SCALE_M = 10000


class Option(NamedTuple):
    """One command line option; its flag name is also its config-file key."""

    flag: str
    type: Callable
    default: object
    help: str
    axis: str = ""  # RunConfig field it sets when it is a sweep axis
    dest: str = ""  # resolve_options key, when not the flag with "-" as "_"
    choices: tuple | None = None

    @property
    def name(self) -> str:
        return self.dest or self.flag.replace("-", "_")


def _topology_kind(name: str) -> str:
    if name not in TOPOLOGY_NAMES:
        raise ValueError(f"unknown topology {name!r}, expected one of {sorted(TOPOLOGY_NAMES)}")
    return TOPOLOGY_NAMES[name]


# Sweep axes stay text until config_from_options or cmd_sweep splits them,
# so argparse and the config file both accept a comma list.
OPTIONS = (
    Option("algorithm", str, "fednmut", "update rule: " + "|".join(ALGORITHMS), axis="algorithm"),
    Option("topology", _topology_kind, "full", "gossip graph: " + "|".join(TOPOLOGY_NAMES),
           axis="topology"),
    Option("clients", int, 16, "number of clients n"),
    Option("dim", int, 200, "model dimension d"),
    Option("samples", int, 2000, "total samples m"),
    Option("rounds", int, 500, "rounds per repeat"),
    Option("noise-var", float, 0.0, "per-coordinate channel noise variance",
           axis="noise_variance"),
    Option("mu", float, 0.02, "tracking scaling factor", axis="mu"),
    Option("lambda", float, 1e-4, "ridge penalty", dest="lam"),
    Option("batch-size", int, 32, "minibatch size per client"),
    Option("lr0", float, 0.2, "initial step size"),
    Option("lr-gamma", float, 0.9, "step-size decay factor"),
    Option("lr-interval", int, 10, "rounds between step-size decays"),
    Option("repeats", int, 3, "independent repeats averaged per cell"),
    Option("seed", int, 1, "master seed"),
    Option("x0", str, "shared", "initial point", choices=tuple(sorted(X0_NAMES))),
    Option("out", str, "dflsim_out", "output directory"),
    Option("paper-scale", bool, False, f"use d={PAPER_SCALE_D}, m={PAPER_SCALE_M}"),
)


def _add_flags(p: argparse.ArgumentParser, options: tuple[Option, ...]) -> None:
    # Defaults stay None so config-file values can fill unset flags.
    for opt in options:
        if opt.type is bool:
            kwargs = {"action": "store_const", "const": True}
        else:
            kwargs = {"type": str if opt.axis else opt.type, "choices": opt.choices}
        sweep_note = " (sweep: comma list)" if opt.axis else ""
        p.add_argument(f"--{opt.flag}", dest=opt.name,
                       help=f"{opt.help}{sweep_note} (default: {opt.default})", **kwargs)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse(where: str, text: str, opt: Option):
    """One value of opt; a bad one raises ValueError naming where it came from."""
    try:
        value = (_parse_bool if opt.type is bool else opt.type)(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{where}: expected one of {list(opt.choices)}, got {text!r}")
    return value


def _comma_list(where: str, value, opt: Option) -> list:
    values = [_parse(where, part.strip(), opt) for part in str(value).split(",") if part.strip()]
    if not values:
        raise ValueError(f"{where} needs at least one value, got {value!r}")
    return values


def read_config_file(path: str) -> dict:
    """Flat key = value pairs, one per line, # starts a comment."""
    values = {}
    by_key = {opt.flag: opt for opt in OPTIONS}
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
            if key not in by_key:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            opt = by_key[key]
            where = f"{path}:{lineno}: {key}"
            if opt.axis:
                _comma_list(where, value, opt)  # checked here, kept as text
            else:
                value = _parse(where, value, opt)
            values[opt.name] = value
    return values


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    for opt in OPTIONS:
        cli_value = getattr(args, opt.name, None)
        if cli_value is not None:
            given[opt.name] = cli_value
    if given.get("paper_scale"):
        clash = [key for key in ("dim", "samples") if key in given]
        if clash:
            raise ValueError(
                f"paper-scale sets dim={PAPER_SCALE_D} and samples={PAPER_SCALE_M}; "
                f"it cannot be combined with {' or '.join(clash)}"
            )
        given.update(dim=PAPER_SCALE_D, samples=PAPER_SCALE_M)
    return {**{opt.name: opt.default for opt in OPTIONS}, **given}


def _sweep_axes(opts: dict) -> dict:
    """Each sweep axis's values, converted, keyed by its RunConfig field."""
    return {
        opt.axis: _comma_list(f"--{opt.flag}", opts[opt.name], opt) for opt in OPTIONS if opt.axis
    }


def _template(opts: dict, axes: dict) -> RunConfig:
    """The RunConfig of opts, with each sweep axis at its first value."""
    first = {field: values[0] for field, values in axes.items()}
    return RunConfig(
        topology=TopologySpec(first.pop("topology"), opts["clients"]),
        d=opts["dim"],
        m=opts["samples"],
        rounds=opts["rounds"],
        lr=LrSchedule(eta0=opts["lr0"], gamma=opts["lr_gamma"], decay_interval=opts["lr_interval"]),
        lam=opts["lam"],
        batch_size=opts["batch_size"],
        repeats=opts["repeats"],
        master_seed=opts["seed"],
        x0_mode=X0_NAMES[opts["x0"]],
        **first,
    )


def config_from_options(opts: dict) -> RunConfig:
    """The RunConfig of opts for run, where each sweep axis holds one value."""
    axes = _sweep_axes(opts)
    for opt in OPTIONS:
        if opt.axis and len(axes[opt.axis]) > 1:
            raise ValueError(f"--{opt.flag} takes one value outside sweep, got {opts[opt.name]!r}")
    return _template(opts, axes)


@contextlib.contextmanager
def _bad_input(args: argparse.Namespace):
    """Report a bad input as argparse does: one error line, exit status 2.

    Only the checking of inputs and the making of --out run inside it, so
    an error raised once set-up has started still propagates.
    """
    try:
        yield
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"dflsim {args.command}: error: {exc}\n")
        raise SystemExit(2) from None


def _report_regimes(*configs: RunConfig) -> None:
    """Each config's analysis_regime as one stderr line: dflsim: <cell_id>: k=v ..."""
    for config in configs:
        facts = " ".join(f"{key}={value:.6g}" for key, value in analysis_regime(config).items())
        sys.stderr.write(f"dflsim: {cell_id(config)}: {facts}\n")


def cmd_run(args: argparse.Namespace) -> int:
    with _bad_input(args):
        opts = resolve_options(args)
        config = config_from_options(opts)
        os.makedirs(opts["out"], exist_ok=True)
    _report_regimes(config)
    avg = run_averaged(config)
    path = os.path.join(opts["out"], cell_id(config) + ".csv")
    write_cell_csv(path, avg)
    print(f"wrote {path}")
    col = avg.columns
    print(
        f"final round {int(col['round'][-1])}: loss={col['loss_mean'][-1]:.6g} "
        f"consensus_error={col['consensus_error_mean'][-1]:.6g} "
        f"grad_norm_sq={col['grad_norm_sq_mean'][-1]:.6g}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    with _bad_input(args):
        opts = resolve_options(args)
        axes = _sweep_axes(opts)
        template = _template(opts, axes)
        axes = {k: v for k, v in axes.items() if len(v) > 1}
        cells = sweep_cells(template, axes)
        os.makedirs(opts["out"], exist_ok=True)
    _report_regimes(*cells.values())
    rows = sweep(template, axes, opts["out"])
    print(f"wrote {len(rows)} cells + manifest.csv under {opts['out']}")
    return 0


def cmd_rate(args: argparse.Namespace) -> int:
    with _bad_input(args):
        series = _read_csv_column(args.csv, "grad_norm_sq_mean")
        # Drop the trailing row so entry k is the state entering round k.
        try:
            slope = rate_fit(series[:-1])
        except DegenerateSeriesError:
            print("slope: undefined (exact convergence, series is zero)")
            return 0
        except ValueError as exc:  # a series too short to fit, or not finite
            raise ValueError(f"{args.csv}: {exc}") from None
    print(f"slope: {slope:.4f}")
    return 0


def _read_csv_column(path: str, column: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if column not in header:
            raise ValueError(f"{path}: no {column!r} column in header {header}")
        idx, values = header.index(column), []
        for lineno, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(fields)} fields, header has {len(header)}")
            try:
                values.append(float(fields[idx]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return np.array(values)


def _verify_battery(config: RunConfig) -> list[dict]:
    """The checks, ending in a noise-free tracking run of config at a step size set from L."""
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    n = config.n
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
        report = check_contraction(mixing, trials=400, seed=7)
        record(
            f"contraction[{kind}]",
            report.passed,
            f"max_ratio={report.max_ratio:.6g} allowed={report.allowed:.6g}",
        )

    bias = check_bias_zero_mean(
        mu=0.02, per_coord_variance=0.005, n=n, d=4, T=100, trials=4000, seed=11
    )
    record(
        "bias-zero-mean",
        bias.passed,
        f"max|mean|={bias.max_abs_mean:.3g} max|mean|/se={bias.max_se_ratio:.3g}",
    )

    sanity = bound_sanity(config)
    detail = f"empirical={sanity.empirical:.6g} bound={sanity.bound:.6g}"
    record("bound-sanity", sanity.empirical <= sanity.bound, detail)
    record("rate-slope", sanity.slope <= -0.3, f"slope={sanity.slope:.4f}")
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    # the tracking run's config is checked first, so a bad seed fails before any check runs
    with _bad_input(args):
        config = RunConfig(d=50, m=800, rounds=300, repeats=1, master_seed=opts["seed"])
        os.makedirs(opts["out"], exist_ok=True)
    checks = _verify_battery(config)
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
    for name, handler in (("run", cmd_run), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file; flags override it")
        _add_flags(p, OPTIONS)
        p.set_defaults(handler=handler)
    p = sub.add_parser("verify")
    _add_flags(p, tuple(opt for opt in OPTIONS if opt.flag in ("seed", "out")))
    p.set_defaults(handler=cmd_verify)
    p = sub.add_parser("rate")
    p.add_argument("--csv", required=True, help="per-cell CSV written by run or sweep")
    p.set_defaults(handler=cmd_rate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
