"""Command line interface: dflsim run | sweep | verify | rate."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .algorithms import X0_MODES
from .data import _usable_cpus
from .harness import (
    ALGORITHMS,
    DegenerateSeriesError,
    LrSchedule,
    RunConfig,
    analysis_regime,
    bound_sanity,
    rate_fit,
    run_averaged,
    sweep,
    sweep_cells,
    write_cell_csv,
)
from .theory_checks import check_bias_zero_mean, check_contraction
from .topology import FULLY_CONNECTED, KINDS, RING, TORUS, TopologySpec, build_mixing

PAPER_SCALE_D = 2000
PAPER_SCALE_M = 10000


class Option(NamedTuple):
    """One command line option; its flag name is also its config-file key."""

    flag: str
    type: Callable
    default: object
    help: str
    axis: str = ""  # RunConfig field it sets when it is a sweep axis
    choices: tuple | None = None

    @property
    def name(self) -> str:
        """Its resolve_options key: the flag with "-" as "_"."""
        return self.flag.replace("-", "_")


# Every default but out's and paper-scale's is the library's own.
_DEFAULT = RunConfig()

# _value parses a flag and a config-file line alike, stripped and non-empty; a
# sweep axis takes a comma list and resolves to a list, every other option to one value.
OPTIONS = (
    Option("algorithm", str, _DEFAULT.algorithm, "update rule", axis="algorithm",
           choices=ALGORITHMS),
    Option("topology", str, _DEFAULT.topology.kind, "gossip graph", axis="topology", choices=KINDS),
    Option("clients", int, _DEFAULT.n, "number of clients n"),
    Option("dim", int, _DEFAULT.d, "model dimension d"),
    Option("samples", int, _DEFAULT.m, "total samples m"),
    Option("rounds", int, _DEFAULT.rounds, "rounds per repeat"),
    Option("noise-var", float, _DEFAULT.noise_variance, "per-coordinate channel noise variance",
           axis="noise_variance"),
    Option("mu", float, _DEFAULT.mu, "tracking scaling factor", axis="mu"),
    Option("lambda", float, _DEFAULT.lam, "ridge penalty"),
    Option("batch-size", int, _DEFAULT.batch_size, "minibatch size per client"),
    Option("lr0", float, _DEFAULT.lr.eta0, "initial step size"),
    Option("lr-gamma", float, _DEFAULT.lr.gamma, "step-size decay factor"),
    Option("lr-interval", int, _DEFAULT.lr.decay_interval, "rounds between step-size decays"),
    Option("repeats", int, _DEFAULT.repeats, "independent repeats averaged per cell"),
    Option("seed", int, _DEFAULT.master_seed, "master seed"),
    Option("x0", str, _DEFAULT.x0_mode, "initial point", choices=X0_MODES),
    Option("out", str, "dflsim_out", "output directory"),
    Option("paper-scale", bool, False, f"use d={PAPER_SCALE_D}, m={PAPER_SCALE_M}"),
)


class BlasInfo(NamedTuple):
    """The BLAS numpy's linalg runs on; None for each field that cannot be read."""

    name: str | None
    version: str | None
    kernel: str | None
    threads: int | None


def _openblas(name: str, restype, argtypes=()) -> Callable | None:
    """OpenBLAS's scipy_openblas_<name>64_, as numpy's linalg extension links it, or None."""
    try:
        import numpy.linalg._umath_linalg as umath_linalg

        func = getattr(ctypes.CDLL(umath_linalg.__file__), f"scipy_openblas_{name}64_")
    except (ImportError, OSError, AttributeError):
        return None
    func.argtypes, func.restype = list(argtypes), restype
    return func


def blas_info() -> BlasInfo:
    """The BLAS name and version (from its config string), kernel and thread count."""
    config = _openblas("get_config", ctypes.c_char_p)
    kernel = _openblas("get_corename", ctypes.c_char_p)
    threads = _openblas("get_num_threads", ctypes.c_int)
    name, version = (config().decode().split() + [None, None])[:2] if config else (None, None)
    return BlasInfo(name, version, kernel().decode() if kernel else None,
                    threads() if threads else None)


def set_blas_threads(count: int) -> bool:
    """Set the BLAS thread count; False, and nothing set, where the setter cannot be found."""
    setter = _openblas("set_num_threads", None, [ctypes.c_int])
    if setter is None:
        return False
    setter(count)
    return True


def _add_flags(p: argparse.ArgumentParser, options: tuple[Option, ...]) -> None:
    # Each flag given keeps its text for resolve_options to parse; one not
    # given stays None, so a config-file value can fill it.
    for opt in options:
        kwargs = {"action": "store_const", "const": "true"} if opt.type is bool else {}
        choice_note = ": " + "|".join(opt.choices) if opt.choices else ""
        sweep_note = " (sweep: comma list)" if opt.axis else ""
        p.add_argument(f"--{opt.flag}", dest=opt.name, **kwargs,
                       help=f"{opt.help}{choice_note}{sweep_note} (default: {opt.default})")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _value(where: str, text: str, opt: Option):
    """opt's value in text, a list for a sweep axis; a bad one raises ValueError naming where."""
    parts = [part.strip() for part in (text.split(",") if opt.axis else [text]) if part.strip()]
    if not parts:
        raise ValueError(f"{where} needs at least one value, got {text!r}")
    values = []
    for part in parts:
        try:
            value = (_parse_bool if opt.type is bool else opt.type)(part)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{where}: expected one of {list(opt.choices)}, got {part!r}")
        values.append(value)
    return values if opt.axis else values[0]


def read_config_file(path: str) -> dict:
    """Flat key = value pairs, one per line, # starts a comment; each key set at most once."""
    values, first_line = {}, {}
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
            if key not in by_key:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: {key}: already set on line {first_line[key]}")
            first_line[key] = lineno
            opt = by_key[key]
            values[opt.name] = _value(f"{path}:{lineno}: {key}", value.strip(), opt)
    return values


@contextlib.contextmanager
def _naming(flag: str):
    """Re-raise an OSError, or a file that is not UTF-8, on --flag's path naming --flag."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"--{flag}: {exc}") from None


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults; a sweep axis holds a list."""
    path = getattr(args, "config", None)  # verify takes no --config
    if path == "":
        raise ValueError("--config needs a file path, got ''")
    with _naming("config"):
        given = read_config_file(path) if path is not None else {}
    for opt in OPTIONS:
        text = getattr(args, opt.name, None)
        if text is not None:
            given[opt.name] = _value(f"--{opt.flag}", text, opt)
    if given.get("paper_scale"):
        clash = [key for key in ("dim", "samples") if key in given]
        if clash:
            raise ValueError(
                f"paper-scale sets dim={PAPER_SCALE_D} and samples={PAPER_SCALE_M}; "
                f"it cannot be combined with {' or '.join(clash)}"
            )
        given.update(dim=PAPER_SCALE_D, samples=PAPER_SCALE_M)
    defaults = {opt.name: [opt.default] if opt.axis else opt.default for opt in OPTIONS}
    return {**defaults, **given}


def _template(opts: dict) -> RunConfig:
    """The RunConfig of opts, with each sweep axis at its first value."""
    first = {opt.axis: opts[opt.name][0] for opt in OPTIONS if opt.axis}
    return RunConfig(
        topology=TopologySpec(first.pop("topology"), opts["clients"]),
        d=opts["dim"],
        m=opts["samples"],
        rounds=opts["rounds"],
        lr=LrSchedule(eta0=opts["lr0"], gamma=opts["lr_gamma"], decay_interval=opts["lr_interval"]),
        lam=opts["lambda"],
        batch_size=opts["batch_size"],
        repeats=opts["repeats"],
        master_seed=opts["seed"],
        x0_mode=opts["x0"],
        **first,
    )


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


def _cells(args: argparse.Namespace) -> tuple[dict[str, RunConfig], str]:
    """The checked cells of run or sweep, keyed by cell_id, and the --out made for them.

    The cells are the product of the sweep axes given more than one value;
    run takes one value per axis, so one cell. Each cell's analysis_regime
    goes to stderr as one line: dflsim: <cell_id>: k=v ...
    """
    with _bad_input(args):
        opts = resolve_options(args)
        swept = [opt for opt in OPTIONS if opt.axis and len(opts[opt.name]) > 1]
        if swept and args.command == "run":
            raise ValueError(
                f"--{swept[0].flag} takes one value outside sweep, got {opts[swept[0].name]}"
            )
        cells = sweep_cells(_template(opts), {opt.axis: opts[opt.name] for opt in swept})
        with _naming("out"):
            os.makedirs(opts["out"], exist_ok=True)
    for cid, config in cells.items():
        facts = " ".join(f"{key}={value:.6g}" for key, value in analysis_regime(config).items())
        sys.stderr.write(f"dflsim: {cid}: {facts}\n")
    return cells, opts["out"]


def _one_blas_thread() -> int:
    """Set one BLAS thread; the processes to run work items in, 1 where it cannot be set.

    At one thread a product's bits do not depend on the host's CPU count,
    and run and sweep can run their work items in up to 2 processes per
    usable CPU (see harness._per_repeat) without oversubscribing the CPUs.
    They take 1 process where os.fork is missing or one CPU is usable.
    """
    if not set_blas_threads(1):
        return 1
    cpus = _usable_cpus()
    return 2 * cpus if cpus > 1 and hasattr(os, "fork") else 1


def cmd_run(args: argparse.Namespace) -> int:
    cells, out = _cells(args)
    [(cid, config)] = cells.items()
    avg = run_averaged(config, processes=_one_blas_thread())
    path = os.path.join(out, cid + ".csv")
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
    cells, out = _cells(args)
    rows = sweep(cells, out, processes=_one_blas_thread())
    print(f"wrote {len(rows)} cells + manifest.csv under {out}")
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
    expected_rho = {RING: 0.0989187008424176, TORUS: 0.64, FULLY_CONNECTED: 1.0}
    for kind in (RING, TORUS, FULLY_CONNECTED):
        mixing = build_mixing(TopologySpec(kind, n))
        w = mixing.apply(np.eye(n))  # the product the rules run, bit-equal to W
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
        mu=0.02, per_coord_variance=0.005, mixing=build_mixing(config.topology), d=4, T=100,
        trials=4000, seed=11,
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
    # the options and the tracking run's config are checked first, so a bad seed fails here
    with _bad_input(args):
        opts = resolve_options(args)
        config = RunConfig(d=50, m=800, rounds=300, repeats=1, master_seed=opts["seed"])
        with _naming("out"):
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
    """Run one command, and restore the caller's BLAS thread count after it.

    run and sweep build their cells at that count, then run the rounds at
    one thread (see _one_blas_thread): the set-up's BLAS products only feed
    the regime lines on stderr.
    """
    args = build_parser().parse_args(argv)
    threads = blas_info().threads
    try:
        return args.handler(args)
    finally:
        if threads is not None:
            set_blas_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
