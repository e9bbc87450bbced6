"""Command line surface: flags, config file, subcommands."""

import dataclasses
import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dflsim
from dflsim.algorithms import X0_MODES
from dflsim.cli import (
    OPTIONS,
    PAPER_SCALE_D,
    PAPER_SCALE_M,
    _read_csv_column,
    _template,
    build_parser,
    main,
    read_config_file,
    resolve_options,
)
from dflsim.harness import (
    CSV_COLUMNS,
    RunConfig,
    analysis_regime,
    cell_id,
    rate_fit,
    run_averaged,
    sweep_cells,
    write_cell_csv,
)
from dflsim.topology import FULLY_CONNECTED, KINDS, RING, TopologySpec

TINY = [
    "--clients", "4", "--dim", "8", "--samples", "40", "--rounds", "10",
    "--batch-size", "5", "--repeats", "2", "--seed", "3", "--lr0", "0.05",
]


def assert_exits_2_naming(capsys, argv, pattern):
    """main(argv) fails as argparse does: exit 2 and one error line on stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"dflsim {argv[0]}: error: ")
    assert re.search(pattern, lines[0])


def test_run_writes_csv(tmp_path, capsys):
    rc = main(["run", "--algorithm", "fedndl3", "--topology", "ring", *TINY,
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final round 9" in out
    files = [f for f in os.listdir(tmp_path) if f.endswith(".csv")]
    assert files == ["fedndl3_ring_var0_mu0.02.csv"]
    header = (tmp_path / files[0]).read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("round,eta,loss_mean")


def cli(*argv):
    """python -m dflsim.cli argv in a subprocess, on this checkout's package."""
    env = dict(os.environ)
    src = str(Path(dflsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "dflsim.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_runs_as_a_script(tmp_path):
    """python -m dflsim.cli, the benchmark's entry point, writes a run and a two-cell sweep."""
    for argv in (["run"], ["sweep", "--mu", "0.01,0.02"]):
        proc = cli(*argv, *TINY, "--out", str(tmp_path / argv[0]))
        assert proc.returncode == 0, proc.stderr
    [run_csv] = (tmp_path / "run").glob("*.csv")
    manifest = (tmp_path / "sweep" / "manifest.csv").read_text(encoding="utf-8").splitlines()
    cells = [row.split(",")[0] for row in manifest[1:]]
    assert cells == ["fednmut_full_var0_mu0.01", "fednmut_full_var0_mu0.02"]
    for path in [run_csv] + [tmp_path / "sweep" / f"{cid}.csv" for cid in cells]:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS) and len(lines) == 1 + 10 + 1  # header, t = -1..9
    bad = cli("run", "--no-such-flag")
    assert bad.returncode == 2 and "unrecognized arguments: --no-such-flag" in bad.stderr


def regime_line(config):
    facts = " ".join(f"{key}={value:.6g}" for key, value in analysis_regime(config).items())
    return f"dflsim: {cell_id(config)}: {facts}"


def test_run_reports_its_analysis_regime_on_one_stderr_line(tmp_path, capsys):
    argv = ["run", "--algorithm", "fednmut", "--topology", "ring", *TINY]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    [line] = capsys.readouterr().err.splitlines()
    config = _template(resolve_options(build_parser().parse_args(argv)))
    assert line == regime_line(config)
    keys = re.findall(r" (\w+)=", line)
    assert keys == ["L_lo", "rho", "eta0", "eta_cap", "mu_ratio", "mu_limit"]
    # the line goes to stderr only: the CSV is the library run's, byte for byte
    write_cell_csv(tmp_path / "library.csv", run_averaged(config))
    [written] = (tmp_path / "a").glob("*.csv")
    assert written.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_sweep_reports_one_regime_line_per_cell(tmp_path, capsys):
    argv = ["sweep", "--topology", "ring,full", *TINY, "--out", str(tmp_path)]
    assert main(argv) == 0
    template = _template(resolve_options(build_parser().parse_args(["run", *TINY])))
    expected = [
        regime_line(replace(template, topology=TopologySpec(kind, 4)))
        for kind in (RING, FULLY_CONNECTED)
    ]
    assert capsys.readouterr().err.splitlines() == expected


def test_run_is_the_one_cell_sweep_of_the_same_options(tmp_path, capsys):
    argv = ["--algorithm", "fednmut", "--topology", "ring", "--noise-var", "0.005", *TINY]
    err = {}
    for command in ("run", "sweep"):
        assert main([command, *argv, "--out", str(tmp_path / command)]) == 0
        err[command] = capsys.readouterr().err
    name = "fednmut_ring_var0.005_mu0.02.csv"
    assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes()
    assert err["run"] == err["sweep"] and len(err["run"].splitlines()) == 1
    assert sorted(os.listdir(tmp_path / "run")) == [name]
    assert sorted(os.listdir(tmp_path / "sweep")) == [name, "manifest.csv"]


def test_sweep_builds_its_cells_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep_cells(*args, **kwargs)

    # cli imports sweep_cells by name; harness looks it up in its own module
    monkeypatch.setattr("dflsim.cli.sweep_cells", counting)
    monkeypatch.setattr("dflsim.harness.sweep_cells", counting)
    assert main(["sweep", "--mu", "0.01,0.02", *TINY, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_sweep_comma_lists(tmp_path):
    rc = main([
        "sweep", "--algorithm", "fedndl1,fedndl3", "--topology", "ring",
        "--noise-var", "0,0.005", *TINY, "--out", str(tmp_path),
    ])
    assert rc == 0
    manifest = (tmp_path / "manifest.csv").read_text(encoding="utf-8").splitlines()
    assert len(manifest) == 5  # header + 4 cells
    for line in manifest[1:]:
        cell_csv = line.split(",")[-1]
        assert (tmp_path / cell_csv).exists()


def test_sweep_config_file_comma_lists_match_flags(tmp_path):
    cfg = tmp_path / "axes.cfg"
    cfg.write_text("noise-var = 0,0.005\nmu = 0.01,0.02\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), *TINY, "--out", str(tmp_path / "file")]) == 0
    assert main(["sweep", "--noise-var", "0,0.005", "--mu", "0.01,0.02", *TINY,
                 "--out", str(tmp_path / "flags")]) == 0
    from_file = (tmp_path / "file" / "manifest.csv").read_text(encoding="utf-8")
    assert from_file == (tmp_path / "flags" / "manifest.csv").read_text(encoding="utf-8")
    assert len(from_file.splitlines()) == 5  # header + 4 cells


@pytest.mark.parametrize("flag", ["--algorithm", "--topology", "--noise-var", "--mu"])
def test_sweep_empty_comma_list_rejected(tmp_path, capsys, flag):
    assert_exits_2_naming(capsys, ["sweep", flag, ",", *TINY, "--out", str(tmp_path / "out")],
                          f"{flag} needs at least one value")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--algorithm", "fedndl1,fedx", r"--algorithm: expected one of \[.*\], got 'fedx'"),
    ("--topology", "ring,star", r"--topology: expected one of \['ring', 'torus', 'full'\], got 'star'"),
])
def test_sweep_unknown_axis_value_rejected(tmp_path, capsys, flag, value, message):
    assert_exits_2_naming(capsys, ["sweep", flag, value, *TINY, "--out", str(tmp_path / "out")],
                          message)
    assert not (tmp_path / "out").exists()


def cell_csv_text(series, bad_rows=None):
    """A 300-round cell CSV whose grad_norm_sq_mean is series, with bad_rows[k] as line k + 1."""
    lines = ["round,eta,loss_mean,loss_std,consensus_error_mean,consensus_error_std,"
             "grad_norm_sq_mean,grad_norm_sq_std,loss_local_avg_mean"] + [
        f"{r},0.1,1,0,0,0,{float(g)!r},0,1" for r, g in zip(range(-1, 299), series)]
    return "".join((bad_rows or {}).get(k, line) + "\n" for k, line in enumerate(lines))


def test_rate_on_existing_csv(tmp_path, capsys):
    path = tmp_path / "cell.csv"
    sums = 2.0 * np.sqrt(np.arange(1, 302))
    series = np.diff(np.concatenate([[0.0], sums]))  # running average 2/sqrt(T)
    path.write_text(cell_csv_text(series), encoding="utf-8")
    rc = main(["rate", "--csv", str(path)])
    assert rc == 0
    slope = float(capsys.readouterr().out.split("slope:")[1])
    assert slope == pytest.approx(-0.5, abs=1e-3)


def test_rate_of_a_zero_series_reports_exact_convergence(tmp_path, capsys):
    path = tmp_path / "cell.csv"
    path.write_text(cell_csv_text(np.zeros(300)), encoding="utf-8")
    assert main(["rate", "--csv", str(path)]) == 0
    assert capsys.readouterr().out == "slope: undefined (exact convergence, series is zero)\n"


def test_csv_column_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "cell.csv"
    path.write_text("round,grad_norm_sq_mean\n-1,4\n\n0,2\n  \n", encoding="utf-8")
    assert _read_csv_column(str(path), "grad_norm_sq_mean").tolist() == [4.0, 2.0]


def test_rate_names_a_missing_column(tmp_path, capsys):
    path = tmp_path / "cell.csv"
    path.write_text("round,eta,loss_mean\n-1,0.1,1\n", encoding="utf-8")
    missing = rf"{re.escape(str(path))}: no 'grad_norm_sq_mean' column"
    assert_exits_2_naming(capsys, ["rate", "--csv", str(path)], missing)


def test_rate_names_a_series_too_short_to_fit(tmp_path, capsys):
    assert main(["run", *TINY, "--out", str(tmp_path)]) == 0  # 10 rounds
    capsys.readouterr()  # the run's own output
    [path] = tmp_path.glob("*.csv")
    assert_exits_2_naming(capsys, ["rate", "--csv", str(path)],
                          rf"{re.escape(str(path))}: need a series of at least 50 rounds, got 10")


@pytest.mark.parametrize("bad_rows, named", [
    ({300: "298,0.1,1,0"}, ":301: 4 fields, header has 9"),
    ({100: "98,0.1,1,0,0,0,abc,0,1"}, ":101: could not convert string to float: 'abc'"),
    ({k: f"{k - 2},0.1" + ",nan" * 7 for k in range(151, 301)},
     ": entry 150 of the series is nan, not finite"),
], ids=["truncated-row", "not-a-number", "diverged"])
def test_rate_names_the_file_of_a_bad_series(tmp_path, capsys, bad_rows, named):
    path = tmp_path / "cell.csv"
    path.write_text(cell_csv_text(1.0 / np.arange(1, 301), bad_rows), encoding="utf-8")
    assert_exits_2_naming(capsys, ["rate", "--csv", str(path)], re.escape(f"{path}{named}") + "$")


def test_rate_of_run_csv_equals_fit_of_run(tmp_path, monkeypatch, capsys):
    argv = ["--algorithm", "fednmut", "--topology", "ring", "--noise-var", "0.01", *TINY,
            "--rounds", "60", "--out", str(tmp_path)]
    assert main(["run", *argv]) == 0
    config = _template(resolve_options(build_parser().parse_args(["run", *argv])))
    fits = []

    def recording_fit(series):
        fits.append(rate_fit(series))
        return fits[-1]

    monkeypatch.setattr("dflsim.cli.rate_fit", recording_fit)
    capsys.readouterr()
    assert main(["rate", "--csv", str(tmp_path / "fednmut_ring_var0.01_mu0.02.csv")]) == 0
    assert fits == [rate_fit(run_averaged(config).columns["grad_norm_sq_mean"][:-1])]
    assert capsys.readouterr().out == f"slope: {fits[0]:.4f}\n"


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
        # experiment settings
        algorithm = fedndl1
        topology = torus
        clients = 9
        noise-var = 0.01   # per-coordinate
        lr-gamma = 0.8
        paper-scale = false
        """,
        encoding="utf-8",
    )
    values = read_config_file(str(cfg))
    assert values == {
        "algorithm": ["fedndl1"],  # a sweep axis resolves to its list of values
        "topology": ["torus"],
        "clients": 9,
        "noise_var": [0.01],
        "lr_gamma": 0.8,
        "paper_scale": False,
    }
    parser = build_parser()
    args = parser.parse_args(["run", "--config", str(cfg), "--algorithm", "fednmut"])
    opts = resolve_options(args)
    assert opts["algorithm"] == ["fednmut"]  # CLI wins
    assert opts["topology"] == ["torus"]  # file fills the rest
    assert opts["rounds"] == 500  # default
    config = _template(opts)
    assert config.topology.kind == "torus" and config.n == 9
    assert config.noise_variance == 0.01


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        read_config_file(str(cfg))


@pytest.mark.parametrize(
    "config_line, flags, names",
    [
        ("clients = abc", [], r"bad\.cfg:2: clients: invalid literal"),
        ("paper-scale = maybe", [], r"bad\.cfg:2: paper-scale: not a boolean"),
        ("mu = abc", [], r"bad\.cfg:2: mu: could not convert"),
        ("x0 = origin", [], r"bad\.cfg:2: x0: expected one of"),
        ("algorithm = nosuch", [], r"bad\.cfg:2: algorithm: expected one of \[.*\], got 'nosuch'$"),
        (None, ["--mu", "abc"], r"--mu: could not convert"),
        (None, ["--noise-var", "0,0.005"], r"--noise-var takes one value outside sweep"),
        (None, ["--algorithm", "fedndl1,fednmut"],
         r"error: --algorithm takes one value outside sweep, got \['fedndl1', 'fednmut'\]$"),
        (None, ["--topology", "ring,full"],
         r"error: --topology takes one value outside sweep, got \['ring', 'full'\]$"),
        (None, ["--mu", "0.01,0.02"], r"error: --mu takes one value outside sweep, got \[0\.01, 0\.02\]$"),
        ("noise-var = 0, 0.005", [],
         r"error: --noise-var takes one value outside sweep, got \[0\.0, 0\.005\]$"),
        (None, ["--topology", "star"], r"--topology: expected one of \[.*\], got 'star'"),
        (None, ["--algorithm", "nosuch"],
         r"error: --algorithm: expected one of \['fedndl1', 'fedndl2', 'fedndl3', 'fednmut'\], "
         r"got 'nosuch'$"),
        (None, ["--paper-scale", "--dim", "50", "--samples", "300"],
         r"paper-scale sets dim=2000 and samples=10000; .* with dim or samples"),
        ("paper-scale = true", ["--samples", "300"], r"paper-scale .* with samples"),
        ("dim = 50", ["--paper-scale"], r"paper-scale .* with dim"),
        (None, ["--lr0", "nan"], r"eta0 must be > 0 and finite, got nan"),
        ("lambda = inf", [], r"lam must be >= 0 and finite, got inf"),
        ("clients 4", [], r"bad\.cfg:2: expected 'key = value', got 'clients 4'"),
        ("mu = 0.02\nmu = 0.5", [], r"bad\.cfg:3: mu: already set on line 2$"),
    ],
    ids=["file-int", "file-bool", "file-axis", "file-choice", "file-algorithm", "flag-float",
         "flag-list", "flag-list-algorithm", "flag-list-topology", "flag-list-mu",
         "file-list-noise-var", "flag-topology", "flag-algorithm", "flag-paper-scale-dim",
         "file-paper-scale-samples", "file-dim-flag-paper-scale", "flag-lr0-nan",
         "file-lambda-inf", "file-no-equals", "file-repeated-key"],
)
def test_bad_value_names_its_option_before_any_setup(tmp_path, monkeypatch, capsys,
                                                      config_line, flags, names):
    def no_run(*args, **kwargs):
        raise AssertionError("set-up started before the options were checked")

    monkeypatch.setattr("dflsim.cli.run_averaged", no_run)
    argv = ["run", *flags, "--out", str(tmp_path / "out")]
    if config_line is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# options\n{config_line}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert_exits_2_naming(capsys, argv, names)
    assert not (tmp_path / "out").exists()


def test_cli_defaults_are_the_library_defaults():
    assert _template(resolve_options(build_parser().parse_args(["run"]))) == RunConfig()


# One non-default value per option, as a flag and as a config-file value.
SAMPLE_VALUES = {
    "algorithm": "fedndl2", "topology": "torus", "clients": "9", "dim": "7",
    "samples": "90", "rounds": "11", "noise-var": "0.003", "mu": "0.05",
    "lambda": "0.002", "batch-size": "6", "lr0": "0.07", "lr-gamma": "0.5",
    "lr-interval": "4", "repeats": "2", "seed": "5", "x0": "independent",
    "out": "elsewhere", "paper-scale": "true",
}


def test_sample_values_cover_every_option():
    assert sorted(SAMPLE_VALUES) == sorted(opt.flag for opt in OPTIONS)


@pytest.mark.parametrize("opt", OPTIONS, ids=lambda opt: opt.flag)
def test_flag_and_config_line_resolve_alike(tmp_path, opt):
    value = SAMPLE_VALUES[opt.flag]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{opt.flag} = {value}\n", encoding="utf-8")
    flag_argv = [f"--{opt.flag}"] if opt.type is bool else [f"--{opt.flag}", value]
    parser = build_parser()
    by_flag = resolve_options(parser.parse_args(["run", *flag_argv]))
    by_file = resolve_options(parser.parse_args(["run", "--config", str(cfg)]))
    defaults = resolve_options(parser.parse_args(["run"]))
    assert by_flag == by_file != defaults
    assert _template(by_flag) == _template(by_file)


def leaves(obj, prefix=""):
    """(dotted path, value) of each leaf field of a dataclass, nested dataclasses flattened."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from leaves(value, f"{prefix}{field.name}.")
        else:
            yield prefix + field.name, value


def test_every_run_config_field_is_set_by_exactly_one_option():
    default = dict(leaves(RunConfig()))
    set_by = []
    for opt in OPTIONS:
        if opt.flag in ("out", "paper-scale"):  # where results go; a preset of dim and samples
            continue
        args = build_parser().parse_args(["run", f"--{opt.flag}", SAMPLE_VALUES[opt.flag]])
        config = _template(resolve_options(args))
        changed = [path for path, value in leaves(config) if value != default[path]]
        assert len(changed) == 1, (opt.flag, changed)
        set_by += changed
    assert sorted(set_by) == sorted(default)


RUN_FLAGS = {f"--{opt.flag}" for opt in OPTIONS} | {"--config"}
FLAGS_TAKEN = {"run": RUN_FLAGS, "sweep": RUN_FLAGS, "verify": {"--seed", "--out"},
               "rate": {"--csv"}}


@pytest.mark.parametrize("command", ["run", "sweep", "verify", "rate"])
def test_help_names_every_option(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert set(re.findall(r"--[a-z][a-z0-9-]*", text)) == FLAGS_TAKEN[command] | {"--help"}
    for opt in OPTIONS:
        if f"--{opt.flag}" in FLAGS_TAKEN[command]:
            assert f"(default: {opt.default})" in text
    assert text.count("(sweep: comma list)") == (4 if command in ("run", "sweep") else 0)
    for opt in OPTIONS:
        if opt.choices and f"--{opt.flag}" in FLAGS_TAKEN[command]:
            assert "|".join(opt.choices) in text


def bad_texts(opt):
    """Texts opt's parse rejects: a non-number, an unknown choice, an empty list, no free text."""
    if opt.type in (int, float, bool):
        yield "abc"
    if opt.choices:
        yield "nosuch"
    if opt.axis:
        yield ","
    if opt.type is str and not opt.choices:
        yield ""


# (command, option, bad text, given as a flag or a config-file line), for every
# option that has a bad text; a bool option's flag takes no value.
BAD_VALUES = [
    (command, opt, text, source)
    for command in ("run", "sweep", "verify")
    for opt in OPTIONS
    if f"--{opt.flag}" in FLAGS_TAKEN[command]
    for text in bad_texts(opt)
    for source in ("flag", "file")
    if not (source == "flag" and opt.type is bool)
    and not (source == "file" and "--config" not in FLAGS_TAKEN[command])
]


def test_every_option_but_free_text_has_a_bad_value():
    # free text's one bad value is no text
    assert [opt.flag for opt in OPTIONS if not list(bad_texts(opt))] == []
    assert [opt.flag for opt in OPTIONS if list(bad_texts(opt)) == [""]] == ["out"]


@pytest.mark.parametrize("command, opt, text, source", BAD_VALUES,
                         ids=lambda v: getattr(v, "flag", v))
def test_bad_value_gives_one_line_naming_its_option(tmp_path, monkeypatch, capsys,
                                                    command, opt, text, source):
    def no_setup(*args, **kwargs):
        raise AssertionError("set-up started before the options were checked")

    for target in ("dflsim.harness.generate", "dflsim.cli.build_mixing",
                   "dflsim.cli.run_averaged", "dflsim.cli.sweep"):
        monkeypatch.setattr(target, no_setup)
    monkeypatch.chdir(tmp_path)  # where a command that ran would write dflsim_out
    if source == "flag":
        argv, where = [command, f"--{opt.flag}", text], f"--{opt.flag}"
    else:
        Path("bad.cfg").write_text(f"# options\n{opt.flag} = {text}\n", encoding="utf-8")
        argv, where = [command, "--config", "bad.cfg"], f"bad.cfg:2: {opt.flag}"
    # no --out: a later flag wins, so one would hide a bad out
    assert_exits_2_naming(capsys, argv, re.escape(f"error: {where}") + "[: ]")
    assert os.listdir(tmp_path) == (["bad.cfg"] if source == "file" else [])


@pytest.mark.parametrize("argv, named", [
    (["verify", "--rounds", "5"], "--rounds"),
    (["verify", "--seed", "1", "--clients", "4", "--mu", "0.5"], "--clients 4 --mu 0.5"),
    (["verify", "--config", "exp.cfg"], "--config"),
    (["rate", "--csv", "cell.csv", "--mu", "7"], "--mu"),
    (["rate"], "--csv"),
], ids=["verify-rounds", "verify-several", "verify-config", "rate-mu", "rate-no-csv"])
def test_flag_not_taken_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)  # where a command that ran would write dflsim_out
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of every dflsim line in README's bash blocks, continuations joined."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    return [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("dflsim ")
    ]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "sweep", "verify", "rate"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_config_example_resolves(tmp_path, monkeypatch):
    readme = README.read_text(encoding="utf-8")
    example = re.search(r"```\n(# exp\.cfg\n.*?)```", readme, flags=re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    Path("exp.cfg").write_text(example, encoding="utf-8")
    values = {"algorithm": ["fednmut"], "topology": ["torus"], "noise_var": [0.005], "lr0": 0.1}
    assert read_config_file("exp.cfg") == values
    [argv] = [argv for argv in readme_commands() if "--config" in argv]
    config = _template(resolve_options(build_parser().parse_args(argv)))
    assert config.topology.kind == "torus" and config.noise_variance == 0.005
    assert (config.algorithm, config.lr.eta0, config.master_seed) == ("fednmut", 0.1, 7)


def test_readme_lower_level_names_exist():
    readme = README.read_text(encoding="utf-8")
    paragraph = re.search(r"Lower-level pieces.*?(?:\n\n|\Z)", readme, flags=re.DOTALL).group(0)
    names = []
    for span in re.findall(r"`([^`]+)`", paragraph):
        numbered = re.fullmatch(r"(\w+?)(\d+)\.\.(\d+)", span)  # round_fedndl1..3
        if numbered:
            stem, first, last = numbered.groups()
            names += [f"{stem}{k}" for k in range(int(first), int(last) + 1)]
        else:
            names.append(re.match(r"\w+", span).group(0))
    assert "round_fedndl3" in names and "batch_gradients" in names
    assert [name for name in names if not hasattr(dflsim, name)] == []


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(dflsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(dflsim.__all__) == public


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == dflsim.__version__


def test_paper_scale_sets_dimensions():
    parser = build_parser()
    args = parser.parse_args(["run", "--paper-scale"])
    opts = resolve_options(args)
    assert opts["dim"] == PAPER_SCALE_D and opts["samples"] == PAPER_SCALE_M


def test_topology_and_x0_choices_are_the_library_names():
    """The CLI takes the library's own names: no mapping stands between them."""
    by_flag = {opt.flag: opt for opt in OPTIONS}
    assert by_flag["topology"].choices is KINDS
    assert by_flag["x0"].choices is X0_MODES
    for kind, mode in zip(KINDS, X0_MODES):
        args = build_parser().parse_args(["run", "--topology", kind, "--x0", mode, "--clients", "9"])
        config = _template(resolve_options(args))
        assert (config.topology.kind, config.x0_mode) == (kind, mode)


def test_sweep_names_cells_and_manifest_by_the_library_kinds(tmp_path):
    proc = cli("sweep", "--topology", ",".join(KINDS), *TINY, "--clients", "9",
               "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    header, *rows = (tmp_path / "manifest.csv").read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    cells = [dict(zip(columns, row.split(","))) for row in rows]
    assert [cell["topology"] for cell in cells] == list(KINDS)
    assert [cell["cell_id"] for cell in cells] == [f"fednmut_{kind}_var0_mu0.02" for kind in KINDS]
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == sorted(
        [f"fednmut_{kind}_var0_mu0.02.csv" for kind in KINDS] + ["manifest.csv"])


def test_verify_writes_report_and_passes(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path), "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    report = (tmp_path / "verify_report.txt").read_text(encoding="utf-8")
    assert "bound-sanity" in report and "rate-slope" in report
    summary = json.loads((tmp_path / "verify_summary.json").read_text(encoding="utf-8"))
    assert summary["passed"] is True
    assert {c["name"] for c in summary["checks"]} >= {
        "mixing[ring]", "contraction[torus]", "bias-zero-mean", "bound-sanity", "rate-slope",
    }
    # the bytes of both files, pinned so a refactor of the checks cannot change them
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("verify_report.txt", "verify_summary.json")}
    assert digests == {
        "verify_report.txt": "0a3bb41e5d5174bd1bba6c194667b563c91b043834569dab2451bbc23c4d6ffc",
        "verify_summary.json": "9ddf38806114af7a355dec1326e159f4c3fbc590f971734ad76f6699d6b87238",
    }


def test_verify_rejects_bad_seed_before_any_check(tmp_path, monkeypatch, capsys):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran before the seed was validated")

    monkeypatch.setattr("dflsim.cli.build_mixing", no_check)
    assert_exits_2_naming(capsys, ["verify", "--seed", "-1", "--out", str(tmp_path / "out")],
                          "master_seed")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["run", "--rounds", "0"], "rounds must be >= 1, got 0"),
    (["run", "--repeats", "0"], "repeats must be >= 1, got 0"),
    (["run", "--samples", "10"], "need at least one sample per client: m=10 < n=16"),
    (["run", "--rounds", "1100", "--lr0", "0.01", "--lr-gamma", "0.5", "--lr-interval", "1"],
     r"step size underflows to 0 by round 1099: LrSchedule\(eta0=0.01, gamma=0.5, decay_interval=1\)"),
    (["run", "--config", "missing.cfg"], "--config: .*No such file or directory: 'missing.cfg'"),
    (["run", "--config", ""], r"error: --config needs a file path, got ''$"),
    (["sweep", "--config", ""], r"error: --config needs a file path, got ''$"),
    (["sweep", "--mu", "0.02,1.5"], r"mu must be in \[0, 1\), got 1.5"),
    (["sweep", "--mu", "0.02,0.0200000001"], "share cell_id"),
    (["rate", "--csv", "missing.csv"], "No such file or directory: 'missing.csv'"),
    (["run", "--out", os.devnull], rf"error: --out: \[Errno \d+\] File exists: '{os.devnull}'$"),
    (["sweep", "--out", os.devnull], rf"error: --out: \[Errno \d+\] File exists: '{os.devnull}'$"),
    (["verify", "--out", os.devnull], rf"error: --out: \[Errno \d+\] File exists: '{os.devnull}'$"),
    (["run", "--config", os.curdir], r"error: --config: \[Errno \d+\] Is a directory: '\.'$"),
], ids=["run-invalid-config", "run-no-repeat", "run-too-few-samples", "run-step-underflow",
        "run-missing-config", "run-empty-config", "sweep-empty-config", "sweep-invalid-cell",
        "sweep-cell-collision", "rate-missing-csv", "run-out-file", "sweep-out-file",
        "verify-out-file", "run-config-directory"])
def test_bad_input_exits_2_before_any_setup(tmp_path, monkeypatch, capsys, argv, named):
    def no_setup(*args, **kwargs):
        raise AssertionError("set-up started before the inputs were checked")

    monkeypatch.setattr("dflsim.harness.generate", no_setup)
    monkeypatch.setattr("dflsim.cli.build_mixing", no_setup)  # verify's first check
    monkeypatch.chdir(tmp_path)  # where a command that ran would write dflsim_out
    assert_exits_2_naming(capsys, argv, named)
    assert os.listdir(tmp_path) == []


def test_config_file_that_is_not_text_names_its_option(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"seed = \xff\n")
    assert_exits_2_naming(capsys, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")],
                          r"error: --config: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out").exists()


def test_value_error_after_setup_propagates(tmp_path, monkeypatch):
    def failing_run(config, processes):
        raise ValueError("raised inside the run")

    monkeypatch.setattr("dflsim.cli.run_averaged", failing_run)
    with pytest.raises(ValueError, match="raised inside the run"):
        main(["run", *TINY, "--out", str(tmp_path / "out")])
