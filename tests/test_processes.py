"""Forked work items and the BLAS thread count: harness._per_repeat and cli.main.

The CLI runs its rounds at one BLAS thread and passes run_averaged and
sweep a process count; library calls stay sequential at the caller's BLAS
setting.
"""

import os
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dflsim
from dflsim import cli, harness
from dflsim.cli import blas_info, main, set_blas_threads
from dflsim.harness import LrSchedule, RunConfig, csv_lines, run_averaged, sweep, sweep_cells
from dflsim.topology import RING, TopologySpec

TINY = [
    "--clients", "4", "--dim", "8", "--samples", "40", "--rounds", "10",
    "--batch-size", "5", "--repeats", "2", "--seed", "3", "--lr0", "0.05",
]


# numpy's wheels link scipy-openblas, whose thread count the CLI sets
needs_openblas = pytest.mark.skipif(blas_info().threads is None,
                                    reason="the BLAS thread count cannot be read")


def config(**overrides):
    base = dict(algorithm="fednmut", topology=TopologySpec(RING, 4), d=10, m=80, rounds=20,
                lr=LrSchedule(eta0=0.05), noise_variance=0.005, batch_size=8, repeats=3,
                master_seed=5)
    return RunConfig(**{**base, **overrides})


def package_env(**extra):
    env = dict(os.environ, **extra)
    src = str(Path(dflsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture
def fork_calls(monkeypatch):
    """Count forks: the returned list grows by one per os.fork call in this process."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture
def one_blas_thread():
    """Run the test at one BLAS thread, as the CLI does, and restore the count after it."""
    threads = blas_info().threads
    if threads is None:
        pytest.skip("the BLAS thread count cannot be read")
    set_blas_threads(1)
    yield
    set_blas_threads(threads)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBlasInfo:
    @needs_openblas
    def test_reads_the_thread_count_the_environment_sets(self):
        code = "from dflsim.cli import blas_info; print(blas_info())"
        proc = subprocess.run([sys.executable, "-c", code], env=package_env(OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.strip().endswith("threads=1)")
        assert "None" not in proc.stdout

    @needs_openblas
    def test_reads_back_what_the_setter_sets(self):
        original = blas_info().threads
        other = 1 if original != 1 else 2
        try:
            assert set_blas_threads(other)
            assert blas_info().threads == other
        finally:
            assert set_blas_threads(original)
        assert blas_info().threads == original

    def test_symbols_patched_away_read_none_and_the_cli_runs_sequentially(
        self, tmp_path, monkeypatch, fork_calls
    ):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: types.SimpleNamespace())
        assert blas_info() == (None, None, None, None)
        assert not set_blas_threads(1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        assert main(["sweep", "--mu", "0.01,0.02", *TINY, "--out", str(tmp_path)]) == 0
        assert fork_calls == []
        assert len((tmp_path / "manifest.csv").read_text(encoding="utf-8").splitlines()) == 3


class TestForkedItems:
    def test_forked_run_equals_sequential_run(self, one_blas_thread, fork_calls):
        sequential = csv_lines(run_averaged(config(), processes=1))
        assert fork_calls == []
        assert csv_lines(run_averaged(config(), processes=3)) == sequential
        assert len(fork_calls) == 2
        assert_no_child_left()

    def test_forked_sweep_equals_sequential_sweep(self, tmp_path, one_blas_thread, fork_calls):
        cells = sweep_cells(config(repeats=2), {"algorithm": ["fedndl1", "fednmut"],
                                                "noise_variance": [0.0, 0.005]})
        assert sweep(cells, tmp_path / "one") == sweep(cells, tmp_path / "forked", processes=3)
        assert len(fork_calls) == 2
        names = sorted(os.listdir(tmp_path / "one"))
        assert "manifest.csv" in names and len(names) == 5
        assert sorted(os.listdir(tmp_path / "forked")) == names
        for name in names:
            assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
        assert_no_child_left()

    # items in order: (mu0.01, 0) (mu0.01, 1) (mu0.02, 0) (mu0.02, 1), on 4 workers
    @needs_openblas
    @pytest.mark.parametrize("cell, repeat", [("fednmut_full_var0_mu0.01", 0),
                                              ("fednmut_full_var0_mu0.01", 1),
                                              ("fednmut_full_var0_mu0.02", 1)],
                             ids=["this-process", "first-child", "last-child"])
    def test_failing_item_fails_the_command_naming_it(self, tmp_path, monkeypatch, fork_calls,
                                                      cell, repeat):
        run_detailed = harness.run_detailed

        def failing(config, repeat_index):
            if harness.cell_id(config) == cell and repeat_index == repeat:
                raise ValueError("raised inside the item")
            return run_detailed(config, repeat_index)

        monkeypatch.setattr(harness, "run_detailed", failing)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=f"cell {cell} repeat {repeat} failed: "
                                               "ValueError: raised inside the item"):
            main(["sweep", "--mu", "0.01,0.02", *TINY, "--out", str(tmp_path)])
        assert len(fork_calls) == 3
        assert_no_child_left()
        assert not (tmp_path / "manifest.csv").exists()

    def test_child_killed_mid_item_fails_naming_its_items(self, monkeypatch, fork_calls):
        run_detailed, parent = harness.run_detailed, os.getpid()

        def dying(config, repeat_index):
            if repeat_index == 1 and os.getpid() != parent:  # the first child's one item
                os.kill(os.getpid(), signal.SIGKILL)
            return run_detailed(config, repeat_index)

        monkeypatch.setattr(harness, "run_detailed", dying)
        with pytest.raises(RuntimeError, match=r"\(cell fednmut_ring_var0.005_mu0.02 repeat 1\) "
                                               "sent nothing"):
            run_averaged(config(), processes=3)
        assert len(fork_calls) == 2
        assert_no_child_left()

    @needs_openblas
    def test_main_runs_at_one_blas_thread_and_restores_the_count(self, tmp_path, monkeypatch):
        seen = []
        run_detailed = harness.run_detailed

        def recording(config, repeat_index):
            seen.append(blas_info().threads)
            return run_detailed(config, repeat_index)

        monkeypatch.setattr(harness, "run_detailed", recording)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # every item in this process
        original = blas_info().threads
        assert main(["run", *TINY, "--out", str(tmp_path)]) == 0
        assert seen == [1, 1]
        assert blas_info().threads == original

    def test_output_and_exit_hooks_run_once(self, tmp_path):
        # stdout is a pipe, so block-buffered: the unflushed write and the
        # exit hook would show twice if a child flushed or ran them
        code = (
            "import atexit, sys\n"
            "from dflsim import cli\n"
            "cli._usable_cpus = lambda: 2\n"
            "atexit.register(print, 'exit hook')\n"
            "sys.stdout.write('before main\\n')\n"
            f"sys.exit(cli.main(['sweep', '--mu', '0.01,0.02', *{TINY!r}, '--out', {str(tmp_path)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "before main", f"wrote 2 cells + manifest.csv under {tmp_path}", "exit hook"
        ]
        err = proc.stderr.splitlines()
        assert len(err) == 2 and all(line.startswith("dflsim: fednmut_full_var0_mu0.0") for line in err)


@needs_openblas
@pytest.mark.parametrize("cpus, command, forks", [
    (1, ["run", "--repeats", "3"], 0),  # one usable CPU: no fork
    (2, ["run", "--repeats", "1"], 0),  # one item: no fork
    (2, ["run", "--repeats", "3"], 2),  # one process per item
    (2, ["sweep", "--mu", "0.01,0.02", "--noise-var", "0,0.005", "--repeats", "2"], 3),  # 2 x CPUs
    (3, ["sweep", "--mu", "0.01,0.02", "--noise-var", "0,0.005", "--repeats", "2"], 5),
])
def test_process_count_is_one_per_item_up_to_two_per_cpu(tmp_path, monkeypatch, fork_calls,
                                                          cpus, command, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    assert main([command[0], *TINY, *command[1:], "--out", str(tmp_path)]) == 0
    assert len(fork_calls) == forks
    assert_no_child_left()


def test_no_fork_where_os_has_none(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["run", *TINY, "--repeats", "3", "--out", str(tmp_path)]) == 0


def test_library_calls_stay_sequential(tmp_path, fork_calls):
    run_averaged(config())
    sweep(sweep_cells(config(repeats=2), {"mu": [0.01, 0.02]}), tmp_path)
    assert fork_calls == []
