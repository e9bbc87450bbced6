"""Forked work items and the BLAS thread count: harness._per_repeat.

run_averaged and sweep run their items one after another at the caller's
BLAS setting by default. With parallel=True, which the CLI passes, they run
them at one BLAS thread over forked processes and restore the caller's
count after them.
"""

import os
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dflsim
from dflsim import harness
from dflsim.cli import main
from dflsim.harness import (LrSchedule, RunConfig, blas_info, csv_lines, run_averaged,
                            set_blas_threads, sweep, sweep_cells)
from dflsim.topology import RING, TopologySpec

TINY = [
    "--clients", "4", "--dim", "8", "--samples", "40", "--rounds", "10",
    "--batch-size", "5", "--repeats", "2", "--seed", "3", "--lr0", "0.05",
]


# numpy's wheels link scipy-openblas, whose thread count parallel=True sets
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
    """Run the test at one BLAS thread, as parallel=True does, and restore the count after it."""
    threads = blas_info().threads
    if threads is None:
        pytest.skip("the BLAS thread count cannot be read")
    set_blas_threads(1)
    yield
    set_blas_threads(threads)


@pytest.fixture
def two_blas_threads():
    """Run the test at two BLAS threads, a count that one cannot pass for, and restore the count."""
    threads = blas_info().threads
    if threads is None:
        pytest.skip("the BLAS thread count cannot be read")
    set_blas_threads(2)
    yield 2
    set_blas_threads(threads)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def recording_threads(monkeypatch, fail_at=None):
    """Patch run_detailed to record the BLAS thread count of each item, raising at repeat fail_at."""
    seen = []
    run_detailed = harness.run_detailed

    def recording(config, repeat_index):
        seen.append(blas_info().threads)
        if repeat_index == fail_at:
            raise ValueError("raised inside the item")
        return run_detailed(config, repeat_index)

    monkeypatch.setattr(harness, "run_detailed", recording)
    return seen


class TestBlasInfo:
    @needs_openblas
    def test_reads_the_thread_count_the_environment_sets(self):
        code = "from dflsim.harness import blas_info; print(blas_info())"
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
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda path: types.SimpleNamespace())
        assert blas_info() == (None, None, None, None)
        assert not set_blas_threads(1)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        assert main(["sweep", "--mu", "0.01,0.02", *TINY, "--out", str(tmp_path)]) == 0
        assert fork_calls == []
        assert len((tmp_path / "manifest.csv").read_text(encoding="utf-8").splitlines()) == 3


class TestForkedItems:
    def test_forked_run_equals_sequential_run(self, monkeypatch, one_blas_thread, fork_calls):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # 3 items on 3 workers
        sequential = csv_lines(run_averaged(config()))
        assert fork_calls == []
        assert csv_lines(run_averaged(config(), parallel=True)) == sequential
        assert len(fork_calls) == 2
        assert_no_child_left()

    def test_forked_sweep_equals_sequential_sweep(self, tmp_path, monkeypatch, one_blas_thread,
                                                  fork_calls):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # 4 items on 4 workers
        cells = sweep_cells(config(repeats=2), {"algorithm": ["fedndl1", "fednmut"],
                                                "noise_variance": [0.0, 0.005]})
        assert sweep(cells, tmp_path / "one") == sweep(cells, tmp_path / "forked", parallel=True)
        assert len(fork_calls) == 3
        names = sorted(os.listdir(tmp_path / "one"))
        assert "manifest.csv" in names and len(names) == 5
        assert sorted(os.listdir(tmp_path / "forked")) == names
        for name in names:
            assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
        assert_no_child_left()

    # sweep's items in order: (mu0.01, 0) (mu0.01, 1) (mu0.02, 0) (mu0.02, 1), on 4 workers at
    # 2 CPUs; at 1 CPU, and for run's one item, every item runs in this process
    @needs_openblas
    @pytest.mark.parametrize("cpus, command, cell, repeat, forks", [
        (2, ["sweep", "--mu", "0.01,0.02"], "fednmut_full_var0_mu0.01", 0, 3),
        (2, ["sweep", "--mu", "0.01,0.02"], "fednmut_full_var0_mu0.01", 1, 3),
        (2, ["sweep", "--mu", "0.01,0.02"], "fednmut_full_var0_mu0.02", 1, 3),
        (1, ["sweep", "--mu", "0.01,0.02"], "fednmut_full_var0_mu0.02", 1, 0),
        (2, ["run", "--repeats", "1"], "fednmut_full_var0_mu0.02", 0, 0),
    ], ids=["this-process", "first-child", "last-child", "one-cpu", "one-item"])
    def test_failing_item_fails_the_command_naming_it(self, tmp_path, monkeypatch, fork_calls,
                                                      cpus, command, cell, repeat, forks):
        run_detailed = harness.run_detailed

        def failing(config, repeat_index):
            if harness.cell_id(config) == cell and repeat_index == repeat:
                raise ValueError("raised inside the item")
            return run_detailed(config, repeat_index)

        monkeypatch.setattr(harness, "run_detailed", failing)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        with pytest.raises(RuntimeError, match=f"cell {cell} repeat {repeat} failed: "
                                               "ValueError: raised inside the item"):
            main([command[0], *TINY, *command[1:], "--out", str(tmp_path)])
        assert len(fork_calls) == forks
        assert_no_child_left()
        assert not (tmp_path / "manifest.csv").exists()

    def test_failing_item_of_a_library_call_is_named(self, monkeypatch, fork_calls):
        recording_threads(monkeypatch, fail_at=1)
        with pytest.raises(RuntimeError, match="cell fednmut_ring_var0.005_mu0.02 repeat 1 failed: "
                                               "ValueError: raised inside the item"):
            run_averaged(config())
        assert fork_calls == []
        assert_no_child_left()

    @needs_openblas
    def test_child_killed_mid_item_fails_naming_its_items(self, monkeypatch, fork_calls):
        run_detailed, parent = harness.run_detailed, os.getpid()

        def dying(config, repeat_index):
            if repeat_index == 1 and os.getpid() != parent:  # the first child's one item
                os.kill(os.getpid(), signal.SIGKILL)
            return run_detailed(config, repeat_index)

        monkeypatch.setattr(harness, "run_detailed", dying)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # 3 items on 3 workers
        with pytest.raises(RuntimeError, match=r"\(cell fednmut_ring_var0.005_mu0.02 repeat 1\) "
                                               "sent nothing"):
            run_averaged(config(), parallel=True)
        assert len(fork_calls) == 2
        assert_no_child_left()

    def test_main_runs_at_one_blas_thread_and_restores_the_count(self, tmp_path, monkeypatch,
                                                                 two_blas_threads):
        seen = recording_threads(monkeypatch)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # every item in this process
        assert main(["run", *TINY, "--out", str(tmp_path)]) == 0
        assert seen == [1, 1]
        assert blas_info().threads == two_blas_threads

    @pytest.mark.parametrize("fail_at", [None, 1], ids=["returns", "raises"])
    def test_parallel_call_restores_the_callers_thread_count(self, monkeypatch, two_blas_threads,
                                                             fail_at):
        seen = recording_threads(monkeypatch, fail_at)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # every item in this process
        if fail_at is None:
            run_averaged(config(), parallel=True)
        else:
            with pytest.raises(RuntimeError, match="cell fednmut_ring_var0.005_mu0.02 repeat 1"):
                run_averaged(config(), parallel=True)
        assert seen and set(seen) == {1}
        assert blas_info().threads == two_blas_threads

    def test_output_and_exit_hooks_run_once(self, tmp_path):
        # stdout is a pipe, so block-buffered: the unflushed write and the
        # exit hook would show twice if a child flushed or ran them
        code = (
            "import atexit, sys\n"
            "from dflsim import cli, harness\n"
            "harness._usable_cpus = lambda: 2\n"
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
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    assert main([command[0], *TINY, *command[1:], "--out", str(tmp_path)]) == 0
    assert len(fork_calls) == forks
    assert_no_child_left()


def test_no_fork_where_os_has_none(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert main(["run", *TINY, "--repeats", "3", "--out", str(tmp_path)]) == 0


def test_library_calls_stay_sequential(tmp_path, monkeypatch, fork_calls):
    seen = recording_threads(monkeypatch)
    threads = blas_info().threads
    run_averaged(config())
    sweep(sweep_cells(config(repeats=2), {"mu": [0.01, 0.02]}), tmp_path)
    assert fork_calls == []
    assert seen == [threads] * 7  # every item at the caller's count
    assert blas_info().threads == threads
