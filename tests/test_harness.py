"""Schedules, runs, averaging, rate fit, sweeps."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim.harness import (
    DegenerateSeriesError,
    LrSchedule,
    RunConfig,
    cell_id,
    csv_lines,
    eta_at,
    rate_fit,
    run_averaged,
    run_detailed,
    run_single,
    sweep,
)
from dflsim.topology import FULLY_CONNECTED, RING, TopologySpec

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def small_config(**overrides):
    base = dict(
        algorithm="fedndl3",
        topology=TopologySpec(RING, 4),
        d=10,
        m=80,
        rounds=30,
        lr=LrSchedule(eta0=0.05, gamma=0.9, decay_interval=10),
        mu=0.02,
        noise_variance=0.005,
        lam=1e-4,
        batch_size=8,
        repeats=2,
        master_seed=5,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestSchedule:
    def test_initial_step(self):
        assert eta_at(LrSchedule(), 0) == 0.2

    def test_per_round_decay(self):
        assert eta_at(LrSchedule(eta0=0.2, gamma=0.9, decay_interval=1), 2) == pytest.approx(0.162)

    def test_constant_when_gamma_one(self):
        sched = LrSchedule(eta0=0.2, gamma=1.0, decay_interval=1)
        assert {eta_at(sched, t) for t in range(100)} == {0.2}

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            eta_at(LrSchedule(), -1)

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(0, 10_000), k=st.integers(1, 50))
    def test_formula(self, t, k):
        sched = LrSchedule(eta0=0.3, gamma=0.95, decay_interval=k)
        assert eta_at(sched, t) == pytest.approx(0.3 * 0.95 ** (t // k))

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            LrSchedule(eta0=0.0)
        with pytest.raises(ValueError):
            LrSchedule(gamma=0.0)
        with pytest.raises(ValueError):
            LrSchedule(gamma=1.5)
        with pytest.raises(ValueError):
            LrSchedule(decay_interval=0)


class TestRunSingle:
    @pytest.mark.parametrize("algorithm", ["fedndl1", "fedndl2", "fedndl3", "fednmut"])
    def test_deterministic_per_repeat(self, algorithm):
        config = small_config(algorithm=algorithm, rounds=12)
        a = run_single(config, 0)
        b = run_single(config, 0)
        assert [(m.round, m.eta, m.loss, m.consensus_error, m.grad_norm_sq) for m in a] == [
            (m.round, m.eta, m.loss, m.consensus_error, m.grad_norm_sq) for m in b
        ]

    def test_repeats_differ_through_streams(self):
        config = small_config(rounds=12)
        a = run_single(config, 0)
        b = run_single(config, 1)
        assert a[0].loss == b[0].loss  # shared initial point
        assert a[-1].loss != b[-1].loss

    def test_single_round_yields_init_plus_one_row(self):
        rows = run_single(small_config(rounds=1), 0)
        assert [m.round for m in rows] == [-1, 0]

    def test_rows_cover_all_rounds(self):
        rows = run_single(small_config(rounds=7), 0)
        assert [m.round for m in rows] == list(range(-1, 7))
        assert rows[3].eta == eta_at(small_config().lr, 2)

    def test_bias_series_only_for_tracking(self):
        assert run_detailed(small_config(rounds=5), 0).bias_sq == []
        tracked = run_detailed(small_config(algorithm="fednmut", rounds=5), 0)
        assert len(tracked.bias_sq) == 5

    def test_single_client_tracking_equals_gradient_gossip(self):
        # n = 1 collapses both rules to plain SGD on the same stream
        base = dict(topology=TopologySpec(FULLY_CONNECTED, 1), rounds=50, noise_variance=0.0, repeats=1)
        a = run_single(small_config(algorithm="fednmut", mu=0.0, **base), 0)
        b = run_single(small_config(algorithm="fedndl3", **base), 0)
        for ra, rb in zip(a, b):
            assert abs(ra.loss - rb.loss) <= 1e-10 * max(1.0, abs(rb.loss))

    def test_fedndl1_equals_fedndl3_at_full_mixing_noise_free(self):
        # from a consensus start with full mixing both rules apply the same
        # averaged-gradient step, batch streams included
        base = dict(
            topology=TopologySpec(FULLY_CONNECTED, 8),
            rounds=50,
            noise_variance=0.0,
            repeats=1,
            x0_mode="shared_random",
        )
        a = run_single(small_config(algorithm="fedndl1", **base), 0)
        b = run_single(small_config(algorithm="fedndl3", **base), 0)
        for ra, rb in zip(a, b):
            assert abs(ra.loss - rb.loss) <= 1e-10 * max(1.0, abs(rb.loss))
            assert abs(ra.grad_norm_sq - rb.grad_norm_sq) <= 1e-8 * max(1.0, rb.grad_norm_sq)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="algorithm"):
            run_single(small_config(algorithm="sgd"), 0)
        with pytest.raises(ValueError, match="rounds"):
            run_single(small_config(rounds=0), 0)
        with pytest.raises(ValueError, match="x0"):
            run_single(small_config(x0_mode="hot"), 0)


class TestRunAveraged:
    def test_single_repeat_mean_is_run_std_zero(self):
        config = small_config(repeats=1, rounds=10)
        avg = run_averaged(config)
        single = run_single(config, 0)
        np.testing.assert_array_equal(avg.loss_mean, [m.loss for m in single])
        assert np.all(avg.loss_std == 0.0)

    def test_deterministic_repeats_have_zero_std(self):
        # noise off and full-batch gradients leave nothing repeat-specific
        config = small_config(noise_variance=0.0, batch_size=100, repeats=3, rounds=10)
        avg = run_averaged(config)
        assert np.all(avg.loss_std == 0.0)
        assert np.all(avg.consensus_error_std == 0.0)

    def test_mean_between_min_and_max(self):
        config = small_config(repeats=3, rounds=15)
        avg = run_averaged(config)
        losses = np.array([[m.loss for m in rep] for rep in avg.per_repeat])
        assert np.all(avg.loss_mean <= losses.max(axis=0) + 1e-15)
        assert np.all(avg.loss_mean >= losses.min(axis=0) - 1e-15)


class TestRateFit:
    def test_inverse_sqrt_series(self):
        # increments of c*sqrt(T) make the running average exactly c/sqrt(T)
        c = 3.7
        sums = c * np.sqrt(np.arange(1, 301))
        series = np.diff(np.concatenate([[0.0], sums]))
        assert rate_fit(series) == pytest.approx(-0.5, abs=1e-6)

    def test_inverse_t_series(self):
        series = np.zeros(200)
        series[0] = 5.0  # running average = 5/T
        assert rate_fit(series) == pytest.approx(-1.0, abs=1e-6)

    def test_constant_series(self):
        assert rate_fit(np.full(100, 2.5)) == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            rate_fit(np.zeros(100))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="50"):
            rate_fit(np.ones(49))


class TestSweep:
    def test_empty_axes_single_cell(self, tmp_path):
        template = small_config(rounds=6, repeats=1)
        rows = sweep(template, {}, tmp_path)
        assert len(rows) == 1
        assert rows[0]["cell_id"] == cell_id(template)
        assert (tmp_path / rows[0]["csv_path"]).exists()
        assert (tmp_path / "manifest.csv").exists()

    def test_grid_structure(self, tmp_path):
        template = small_config(rounds=5, repeats=1)
        rows = sweep(
            template,
            {"algorithm": ["fedndl1", "fedndl3"], "noise_variance": [0.0, 0.005]},
            tmp_path,
        )
        assert len(rows) == 4
        ids = {r["cell_id"] for r in rows}
        assert len(ids) == 4
        manifest = (tmp_path / "manifest.csv").read_text(encoding="utf-8").splitlines()
        assert manifest[0] == "cell_id,algorithm,topology,noise_var,mu,seed_list,csv_path"
        assert len(manifest) == 5

    def test_rerun_is_byte_identical(self, tmp_path):
        template = small_config(rounds=8, repeats=2)
        axes = {"noise_variance": [0.0, 0.005]}
        first = tmp_path / "a"
        second = tmp_path / "b"
        sweep(template, axes, first)
        sweep(template, axes, second)
        for name in sorted(os.listdir(first)):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="axis"):
            sweep(small_config(), {"rounds": [1, 2]}, tmp_path)

    def test_full_grid_has_36_cells(self, tmp_path):
        # the full algorithm x topology x noise grid at toy scale
        template = small_config(
            topology=TopologySpec(RING, 9), d=6, m=45, rounds=3, repeats=1, batch_size=4
        )
        rows = sweep(
            template,
            {
                "algorithm": ["fedndl1", "fedndl2", "fedndl3", "fednmut"],
                "topology": ["ring", "torus", "fully_connected"],
                "noise_variance": [0.0, 0.005, 0.01],
            },
            tmp_path,
        )
        assert len(rows) == 36
        assert len({r["cell_id"] for r in rows}) == 36
        assert all((tmp_path / r["csv_path"]).exists() for r in rows)

    @pytest.mark.parametrize("mus", [[0.02, 0.02], [0.02, 0.05, 0.0200000001]])
    def test_colliding_cell_ids_rejected_before_any_cell(self, tmp_path, mus):
        # cell_id formats mu with :g, so values equal to 6 digits collide
        template = small_config(algorithm="fednmut", rounds=4, repeats=1)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"share cell_id .*: mu=0\.02 vs 0\.02"):
            sweep(template, {"mu": mus}, out)
        assert not out.exists()

    def test_mu_axis_sweep(self, tmp_path):
        template = small_config(algorithm="fednmut", rounds=4, repeats=1, noise_variance=0.0)
        rows = sweep(template, {"mu": [0.0, 0.02, 0.05]}, tmp_path)
        assert [float(r["mu"]) for r in rows] == [0.0, 0.02, 0.05]


class TestCsv:
    def test_header_and_round_trip_floats(self):
        avg = run_averaged(small_config(rounds=4, repeats=2))
        lines = csv_lines(avg)
        assert lines[0] == (
            "round,eta,loss_mean,loss_std,consensus_error_mean,consensus_error_std,"
            "grad_norm_sq_mean,grad_norm_sq_std,loss_local_avg_mean"
        )
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert first[0] == "-1"
        assert float(first[2]) == avg.loss_mean[0]  # 17 significant digits round-trip
