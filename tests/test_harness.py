"""Schedules, runs, averaging, rate fit, sweeps."""

import dataclasses
import itertools
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import data, harness, objective
from dflsim.channel import (
    PURPOSE_CHANNEL_NOISE,
    PURPOSE_DATA_BATCH,
    PURPOSE_INIT,
    derive_stream,
    sample_noise,
)
from dflsim.harness import (
    CSV_COLUMNS,
    DegenerateSeriesError,
    LrSchedule,
    RunConfig,
    bound_sanity,
    cell_id,
    csv_lines,
    eta_at,
    rate_fit,
    run_averaged,
    run_detailed,
    sweep,
    sweep_cells,
)
from dflsim.data import Problem, generate, partition_iid
from dflsim.metrics import measure_block
from dflsim.objective import batch_gradients
from dflsim.theory_checks import (
    estimate_smoothness,
    estimate_zeta_sq,
    smoothness_lower_bound,
    step_size_cap,
    tracking_condition,
)
from dflsim.topology import FULLY_CONNECTED, RING, TORUS, TopologySpec, build_mixing
from oracles import client_picks, metrics_row, stochastic_gradient, tiny_dataset

BLOCK = harness.METRICS_BLOCK


@pytest.fixture
def no_setup(monkeypatch):
    """Fail the test if set-up (generate) starts."""

    def fail(*args):
        raise AssertionError("set-up ran before validation")

    monkeypatch.setattr(harness, "generate", fail)


def problem_of(config):
    """The Problem _setup builds for config."""
    dataset = generate(config.m, config.d, config.label_noise_variance, config.master_seed)
    return Problem(dataset, partition_iid(dataset, config.n), config.lam)


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

    def test_step_size_that_underflows_rejected_before_setup(self, no_setup):
        # 0.01 * 0.5**k is 0.0 in floating point from k = 1069 on
        lr = LrSchedule(eta0=0.01, gamma=0.5, decay_interval=1)
        config = small_config(lr=lr, rounds=1069)
        message = r"^step size underflows to 0 by round 1069: LrSchedule\(eta0=0.01, gamma=0.5,"
        with pytest.raises(ValueError, match=message):
            small_config(lr=lr, rounds=1070)
        with pytest.raises(ValueError, match=message):
            replace(config, rounds=1070)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            LrSchedule(eta0=0.0)
        with pytest.raises(ValueError):
            LrSchedule(gamma=0.0)
        with pytest.raises(ValueError):
            LrSchedule(gamma=1.5)
        with pytest.raises(ValueError):
            LrSchedule(decay_interval=0)

    def test_config_and_schedule_are_frozen(self):
        # a field set after the checks could hold what they reject (gamma = 3 diverges)
        config = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.lr.gamma = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.rounds = 0
        assert config == small_config()


class TestRunSingle:
    @pytest.mark.parametrize("algorithm", ["fedndl1", "fedndl2", "fedndl3", "fednmut"])
    def test_deterministic_per_repeat(self, algorithm):
        config = small_config(algorithm=algorithm, rounds=12)
        a = run_detailed(config, 0).metrics
        b = run_detailed(config, 0).metrics
        names = ("round", "eta", "loss", "consensus_error", "grad_norm_sq")
        assert [a[name].tolist() for name in names] == [b[name].tolist() for name in names]

    def test_repeats_differ_through_streams(self):
        config = small_config(rounds=12)
        a = run_detailed(config, 0).metrics
        b = run_detailed(config, 1).metrics
        assert a["loss"][0] == b["loss"][0]  # shared initial point
        assert a["loss"][-1] != b["loss"][-1]

    def test_single_round_yields_init_plus_one_row(self):
        rows = run_detailed(small_config(rounds=1), 0).metrics
        assert rows["round"].tolist() == [-1, 0]

    def test_rows_cover_all_rounds(self):
        rows = run_detailed(small_config(rounds=7), 0).metrics
        assert rows["round"].tolist() == list(range(-1, 7))
        assert rows["eta"][3] == eta_at(small_config().lr, 2)

    def test_bias_series_only_for_tracking(self):
        assert run_detailed(small_config(rounds=5), 0).bias_sq == []
        tracked = run_detailed(small_config(algorithm="fednmut", rounds=5), 0)
        assert len(tracked.bias_sq) == 5

    def test_single_client_tracking_equals_gradient_gossip(self):
        # n = 1 collapses both rules to plain SGD on the same stream
        base = dict(topology=TopologySpec(FULLY_CONNECTED, 1), rounds=50, noise_variance=0.0, repeats=1)
        a = run_detailed(small_config(algorithm="fednmut", mu=0.0, **base), 0).metrics
        b = run_detailed(small_config(algorithm="fedndl3", **base), 0).metrics
        for la, lb in zip(a["loss"], b["loss"]):
            assert abs(la - lb) <= 1e-10 * max(1.0, abs(lb))

    def test_fedndl1_equals_fedndl3_at_full_mixing_noise_free(self):
        # from a consensus start with full mixing both rules apply the same
        # averaged-gradient step, batch streams included
        base = dict(
            topology=TopologySpec(FULLY_CONNECTED, 8),
            rounds=50,
            noise_variance=0.0,
            repeats=1,
            x0_mode="shared",
        )
        a = run_detailed(small_config(algorithm="fedndl1", **base), 0).metrics
        b = run_detailed(small_config(algorithm="fedndl3", **base), 0).metrics
        for la, lb, ga, gb in zip(a["loss"], b["loss"], a["grad_norm_sq"], b["grad_norm_sq"]):
            assert abs(la - lb) <= 1e-10 * max(1.0, abs(lb))
            assert abs(ga - gb) <= 1e-8 * max(1.0, gb)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("noise_variance", [0.0, 0.005])
    def test_fedndl3_keeps_the_start_disagreement_on_the_full_graph(self, n, noise_variance):
        # X' = X - eta (G + delta) W never mixes X: on the full graph every
        # client takes the same step, so the deviations from the mean stay put
        config = small_config(topology=TopologySpec(FULLY_CONNECTED, n), rounds=40,
                              noise_variance=noise_variance, repeats=1, x0_mode="independent")
        consensus = run_detailed(config, 0).metrics["consensus_error"]
        np.testing.assert_allclose(consensus, consensus[0], rtol=1e-12, atol=0)

    def test_fedndl3_moves_the_start_disagreement_on_a_ring(self):
        config = small_config(topology=TopologySpec(RING, 8), rounds=40, repeats=1,
                              x0_mode="independent")
        consensus = run_detailed(config, 0).metrics["consensus_error"]
        assert consensus[-1] > 1.5 * consensus[0]  # 6.49 -> 15.35 at this config

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="algorithm"):
            run_detailed(small_config(algorithm="sgd"), 0)
        with pytest.raises(ValueError, match="rounds"):
            run_detailed(small_config(rounds=0), 0)
        with pytest.raises(ValueError, match="x0"):
            run_detailed(small_config(x0_mode="hot"), 0)

    @pytest.mark.parametrize(
        "overrides, condition, outside",
        [
            (dict(lr=LrSchedule(eta0=1.0)), "step size", True),
            (dict(lr=LrSchedule(eta0=1e-4)), "step size", False),
            (dict(algorithm="fednmut", topology=TopologySpec(RING, 8), mu=0.02), "tracking", True),
            (dict(algorithm="fedndl1", topology=TopologySpec(RING, 8), mu=0.02), "tracking", False),
        ],
        ids=["eta0-above-cap", "eta0-below-cap", "fednmut-mu", "fedndl1-mu"],
    )
    def test_outside_theory_warnings(self, overrides, condition, outside):
        # the regime record tells a run outside the analysis; the run itself raises nothing
        config = small_config(rounds=3, **overrides)
        regime = harness.analysis_regime(config)
        losses = run_detailed(config, 0).metrics["loss"]
        if condition == "step size":
            assert (regime["eta0"] > regime["eta_cap"]) == outside
        else:
            # mu/(1-mu) <= rho/42 bounds the mu of a run that reads it
            reads_mu = not np.array_equal(
                losses, run_detailed(replace(config, mu=0.0), 0).metrics["loss"]
            )
            assert (regime["mu_ratio"] > regime["mu_limit"] and reads_mu) == outside

    @pytest.mark.parametrize("kind", [RING, TORUS, FULLY_CONNECTED])
    def test_analysis_regime_reads_the_lower_bound_and_the_mixing(self, monkeypatch, kind):
        monkeypatch.setattr(harness, "estimate_smoothness", None)  # a call would fail
        config = small_config(algorithm="fednmut", topology=TopologySpec(kind, 9), mu=0.01)
        lower = smoothness_lower_bound(problem_of(config))
        rho = build_mixing(config.topology).rho
        mu_ratio, mu_limit = tracking_condition(0.01, rho)
        assert harness.analysis_regime(config) == {
            "L_lo": lower,
            "rho": rho,
            "eta0": 0.05,
            "eta_cap": step_size_cap(lower, rho),
            "mu_ratio": mu_ratio,
            "mu_limit": mu_limit,
        }

    def test_run_inside_the_lower_bound_cap_computes_no_exact_smoothness(self, monkeypatch):
        config = small_config(algorithm="fednmut", repeats=3, rounds=20)
        eta_cap = harness.analysis_regime(config)["eta_cap"]
        config = replace(config, lr=LrSchedule(eta0=eta_cap / 2))
        calls = []
        monkeypatch.setattr(harness, "estimate_smoothness", lambda *args: calls.append(args))
        run_averaged(config)
        assert calls == []

    def test_bound_sanity_computes_the_exact_smoothness_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return estimate_smoothness(*args)

        monkeypatch.setattr(harness, "estimate_smoothness", counting)
        bound_sanity(small_config(algorithm="fednmut", repeats=3, rounds=60))
        assert len(calls) == 1

    def test_zero_smoothness_is_inside_every_cap(self, monkeypatch):
        # lam = 0 and all-zero features: L_lo = 0, and no cap divides by it
        config = small_config(rounds=2, lam=0.0, noise_variance=0.0)
        zeros = tiny_dataset(np.zeros((config.m, config.d)), np.zeros(config.m))
        monkeypatch.setattr(harness, "generate", lambda *args: zeros)
        regime = harness.analysis_regime(config)
        assert (regime["L_lo"], regime["eta_cap"]) == (0.0, math.inf)
        assert run_detailed(config, 0).metrics["loss"].tolist() == [0.0] * 3


class TestBlockMetrics:
    """Rows are evaluated in padded blocks of METRICS_BLOCK states."""

    @pytest.mark.parametrize("m, n", [(2000, 16), (2001, 16), (1280, 64)])
    def test_rows_match_per_state_measure(self, monkeypatch, m, n):
        states = []

        def recording(S, *args):
            states.extend(S.copy())
            return measure_block(S, *args)

        monkeypatch.setattr(harness, "measure_block", recording)
        config = small_config(
            algorithm="fednmut", topology=TopologySpec(RING, n), d=20, m=m, rounds=BLOCK + 3
        )
        rows = run_detailed(config, 0).metrics
        assert len(states) == 2 * BLOCK  # BLOCK + 4 rows: one full block, one padded
        dataset = generate(m, 20, config.label_noise_variance, config.master_seed)
        shards = partition_iid(dataset, n)
        for t, state in enumerate(states[: rows["round"].size], start=-1):
            row = {name: column[t + 1] for name, column in rows.items()}
            X = state.T.copy()  # C-ordered d x n, as the harness holds it
            loss, consensus, grad_norm_sq, local = metrics_row(X, dataset, config.lam, shards)
            assert (row["round"], row["eta"]) == (t, eta_at(config.lr, max(t, 0)))
            assert row["consensus_error"] == consensus
            np.testing.assert_allclose(
                [row["loss"], row["grad_norm_sq"], row["loss_local_avg"]],
                [loss, grad_norm_sq, local],
                rtol=1e-13,
                atol=0,
            )

    # a run that ends mid-block pads half a block; one of BLOCK - 1 rounds
    # fills its first block exactly, and one of BLOCK spills a row into a second
    @pytest.mark.parametrize(
        "rounds", [1, BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1, BLOCK - 2, BLOCK - 1, BLOCK]
    )
    def test_row_bits_do_not_depend_on_run_length(self, rounds):
        config = small_config(
            algorithm="fednmut", topology=TopologySpec(RING, 16), d=200, m=2001, repeats=1
        )
        full = run_detailed(replace(config, rounds=2 * BLOCK + 1), 0).metrics
        short = run_detailed(replace(config, rounds=rounds), 0).metrics
        assert short["round"].tolist() == list(range(-1, rounds))
        assert {k: v.tolist() for k, v in short.items()} == {
            k: v[: rounds + 1].tolist() for k, v in full.items()
        }


class TestRounds:
    """_rounds steps every run; run_detailed only records what it yields."""

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_yields_the_states_run_detailed_records(self, monkeypatch, algorithm):
        # a ring with channel noise and sampled batches (8 of each client's 20 rows)
        config = small_config(algorithm=algorithm, rounds=BLOCK + 3, repeats=1)
        yielded = list(harness._rounds(config, 1, harness._setup(config)))  # kept without copying
        ts = list(range(-1, config.rounds))
        assert [t for t, *_ in yielded] == ts
        assert [eta for _, eta, *_ in yielded] == [eta_at(config.lr, max(t, 0)) for t in ts]
        assert [B is not None for *_, B in yielded] == [algorithm == "fednmut" and t >= 0 for t in ts]
        assert len({id(X) for _, _, X, _ in yielded}) == len(ts)  # each state its own array

        recorded = []

        def recording(S, problem):
            recorded.extend(S.copy())
            return measure_block(S, problem)

        monkeypatch.setattr(harness, "measure_block", recording)
        result = run_detailed(config, 1)
        assert len(recorded) == 2 * BLOCK  # BLOCK + 4 states: one full block, one padded
        for (t, _, X, _), state in zip(yielded, recorded):
            assert np.array_equal(X.T, state), t
        bias = [B for *_, B in yielded if B is not None]
        assert result.bias_sq == [float((B * B).sum() / config.n) for B in bias]


class TestRunAveraged:
    def test_single_repeat_mean_is_run_std_zero(self):
        config = small_config(repeats=1, rounds=10)
        avg = run_averaged(config)
        single = run_detailed(config, 0).metrics
        np.testing.assert_array_equal(avg.columns["loss_mean"], single["loss"])
        assert np.all(avg.columns["loss_std"] == 0.0)

    def test_deterministic_repeats_have_zero_std(self):
        # noise off and full-batch gradients leave nothing repeat-specific
        config = small_config(noise_variance=0.0, batch_size=100, repeats=3, rounds=10)
        avg = run_averaged(config)
        assert np.all(avg.columns["loss_std"] == 0.0)
        assert np.all(avg.columns["consensus_error_std"] == 0.0)

    def test_mean_between_min_and_max(self):
        config = small_config(repeats=3, rounds=15)
        avg = run_averaged(config)
        losses = np.array([rep["loss"] for rep in avg.per_repeat])
        assert np.all(avg.columns["loss_mean"] <= losses.max(axis=0) + 1e-15)
        assert np.all(avg.columns["loss_mean"] >= losses.min(axis=0) - 1e-15)

    @pytest.mark.parametrize("mu", [-0.1, 1.0, 1.5])
    def test_mu_outside_unit_interval_rejected_before_setup(self, no_setup, mu):
        with pytest.raises(ValueError, match=r"mu must be in \[0, 1\)"):
            run_averaged(small_config(algorithm="fednmut", mu=mu))

    @pytest.mark.parametrize(
        "field, value, message",
        [("lam", -1.0, "lam must be >= 0"), ("batch_size", 0, "batch_size must be >= 1")],
    )
    def test_bad_lam_or_batch_size_rejected_before_setup(self, no_setup, field, value, message):
        with pytest.raises(ValueError, match=message):
            run_averaged(small_config(**{field: value}))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("repeats", 0, "repeats must be >= 1, got 0"),
            ("m", 3, "need at least one sample per client: m=3 < n=4"),
        ],
    )
    def test_no_repeat_or_too_few_samples_rejected_before_setup(self, no_setup, field, value,
                                                                message):
        with pytest.raises(ValueError, match=message):
            run_averaged(small_config(**{field: value}))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("d", 0, "d must be >= 1, got 0"),
            ("master_seed", -1, r"master_seed must be in \[0, 2\*\*64\), got -1"),
            ("master_seed", 2**64 + 5, r"master_seed must be in \[0, 2\*\*64\)"),
        ],
    )
    def test_bad_dim_noise_or_seed_rejected_before_setup(self, no_setup, field, value, message):
        with pytest.raises(ValueError, match=message):
            run_averaged(small_config(**{field: value}))

    def test_label_noise_is_a_class_constant_not_a_field(self):
        assert "label_noise_variance" not in {f.name for f in dataclasses.fields(RunConfig)}
        assert RunConfig().label_noise_variance == RunConfig.label_noise_variance == 0.05
        with pytest.raises(TypeError, match="label_noise_variance"):
            RunConfig(label_noise_variance=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, call",
        [
            ("eta0", lambda v: LrSchedule(eta0=v)),
            ("lam", lambda v: run_averaged(small_config(lam=v))),
            ("noise_variance", lambda v: run_averaged(small_config(noise_variance=v))),
            ("label_noise_variance", lambda v: data.generate(10, 2, v, 0)),
        ],
        ids=["eta0", "lam", "noise_variance", "generate"],
    )
    def test_non_finite_value_rejected_before_setup(self, no_setup, field, call, value):
        with pytest.raises(ValueError, match=rf"^{field} must be >=? 0 and finite, got {value}$"):
            call(value)

    @pytest.mark.parametrize("algorithm", ["fedndl1", "fedndl2", "fedndl3"])
    def test_bound_sanity_rejects_other_rules_before_setup(self, no_setup, algorithm):
        with pytest.raises(ValueError, match=f"fednmut config, got algorithm '{algorithm}'"):
            bound_sanity(small_config(algorithm=algorithm, rounds=60))

    @pytest.mark.parametrize("value", [5.0, 5.5, True], ids=["integral-float", "float", "bool"])
    @pytest.mark.parametrize(
        "field, build",
        [
            *[
                (name, lambda v, name=name: small_config(**{name: v}))
                for name in ("d", "m", "rounds", "repeats", "batch_size", "master_seed")
            ],
            ("decay_interval", lambda v: LrSchedule(decay_interval=v)),
            ("n", lambda v: TopologySpec(RING, v)),
        ],
        ids=["d", "m", "rounds", "repeats", "batch_size", "master_seed", "decay_interval", "n"],
    )
    def test_integer_field_rejects_non_integer_when_built(self, no_setup, field, build, value):
        with pytest.raises(TypeError, match=rf"^{field} must be an integer, got {value!r}$"):
            build(value)

    def test_numpy_integer_fields_run_as_python_ints(self):
        counts = dict(d=10, m=80, rounds=5, repeats=2, batch_size=8, master_seed=5)
        expected = run_averaged(small_config(**counts)).columns
        harness._problem.cache_clear()  # set-up, too, sees the numpy integers
        config = small_config(
            **{name: np.int64(value) for name, value in counts.items()},
            topology=TopologySpec(RING, np.int64(4)),
            lr=LrSchedule(eta0=0.05, gamma=0.9, decay_interval=np.int64(10)),
        )
        columns = run_averaged(config).columns
        assert {k: v.tolist() for k, v in columns.items()} == {
            k: v.tolist() for k, v in expected.items()
        }

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_every_column_is_the_mean_or_std_of_the_repeats(self, repeats):
        config = small_config(algorithm="fednmut", repeats=repeats, rounds=12)
        runs = [run_detailed(config, r).metrics for r in range(repeats)]
        avg = run_averaged(config)
        written = np.array([line.split(",") for line in csv_lines(avg)[1:]], dtype=float).T
        for column, values in zip(CSV_COLUMNS, written):
            name, _, stat = column.rpartition("_")
            vals = np.array([run[name or column] for run in runs])
            if stat == "mean":
                expected = vals.mean(axis=0)
            elif stat == "std":
                agree = np.all(vals == vals[0], axis=0)
                assert agree[0]  # the shared initial point
                assert repeats == 1 or not agree.all()
                expected = np.zeros(vals.shape[1])
                if repeats > 1:
                    expected[~agree] = vals.std(axis=0, ddof=1)[~agree]
            else:  # round and eta, the same in every repeat
                assert np.all(vals == vals[0])
                expected = vals[0]
            assert values.tolist() == expected.tolist(), column
            assert avg.columns[column].tolist() == expected.tolist(), column

    def test_given_setup_is_reused(self, monkeypatch):
        config = small_config(repeats=2, rounds=5)
        tracked = replace(config, algorithm="fednmut", rounds=60)  # rate_fit needs 50 rounds
        expected = run_averaged(config).columns
        expected_sanity = bound_sanity(tracked)

        def no_setup(*args):
            raise AssertionError("a shared part of the set-up was built again")

        monkeypatch.setattr(harness, "generate", no_setup)
        monkeypatch.setattr(harness, "smoothness_lower_bound", no_setup)
        columns = run_averaged(config).columns
        assert bound_sanity(tracked) == expected_sanity
        assert {k: v.tolist() for k, v in columns.items()} == {
            k: v.tolist() for k, v in expected.items()
        }

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(m=120),
            dict(d=12),
            dict(master_seed=6),
            dict(topology=TopologySpec(RING, 5)),
            dict(lam=1e-3),
            dict(topology=TopologySpec(FULLY_CONNECTED, 4)),  # same n, so the same problem
        ],
        ids=["m", "d", "master_seed", "n", "lam", "topology"],
    )
    def test_run_after_another_problem_equals_fresh_run(self, overrides):
        # every field the problem is built from is in the memo's key
        base = small_config(rounds=5, repeats=2)
        other = replace(base, **overrides)
        run_averaged(base)
        after = run_averaged(other).columns
        harness._problem.cache_clear()
        fresh = run_averaged(other).columns
        assert {k: v.tolist() for k, v in after.items()} == {
            k: v.tolist() for k, v in fresh.items()
        }

    def test_shards_split_into_runs_once_per_set_up(self, monkeypatch):
        calls = []
        split = data._equal_runs

        def counting(shards):
            calls.append(len(shards))
            return split(shards)

        monkeypatch.setattr(data, "_equal_runs", counting)
        run_averaged(small_config(repeats=3, rounds=20))
        assert calls == [4]  # not once per kernel call

    def test_largest_seed_accepted(self):
        rows = run_detailed(small_config(master_seed=2**64 - 1, rounds=2), 0).metrics
        assert len(rows["round"]) == 3


class TestStreams:
    """Stream layout 3 (see dflsim.channel): three streams per repeat, drawn from in round order."""

    def streams_of_run(self, monkeypatch, **overrides):
        """Each (key, Generator) that derive_stream returned in run_averaged, in call order."""
        streams = []

        def recording(*key):
            streams.append((key, derive_stream(*key)))
            return streams[-1][1]

        monkeypatch.setattr(harness, "derive_stream", recording)
        run_averaged(small_config(**overrides))
        return streams

    @staticmethod
    def is_fresh(key, stream):
        return stream.bit_generator.state == derive_stream(*key).bit_generator.state

    def test_one_stream_per_repeat_and_purpose(self, monkeypatch):
        # each repeat draws its initial point from the one init key, repeat 0's, and
        # derives its noise and batch keys whether or not its rounds draw from them
        purposes = (PURPOSE_CHANNEL_NOISE, PURPOSE_DATA_BATCH)
        expected = [
            key for r in range(3) for key in [(5, 0, PURPOSE_INIT)] + [(5, r, p) for p in purposes]
        ]
        # 80 rows over 4 clients: 20 per shard, sampled at batch 8, taken whole at batch 20
        for noise_variance, batch_size in itertools.product([0.0, 0.005], [8, 20]):
            streams = self.streams_of_run(monkeypatch, algorithm="fednmut", rounds=5, repeats=3,
                                          noise_variance=noise_variance, batch_size=batch_size)
            assert [key for key, _ in streams] == expected
            undrawn = {PURPOSE_CHANNEL_NOISE: noise_variance == 0.0,
                       PURPOSE_DATA_BATCH: batch_size == 20}
            for key, stream in streams:
                if key[2] in undrawn:
                    assert self.is_fresh(key, stream) == undrawn[key[2]]

    def test_all_capped_round_draws_nothing_from_the_batch_stream(self, monkeypatch):
        # every shard is taken whole, so the batch stream is derived and never drawn from
        for noise_variance in (0.005, 0.0):
            streams = self.streams_of_run(monkeypatch, batch_size=20, noise_variance=noise_variance,
                                          repeats=1)
            [(key, stream)] = [(k, s) for k, s in streams if k[2] == PURPOSE_DATA_BATCH]
            assert self.is_fresh(key, stream)

    def test_noise_free_run_draws_nothing_from_the_noise_stream(self, monkeypatch):
        # at noise 0 the noise stream is derived and never drawn from
        streams = self.streams_of_run(monkeypatch, noise_variance=0.0, repeats=1)
        [(key, stream)] = [(k, s) for k, s in streams if k[2] == PURPOSE_CHANNEL_NOISE]
        assert self.is_fresh(key, stream)

    def test_rounds_draw_in_order_from_the_repeat_streams(self, monkeypatch):
        noises, keys = [], []

        def noise(stream, shape, variance):
            noises.append(sample_noise(stream, shape, variance))
            return noises[-1]

        def batches(stream, sizes, batch_size):
            keys.append(stream.random((len(sizes), max(sizes))))
            return np.argsort(keys[-1], axis=1)[:, :batch_size]

        monkeypatch.setattr(harness, "sample_noise", noise)
        monkeypatch.setattr(harness, "sample_batches", batches)
        run_detailed(small_config(algorithm="fednmut", rounds=5), 1)
        noise_stream = derive_stream(5, 1, PURPOSE_CHANNEL_NOISE)
        batch_stream = derive_stream(5, 1, PURPOSE_DATA_BATCH)
        # a generator fills an array in order, so one draw of all rounds equals the per-round draws
        assert np.array_equal(noises, noise_stream.normal(0.0, np.sqrt(0.005), (5, 4, 10)))
        assert np.array_equal(keys, batch_stream.random((5, 4, 20)))

    def test_bound_sanity_derives_the_init_stream_once(self, monkeypatch):
        keys = []

        def recording(*key):
            keys.append(key)
            return derive_stream(*key)

        monkeypatch.setattr(harness, "derive_stream", recording)
        bound_sanity(small_config(algorithm="fednmut", rounds=60, noise_variance=0.0))
        # x0 is the run's own: the init key is derived once
        assert keys == [(5, 0, PURPOSE_INIT), (5, 0, PURPOSE_CHANNEL_NOISE), (5, 0, PURPOSE_DATA_BATCH)]

    @pytest.mark.parametrize("x0_mode", ["zeros", "shared", "independent"])
    def test_bound_sanity_samples_the_initial_point(self, monkeypatch, x0_mode):
        samples = []

        def recording(x_samples, problem):
            samples.append(x_samples)
            return estimate_zeta_sq(x_samples, problem)

        monkeypatch.setattr(harness, "estimate_zeta_sq", recording)
        config = small_config(algorithm="fednmut", rounds=60, x0_mode=x0_mode)
        bound_sanity(config)
        if x0_mode == "zeros":
            expected = np.zeros(config.d)
        else:  # client 0's start is the init stream's first draw
            expected = derive_stream(5, 0, PURPOSE_INIT).standard_normal(config.d)
        assert samples[0][0].tolist() == expected.tolist()

    def test_ragged_shards_with_mixed_cap(self, monkeypatch):
        # 2001 rows over 16 clients: client 0 has 126 rows and samples 125,
        # the other fifteen have 125 and take the whole shard
        calls = []

        def recording(Z, problem, picks):
            grads = batch_gradients(Z, problem, picks)
            dataset, lam = problem.dataset, problem.lam
            cols = zip(Z.T, problem.shards, client_picks(picks, problem.shards))
            oracle = [stochastic_gradient(z, s, dataset, lam, p) for z, s, p in cols]
            assert np.array_equal(grads, np.column_stack(oracle))
            calls.append(picks)
            return grads

        monkeypatch.setattr(harness, "batch_gradients", recording)
        config = small_config(
            topology=TopologySpec(RING, 16), m=2001, batch_size=125, rounds=3, repeats=1
        )
        result = run_detailed(config, 0)
        assert all(np.isfinite(result.metrics["loss"]))
        assert len(calls) == 3
        for picks in calls:
            assert picks.shape == (16, 125) and np.unique(picks[0]).size == 125
            assert picks[0].min() >= 0 and picks[0].max() < 126


@pytest.mark.parametrize("algorithm", ["fedndl2", "fednmut"])
def test_gather_budget_does_not_change_the_csv(monkeypatch, algorithm):
    config = small_config(
        algorithm=algorithm, topology=TopologySpec(RING, 16), d=200, m=2001, batch_size=32,
        rounds=12,
    )
    lines = csv_lines(run_averaged(config))
    monkeypatch.setattr(objective, "GATHER_BUDGET", 1)
    assert csv_lines(run_averaged(config)) == lines


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
        rows = sweep(sweep_cells(template, {}), tmp_path)
        assert len(rows) == 1
        assert rows[0]["cell_id"] == cell_id(template)
        assert (tmp_path / rows[0]["csv_path"]).exists()
        assert (tmp_path / "manifest.csv").exists()

    def test_grid_structure(self, tmp_path):
        template = small_config(rounds=5, repeats=1)
        rows = sweep(
            sweep_cells(template, {"algorithm": ["fedndl1", "fedndl3"], "noise_variance": [0.0, 0.005]}),
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
        sweep(sweep_cells(template, axes), first)
        sweep(sweep_cells(template, axes), second)
        for name in sorted(os.listdir(first)):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="axis"):
            sweep(sweep_cells(small_config(), {"rounds": [1, 2]}), tmp_path)

    def test_full_grid_has_36_cells(self, tmp_path):
        # the full algorithm x topology x noise grid at toy scale
        template = small_config(
            topology=TopologySpec(RING, 9), d=6, m=45, rounds=3, repeats=1, batch_size=4
        )
        rows = sweep(
            sweep_cells(
                template,
                {
                    "algorithm": ["fedndl1", "fedndl2", "fedndl3", "fednmut"],
                    "topology": ["ring", "torus", "full"],
                    "noise_variance": [0.0, 0.005, 0.01],
                },
            ),
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
            sweep(sweep_cells(template, {"mu": mus}), out)
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["algorithm", "topology", "noise_variance", "mu"])
    def test_empty_axis_rejected_before_output_dir(self, tmp_path, no_setup, axis):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"sweep axis '{axis}' has no values"):
            sweep(sweep_cells(small_config(), {axis: []}), out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message", [("d", 0, "d must be >= 1"), ("master_seed", -1, "master_seed")]
    )
    def test_bad_template_rejected_before_output_dir(self, tmp_path, field, value, message):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            sweep(sweep_cells(small_config(**{field: value}), {"mu": [0.02, 0.05]}), out)
        assert not out.exists()

    def test_bad_mu_cell_rejected_before_output_dir(self, tmp_path):
        template = small_config(algorithm="fednmut", rounds=4, repeats=1)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"mu must be in \[0, 1\), got 1"):
            sweep(sweep_cells(template, {"mu": [0.02, 1.0]}), out)
        assert not out.exists()

    def test_topology_with_other_n_rejected(self, tmp_path):
        template = small_config(rounds=4, repeats=1)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown topology kind TopologySpec"):
            sweep(sweep_cells(template, {"topology": [RING, TopologySpec(FULLY_CONNECTED, 8)]}), out)
        assert not out.exists()

    def test_one_smoothness_estimate_per_sweep(self, tmp_path, monkeypatch):
        calls = {"smoothness_lower_bound": [], "estimate_smoothness": []}
        for name, found in calls.items():
            real = getattr(harness, name)

            def counting(*args, real=real, found=found, **kwargs):
                found.append((args, kwargs))
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counting)
        # the one lower bound is the problem's; no run computes the exact L
        template = small_config(rounds=3, repeats=2)
        axes = {"algorithm": ["fedndl1", "fednmut"], "topology": [RING, FULLY_CONNECTED]}
        rows = sweep(sweep_cells(template, axes), tmp_path)
        assert len(rows) == 4
        [(args, kwargs)] = calls["smoothness_lower_bound"]  # one call, on the problem
        assert [type(a) for a in args] == [Problem] and not kwargs
        assert calls["estimate_smoothness"] == []

    def test_mu_axis_sweep(self, tmp_path):
        template = small_config(algorithm="fednmut", rounds=4, repeats=1, noise_variance=0.0)
        rows = sweep(sweep_cells(template, {"mu": [0.0, 0.02, 0.05]}), tmp_path)
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
        assert float(first[2]) == avg.columns["loss_mean"][0]  # 17 significant digits round-trip


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    assert "rounds=500" in code
    exec(code.replace("rounds=500", "rounds=20"), {})
    assert len(capsys.readouterr().out.split()) == 2


def test_readme_sweep_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    run_code, sweep_code = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)[:2]
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(run_code.replace("rounds=500", "rounds=20"), namespace)
    exec(sweep_code, namespace)
    assert [row["cell_id"] for row in namespace["rows"]] == list(namespace["cells"])
    assert len(namespace["rows"]) == 4
    assert (tmp_path / "sweep_out" / "manifest.csv").exists()
