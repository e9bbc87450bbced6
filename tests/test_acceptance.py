"""End-to-end acceptance suite, one test per criterion.

Each test prints one pass/fail line (run with -s to see them live).
Criteria 6-7 run at eta0 = 0.1: the tracking update amplifies per-client
deviations whenever eta * lambda_max(local batch curvature) > 1, so the
documented default 0.2 diverges at this problem scale; 0.1 sits inside
the stable window for all four algorithms.
"""

import time

import numpy as np
import pytest

from dflsim.algorithms import RoundInputs
from dflsim.data import Problem, generate, partition_iid
from dflsim.harness import LrSchedule, RunConfig, bound_sanity, run_averaged, sweep, sweep_cells
from dflsim.objective import batch_gradients, ridge_optimum
from dflsim.theory_checks import check_bias_zero_mean
from dflsim.topology import FULLY_CONNECTED, RING, TORUS, TopologySpec, build_mixing
from oracles import ClientState, init_network_state, round_fednmut, round_fednmut_matrix, stack_states
from oracles import finite_difference_gradient

DESK_D = 200
DESK_M = 2000
N = 16
LAM = 1e-4
SEED = 1
TREND_ETA0 = 0.1  # inside the stable step-size window, see module docstring


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def sanity():
    """Criterion-8 run at half the step-size cap and its bound, shared with criterion 9."""
    config = RunConfig(
        algorithm="fednmut",
        topology=TopologySpec(FULLY_CONNECTED, N),
        d=DESK_D,
        m=DESK_M,
        rounds=2000,
        mu=0.02,
        noise_variance=0.0,
        lam=LAM,
        batch_size=32,
        master_seed=SEED,
    )
    return bound_sanity(config)


def test_criterion_1_mixing_matrix_suite():
    start = time.time()
    expected = {
        RING: (1.0 / 3.0, 0.0989187008424176, 1e-3),
        TORUS: (0.2, 0.64, 1e-9),
        FULLY_CONNECTED: (1.0 / 16.0, 1.0, 0.0),
    }
    for kind, (weight, rho, tol) in expected.items():
        mixing = build_mixing(TopologySpec(kind, N))
        w = mixing.weights
        assert np.max(np.abs(w - w.T)) <= 1e-12
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
        nonzero = w[w > 0]
        assert np.all(nonzero == weight)
        assert abs(mixing.rho - rho) <= tol
    elapsed = time.time() - start
    report(1, elapsed < 1.0, f"weights and rho exact for ring/torus/full in {elapsed:.3f}s")


def test_criterion_2_contraction_property():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = {}
    for kind in (RING, TORUS, FULLY_CONNECTED):
        mixing = build_mixing(TopologySpec(kind, N))
        allowed = 1.0 - mixing.rho + 1e-9
        ratios = []
        for _ in range(1000):
            X = rng.standard_normal((8, N))
            dev = X - X.mean(axis=1, keepdims=True)
            ratios.append(((dev @ mixing.weights) ** 2).sum() / (dev * dev).sum())
        worst[kind] = max(ratios)
        assert worst[kind] <= allowed
    elapsed = time.time() - start
    report(2, elapsed < 5.0, f"1000 matrices per topology, worst ratios {worst} in {elapsed:.2f}s")


def test_criterion_3_gradient_matches_finite_differences():
    dataset = generate(60, 20, 0.05, 7)
    shard = partition_iid(dataset, 1)[0]
    lam = 1e-3
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(20)
        g = batch_gradients(x[:, None], Problem(dataset, [shard], lam))[:, 0]  # full batch
        fd = finite_difference_gradient(x, shard, dataset, lam)  # step 1e-5
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(g))
    report(3, worst <= 1e-5, f"20 random points, worst relative error {worst:.2e}")


def test_criterion_4_tracking_oracle_equivalence():
    n, d, rounds, eta, mu, variance = 8, 32, 100, 0.05, 0.02, 0.005
    mixing = build_mixing(TopologySpec(RING, n))
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(d)
    states = [ClientState(x=x0.copy()) for _ in range(n)]
    net = init_network_state(np.tile(x0[:, None], (1, n)))
    worst_state = 0.0
    worst_hat = 0.0
    for _ in range(rounds):
        grads = rng.standard_normal((d, n))
        noises = rng.normal(0.0, np.sqrt(variance), size=(d, n))
        inputs = RoundInputs(eta=eta, W=mixing, grads=lambda Z: grads, noises=noises, mu=mu)
        states = round_fednmut(states, inputs)
        net = round_fednmut_matrix(net, inputs)
        worst_state = max(worst_state, float(np.max(np.abs(stack_states(states) - net.X))))
        for i, s in enumerate(states):
            for j, copy in s.x_hat.items():
                worst_hat = max(worst_hat, float(np.max(np.abs(copy - states[j].x))))
    passed = worst_state <= 1e-8 and worst_hat <= 1e-12
    report(4, passed, f"100 noisy rounds: max state diff {worst_state:.2e}, "
                      f"max copy drift {worst_hat:.2e}")


def test_criterion_5_bias_zero_mean_monte_carlo():
    start = time.time()
    result = check_bias_zero_mean(
        mu=0.02, per_coord_variance=0.005, mixing=build_mixing(TopologySpec(RING, N)), d=4,
        T=100, trials=10_000, seed=5,
    )
    elapsed = time.time() - start
    passed = result.passed and elapsed < 30.0
    report(5, passed, f"max |mean|/SE = {result.max_se_ratio:.2f} over 10^4 trials "
                      f"in {elapsed:.1f}s (variance {result.empirical_variance:.2e} "
                      f"vs predicted {result.predicted_variance:.2e})")


def test_criterion_6_noise_free_convergence():
    _, f_star = ridge_optimum(generate(DESK_M, DESK_D, 0.05, SEED), LAM)
    start = time.time()
    finals = {}
    for algorithm in ("fedndl1", "fedndl2", "fedndl3", "fednmut"):
        config = RunConfig(
            algorithm=algorithm,
            topology=TopologySpec(FULLY_CONNECTED, N),
            d=DESK_D,
            m=DESK_M,
            rounds=1000,
            lr=LrSchedule(eta0=TREND_ETA0, gamma=0.9, decay_interval=10),
            mu=0.02,
            noise_variance=0.0,
            lam=LAM,
            batch_size=32,
            repeats=3,
            master_seed=SEED,
        )
        avg = run_averaged(config)
        finals[algorithm] = float(avg.columns["loss_mean"][-1])
    elapsed = time.time() - start
    ratios = {a: v / f_star for a, v in finals.items()}
    passed = all(v <= 1.05 * f_star for v in finals.values()) and elapsed < 120.0
    report(6, passed, f"final loss / optimum: " +
           ", ".join(f"{a}={r:.4f}" for a, r in ratios.items()) + f"; {elapsed:.0f}s")


def test_criterion_7_figure_trends():
    start = time.time()

    def averaged(algorithm, kind):
        config = RunConfig(
            algorithm=algorithm,
            topology=TopologySpec(kind, N),
            d=DESK_D,
            m=DESK_M,
            rounds=500,
            lr=LrSchedule(eta0=TREND_ETA0, gamma=0.9, decay_interval=10),
            mu=0.02,
            noise_variance=0.01,
            lam=LAM,
            batch_size=32,
            repeats=3,
            master_seed=SEED,
        )
        return run_averaged(config)

    nmut_ring = averaged("fednmut", RING)
    ndl1_ring = averaged("fedndl1", RING)
    tail = slice(-100, None)
    nmut_tail = float(np.mean(nmut_ring.columns["loss_mean"][tail]))
    ndl1_tail = float(np.mean(ndl1_ring.columns["loss_mean"][tail]))
    loss_ordering = nmut_tail <= ndl1_tail

    ce = {
        kind: float(averaged("fednmut", kind).columns["consensus_error_mean"][-1])
        for kind in (FULLY_CONNECTED, TORUS)
    }
    ce[RING] = float(nmut_ring.columns["consensus_error_mean"][-1])
    topo_ordering = ce[FULLY_CONNECTED] <= ce[TORUS] <= ce[RING]

    elapsed = time.time() - start
    passed = loss_ordering and topo_ordering and elapsed < 180.0
    report(7, passed,
           f"tail loss fednmut {nmut_tail:.3g} <= fedndl1 {ndl1_tail:.3g}; "
           f"final consensus error full {ce[FULLY_CONNECTED]:.3g} <= "
           f"torus {ce[TORUS]:.3g} <= ring {ce[RING]:.3g}; {elapsed:.0f}s")


def test_criterion_8_rate_slope(sanity):
    report(8, sanity.slope <= -0.3,
           f"log-log slope {sanity.slope:.3f} at constant eta {sanity.eta:.3g}")


def test_criterion_9_bound_sanity(sanity):
    report(9, sanity.empirical <= sanity.bound,
           f"mean squared gradient norm {sanity.empirical:.4g} <= bound {sanity.bound:.4g}")


def test_criterion_10_sweep_determinism(tmp_path):
    template = RunConfig(
        algorithm="fednmut",
        topology=TopologySpec(RING, N),
        d=50,
        m=500,
        rounds=40,
        lr=LrSchedule(eta0=0.05, gamma=0.9, decay_interval=10),
        mu=0.02,
        noise_variance=0.005,
        lam=LAM,
        batch_size=16,
        repeats=2,
        master_seed=SEED,
    )
    axes = {"noise_variance": [0.005, 0.01]}
    first = tmp_path / "first"
    second = tmp_path / "second"
    sweep(sweep_cells(template, axes), first)
    sweep(sweep_cells(template, axes), second)
    names = sorted(p.name for p in first.iterdir())
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes() for name in names
    )
    report(10, identical and len(names) == 3,
           f"{len(names)} files byte-identical across re-runs: {names}")
