"""Ridge regression objectives and gradients.

The convention is mean (not half-mean) squared error plus lam * ||x||^2,
so gradients carry a factor 2:

    f_i(x) = (1/|S_i|) sum_{s in S_i} (<x, a_s> - y_s)^2 + lam * ||x||^2
    grad   = (2/|B|) sum_{s in B} (<x, a_s> - y_s) a_s + 2 * lam * x

Batches are drawn uniformly without replacement from each client's shard
by one routine, sample_batches, for all clients of a round at once: row i
of one uniform block ranks client i's shard rows, and row i of the
(n, batch_size) block it returns is the first batch_size of them. A shard
no larger than the batch is taken whole, in order, and its row is not
read; when every shard is, sample_batches returns None and draws nothing.
Stream layout 3 (see dflsim.channel) says which stream each round's block
is drawn from.

_stacked_gradients is the minibatch gradient formula: batch_gradients
takes every client's gradient of a round in one pass over a Problem, as
stacked products over each run of adjacent equal-sized shards (views of
whole shards, gathers of sampled rows in chunks of at most GATHER_BUDGET
elements). dflsim.metrics._global_terms, with the loss formula, is the
full-data one: one residual @ A product per metrics block, A as BLAS's
first factor (A @ X.T cost +33 MiB at paper scale). Both are tied to
tests/oracles.py bit for bit, by TestBatchGradients and, on a one-state
block, by test_fused_measure_is_bit_identical_to_objective_calls.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Problem
from .metrics import _global_terms

_MAX_SOLVE_DIM = 4096

# Float64 elements in one gathered block of batch rows (512 KiB): one
# paper-scale client's batch of 32 rows at d = 2000.
GATHER_BUDGET = 1 << 16


def sample_batches(
    rng: np.random.Generator, sizes: list[int], batch_size: int
) -> np.ndarray | None:
    """Minibatch row offsets for shards of the given sizes, one (len(sizes), batch_size) block.

    One rng.random((len(sizes), max(sizes))) block is drawn, the padding
    past each shard's size sorts last, and row i is the first batch_size
    entries of key row i's argsort: a uniform subset without replacement,
    read only when sizes[i] > batch_size (a smaller shard is taken whole).
    None, with rng untouched, when no shard is larger than the batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    width = max(sizes)
    if width <= batch_size:
        return None
    keys = rng.random((len(sizes), width))
    keys[np.arange(width) >= np.asarray(sizes)[:, None]] = 2.0
    return np.argsort(keys, axis=1)[:, :batch_size]


def _stacked_gradients(
    Zs: np.ndarray, feats: np.ndarray, labels: np.ndarray, lam: float, out: np.ndarray
) -> None:
    """Write the gradient at each row of Zs (k, d), over feats (k, b, d), labels (k, b), to out.

    Each stacked product runs one BLAS call per item, with the item's
    shapes and strides, so a row's bits do not depend on the other items.
    """
    residual = feats @ Zs[:, :, None]
    residual -= labels[:, :, None]
    grads = feats.transpose(0, 2, 1) @ residual
    grads *= 2.0 / labels.shape[1]
    np.add(grads[:, :, 0], 2.0 * lam * Zs, out=out)


def gathered_gradients(
    Zs: np.ndarray, rows: np.ndarray, problem: Problem, out: np.ndarray | None = None
) -> np.ndarray:
    """The gradient at Zs[j] over the problem's data rows rows[j], for each j, into a (k, d) out.

    Feature rows are gathered in chunks of at most GATHER_BUDGET elements (at
    least one gradient per chunk), so the gather's memory does not grow with k.
    """
    k, b = rows.shape
    out = np.empty(Zs.shape) if out is None else out
    labels = problem.dataset.labels[rows]
    step = max(1, GATHER_BUDGET // (b * problem.dataset.d))
    for j in range(0, k, step):
        part = slice(j, j + step)
        feats = problem.dataset.features[rows[part]]
        _stacked_gradients(Zs[part], feats, labels[part], problem.lam, out[part])
    return out


def batch_gradients(
    Z: np.ndarray, problem: Problem, picks: np.ndarray | None = None
) -> np.ndarray:
    """Every client's gradient at its column of the d x n point Z, as a d x n matrix.

    Column i is the gradient over the rows picks[i] of problem.shards[i]
    when the shard is larger than picks.shape[1], else over the whole
    shard (every shard for picks None); with a sample_batches block it is
    unbiased for the whole-shard gradient. Each of problem.runs is one
    stacked product: whole shards are reshaped views of the data, sampled
    batches one gathered_gradients call.
    """
    if picks is not None and len(picks) != len(problem.shards):
        raise ValueError(f"picks needs one row per shard, got {len(picks)} for {len(problem.shards)}")
    dataset, d = problem.dataset, problem.dataset.d
    out = np.empty(Z.shape)
    for i, k, size, lo, hi in problem.runs:
        Zs = Z.T[i : i + k]
        if picks is None or size <= picks.shape[1]:
            feats, labels = dataset.features[lo:hi].reshape(k, size, d), dataset.labels[lo:hi]
            _stacked_gradients(Zs, feats, labels.reshape(k, size), problem.lam, out.T[i : i + k])
        else:
            rows = np.arange(lo, hi, size)[:, None] + picks[i : i + k]
            gathered_gradients(Zs, rows, problem, out.T[i : i + k])
    return out


def ridge_optimum(dataset: Dataset, lam: float) -> tuple[np.ndarray, float]:
    """Exact minimizer of the full-data loss by direct solve, with its loss value.

    Solves (A^T A / m + lam I) x = A^T y / m; the loss is the metrics'
    global pass on the one state x. A singular system (possible only at
    lam = 0 with rank-deficient features) raises LinAlgError.
    """
    if dataset.d > _MAX_SOLVE_DIM:
        raise ValueError(f"dense solve guarded to d <= {_MAX_SOLVE_DIM}, got d={dataset.d}")
    a = dataset.features
    gram = a.T @ a / dataset.m + lam * np.eye(dataset.d)
    x = np.linalg.solve(gram, a.T @ dataset.labels / dataset.m)
    return x, float(_global_terms(x[None], dataset, lam)[0][0])
