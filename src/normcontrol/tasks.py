"""Desk-scale differentiable objectives with exact analytic gradients.

Three tasks of increasing difficulty back the experiment harness: a noisy
diagonal quadratic, logistic regression, and a one-hidden-layer tanh MLP
with separate weight/bias groups (so the controlled/uncontrolled split is
exercised end to end). All data is synthetic and seeded; batches are drawn
with replacement from a fixed pool, validation uses a fixed held-out pool.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ParamGroup

TRAIN_POOL = 1024
VAL_POOL = 256
# Row indices per rng.integers call in batches(): a block holds
# max(1, _DRAW // batch_size) steps, 64 KB of indices.
_DRAW = 1 << 13


def quadratic_loss_grad(theta: np.ndarray, a_diag: np.ndarray, b: np.ndarray):
    """loss = 0.5 * theta' diag(a) theta - b' theta; grad = a*theta - b."""
    if not (a_diag > 0.0).all():  # NaN fails too
        raise ValueError("quadratic diagonal must be strictly positive")
    if theta.shape != a_diag.shape or theta.shape != b.shape:
        raise ValueError("theta, a_diag and b must have matching shapes")
    grad = a_diag * theta
    loss = 0.5 * float(theta @ grad) - float(b @ theta)
    grad -= b
    return loss, grad


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean sigmoid cross-entropy; grad = X'(sigmoid(X theta) - y) / batch."""
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if X.shape[1] != theta.shape[0]:
        raise ValueError(f"feature dim {X.shape[1]} != parameter dim {theta.shape[0]}")
    z = X @ theta
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    grad = X.T @ (_sigmoid(z) - y) / X.shape[0]
    return loss, grad


def mlp_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, in_dim: int, hidden: int):
    """MSE loss of an in_dim -> tanh(hidden) -> 1 network, with exact backprop.

    theta packs [W1 (hidden x in_dim), b1, W2 (1 x hidden), b2] row-major.
    loss = 0.5 * mean((pred - y)^2). grad is a new array in theta's layout.
    """
    n_w1 = hidden * in_dim
    expected = n_w1 + hidden + hidden + 1
    if theta.shape[0] != expected:
        raise ValueError(f"theta has {theta.shape[0]} elements, layout needs {expected}")
    if X.shape[1] != in_dim:
        raise ValueError(f"feature dim {X.shape[1]} != in_dim {in_dim}")
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    W1 = theta[:n_w1].reshape(hidden, in_dim)
    b1 = theta[n_w1 : n_w1 + hidden]
    W2 = theta[n_w1 + hidden : n_w1 + 2 * hidden].reshape(1, hidden)
    b2 = theta[n_w1 + 2 * hidden :]

    batch = X.shape[0]
    hid = X @ W1.T
    hid += b1
    np.tanh(hid, out=hid)
    diff = hid @ W2.T
    diff += b2
    diff -= y.reshape(batch, 1)
    loss = 0.5 * (float(np.add.reduce(diff * diff, axis=None)) / batch)  # np.mean's bits

    grad = np.empty(expected)  # each piece is written into its place
    d_pred = diff / batch
    np.matmul(d_pred.T, hid, out=grad[n_w1 + hidden : n_w1 + 2 * hidden].reshape(1, hidden))
    np.add.reduce(d_pred, axis=0, out=grad[n_w1 + 2 * hidden :])
    d_hid = d_pred @ W2
    d_hid *= np.subtract(1.0, np.multiply(hid, hid, out=hid), out=hid)
    np.matmul(d_hid.T, X, out=grad[:n_w1].reshape(hidden, in_dim))
    np.add.reduce(d_hid, axis=0, out=grad[n_w1 : n_w1 + hidden])
    return loss, grad


class _TrainPool:
    """Batches of TRAIN_POOL rows drawn with replacement; _gather(idx) is the
    batch that an array of row indices selects."""

    def sample_batch(self, rng: np.random.Generator, batch_size: int):
        return self._gather(rng.integers(0, TRAIN_POOL, batch_size))

    def batches(self, rng: np.random.Generator, batch_size: int, steps: int):
        """Yield the batches of `steps` consecutive sample_batch calls.

        The indices come in blocks of k steps, one (k, batch_size) draw each.
        Such a draw gives the numbers of k (batch_size,) draws, in order, and
        leaves rng in the same state, so the batches and rng afterwards equal
        sample_batch's bit for bit (tests/test_tasks.py pins this).
        """
        per_block = max(1, _DRAW // batch_size)
        while steps > 0:
            k = min(steps, per_block)
            for idx in rng.integers(0, TRAIN_POOL, (k, batch_size)):
                yield self._gather(idx)
            steps -= k


class QuadraticTask(_TrainPool):
    """Noisy diagonal quadratic: batches perturb the linear term."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.groups = [ParamGroup("weights", 0, dim, controlled=True)]
        self.a_diag = rng.uniform(0.5, 2.0, dim)
        self.b = rng.normal(size=dim)
        self.train_noise = rng.normal(scale=0.3, size=(TRAIN_POOL, dim))
        self.val_noise = rng.normal(scale=0.3, size=(VAL_POOL, dim))

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.dim) / math.sqrt(self.dim)

    def loss_and_grad(self, theta, batch):
        return quadratic_loss_grad(theta, self.a_diag, self.b + batch.mean(axis=0))

    def _gather(self, idx):
        return self.train_noise[idx]

    def val_batch(self):
        return self.val_noise


class _PooledTask(_TrainPool):
    """Features X and targets y, split into the train and validation pools."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.train_X, self.val_X = X[:TRAIN_POOL], X[TRAIN_POOL:]
        self.train_y, self.val_y = y[:TRAIN_POOL], y[TRAIN_POOL:]

    def _gather(self, idx):
        return self.train_X[idx], self.train_y[idx]

    def val_batch(self):
        return self.val_X, self.val_y


class LogisticTask(_PooledTask):
    """Binary logistic regression on Gaussian features, labels from a teacher."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.groups = [ParamGroup("weights", 0, dim, controlled=True)]
        teacher = rng.normal(size=dim)
        X = rng.normal(size=(TRAIN_POOL + VAL_POOL, dim))
        y = (rng.random(TRAIN_POOL + VAL_POOL) < _sigmoid(X @ teacher)).astype(float)
        super().__init__(X, y)

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.dim) / math.sqrt(self.dim)

    def loss_and_grad(self, theta, batch):
        X, y = batch
        return logistic_loss_grad(theta, X, y)


class MlpTask(_PooledTask):
    """Regression with a one-hidden-layer tanh MLP against a noisy teacher.

    Weight matrices are controlled groups; bias vectors are controlled only
    when control_biases is set (mirroring the usual exclusion of
    normalization/bias parameters from decay).
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator,
                 control_biases: bool = False):
        self.in_dim = in_dim
        self.hidden = hidden
        n_w1 = hidden * in_dim
        self.groups = [
            ParamGroup("w1", 0, n_w1, controlled=True),
            ParamGroup("b1", n_w1, hidden, controlled=control_biases),
            ParamGroup("w2", n_w1 + hidden, hidden, controlled=True),
            ParamGroup("b2", n_w1 + 2 * hidden, 1, controlled=control_biases),
        ]
        t_w1 = rng.normal(size=(hidden, in_dim)) / math.sqrt(in_dim)
        t_b1 = 0.1 * rng.normal(size=hidden)
        t_w2 = rng.normal(size=(1, hidden)) / math.sqrt(hidden)
        t_b2 = 0.1 * rng.normal(size=1)
        X = rng.normal(size=(TRAIN_POOL + VAL_POOL, in_dim))
        y = (np.tanh(X @ t_w1.T + t_b1) @ t_w2.T + t_b2).ravel()
        y += 0.1 * rng.normal(size=y.shape)
        super().__init__(X, y)

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        w1 = rng.normal(size=(self.hidden, self.in_dim)) / math.sqrt(self.in_dim)
        w2 = rng.normal(size=(1, self.hidden)) / math.sqrt(self.hidden)
        return np.concatenate([w1.ravel(), np.zeros(self.hidden), w2.ravel(), np.zeros(1)])

    def loss_and_grad(self, theta, batch):
        X, y = batch
        return mlp_loss_grad(theta, X, y, self.in_dim, self.hidden)


TASK_NAMES = ("quadratic", "logistic", "mlp")


def build_task(name: str, dim: int, hidden: int, rng: np.random.Generator,
               control_biases: bool = False):
    if name == "quadratic":
        return QuadraticTask(dim, rng)
    if name == "logistic":
        return LogisticTask(dim, rng)
    if name == "mlp":
        return MlpTask(dim, hidden, rng, control_biases=control_biases)
    raise ValueError(f"unknown task {name!r}, expected one of {TASK_NAMES}")


def finite_diff_check(task, theta: np.ndarray, batch, h: float = 1e-5,
                      max_coords: int = 200, rng: np.random.Generator | None = None) -> float:
    """Max relative error of the analytic gradient vs central differences.

    For dim > max_coords a seeded random coordinate subset is checked; a
    non-finite analytic entry gives NaN, whether or not it is sampled.
    Relative error per coordinate uses max(1, |analytic|, |numeric|) as the
    denominator so tiny gradient entries are judged on absolute error.
    """
    if h <= 0.0:
        raise ValueError("finite-difference step h must be > 0")
    _, grad = task.loss_and_grad(theta, batch)
    if not np.isfinite(grad).all():
        return math.nan  # a non-finite entry fails the check, sampled or not
    dim = theta.shape[0]
    if dim > max_coords:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(dim, size=max_coords, replace=False)
    else:
        coords = np.arange(dim)
    errors = []
    probe = theta.astype(float).copy()
    for i in coords:
        orig = probe[i]
        probe[i] = orig + h
        lp, _ = task.loss_and_grad(probe, batch)
        probe[i] = orig - h
        lm, _ = task.loss_and_grad(probe, batch)
        probe[i] = orig
        fd = (lp - lm) / (2.0 * h)
        errors.append(abs(fd - grad[i]) / max(1.0, abs(grad[i]), abs(fd)))
    return float(np.max(errors, initial=0.0))  # NaN if any coordinate's error is NaN
