import math

import numpy as np
import pytest

from normcontrol import tasks
from normcontrol.tasks import (
    LogisticTask,
    MlpTask,
    QuadraticTask,
    build_task,
    finite_diff_check,
    logistic_loss_grad,
    mlp_loss_grad,
    quadratic_loss_grad,
)


class TestQuadratic:
    def test_identity_quadratic(self):
        loss, grad = quadratic_loss_grad(np.array([1.0, 2.0]), np.ones(2), np.zeros(2))
        assert loss == 2.5
        assert list(grad) == [1.0, 2.0]

    def test_stationary_point(self):
        a = np.array([2.0, 4.0])
        b = np.array([2.0, 4.0])
        _, grad = quadratic_loss_grad(b / a, a, b)
        assert list(grad) == [0.0, 0.0]

    def test_closed_form_substitution(self):
        loss, grad = quadratic_loss_grad(np.array([1.0]), np.array([2.0]), np.array([4.0]))
        assert loss == 0.5 * 2.0 - 4.0 == -3.0
        assert grad[0] == -2.0

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            quadratic_loss_grad(np.ones(1), np.array([0.0]), np.ones(1))

    def test_bitwise_equal_to_the_two_expression_formula(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 1000, 4097):
            theta, b = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), rng.normal(size=n)
            a = rng.uniform(0.01, 100.0, n)
            loss, grad = quadratic_loss_grad(theta, a, b)
            assert loss == 0.5 * float(theta @ (a * theta)) - float(b @ theta), n
            assert np.array_equal(grad, a * theta - b), n

    def test_bad_diagonal_or_shapes_rejected(self):
        for a in ([1.0, -2.0, 3.0], [1.0, 2.0, 0.0], [-0.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="positive"):
                quadratic_loss_grad(np.ones(3), np.array(a), np.ones(3))
        for theta, a, b in ((3, 2, 3), (3, 3, 2), (2, 3, 3)):
            with pytest.raises(ValueError, match="matching shapes"):
                quadratic_loss_grad(np.ones(theta), np.ones(a), np.ones(b))

    def test_nan_diagonal_rejected(self):
        for a in ([np.nan], [1.0, np.nan, 2.0]):
            with pytest.raises(ValueError, match="positive"):
                quadratic_loss_grad(np.ones(len(a)), np.array(a), np.ones(len(a)))


class TestLogistic:
    def test_zero_theta_gives_ln2(self):
        X = np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, -2.0], [0.0, 1.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        loss, _ = logistic_loss_grad(np.zeros(2), X, y)
        assert loss == pytest.approx(math.log(2), rel=1e-15)

    def test_single_row_gradient(self):
        loss, grad = logistic_loss_grad(np.zeros(1), np.array([[1.0]]), np.array([1.0]))
        assert grad[0] == -0.5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            logistic_loss_grad(np.zeros(2), np.zeros((0, 2)), np.zeros(0))

    def test_feature_dim_mismatch(self):
        with pytest.raises(ValueError, match="^feature dim 3 != parameter dim 2$"):
            logistic_loss_grad(np.zeros(2), np.zeros((4, 3)), np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        task = LogisticTask(6, rng)
        theta = task.init_theta(rng)
        batch = task.sample_batch(rng, 24)
        assert finite_diff_check(task, theta, batch, h=1e-5) <= 1e-6

    def test_extreme_logits_stay_finite(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([1.0, 0.0])
        loss, grad = logistic_loss_grad(np.array([1.0]), X, y)
        assert math.isfinite(loss) and np.all(np.isfinite(grad))


class TestMlp:
    def test_zero_theta_zero_targets(self):
        X = np.ones((4, 3))
        y = np.zeros(4)
        loss, grad = mlp_loss_grad(np.zeros(3 * 2 + 2 + 2 + 1), X, y, in_dim=3, hidden=2)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_111_network_against_hand_chain_rule(self):
        # scalar network: pred = w2 * tanh(w1*x + b1) + b2, loss = 0.5 (pred - y)^2
        w1, b1, w2, b2 = 0.7, -0.2, 1.3, 0.4
        x, y = 0.9, -0.5
        theta = np.array([w1, b1, w2, b2])
        loss, grad = mlp_loss_grad(theta, np.array([[x]]), np.array([y]), in_dim=1, hidden=1)

        h = math.tanh(w1 * x + b1)
        pred = w2 * h + b2
        d = pred - y
        assert loss == pytest.approx(0.5 * d * d, rel=1e-15)
        assert grad[2] == pytest.approx(d * h, rel=1e-12)            # dL/dw2
        assert grad[3] == pytest.approx(d, rel=1e-12)                # dL/db2
        assert grad[0] == pytest.approx(d * w2 * (1 - h * h) * x, rel=1e-12)
        assert grad[1] == pytest.approx(d * w2 * (1 - h * h), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        task = MlpTask(5, 7, rng)
        theta = task.init_theta(rng)
        batch = task.sample_batch(rng, 16)
        assert finite_diff_check(task, theta, batch, h=1e-5) <= 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="layout"):
            mlp_loss_grad(np.zeros(5), np.ones((2, 3)), np.zeros(2), in_dim=3, hidden=2)
        with pytest.raises(ValueError, match="^feature dim 4 != in_dim 3$"):
            mlp_loss_grad(np.zeros(3 * 2 + 2 + 2 + 1), np.ones((2, 4)), np.zeros(2),
                          in_dim=3, hidden=2)

    def test_empty_batch_rejected(self):
        # It used to return a NaN loss and a zero gradient, with a RuntimeWarning.
        with pytest.raises(ValueError, match="^empty batch$"):
            mlp_loss_grad(np.zeros(3 * 2 + 2 + 2 + 1), np.zeros((0, 3)), np.zeros(0),
                          in_dim=3, hidden=2)

    def test_group_layout_and_bias_control(self):
        rng = np.random.default_rng(0)
        task = MlpTask(3, 4, rng, control_biases=False)
        flags = {g.name: g.controlled for g in task.groups}
        assert flags == {"w1": True, "b1": False, "w2": True, "b2": False}
        task_cb = MlpTask(3, 4, np.random.default_rng(0), control_biases=True)
        assert all(g.controlled for g in task_cb.groups)

    @staticmethod
    def reference_loss_grad(theta, X, y, in_dim, hidden):
        """mlp_loss_grad as it was before its gradient went into one buffer, verbatim."""
        n_w1 = hidden * in_dim
        W1 = theta[:n_w1].reshape(hidden, in_dim)
        b1 = theta[n_w1 : n_w1 + hidden]
        W2 = theta[n_w1 + hidden : n_w1 + 2 * hidden].reshape(1, hidden)
        b2 = theta[n_w1 + 2 * hidden :]

        batch = X.shape[0]
        hid = np.tanh(X @ W1.T + b1)
        pred = hid @ W2.T + b2
        diff = pred - y.reshape(batch, 1)
        loss = 0.5 * float(np.mean(diff * diff))

        d_pred = diff / batch
        g_w2 = d_pred.T @ hid
        g_b2 = d_pred.sum(axis=0)
        d_hid = (d_pred @ W2) * (1.0 - hid * hid)
        g_w1 = d_hid.T @ X
        g_b1 = d_hid.sum(axis=0)
        grad = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
        return loss, grad

    def test_bitwise_equal_to_the_reference_over_random_shapes(self):
        rng = np.random.default_rng(17)
        sizes = (1, 2, 3, 8, 16, 33)
        for case in range(300):
            in_dim, hidden, batch = (int(rng.choice(sizes)) for _ in range(3))
            if case < 8:  # every combination of the size-1 edges
                in_dim, hidden, batch = (1 if case >> k & 1 else 5 for k in range(3))
            theta, X, y = (rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 2) for shape in
                           ((hidden * in_dim + 2 * hidden + 1,), (batch, in_dim), (batch,)))
            want = self.reference_loss_grad(theta, X, y, in_dim, hidden)
            got = mlp_loss_grad(theta, X, y, in_dim, hidden)
            assert got[0] == want[0], (in_dim, hidden, batch)
            assert got[1].tobytes() == want[1].tobytes(), (in_dim, hidden, batch)

    def test_inputs_are_read_only_and_every_grad_is_new(self):
        rng = np.random.default_rng(18)
        task = MlpTask(4, 6, rng)
        theta = task.init_theta(rng) + rng.normal(size=4 * 6 + 13)
        X, y = task.sample_batch(rng, 9)
        copies = [a.copy() for a in (theta, X, y)]
        for a in (theta, X, y):
            a.flags.writeable = False  # a write into an input raises
        _, first = mlp_loss_grad(theta, X, y, 4, 6)
        kept = first.copy()
        _, second = mlp_loss_grad(theta, X[::-1].copy(), y[::-1].copy(), 4, 6)
        assert first is not second and not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()
        for a, before in zip((theta, X, y), copies):
            assert a.tobytes() == before.tobytes()


class TestFiniteDiff:
    def test_quadratic_is_exact_up_to_rounding(self):
        rng = np.random.default_rng(7)
        task = QuadraticTask(6, rng)
        theta = task.init_theta(rng)
        batch = task.sample_batch(rng, 8)
        assert finite_diff_check(task, theta, batch, h=1e-5) <= 1e-9

    def test_coordinate_subsampling_for_large_dim(self, monkeypatch):
        monkeypatch.setattr(tasks, "_MAX_COORDS", 50)
        rng = np.random.default_rng(8)
        task = QuadraticTask(500, rng)
        theta = task.init_theta(rng)
        batch = task.sample_batch(rng, 8)
        err = finite_diff_check(task, theta, batch, h=1e-5, rng=np.random.default_rng(1))
        assert err <= 1e-9
        # Without an rng, the subset is drawn from a fresh default_rng(0) on every call.
        seeded = finite_diff_check(task, theta, batch, h=1e-5, rng=np.random.default_rng(0))
        assert seeded != err
        for _ in range(2):
            assert finite_diff_check(task, theta, batch, h=1e-5) == seeded

    def test_a_nan_gradient_coordinate_gives_a_nan_error(self):
        rng = np.random.default_rng(9)
        task = QuadraticTask(3, rng)
        loss_and_grad = task.loss_and_grad

        def nan_at_1(theta, batch):
            loss, g = loss_and_grad(theta, batch)
            g[1] = math.nan
            return loss, g

        task.loss_and_grad = nan_at_1
        assert math.isnan(finite_diff_check(task, task.init_theta(rng), task.sample_batch(rng, 4)))

    def test_a_nan_at_an_unsampled_coordinate_gives_a_nan_error(self):
        rng = np.random.default_rng(8)
        task = QuadraticTask(500, rng)
        loss_and_grad = task.loss_and_grad

        def nan_at_0(theta, batch):
            loss, g = loss_and_grad(theta, batch)
            g[0] = math.nan
            return loss, g

        task.loss_and_grad = nan_at_0
        # the 200 coordinates rng seed 1 samples leave out coordinate 0
        err = finite_diff_check(task, task.init_theta(rng), task.sample_batch(rng, 4),
                                rng=np.random.default_rng(1))
        assert math.isnan(err)

    def test_invalid_h(self):
        # a NaN or infinite h made the check read NaN, which check-grad blamed on the gradient
        rng = np.random.default_rng(9)
        task = QuadraticTask(3, rng)
        for h in (0.0, -1e-5, math.nan, math.inf):
            message = rf"^finite-difference step h must be finite and > 0, got {h}$"
            with pytest.raises(ValueError, match=message):
                finite_diff_check(task, task.init_theta(rng), task.sample_batch(rng, 4), h=h)


def test_build_task_names():
    rng = np.random.default_rng(0)
    assert isinstance(build_task("quadratic", 4, 8, rng), QuadraticTask)
    assert isinstance(build_task("logistic", 4, 8, rng), LogisticTask)
    assert isinstance(build_task("mlp", 4, 8, rng), MlpTask)
    with pytest.raises(ValueError, match="unknown task"):
        build_task("transformer", 4, 8, rng)


def test_batch_generation_is_seed_deterministic():
    for name in ("quadratic", "logistic", "mlp"):
        t1 = build_task(name, 4, 8, np.random.default_rng(42))
        t2 = build_task(name, 4, 8, np.random.default_rng(42))
        b1 = t1.sample_batch(np.random.default_rng(7), 16)
        b2 = t2.sample_batch(np.random.default_rng(7), 16)
        if name == "quadratic":
            assert np.array_equal(b1, b2)
        else:
            assert np.array_equal(b1[0], b2[0]) and np.array_equal(b1[1], b2[1])


@pytest.mark.parametrize("high", [tasks.TRAIN_POOL, 1000])  # and one not a power of two
@pytest.mark.parametrize("batch_size, steps", [
    (32, 5),  # fewer steps than one block
    (32, 3 * (tasks._DRAW // 32) + 7),  # not a whole number of blocks
    (7, 2000),  # blocks of 1170 steps, an odd number of indices each
    (tasks._DRAW + 1, 3),  # one step per block
])
@pytest.mark.parametrize("name", ["quadratic", "logistic", "mlp"])
def test_batches_are_consecutive_sample_batch_calls(monkeypatch, name, batch_size, steps, high):
    # One (k, batch_size) draw must give k (batch_size,) draws' numbers and
    # leave the generator where they leave it; this pins that on the installed numpy.
    monkeypatch.setattr(tasks, "TRAIN_POOL", high)
    task = build_task(name, 4, 8, np.random.default_rng(0))
    blocked, single = np.random.default_rng(1), np.random.default_rng(1)
    got = list(task.batches(blocked, batch_size, steps))
    want = [task.sample_batch(single, batch_size) for _ in range(steps)]
    assert len(got) == steps
    for t, (g, w) in enumerate(zip(got, want)):
        g, w = (g, w) if name != "quadratic" else ((g,), (w,))
        assert all(np.array_equal(a, b) for a, b in zip(g, w, strict=True)), t
    assert blocked.bit_generator.state == single.bit_generator.state


def test_loss_and_grad_deterministic_given_inputs():
    rng = np.random.default_rng(1)
    task = build_task("mlp", 4, 8, rng)
    theta = task.init_theta(rng)
    batch = task.sample_batch(rng, 8)
    l1, g1 = task.loss_and_grad(theta, batch)
    l2, g2 = task.loss_and_grad(theta, batch)
    assert l1 == l2 and np.array_equal(g1, g2)


def test_all_gradients_pass_fd_check_over_seeds():
    # the stated tolerances, a handful of seeds here (acceptance runs 20)
    tolerances = {"quadratic": 1e-9, "logistic": 1e-6, "mlp": 1e-5}
    for name, tol in tolerances.items():
        for seed in range(5):
            rng = np.random.default_rng(seed)
            task = build_task(name, 6, 5, rng)
            theta = task.init_theta(rng)
            batch = task.sample_batch(rng, 16)
            assert finite_diff_check(task, theta, batch, h=1e-5) <= tol, (name, seed)
