"""Adam and loss-assembly tests.

The oracle for Adam is an independent scalar implementation of the
published recurrence, run step by step alongside the array version.
"""

import numpy as np
import pytest

from tracefill.autodiff import Tape
from tracefill.optim import Adam, mse, reduced_loss


def scalar_adam_reference(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Textbook Adam on one scalar; returns the iterate after each step."""
    x, m, v = x0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x)
    return out


class TestAdam:
    def test_first_step_is_roughly_signed_learning_rate(self):
        # with g constant, m_hat = g and v_hat = g^2, so the step is
        # lr * g / (|g| + eps), i.e. almost exactly lr * sign(g)
        adam = Adam(learning_rate=0.001)
        values = {"w": np.array([0.0, 10.0])}
        grads = {"w": np.array([1.0, -3.0])}
        updated = adam.step(values, grads)
        np.testing.assert_allclose(
            updated["w"] - values["w"], [-0.001, 0.001], rtol=1e-7
        )

    def test_matches_scalar_reference_over_many_steps(self):
        rng = np.random.default_rng(8)
        grads = rng.normal(0, 2, 25)
        expected = scalar_adam_reference(grads, lr=0.01)

        adam = Adam(learning_rate=0.01)
        values = {"x": np.array([0.0])}
        for g, ref in zip(grads, expected):
            values = adam.step(values, {"x": np.array([g])})
            np.testing.assert_allclose(values["x"][0], ref, rtol=1e-14)

    def test_quadratic_descent_converges(self):
        # minimize f(x) = x^2 from x = 5 with lr 0.1; gradient is 2x
        adam = Adam(learning_rate=0.1)
        values = {"x": np.array([5.0])}
        for _ in range(200):
            values = adam.step(values, {"x": 2.0 * values["x"]})
        assert abs(values["x"][0]) < 0.5

    def test_per_key_independent_state(self):
        adam = Adam(learning_rate=0.1)
        values = {"a": np.zeros(2), "b": np.zeros(3)}
        grads = {"a": np.ones(2), "b": -np.ones(3)}
        updated = adam.step(values, grads)
        assert updated["a"].shape == (2,)
        assert updated["b"].shape == (3,)
        assert updated["a"][0] < 0 < updated["b"][0]

    def test_missing_gradient_key_raises(self):
        adam = Adam(learning_rate=0.1)
        with pytest.raises(KeyError):
            adam.step({"a": np.zeros(2)}, {})

    def test_shape_mismatch_raises(self):
        adam = Adam(learning_rate=0.1)
        with pytest.raises(ValueError):
            adam.step({"a": np.zeros(2)}, {"a": np.zeros(3)})

    def test_returns_fresh_arrays(self):
        adam = Adam(learning_rate=0.1)
        values = {"a": np.zeros(2)}
        updated = adam.step(values, {"a": np.ones(2)})
        assert updated["a"] is not values["a"]
        np.testing.assert_array_equal(values["a"], np.zeros(2))

    def test_step_count_advances(self):
        adam = Adam(learning_rate=0.1)
        assert adam.step_count == 0
        adam.step({"a": np.zeros(1)}, {"a": np.ones(1)})
        adam.step({"a": np.zeros(1)}, {"a": np.ones(1)})
        assert adam.step_count == 2

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)


class TestLosses:
    def test_mse_matches_numpy(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        b = tape.leaf([[0.0, 1.0], [5.0, 4.0]])
        expected = np.mean((a.value - b.value) ** 2)
        assert mse(tape, a, b).item() == expected

    def test_reduced_loss_sums_per_column_means(self):
        tape = Tape()
        target = tape.leaf([[0.0, 0.0], [0.0, 0.0]])
        output = tape.leaf([[1.0, 2.0], [1.0, 2.0]])
        # column means of squared error: 1.0 and 4.0; reduced loss sums them
        loss = reduced_loss(tape, target, output, weights=(1.0, 1.0))
        assert loss.item() == 5.0

    def test_reduced_loss_weights_scale_terms(self):
        tape = Tape()
        target = tape.leaf([[0.0, 0.0]])
        output = tape.leaf([[1.0, 2.0]])
        loss = reduced_loss(tape, target, output, weights=(2.0, 0.5))
        assert loss.item() == 2.0 * 1.0 + 0.5 * 4.0

    def test_reduced_loss_rejects_mismatched_shapes(self):
        tape = Tape()
        target = tape.leaf(np.zeros((2, 2)))
        output = tape.leaf(np.zeros((3, 2)))
        with pytest.raises(Exception):
            reduced_loss(tape, target, output, weights=(1.0, 1.0))

    def test_reduced_loss_rejects_wrong_weight_count(self):
        tape = Tape()
        target = tape.leaf(np.zeros((2, 2)))
        output = tape.leaf(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            reduced_loss(tape, target, output, weights=(1.0,))

    def test_reduced_loss_gradient_flows_per_column(self):
        tape = Tape()
        target = tape.leaf(np.zeros((2, 2)))
        output = tape.leaf([[1.0, 0.0], [1.0, 0.0]])
        loss = reduced_loss(tape, target, output, weights=(1.0, 3.0))
        (grad,) = tape.backward(loss, [output])
        # d/d_out of (mean col0 sq) = 2*out/2 = out; second column zero
        np.testing.assert_array_equal(grad, [[1.0, 0.0], [1.0, 0.0]])

    def test_reduced_loss_matches_per_column_reference(self):
        # reference: the weighted sum of per-column MSEs, one column at a time
        rng = np.random.default_rng(5)
        t = rng.uniform(-1, 1, (7, 4))
        o = rng.uniform(-1, 1, (7, 4))
        weights = (0.3, 0.0, 2.5, 1.0)
        expected = sum(
            w * np.mean((t[:, j] - o[:, j]) ** 2) for j, w in enumerate(weights)
        )
        tape = Tape()
        loss = reduced_loss(tape, tape.leaf(t), tape.leaf(o), weights)
        assert loss.item() == pytest.approx(expected, rel=1e-14)

    def test_uniform_weights_give_pooled_mse_bitwise(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(-1, 1, (9, 4))
        o = rng.uniform(-1, 1, (9, 4))
        tape = Tape()
        a, b = tape.leaf(t), tape.leaf(o)
        before = len(tape)
        loss = reduced_loss(tape, a, b, np.full(4, 0.25))
        # no slicing, column scaling or rescaling: one weighted_mse op
        assert len(tape) == before + 1
        assert loss.item() == mse(tape, a, b).item()

    def test_zero_weight_column_cannot_influence_loss(self):
        target = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        poisoned = target.copy()
        poisoned[:, 1] = [1e6, -3e7]
        # (1e200)**2 overflows to inf and 0 * inf is nan, so a kernel that
        # reads the column and multiplies it by its weight 0 fails here
        overflowing = target.copy()
        overflowing[:, 1] = [1e200, -1e200]
        output = np.full((2, 3), 0.25)
        results = []
        for data in (target, poisoned, overflowing):
            tape = Tape()
            t = tape.leaf(data)
            loss = reduced_loss(tape, t, tape.leaf(output), (2.0, 0.0, 0.7))
            results.append((loss.item(), tape.backward(loss, [t])[0]))
        for loss, grad in results[1:]:
            assert loss == results[0][0]
            np.testing.assert_array_equal(grad, results[0][1])
        np.testing.assert_array_equal(results[0][1][:, 1], 0.0)

    @pytest.mark.parametrize(
        "weights", [(1.0, -0.5), (1.0, np.nan), (np.inf, 1.0), (0.0, 0.0)]
    )
    def test_reduced_loss_rejects_bad_weights(self, weights):
        # the op checks its weights, so a direct call is rejected the same way
        tape = Tape()
        target = tape.leaf(np.zeros((2, 2)))
        output = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError):
            reduced_loss(tape, target, output, weights)
        with pytest.raises(ValueError):
            tape.weighted_mse(target, output, weights)
