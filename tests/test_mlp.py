import numpy as np
import pytest

from shadowprobe.core import ContractError, RandomSource
from shadowprobe.mlp import (
    Mlp,
    backprop_train,
    forward,
    gradients,
    init_mlp,
    sigmoid,
    total_squared_error,
)

from oracles import mlp_numeric_gradients


class TestForward:
    def test_zero_weights_give_half(self):
        net = Mlp((3, 2, 2), [np.zeros((2, 4)), np.zeros((2, 3))])
        out, acts = forward(net, [0.3, -0.5, 2.0])
        assert np.allclose(out, 0.5)
        assert all(np.allclose(a, 0.5) for a in acts)

    def test_single_unit_definition(self):
        w = np.array([[0.25, -0.5, 1.5]])  # bias, w1, w2
        net = Mlp((2, 1), [w])
        x = np.array([0.8, -0.4])
        out, _ = forward(net, x)
        want = 1.0 / (1.0 + np.exp(-(0.25 + -0.5 * 0.8 + 1.5 * -0.4)))
        assert abs(out[0] - want) < 1e-15

    def test_matches_matrix_oracle(self):
        rng = RandomSource(1)
        for _ in range(5):
            net = init_mlp((4, 3, 2), rng)
            x = rng.normal(size=4)
            out, _ = forward(net, x)
            # Independent oracle: explicit matrix algebra.
            h = 1.0 / (1.0 + np.exp(-(net.weights[0] @ np.concatenate(([1.0], x)))))
            o = 1.0 / (1.0 + np.exp(-(net.weights[1] @ np.concatenate(([1.0], h)))))
            assert np.max(np.abs(out - o)) < 1e-12

    def test_activations_open_interval(self):
        rng = RandomSource(2)
        net = init_mlp((5, 4, 3), rng)
        for _ in range(10):
            x = rng.normal(0, 2, size=5)
            out, acts = forward(net, x)
            for a in acts:
                assert np.all(a > 0.0) and np.all(a < 1.0)

    def test_dimension_mismatch(self):
        net = init_mlp((3, 2), RandomSource(3))
        with pytest.raises(ContractError):
            forward(net, [1.0, 2.0])


class TestGradients:
    def test_against_central_differences(self):
        rng = RandomSource(4)
        net = init_mlp((4, 3, 2), rng)
        x = rng.normal(size=4)
        t = np.array([0.8, 0.2])
        analytic = gradients(net, x, t)

        def err():
            out, _ = forward(net, x)
            return 0.5 * float(((t - out) ** 2).sum())

        numeric = mlp_numeric_gradients(err, net.weights, h=1e-5)
        for a, n in zip(analytic, numeric):
            assert np.max(np.abs(a - n)) <= 1e-6

    def test_three_layer_gradients(self):
        rng = RandomSource(5)
        net = init_mlp((3, 4, 3, 2), rng)
        x = rng.normal(size=3)
        t = np.array([0.3, 0.7])
        analytic = gradients(net, x, t)

        def err():
            out, _ = forward(net, x)
            return 0.5 * float(((t - out) ** 2).sum())

        numeric = mlp_numeric_gradients(err, net.weights, h=1e-5)
        for a, n in zip(analytic, numeric):
            assert np.max(np.abs(a - n)) <= 1e-6


class TestBackpropTrain:
    def identity_pairs(self):
        patterns = np.eye(8)
        targets = np.where(patterns > 0.5, 0.9, 0.1)
        return list(zip(patterns, targets))

    def test_zero_epochs_identity(self):
        net = init_mlp((2, 2, 1), RandomSource(6))
        out = backprop_train(net, [([0.0, 1.0], [0.5])], 0.1, 0, RandomSource(7))
        assert all(np.array_equal(a, b) for a, b in zip(out.weights, net.weights))

    def test_error_decreases_on_identity_task(self):
        pairs = self.identity_pairs()
        rng = RandomSource(8)
        net = init_mlp((8, 3, 8), rng)
        start = total_squared_error(net, pairs)
        trained = backprop_train(net, pairs, 0.3, 300, rng)
        assert total_squared_error(trained, pairs) < start

    def test_target_range_enforced(self):
        net = init_mlp((2, 2), RandomSource(11))
        with pytest.raises(ContractError):
            backprop_train(net, [([0.0, 1.0], [1.0])], 0.1, 1, RandomSource(12))

    def test_learning_rate_positive(self):
        net = init_mlp((2, 2), RandomSource(13))
        with pytest.raises(ContractError):
            backprop_train(net, [([0.0, 1.0], [0.5])], 0.0, 1, RandomSource(14))


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ContractError):
            Mlp((2, 3), [np.zeros((3, 2))])  # missing bias column
        with pytest.raises(ContractError):
            Mlp((2,), [])

    def test_init_range(self):
        net = init_mlp((6, 5, 4), RandomSource(15))
        for w in net.weights:
            assert np.all(w >= -0.5) and np.all(w <= 0.5)

    def test_sigmoid_stable(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert abs(sigmoid(np.array([0.0]))[0] - 0.5) < 1e-15
