import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from oracles import backprop_train_reference, mlp_numeric_gradients, sigmoid_reference


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


def identity_pairs():
    patterns = np.eye(8)
    targets = np.where(patterns > 0.5, 0.9, 0.1)
    return list(zip(patterns, targets))


def same_weights(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestBackpropTrain:
    def call(self, pairs=None, lr=0.1, epochs=1, nets=None, rngs=None):
        nets = [init_mlp((2, 2), RandomSource(11))] if nets is None else nets
        rngs = [RandomSource(12 + i) for i in range(len(nets))] if rngs is None else rngs
        pairs = [([0.0, 1.0], [0.5, 0.5])] if pairs is None else pairs
        return backprop_train(nets, pairs, lr, epochs, rngs)

    def test_zero_epochs_identity(self):
        net = init_mlp((2, 2, 1), RandomSource(6))
        [out] = backprop_train([net], [([0.0, 1.0], [0.5])], 0.1, 0, [RandomSource(7)])
        assert same_weights(out.weights, net.weights)

    def test_inputs_not_modified(self):
        net = init_mlp((8, 3, 8), RandomSource(9))
        before = [w.copy() for w in net.weights]
        backprop_train([net], identity_pairs(), 0.3, 2, [RandomSource(10)])
        assert same_weights(net.weights, before)

    def test_error_decreases_on_identity_task(self):
        pairs = identity_pairs()
        rng = RandomSource(8)
        net = init_mlp((8, 3, 8), rng)
        start = total_squared_error(net, pairs)
        [trained] = backprop_train([net], pairs, 0.3, 300, [rng])
        assert total_squared_error(trained, pairs) < start

    def test_total_squared_error_definition(self):
        net = init_mlp((3, 4, 2), RandomSource(16))
        pairs = [([0.5, -1.0, 2.0], [0.2, 0.7]), ([0.0, 0.3, -0.4], [0.9, 0.1])]
        want = sum(0.5 * float(((forward(net, x)[0] - np.array(t)) ** 2).sum()) for x, t in pairs)
        assert total_squared_error(net, pairs) == want

    def test_target_range_enforced(self):
        for bad in (1.0, 0.0, np.nan):
            with pytest.raises(ContractError, match="pair 1: targets"):
                self.call(pairs=[([0.0, 1.0], [0.5, 0.5]), ([1.0, 0.0], [bad, 0.5])])

    @pytest.mark.parametrize("x", [[np.inf, 1.0], [0.0, -np.inf], [np.nan, 0.0]])
    def test_non_finite_input(self, x):
        with pytest.raises(ContractError, match="pair 0: input must be finite"):
            self.call(pairs=[(x, [0.5, 0.5])])

    @pytest.mark.parametrize("x,t", [([0.0, 1.0, 2.0], [0.5, 0.5]), ([0.0, 1.0], [0.5])])
    def test_pair_shape_named(self, x, t):
        with pytest.raises(ContractError, match="pair 1:"):
            self.call(pairs=[([0.0, 1.0], [0.5, 0.5]), (x, t)])

    def test_learning_rate_positive(self):
        for lr in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ContractError, match="learning rate"):
                self.call(lr=lr)

    def test_negative_epochs(self):
        with pytest.raises(ContractError, match="epochs"):
            self.call(epochs=-5)

    def test_no_nets(self):
        with pytest.raises(ContractError, match="at least one net"):
            self.call(nets=[], rngs=[])

    def test_mixed_shapes(self):
        nets = [init_mlp((2, 2), RandomSource(1)), init_mlp((2, 3, 2), RandomSource(2))]
        with pytest.raises(ContractError, match="layer_sizes"):
            self.call(nets=nets)

    def test_one_rng_per_net(self):
        nets = [init_mlp((2, 2), RandomSource(s)) for s in (1, 2)]
        with pytest.raises(ContractError, match="RandomSource per net"):
            self.call(nets=nets, rngs=[RandomSource(3)])


@st.composite
def training_problems(draw):
    """Same-shaped nets, dense (not one-hot) pairs, and a few epochs."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_layers = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(1, 9), min_size=n_layers, max_size=n_layers)))
    n_nets = draw(st.integers(1, 4))
    n_pairs = draw(st.integers(1, 6))
    rng = RandomSource(seed)
    nets = [init_mlp(sizes, rng.child(s)) for s in range(n_nets)]
    pairs = [(rng.normal(0.0, 2.0, size=sizes[0]), rng.uniform(0.01, 0.99, size=sizes[-1]))
             for _ in range(n_pairs)]
    lr = draw(st.sampled_from([0.01, 0.3, 1.0, 4.0]))
    epochs = draw(st.integers(0, 4))
    return nets, pairs, lr, epochs, [seed + 1 + s for s in range(n_nets)]


class TestLockstepMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(training_problems())
    def test_random_problems(self, problem):
        nets, pairs, lr, epochs, rng_seeds = problem
        trained = backprop_train(nets, pairs, lr, epochs, [RandomSource(s) for s in rng_seeds])
        for net, got, s in zip(nets, trained, rng_seeds):
            want = backprop_train_reference(net.weights, pairs, lr, epochs, RandomSource(s))
            assert same_weights(got.weights, want)

    def test_identity_task(self):
        nets = [init_mlp((8, 3, 8), RandomSource(20 + s)) for s in range(3)]
        trained = backprop_train(nets, identity_pairs(), 0.3, 50,
                                 [RandomSource(30 + s) for s in range(3)])
        for s, (net, got) in enumerate(zip(nets, trained)):
            want = backprop_train_reference(net.weights, identity_pairs(), 0.3, 50,
                                            RandomSource(30 + s))
            assert same_weights(got.weights, want)

    def test_net_independent_of_stack_mates(self):
        rng = RandomSource(45)
        pairs = [(rng.normal(size=8), rng.uniform(0.05, 0.95, size=8)) for _ in range(6)]
        nets = [init_mlp((8, 3, 8), RandomSource(40 + s)) for s in range(4)]
        together = backprop_train(nets, pairs, 0.3, 20, [RandomSource(50 + s) for s in range(4)])
        for s in range(4):
            [alone] = backprop_train([nets[s]], pairs, 0.3, 20, [RandomSource(50 + s)])
            assert same_weights(alone.weights, together[s].weights)

    def test_sigmoid_bit_equal(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, tiny, -tiny,
                          1e-310, -1e-310, 36.0, -36.0, 710.0, -710.0, np.inf, -np.inf])
        z = np.concatenate([edges, RandomSource(60).normal(0.0, 30.0, size=20_000)])
        got, want = sigmoid(z), sigmoid_reference(z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ContractError):
            Mlp((2, 3), [np.zeros((3, 2))])  # missing bias column
        with pytest.raises(ContractError):
            Mlp((2,), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights(self, bad):
        w1 = np.zeros((8, 4))
        w1[2, 1] = bad
        with pytest.raises(ContractError, match="weight matrix 1"):
            Mlp((8, 3, 8), [np.zeros((3, 9)), w1])

    def test_init_range(self):
        net = init_mlp((6, 5, 4), RandomSource(15))
        for w in net.weights:
            assert np.all(w >= -0.5) and np.all(w <= 0.5)

    def test_sigmoid_stable(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert abs(sigmoid(np.array([0.0]))[0] - 0.5) < 1e-15
