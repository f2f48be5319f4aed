import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowprobe.core import ContractError, NUMERIC, RandomSource, make_dataset, numeric_matrix
from shadowprobe.svm import (
    KernelSpec,
    SvmModel,
    kernel_matrix,
    kkt_audit,
    smo_train,
    svm_decision,
    svm_predict,
    _map_labels,
)

from oracles import kernel_eval, smo_train_reference, svm_dual_objective, svm_dual_pga


def xy_dataset(X, y):
    X = np.asarray(X, dtype=float)
    return make_dataset([(f"x{i}", NUMERIC) for i in range(X.shape[1])],
                        X.tolist(), [float(v) for v in y])


def k1(spec, x, y):
    """The library's kernel value for one pair of vectors."""
    return kernel_matrix(spec, [x], [y])[0, 0]


def oracle_k(spec, x, y):
    return kernel_eval(spec.kind, x, y, spec.gamma, spec.r, spec.degree)


class TestKernels:
    def test_linear_dot(self):
        assert k1(KernelSpec("linear"), [1, 2], [1, 2]) == 5.0

    def test_rbf_zero_distance(self):
        for gamma in (0.1, 1.0, 10.0):
            assert k1(KernelSpec("rbf", gamma=gamma), [3, -1], [3, -1]) == 1.0

    def test_polynomial_hand_value(self):
        # (1*(1*1 + 0*1) + 1)^3 = 8, cross-checked by hand.
        spec = KernelSpec("polynomial", gamma=1.0, r=1.0, degree=3)
        assert k1(spec, [1, 0], [1, 1]) == 8.0

    def test_sigmoid(self):
        spec = KernelSpec("sigmoid", gamma=0.5, r=-1.0)
        assert abs(k1(spec, [2.0], [2.0]) - np.tanh(0.5 * 4 - 1)) < 1e-15

    def test_matrix_matches_scalar(self):
        rng = RandomSource(5)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(2, 3))
        for spec in (KernelSpec("linear"), KernelSpec("polynomial", 0.7, 0.3, 2),
                     KernelSpec("rbf", 0.9), KernelSpec("sigmoid", 0.2, 0.1)):
            K = kernel_matrix(spec, X, Y)
            for i in range(4):
                for j in range(2):
                    assert abs(K[i, j] - oracle_k(spec, X[i], Y[j])) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            kernel_matrix(KernelSpec("linear"), [[1, 2]], [[1, 2, 3]])

    def test_invalid_specs(self):
        with pytest.raises(ContractError):
            KernelSpec("rbf", gamma=-1.0)
        with pytest.raises(ContractError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ContractError):
            KernelSpec("spline")


class TestSmoTrain:
    def test_two_point_margin(self):
        ds = xy_dataset([[0.0], [2.0]], [-1, 1])
        m = smo_train(ds, KernelSpec("linear"), C=10.0, tol=1e-3, rng=RandomSource(3))
        assert m.n_support == 2
        assert abs(svm_decision(m, [1.0])) <= 1e-3
        assert m.converged

    def test_xor_rbf(self):
        ds = xy_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [-1, 1, 1, -1])
        m = smo_train(ds, KernelSpec("rbf", gamma=1.0), C=10.0, tol=1e-3, rng=RandomSource(4))
        preds = [svm_predict(m, x) for x in numeric_matrix(ds)]
        assert preds == [-1, 1, 1, -1]

    def test_dual_objective_matches_pga_oracle(self):
        rng = RandomSource(11)
        X = np.vstack([rng.normal(0, 1, size=(10, 2)), rng.normal(4, 1, size=(10, 2))])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        ds = xy_dataset(X, y)
        kernel = KernelSpec("linear")
        m = smo_train(ds, kernel, C=1.0, tol=1e-5, rng=RandomSource(5))
        K = kernel_matrix(kernel, X, X)
        alpha = np.zeros(20)
        alpha[m.sv_indices] = m.sv_alpha
        got = svm_dual_objective(alpha, y, K)
        oracle_alpha = svm_dual_pga(y, K, C=1.0)
        want = svm_dual_objective(oracle_alpha, y, K)
        assert abs(got - want) < 1e-4
        assert kkt_audit(m, ds, 1e-3)["passed"]

    def test_dual_objective_non_decreasing(self):
        rng = RandomSource(12)
        X = np.vstack([rng.normal(0, 1, size=(8, 2)), rng.normal(3, 1, size=(8, 2))])
        y = [-1.0] * 8 + [1.0] * 8
        K = kernel_matrix(KernelSpec("linear"), X, X)
        *_, trace = smo_train_reference(np.array(y), K, 1.0, 1e-3, 10 * len(y), RandomSource(6),
                                        record_objective=True)
        assert len(trace) > 0
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9

    def test_dual_equality_constraint(self):
        rng = RandomSource(13)
        X = np.vstack([rng.normal(0, 1, size=(10, 3)), rng.normal(3, 1, size=(10, 3))])
        y = [-1.0] * 10 + [1.0] * 10
        m = smo_train(xy_dataset(X, y), KernelSpec("rbf", gamma=0.5), C=2.0,
                      tol=1e-3, rng=RandomSource(7))
        assert abs(float(m.sv_alpha @ m.sv_y)) < 1e-8
        assert np.all(m.sv_alpha > 0)
        assert np.all(m.sv_alpha <= m.C + 1e-12)

    def test_single_class_rejected(self):
        ds = xy_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(ContractError):
            smo_train(ds, KernelSpec("linear"), rng=RandomSource(0))

    def test_named_labels_mapped_sorted(self):
        ds = make_dataset([("x", NUMERIC)], [[0.0], [0.2], [2.0], [2.2]],
                          ["apple", "apple", "pear", "pear"])
        m = smo_train(ds, KernelSpec("linear"), C=10.0, rng=RandomSource(1))
        assert m.label_map == {-1: "apple", 1: "pear"}
        assert svm_predict(m, [0.0]) == "apple"
        assert svm_predict(m, [2.2]) == "pear"

    def test_non_convergence_flagged(self):
        # A budget of zero sweeps cannot converge.
        ds = xy_dataset([[0.0], [2.0]], [-1, 1])
        m = smo_train(ds, KernelSpec("linear"), C=10.0, tol=1e-3,
                      max_passes=0, rng=RandomSource(3))
        assert not m.converged


def assert_matches_reference(ds, kernel, C, tol, max_passes, seed):
    """smo_train against the numpy-scalar reference loop, bit for bit."""
    m = smo_train(ds, kernel, C=C, tol=tol, max_passes=max_passes, rng=RandomSource(seed))
    X = numeric_matrix(ds)
    y, _ = _map_labels(ds.labels)
    passes = 10 * len(y) if max_passes is None else max_passes
    alpha, b, converged, _ = smo_train_reference(
        y, kernel_matrix(kernel, X, X), C, tol, passes, RandomSource(seed))
    sv = np.nonzero(alpha > 0)[0]
    assert np.array_equal(m.sv_indices, sv)
    assert m.sv_alpha.tobytes() == alpha[sv].tobytes()
    assert m.bias == b and type(m.bias) is float
    assert m.converged == converged
    return m


KERNELS = st.sampled_from([
    KernelSpec("linear"), KernelSpec("polynomial", 0.5, 1.0, 2),
    KernelSpec("polynomial", 1.0, 0.0, 3), KernelSpec("rbf", 0.7),
    KernelSpec("sigmoid", 0.1, -0.5),
])


class TestSmoMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24), d=st.integers(1, 4),
           kernel=KERNELS, C=st.sampled_from([0.05, 1.0, 7.5]),
           max_passes=st.sampled_from([0, 1, None]))
    def test_random_datasets(self, seed, n, d, kernel, C, max_passes):
        gen = np.random.default_rng(seed)
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        gen.shuffle(y)
        X = gen.normal(size=(n, d)) + 0.8 * y[:, None]
        if seed % 3 == 0:
            X = np.round(X)  # repeated points and exact kernel ties
        assert_matches_reference(xy_dataset(X, y), kernel, C, 1e-3, max_passes, seed)

    def test_unconverged(self):
        rng = RandomSource(41)
        X = rng.normal(0, 1, size=(40, 2))
        y = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
        m = assert_matches_reference(xy_dataset(X, y), KernelSpec("rbf", 2.0), 5.0, 1e-4, 1, 3)
        assert not m.converged and m.n_support > 0

    def test_netflow_shadow(self):
        from shadowprobe import datagen
        spec = datagen.default_flow_spec(1.0)
        ds = datagen.gen_flow_dataset(spec, True, 300, RandomSource(5))
        m = assert_matches_reference(ds, KernelSpec("polynomial", 1.0, 0.0, 3), 1.0, 1e-3,
                                     None, 6)
        assert m.converged


class TestDecision:
    def trained(self):
        rng = RandomSource(21)
        X = np.vstack([rng.normal(0, 1, size=(12, 2)), rng.normal(4, 1, size=(12, 2))])
        y = [-1.0] * 12 + [1.0] * 12
        ds = xy_dataset(X, y)
        return smo_train(ds, KernelSpec("rbf", gamma=0.3), C=5.0, tol=1e-4,
                         rng=RandomSource(8)), ds

    def test_free_vectors_on_margin(self):
        m, ds = self.trained()
        free = (m.sv_alpha > 1e-8) & (m.sv_alpha < m.C - 1e-8)
        assert free.any()
        for x, y in zip(m.sv_x[free], m.sv_y[free]):
            assert abs(svm_decision(m, x) - y) <= 1e-4 + 1e-9

    def test_resummation_oracle(self):
        m, _ = self.trained()
        rng = RandomSource(9)
        for _ in range(10):
            x = rng.normal(2, 2, size=2)
            got = svm_decision(m, x)
            # Independent re-summation with reversed term order and
            # scalar kernel evaluations.
            acc = m.bias
            for i in reversed(range(m.n_support)):
                acc += m.sv_alpha[i] * m.sv_y[i] * oracle_k(m.kernel, m.sv_x[i], x)
            assert abs(got - acc) < 1e-9

    def test_sign_zero_is_positive(self):
        m = SvmModel(
            sv_indices=np.array([], dtype=np.int64),
            sv_y=np.zeros(0), sv_x=np.zeros((0, 1)), sv_alpha=np.zeros(0),
            bias=0.0, kernel=KernelSpec("linear"), C=1.0, converged=True,
        )
        assert svm_predict(m, [5.0]) == 1

    def test_dimension_mismatch(self):
        m, _ = self.trained()
        with pytest.raises(ContractError):
            svm_decision(m, [1.0, 2.0, 3.0])

    def test_rbf_translation_invariance(self):
        rng = RandomSource(31)
        X = np.vstack([rng.normal(0, 1, size=(10, 2)), rng.normal(3, 1, size=(10, 2))])
        y = [-1.0] * 10 + [1.0] * 10
        shift = np.array([13.7, -4.2])
        kernel = KernelSpec("rbf", gamma=0.7)
        m1 = smo_train(xy_dataset(X, y), kernel, C=2.0, rng=RandomSource(10))
        m2 = smo_train(xy_dataset(X + shift, y), kernel, C=2.0, rng=RandomSource(10))
        probes = RandomSource(11).normal(1.5, 2.0, size=(20, 2))
        for p in probes:
            assert (svm_decision(m1, p) >= 0) == (svm_decision(m2, p + shift) >= 0)


def test_label_mapping_helper():
    y, mapping = _map_labels([1.0, -1.0, 1.0])
    assert mapping is None and list(y) == [1.0, -1.0, 1.0]
    y, mapping = _map_labels(["b", "a", "b"])
    assert mapping == {-1: "a", 1: "b"} and list(y) == [1.0, -1.0, 1.0]
    with pytest.raises(ContractError):
        _map_labels(["a", "b", "c"])
