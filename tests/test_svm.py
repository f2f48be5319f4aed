import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowprobe import svm
from shadowprobe.core import ContractError, NUMERIC, RandomSource, make_dataset, numeric_matrix
from shadowprobe.svm import (
    KernelSpec,
    SvmModel,
    kernel_matrix,
    kkt_audit,
    smo_train,
    svm_decision,
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


def signs(model, X):
    """Predicted classes as +-1: the sign of the decision value, sign(0) = +1."""
    return np.where(svm_decision(model, X) >= 0, 1, -1).tolist()


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

    @pytest.mark.parametrize("kind", svm.KERNEL_KINDS)
    @pytest.mark.parametrize("field", ["gamma", "r"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, kind, field, value):
        # A NaN gamma or an infinite r used to make every stopping test
        # False, so smo_train ran toward its 10^7-iteration cap.
        with pytest.raises(ContractError, match="must be finite"):
            KernelSpec(kind, **{field: value})

    @pytest.mark.parametrize("spec", [
        KernelSpec("linear"), KernelSpec("polynomial", 0.7, 0.3, 3),
        KernelSpec("rbf", 0.9), KernelSpec("sigmoid", 0.2, 0.1),
    ], ids=lambda s: s.kind)
    def test_diagonal_from_norms_matches_matrix(self, spec):
        X = RandomSource(17).normal(0, 2, size=(30, 5))
        sq = (X * X).sum(1)
        np.testing.assert_allclose(svm._kernel_values(spec, sq, sq, sq),
                                   kernel_matrix(spec, X, X).diagonal(), rtol=1e-12)


class TestSmoTrain:
    def test_two_point_margin(self):
        ds = xy_dataset([[0.0], [2.0]], [-1, 1])
        m = smo_train(ds, KernelSpec("linear"), C=10.0, tol=1e-3)
        assert m.n_support == 2
        assert abs(svm_decision(m, [[1.0]])[0]) <= 1e-3
        assert m.converged

    def test_xor_rbf(self):
        ds = xy_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [-1, 1, 1, -1])
        m = smo_train(ds, KernelSpec("rbf", gamma=1.0), C=10.0, tol=1e-3)
        assert signs(m, numeric_matrix(ds)) == [-1, 1, 1, -1]

    def test_dual_objective_matches_pga_oracle(self):
        rng = RandomSource(11)
        X = np.vstack([rng.normal(0, 1, size=(10, 2)), rng.normal(4, 1, size=(10, 2))])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        ds = xy_dataset(X, y)
        kernel = KernelSpec("linear")
        m = smo_train(ds, kernel, C=1.0, tol=1e-5)
        K = kernel_matrix(kernel, X, X)
        alpha = np.zeros(20)
        alpha[m.sv_indices] = m.sv_alpha
        got = svm_dual_objective(alpha, y, K)
        oracle_alpha = svm_dual_pga(y, K, C=1.0)
        want = svm_dual_objective(oracle_alpha, y, K)
        assert abs(got - want) < 1e-4
        assert kkt_audit(m, ds, 1e-3)["passed"]

    def test_dual_equality_constraint(self):
        rng = RandomSource(13)
        X = np.vstack([rng.normal(0, 1, size=(10, 3)), rng.normal(3, 1, size=(10, 3))])
        y = [-1.0] * 10 + [1.0] * 10
        m = smo_train(xy_dataset(X, y), KernelSpec("rbf", gamma=0.5), C=2.0, tol=1e-3)
        assert abs(float(m.sv_alpha @ m.sv_y)) < 1e-8
        assert np.all(m.sv_alpha > 0)
        assert np.all(m.sv_alpha <= m.C)

    def test_single_class_rejected(self):
        ds = xy_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(ContractError):
            smo_train(ds, KernelSpec("linear"))

    def test_named_labels_mapped_sorted(self):
        ds = make_dataset([("x", NUMERIC)], [[0.0], [0.2], [2.0], [2.2]],
                          ["apple", "apple", "pear", "pear"])
        m = smo_train(ds, KernelSpec("linear"), C=10.0)
        assert m.label_map == {-1: "apple", 1: "pear"}
        assert [m.label_map[s] for s in signs(m, [[0.0], [2.2]])] == ["apple", "pear"]

    @pytest.mark.parametrize("X,kernel,message", [
        # K(x, x) = (1e240)^3 and, for rbf, |x|^2 overflow on the diagonal.
        ([[0.0], [1e120]], KernelSpec("polynomial", 1.0, 0.0, 3),
         "kernel value K(x, x) of example 1 is not finite"),
        ([[0.0], [1e200]], KernelSpec("rbf", 1.0),
         "kernel value K(x, x) of example 1 is not finite"),
        # The diagonal is 0, but (x_0.x_1 - 1e200)^3 = (-2e200)^3 overflows.
        ([[1e100], [-1e100]], KernelSpec("polynomial", 1.0, -1e200, 3),
         "kernel column of example 1 is not finite"),
    ])
    def test_non_finite_kernel_values_rejected(self, X, kernel, message):
        with pytest.raises(ContractError, match=re.escape(message)):
            smo_train(xy_dataset(X, [-1, 1]), kernel, C=1.0)

    def test_non_convergence_flagged(self, monkeypatch):
        # With the iteration cap at zero no pair is ever updated.
        monkeypatch.setattr(svm, "_MIN_ITERS", 0)
        monkeypatch.setattr(svm, "_ITERS_PER_EXAMPLE", 0)
        m = smo_train(xy_dataset([[0.0], [2.0]], [-1, 1]), KernelSpec("linear"),
                      C=10.0, tol=1e-3)
        assert not m.converged and m.n_support == 0


class TestSmoMatchesReference:
    def test_unconverged(self, monkeypatch):
        # A cap of one iteration per example stops this problem early: the
        # multipliers stay feasible but fall short of the reference optimum.
        monkeypatch.setattr(svm, "_MIN_ITERS", 0)
        monkeypatch.setattr(svm, "_ITERS_PER_EXAMPLE", 1)
        rng = RandomSource(41)
        X = rng.normal(0, 1, size=(40, 2))
        y = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
        ds = xy_dataset(X, y)
        kernel = KernelSpec("rbf", 2.0)
        m = smo_train(ds, kernel, C=5.0, tol=1e-4)
        assert not m.converged and m.n_support > 0
        assert not kkt_audit(m, ds, 1e-4)["passed"]
        alpha = np.zeros(len(y))
        alpha[m.sv_indices] = m.sv_alpha
        assert abs(float(alpha @ y)) < 1e-8 and np.all(alpha <= m.C)
        K = kernel_matrix(kernel, X, X)
        optimum = svm_dual_objective(svm_dual_pga(y, K, m.C), y, K)
        assert svm_dual_objective(alpha, y, K) < optimum - 1e-4


KERNELS = [
    KernelSpec("linear"), KernelSpec("polynomial", 0.5, 1.0, 2),
    KernelSpec("polynomial", 1.0, 0.0, 3), KernelSpec("rbf", 0.7),
    KernelSpec("sigmoid", 0.1, -0.5),
]


@st.composite
def svm_problems(draw, kernels=KERNELS, rounded=False):
    """Two-class problems with every kernel and C; one in three rounds
    its inputs, for repeated points and exact kernel ties, and
    ``rounded=True`` rounds them all."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, d = draw(st.integers(2, 24)), draw(st.integers(1, 4))
    gen = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    gen.shuffle(y)
    X = gen.normal(size=(n, d)) + 0.8 * y[:, None]
    if rounded or seed % 3 == 0:
        X = np.round(X)
    return X, y, draw(st.sampled_from(kernels)), draw(st.sampled_from([0.05, 1.0, 7.5]))


class TestSmoSolution:
    @settings(max_examples=80, deadline=None)
    @given(problem=svm_problems(), tol=st.sampled_from([1e-3, 1e-5]))
    def test_converged_passes_kkt_audit(self, problem, tol):
        X, y, kernel, C = problem
        ds = xy_dataset(X, y)
        m = smo_train(ds, kernel, C=C, tol=tol)
        assert m.converged
        assert kkt_audit(m, ds, tol)["passed"]

    @settings(max_examples=12, deadline=None)
    @given(problem=svm_problems(KERNELS[:4]))
    def test_dual_objective_matches_pga_oracle(self, problem):
        X, y, kernel, C = problem
        m = smo_train(xy_dataset(X, y), kernel, C=C, tol=1e-5)
        K = kernel_matrix(kernel, X, X)
        alpha = np.zeros(len(y))
        alpha[m.sv_indices] = m.sv_alpha
        got = svm_dual_objective(alpha, y, K)
        want = svm_dual_objective(svm_dual_pga(y, K, C), y, K)
        assert abs(got - want) < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(problem=svm_problems())
    def test_deterministic(self, problem):
        X, y, kernel, C = problem
        a = smo_train(xy_dataset(X, y), kernel, C=C, tol=1e-3)
        b = smo_train(xy_dataset(X, y), kernel, C=C, tol=1e-3)
        assert a.sv_indices.tobytes() == b.sv_indices.tobytes()
        assert a.sv_alpha.tobytes() == b.sv_alpha.tobytes()
        assert a.bias == b.bias and type(a.bias) is float

    def test_netflow_shadow(self):
        from shadowprobe import datagen
        spec = datagen.default_flow_spec(1.0)
        ds = datagen.gen_flow_dataset(spec, True, 300, RandomSource(5))
        m = smo_train(ds, KernelSpec("polynomial", 1.0, 0.0, 3), C=1.0, tol=1e-3)
        assert m.converged and m.n_support > 0
        assert kkt_audit(m, ds, 1e-3)["passed"]


def spy_columns(monkeypatch):
    """Record the example index and result shape of every kernel_matrix
    call; smo_train asks for column t as the row slice X[t:t + 1]."""
    calls = []
    real = svm.kernel_matrix

    def spy(spec, X, Y):
        K = real(spec, X, Y)
        assert np.shares_memory(X, Y)
        offset = Y.__array_interface__["data"][0] - X.__array_interface__["data"][0]
        calls.append((offset // X.strides[0], K.shape))
        return K

    monkeypatch.setattr(svm, "kernel_matrix", spy)
    return calls


class TestColumnAccess:
    @settings(max_examples=40, deadline=None)
    @given(problem=svm_problems())
    def test_each_touched_column_computed_once(self, problem):
        X, y, kernel, C = problem
        n = len(y)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_columns(mp)
            m = smo_train(xy_dataset(X, y), kernel, C=C, tol=1e-3)
        assert all(shape == (n, 1) for _, shape in calls)
        touched = {t for t, _ in calls}
        assert len(calls) <= len(touched) <= n
        # Every support vector's multiplier moved, so its column was fetched.
        assert set(m.sv_indices.tolist()) <= touched

    def test_netflow_shadow_touches_few_columns(self, monkeypatch):
        from shadowprobe import datagen
        spec = datagen.default_flow_spec(1.0)
        ds = datagen.gen_flow_dataset(spec, True, 300, RandomSource(5))
        calls = spy_columns(monkeypatch)
        m = smo_train(ds, KernelSpec("polynomial", 1.0, 0.0, 3), C=1.0, tol=1e-3)
        assert m.converged
        assert m.n_support <= len(calls) < len(ds.labels)


class TestSmoMatchesFullGram:
    @settings(max_examples=60, deadline=None)
    @given(problem=svm_problems(), tol=st.sampled_from([1e-3, 1e-5]))
    def test_agrees_with_full_gram_reference(self, problem, tol):
        X, y, kernel, C = problem
        ds = xy_dataset(X, y)
        m = smo_train(ds, kernel, C=C, tol=tol)
        K = kernel_matrix(kernel, X, X)
        ref_alpha, ref_bias, ref_converged = smo_train_reference(y, K, C, tol)
        assert m.converged == ref_converged
        sv = np.flatnonzero(ref_alpha > 0)
        ref = SvmModel(sv_indices=sv, sv_y=y[sv], sv_x=X[sv], sv_alpha=ref_alpha[sv],
                       bias=ref_bias, kernel=kernel, C=C, converged=ref_converged)
        if m.converged:
            assert kkt_audit(m, ds, tol)["passed"]
            assert kkt_audit(ref, ds, tol)["passed"]
        alpha = np.zeros(len(y))
        alpha[m.sv_indices] = m.sv_alpha
        # With a maximal-violating-pair gap below tol, a concave dual is
        # within tol * C * n / 2 of its optimum, so two such points are too.
        got = svm_dual_objective(alpha, y, K)
        want = svm_dual_objective(ref_alpha, y, K)
        assert abs(got - want) <= tol * C * len(y) / 2


class TestSmoStepsMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(problem=svm_problems(KERNELS[:3], rounded=True), tol=st.sampled_from([1e-3, 1e-5]))
    def test_same_iterates_on_exact_kernels(self, problem, tol):
        # With integer inputs and the linear or polynomial kernels every
        # kernel value is exact, so the solver's on-demand columns equal
        # the reference's full Gram matrix and both take the same steps:
        # the kept F and penalties must give the reference's G-form
        # iterates. Values, not bytes: the reference's alpha can hold -0.0.
        X, y, kernel, C = problem
        m = smo_train(xy_dataset(X, y), kernel, C=C, tol=tol)
        ref_alpha, ref_bias, ref_converged = smo_train_reference(
            y, kernel_matrix(kernel, X, X), C, tol)
        alpha = np.zeros(len(y))
        alpha[m.sv_indices] = m.sv_alpha
        assert np.array_equal(alpha, ref_alpha)
        assert m.bias == ref_bias
        assert m.converged == ref_converged


class TestDecision:
    def trained(self):
        rng = RandomSource(21)
        X = np.vstack([rng.normal(0, 1, size=(12, 2)), rng.normal(4, 1, size=(12, 2))])
        y = [-1.0] * 12 + [1.0] * 12
        ds = xy_dataset(X, y)
        return smo_train(ds, KernelSpec("rbf", gamma=0.3), C=5.0, tol=1e-4), ds

    def test_free_vectors_on_margin(self):
        m, ds = self.trained()
        free = (m.sv_alpha > 1e-8) & (m.sv_alpha < m.C - 1e-8)
        assert free.any()
        assert np.all(np.abs(svm_decision(m, m.sv_x[free]) - m.sv_y[free]) <= 1e-4 + 1e-9)

    def test_resummation_oracle(self):
        m, _ = self.trained()
        probes = RandomSource(9).normal(2, 2, size=(10, 2))
        got = svm_decision(m, probes)
        assert got.shape == (10,)
        for x, g in zip(probes, got):
            # Independent re-summation with reversed term order and
            # scalar kernel evaluations.
            acc = m.bias
            for i in reversed(range(m.n_support)):
                acc += m.sv_alpha[i] * m.sv_y[i] * oracle_k(m.kernel, m.sv_x[i], x)
            assert abs(g - acc) < 1e-9

    def test_sign_zero_is_positive(self):
        m = SvmModel(
            sv_indices=np.array([], dtype=np.int64),
            sv_y=np.zeros(0), sv_x=np.zeros((0, 1)), sv_alpha=np.zeros(0),
            bias=0.0, kernel=KernelSpec("linear"), C=1.0, converged=True,
        )
        assert svm_decision(m, [[5.0], [-1.0]]).tolist() == [0.0, 0.0]
        assert signs(m, [[5.0]]) == [1]

    def test_dimension_mismatch(self):
        m, _ = self.trained()
        with pytest.raises(ContractError):
            svm_decision(m, [[1.0, 2.0, 3.0]])
        with pytest.raises(ContractError):
            svm_decision(m, [1.0, 2.0])  # one probe must still be a (1, dim) batch

    def test_rbf_translation_invariance(self):
        rng = RandomSource(31)
        X = np.vstack([rng.normal(0, 1, size=(10, 2)), rng.normal(3, 1, size=(10, 2))])
        y = [-1.0] * 10 + [1.0] * 10
        shift = np.array([13.7, -4.2])
        kernel = KernelSpec("rbf", gamma=0.7)
        m1 = smo_train(xy_dataset(X, y), kernel, C=2.0)
        m2 = smo_train(xy_dataset(X + shift, y), kernel, C=2.0)
        probes = RandomSource(11).normal(1.5, 2.0, size=(20, 2))
        assert signs(m1, probes) == signs(m2, probes + shift)


def test_label_mapping_helper():
    y, mapping = _map_labels([1.0, -1.0, 1.0])
    assert mapping is None and list(y) == [1.0, -1.0, 1.0]
    y, mapping = _map_labels(["b", "a", "b"])
    assert mapping == {-1: "a", 1: "b"} and list(y) == [1.0, -1.0, 1.0]
    with pytest.raises(ContractError):
        _map_labels(["a", "b", "c"])
