import json

import numpy as np
import pytest

from shadowprobe.core import (
    CATEGORICAL,
    NUMERIC,
    ContractError,
    FormatError,
    RandomSource,
    StructuralError,
    make_dataset,
)
from shadowprobe.attack import NOT_P, P, MetaClassifier, build_meta_training_set, train_meta
from shadowprobe.dtree import (CategoricalNode, DecisionTree, Leaf, NumericNode, TreeParams,
                               classify, train_tree)
from shadowprobe.hmm import AcousticModel, GaussianHmm
from shadowprobe.kmeans import KMeansModel
from shadowprobe.mlp import init_mlp
from shadowprobe.serialize import from_payload, load_model, save_model, to_payload
from shadowprobe.svm import KernelSpec, SvmModel


def roundtrip(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    return load_model(path)


def random_svm(seed=0):
    rng = RandomSource(seed)
    return SvmModel(
        sv_indices=np.array([0, 3, 7]),
        sv_y=np.array([1.0, -1.0, 1.0]),
        sv_x=rng.normal(size=(3, 4)),
        sv_alpha=rng.uniform(0.01, 0.9, size=3),
        bias=float(rng.normal()),
        kernel=KernelSpec("polynomial", 1.0, 0.0, 3),
        C=1.0,
        converged=True,
        label_map={-1: "DNS", 1: "WEB"},
    )


class TestRoundTrips:
    def test_svm_exact(self, tmp_path):
        m = random_svm()
        back = roundtrip(m, tmp_path)
        assert np.array_equal(back.sv_x, m.sv_x)
        assert np.array_equal(back.sv_alpha, m.sv_alpha)
        assert np.array_equal(back.sv_indices, m.sv_indices)
        assert back.bias == m.bias
        assert back.kernel == m.kernel
        assert back.label_map == m.label_map

    def test_acoustic_exact(self, tmp_path):
        rng = RandomSource(1)
        t = np.array([[0.6, 0.4], [0.0, 1.0]])
        am = AcousticModel({
            "aa": GaussianHmm(t, rng.normal(size=(2, 3)), rng.uniform(0.5, 1.0, size=(2, 3))),
            "bb": GaussianHmm(t, rng.normal(size=(2, 3)), rng.uniform(0.5, 1.0, size=(2, 3))),
        })
        back = roundtrip(am, tmp_path)
        assert set(back.hmms) == {"aa", "bb"}
        for ph in am.hmms:
            assert np.array_equal(back.hmms[ph].means, am.hmms[ph].means)
            assert np.array_equal(back.hmms[ph].vars, am.hmms[ph].vars)
            assert np.array_equal(back.hmms[ph].trans, am.hmms[ph].trans)

    def test_kmeans_exact(self, tmp_path):
        m = KMeansModel(RandomSource(2).normal(size=(3, 5)), True, 7, [3.0, 1.5, 1.2])
        back = roundtrip(m, tmp_path)
        assert np.array_equal(back.centroids, m.centroids)
        assert back.iterations_run == 7
        assert back.objective_trace == m.objective_trace

    def test_mlp_exact(self, tmp_path):
        net = init_mlp((4, 3, 2), RandomSource(3))
        back = roundtrip(net, tmp_path)
        assert back.layer_sizes == net.layer_sizes
        for a, b in zip(back.weights, net.weights):
            assert np.array_equal(a, b)

    def test_dtree_exact(self, tmp_path):
        ds = make_dataset(
            [("x", NUMERIC), ("c", CATEGORICAL)],
            [(0.25, "a"), (0.5, "a"), (1.5, "b"), (2.5, "b"), (2.75, "c")],
            ["p", "p", "q", "q", "p"],
        )
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(4))
        back = roundtrip(tree, tmp_path)
        assert back.schema == tree.schema
        assert back.n_nodes == tree.n_nodes
        assert classify(back, ds) == classify(tree, ds)

    def test_meta_classifier_exact(self, tmp_path):
        shadows = []
        for i in range(4):
            rng = RandomSource(10 + i)
            m = SvmModel(
                sv_indices=np.arange(3),
                sv_y=np.array([1.0, -1.0, 1.0]),
                sv_x=rng.normal(3.0 if i < 2 else -3.0, 0.4, size=(3, 2)),
                sv_alpha=np.full(3, 0.2),
                bias=0.0, kernel=KernelSpec("linear"), C=1.0, converged=True,
            )
            shadows.append((m, P if i < 2 else NOT_P))
        mc = train_meta(build_meta_training_set(shadows), TreeParams(min_leaf_size=2),
                        RandomSource(5))
        back = roundtrip(mc, tmp_path)
        assert back.source_kind == "svm"
        assert back.schema == mc.schema
        assert back.train_accuracy == mc.train_accuracy
        assert back.tree.n_nodes == mc.tree.n_nodes


class TestErrors:
    def test_truncated_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"format_version": 1, "kind": "svm", "supp', encoding="utf-8")
        with pytest.raises(StructuralError):
            load_model(p)

    def test_unknown_kind_named(self):
        with pytest.raises(FormatError, match="gbm"):
            from_payload({"format_version": 1, "kind": "gbm"})

    def test_version_mismatch(self):
        with pytest.raises(FormatError):
            from_payload({"format_version": 2, "kind": "svm"})

    def test_non_object_payload(self):
        with pytest.raises(StructuralError):
            from_payload([1, 2, 3])

    def test_mlp_non_finite_weight_rejected(self):
        body = to_payload(init_mlp((8, 3, 8), RandomSource(5)))
        body["weights"][1][2][1] = float("nan")
        with pytest.raises(ContractError, match="weight matrix 1 has non-finite"):
            from_payload(body)

    def test_acoustic_parameters_checked_on_load(self, tmp_path):
        # Trained models skip a second check of their parameters; a loaded
        # one is checked in full.
        t = np.array([[0.6, 0.4], [0.0, 1.0]])
        save_model(AcousticModel({"aa": GaussianHmm(t, np.zeros((2, 3)), np.ones((2, 3)))}),
                   tmp_path / "am.json")
        body = json.loads((tmp_path / "am.json").read_text())
        body["phonemes"]["aa"]["vars"][1][2] = 1e-9
        (tmp_path / "am.json").write_text(json.dumps(body))
        with pytest.raises(ContractError, match="variances must be >="):
            load_model(tmp_path / "am.json")


def mixed_tree(p="p", q="q"):
    """A hand-built tree with a numeric root and a categorical child, whose
    leaves vote ``p`` or ``q``."""
    schema = (("x", NUMERIC), ("c", CATEGORICAL))
    cat = CategoricalNode(1, 3, {"b": Leaf(q, 2), "c": Leaf(p, 1)}, Leaf(q, 0))
    return DecisionTree(NumericNode(0, 1.0, 5, Leaf(p, 2), cat), schema,
                        TreeParams(min_leaf_size=2))


def _set(path, value):
    def edit(tree_body):
        node = tree_body
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


class TestTreeSchema:
    """A tree payload's tests must fit its schema; each of these used to
    load and then crash inside classify, or classify silently."""

    @pytest.mark.parametrize("edit,match", [
        pytest.param(_set(("root", "test", "attribute"), 99), "outside the 2-attribute schema",
                     id="attribute-99"),
        pytest.param(_set(("root", "test", "attribute"), -1), "outside", id="attribute-neg"),
        pytest.param(_set(("root", "test", "attribute"), 0.0), "outside", id="attribute-float"),
        pytest.param(_set(("root", "test", "attribute"), True), "outside", id="attribute-bool"),
        pytest.param(_set(("root", "test", "attribute"), 1), "schema says 'categorical'",
                     id="numeric-test-on-categorical"),
        pytest.param(_set(("root", "children", 1, "test", "attribute"), 0),
                     "schema says 'numeric'", id="categorical-test-on-numeric"),
        pytest.param(_set(("root", "test", "threshold"), "0.5"), "not a finite number",
                     id="threshold-str"),
        pytest.param(_set(("root", "test", "threshold"), float("nan")), "not a finite number",
                     id="threshold-nan"),
        pytest.param(_set(("root", "test", "threshold"), float("inf")), "not a finite number",
                     id="threshold-inf"),
        pytest.param(_set(("root", "test", "threshold"), None), "not a finite number",
                     id="threshold-null"),
        pytest.param(_set(("root", "children", 1, "test", "values"), ["b", 3]),
                     "must be strings", id="value-int"),
        pytest.param(_set(("root", "children", 1, "test", "values"), ["b"]),
                     "2 children, expected 1", id="categorical-children"),
        pytest.param(_set(("root", "children"), []), "0 children, expected 2",
                     id="numeric-children"),
    ])
    @pytest.mark.parametrize("kind", ["dtree", "meta"])
    def test_rejected(self, kind, edit, match):
        model = (mixed_tree() if kind == "dtree"
                 else MetaClassifier(mixed_tree(P, NOT_P), "hmm", 1.0))
        payload = to_payload(model)
        edit(payload if kind == "dtree" else payload["tree"])
        with pytest.raises(StructuralError, match=match):
            from_payload(payload)

    def test_valid_tree_roundtrips(self):
        tree = mixed_tree()
        back = from_payload(to_payload(tree))
        ds = make_dataset(tree.schema, [(0.5, "b"), (2.0, "b"), (2.0, "c"), (2.0, "z")])
        assert classify(back, ds) == classify(tree, ds) == ["p", "q", "p", "q"]

    def test_meta_schema_must_match_tree(self):
        payload = to_payload(MetaClassifier(mixed_tree(P, NOT_P), "hmm", 1.0))
        payload["schema"] = [["x", NUMERIC], ["d", CATEGORICAL]]
        with pytest.raises(StructuralError, match="schema differs"):
            from_payload(payload)

    def test_meta_fallback_must_vote_p_or_notp(self):
        tree = mixed_tree(P, NOT_P)
        tree.root.high.fallback = Leaf("maybe", 0)
        with pytest.raises(ContractError, match="leaf_label must be 'P' or 'NotP', got 'maybe'"):
            MetaClassifier(tree, "hmm", 1.0)


def sample_payloads():
    """One valid payload per model kind."""
    t = np.array([[0.6, 0.4], [0.0, 1.0]])
    ds = make_dataset([("x", NUMERIC)], [(0.0,), (1.0,), (2.0,)], ["p", "q", "q"])
    shadows = [(random_svm(i), P if i < 2 else NOT_P) for i in range(4)]
    models = [
        random_svm(),
        AcousticModel({"aa": GaussianHmm(t, np.zeros((2, 3)), np.ones((2, 3)))}),
        KMeansModel(np.zeros((2, 2)), True, 3, [2.0, 1.0]),
        init_mlp((3, 2, 3), RandomSource(1)),
        train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(2)),
        train_meta(build_meta_training_set(shadows), TreeParams(min_leaf_size=2), RandomSource(3)),
    ]
    return {to_payload(m)["kind"]: to_payload(m) for m in models}


PAYLOADS = sample_payloads()
# An svm payload without "dim" takes it from its support vectors
# (TestSvmDim), so "dim" is the one optional body key.
REQUIRED = [(kind, key) for kind, body in PAYLOADS.items()
            for key in sorted(body) if key not in ("format_version", "kind")
            and (kind, key) != ("svm", "dim")]


class TestMissingKeys:
    def test_every_kind_covered(self):
        assert set(PAYLOADS) == {"svm", "acoustic", "kmeans", "mlp", "dtree", "meta"}
        for body in PAYLOADS.values():
            from_payload(body)

    @pytest.mark.parametrize("kind,key", REQUIRED)
    def test_missing_top_level_key(self, kind, key):
        body = {k: v for k, v in PAYLOADS[kind].items() if k != key}
        with pytest.raises(StructuralError, match=key):
            from_payload(body)

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_header_only(self, kind):
        with pytest.raises(StructuralError):
            from_payload({"format_version": 1, "kind": kind})

    def test_missing_nested_keys(self):
        acoustic = PAYLOADS["acoustic"]
        body = {**acoustic, "phonemes": {"aa": {"trans": [[1.0]], "means": [[0.0]]}}}
        with pytest.raises(StructuralError, match="vars"):
            from_payload(body)
        meta = PAYLOADS["meta"]
        body = {**meta, "tree": {k: v for k, v in meta["tree"].items() if k != "root"}}
        with pytest.raises(StructuralError, match="root"):
            from_payload(body)

    def test_wrong_value_type(self):
        with pytest.raises(StructuralError):
            from_payload({**PAYLOADS["acoustic"], "phonemes": 5})


class TestSvmDim:
    def zero_sv_svm(self):
        m = random_svm()
        return SvmModel(sv_indices=np.zeros(0, dtype=np.int64), sv_y=np.zeros(0),
                        sv_x=np.zeros((0, 7)), sv_alpha=np.zeros(0), bias=0.5,
                        kernel=m.kernel, C=m.C, converged=True, label_map=m.label_map)

    def test_zero_support_vectors_roundtrip(self, tmp_path):
        back = roundtrip(self.zero_sv_svm(), tmp_path)
        assert back.sv_x.shape == (0, 7)
        assert back.n_support == 0 and back.dim == 7
        assert back.bias == 0.5

    def test_payload_without_dim_takes_it_from_vectors(self):
        m = random_svm()
        body = {k: v for k, v in to_payload(m).items() if k != "dim"}
        back = from_payload(body)
        assert np.array_equal(back.sv_x, m.sv_x)
        assert back.dim == 4

    def test_no_vectors_and_no_dim_rejected(self):
        body = {k: v for k, v in to_payload(self.zero_sv_svm()).items() if k != "dim"}
        with pytest.raises(StructuralError, match="dim"):
            from_payload(body)

    @pytest.mark.parametrize("dim", [3, 5, 0, "4", None])
    def test_vector_length_must_match_dim(self, dim):
        with pytest.raises(StructuralError, match="dim"):
            from_payload({**to_payload(random_svm()), "dim": dim})
