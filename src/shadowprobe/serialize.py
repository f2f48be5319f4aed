"""Model persistence in a single JSON format.

Every payload carries ``format_version: 1`` and a ``kind`` discriminator
(``svm``, ``acoustic``, ``kmeans``, ``mlp``, ``dtree``, ``meta``).
Floats are written with repr-style shortest round-trip encoding, so
loading a saved model reproduces its parameters exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .attack import MetaClassifier
from .core import NUMERIC, ContractError, FormatError, StructuralError, read_text
from .dtree import CategoricalNode, DecisionTree, Leaf, NumericNode, TreeParams
from .hmm import AcousticModel, GaussianHmm
from .kmeans import KMeansModel
from .mlp import Mlp
from .svm import KernelSpec, SvmModel

FORMAT_VERSION = 1


def _node_to_payload(node):
    if isinstance(node, Leaf):
        return {"leaf_label": node.label, "count": node.count, "tie_broken": node.tie_broken}
    if isinstance(node, NumericNode):
        return {
            "test": {"kind": "numeric", "attribute": node.attribute, "threshold": node.threshold},
            "count": node.count,
            "children": [_node_to_payload(node.low), _node_to_payload(node.high)],
        }
    return {
        "test": {"kind": "categorical", "attribute": node.attribute,
                 "values": list(node.branches)},
        "count": node.count,
        "children": [_node_to_payload(node.branches[v]) for v in node.branches],
        "fallback": _node_to_payload(node.fallback),
    }


def _node_from_payload(d, schema: tuple):
    """Rebuild a subtree whose tests must fit ``schema``."""
    if "leaf_label" in d:
        return Leaf(d["leaf_label"], d["count"], d.get("tie_broken", False))
    test, children = d["test"], d["children"]
    attr, kind = test["attribute"], test["kind"]
    if type(attr) is not int or not 0 <= attr < len(schema):
        raise StructuralError(f"tree test attribute {attr!r} is outside the "
                              f"{len(schema)}-attribute schema")
    if kind != schema[attr][1]:
        raise StructuralError(f"tree test on attribute {attr} is {kind!r} but the schema "
                              f"says {schema[attr][1]!r}")
    want = 2 if kind == NUMERIC else len(test["values"])
    if len(children) != want:
        raise StructuralError(f"{kind} tree test has {len(children)} children, expected {want}")
    if kind == NUMERIC:
        threshold = test["threshold"]
        if type(threshold) not in (int, float) or not math.isfinite(threshold):
            raise StructuralError(f"tree threshold {threshold!r} is not a finite number")
        low, high = (_node_from_payload(c, schema) for c in children)
        return NumericNode(attr, threshold, d["count"], low, high)
    values = test["values"]
    if not all(isinstance(v, str) for v in values):
        raise StructuralError(f"categorical tree test values must be strings, got {values!r}")
    branches = {v: _node_from_payload(c, schema) for v, c in zip(values, children)}
    return CategoricalNode(attr, d["count"], branches, _node_from_payload(d["fallback"], schema))


def _tree_body(tree: DecisionTree) -> dict:
    return {
        "params": {"min_leaf_size": tree.params.min_leaf_size,
                   "max_depth": tree.params.max_depth},
        "schema": [[n, k] for n, k in tree.schema],
        "root": _node_to_payload(tree.root),
    }


def _tree_from_body(d) -> DecisionTree:
    params = TreeParams(d["params"]["min_leaf_size"], d["params"]["max_depth"])
    schema = tuple((n, k) for n, k in d["schema"])
    return DecisionTree(_node_from_payload(d["root"], schema), schema, params)


def to_payload(model) -> dict:
    if isinstance(model, SvmModel):
        body = {
            "kernel": {"kind": model.kernel.kind, "gamma": model.kernel.gamma,
                       "r": model.kernel.r, "degree": model.kernel.degree},
            "C": model.C,
            "bias": model.bias,
            "converged": model.converged,
            "label_map": (None if model.label_map is None
                          else {str(k): v for k, v in model.label_map.items()}),
            "dim": model.dim,
            "support_vectors": [
                {"index": int(i), "y": float(y), "alpha": float(a), "x": [float(v) for v in x]}
                for i, y, a, x in zip(model.sv_indices, model.sv_y,
                                      model.sv_alpha, model.sv_x)
            ],
        }
        kind = "svm"
    elif isinstance(model, AcousticModel):
        body = {"phonemes": {
            ph: {"trans": h.trans.tolist(), "means": h.means.tolist(), "vars": h.vars.tolist()}
            for ph, h in sorted(model.hmms.items())
        }}
        kind = "acoustic"
    elif isinstance(model, KMeansModel):
        body = {
            "centroids": model.centroids.tolist(),
            "converged": model.converged,
            "iterations_run": model.iterations_run,
            "objective_trace": list(model.objective_trace),
        }
        kind = "kmeans"
    elif isinstance(model, Mlp):
        body = {"layer_sizes": list(model.layer_sizes),
                "weights": [w.tolist() for w in model.weights]}
        kind = "mlp"
    elif isinstance(model, DecisionTree):
        body = _tree_body(model)
        kind = "dtree"
    elif isinstance(model, MetaClassifier):
        body = {
            "source_kind": model.source_kind,
            "schema": [[n, k] for n, k in model.schema],
            "train_accuracy": model.train_accuracy,
            "tree": _tree_body(model.tree),
        }
        kind = "meta"
    else:
        raise ContractError(f"cannot serialize {type(model).__name__}")
    return {"format_version": FORMAT_VERSION, "kind": kind, **body}


def from_payload(payload: dict):
    """Rebuild a model; a payload missing a key or holding a value of the
    wrong shape raises StructuralError."""
    if not isinstance(payload, dict):
        raise StructuralError("model payload must be an object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    kind = payload.get("kind")
    try:
        return _decode(kind, payload)
    except KeyError as e:
        raise StructuralError(f"{kind} payload is missing key {e.args[0]!r}") from e
    except (TypeError, AttributeError, IndexError, ValueError) as e:
        raise StructuralError(f"malformed {kind} payload: {e}") from e


def _decode(kind, payload: dict):
    if kind == "svm":
        svs = payload["support_vectors"]
        label_map = payload["label_map"]
        if label_map is not None:
            label_map = {int(k): v for k, v in label_map.items()}
        kern = payload["kernel"]
        # Payloads written before "dim" was saved take it from the vectors.
        dim = payload.get("dim", len(svs[0]["x"]) if svs else None)
        if type(dim) is not int or dim < 1:
            raise StructuralError(f"svm payload needs a positive integer dim, got {dim!r}")
        if any(len(s["x"]) != dim for s in svs):
            raise StructuralError(f"svm payload has a support vector whose length is not dim={dim}")
        return SvmModel(
            sv_indices=np.array([s["index"] for s in svs], dtype=np.int64),
            sv_y=np.array([s["y"] for s in svs]),
            sv_x=np.array([s["x"] for s in svs]).reshape(len(svs), dim),
            sv_alpha=np.array([s["alpha"] for s in svs]),
            bias=payload["bias"],
            kernel=KernelSpec(kern["kind"], kern["gamma"], kern["r"], kern["degree"]),
            C=payload["C"],
            converged=payload["converged"],
            label_map=label_map,
        )
    if kind == "acoustic":
        hmms = {ph: GaussianHmm(np.array(d["trans"]), np.array(d["means"]), np.array(d["vars"]))
                for ph, d in payload["phonemes"].items()}
        return AcousticModel(hmms)
    if kind == "kmeans":
        return KMeansModel(np.array(payload["centroids"]), payload["converged"],
                           payload["iterations_run"], list(payload["objective_trace"]))
    if kind == "mlp":
        return Mlp(tuple(payload["layer_sizes"]), [np.array(w) for w in payload["weights"]])
    if kind == "dtree":
        return _tree_from_body(payload)
    if kind == "meta":
        tree = _tree_from_body(payload["tree"])
        if tuple((n, k) for n, k in payload["schema"]) != tree.schema:
            raise StructuralError("meta payload schema differs from its tree's schema")
        return MetaClassifier(tree, payload["source_kind"], payload["train_accuracy"])
    raise FormatError(f"unknown model kind {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_payload(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    """The JSON value in a UTF-8 file; bad JSON is a StructuralError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise StructuralError(f"{path}: not valid JSON ({e})") from e


def load_model(path):
    return from_payload(load_json(path))


def save_report(report: dict, path) -> None:
    """Reports use the same deterministic JSON encoding as models."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
