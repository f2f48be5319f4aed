"""Model persistence in a single JSON format.

Every payload carries ``format_version: 1`` and a ``kind`` discriminator:
``svm`` and ``acoustic`` (written by ``train``) or ``meta`` (by ``run``).
A ``meta`` payload stores its schema once, in its tree.
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


def _node_from_payload(d, schema: tuple, fallback=False):
    """Rebuild a subtree whose tests must fit ``schema``; a categorical
    fallback leaf counts 0 rows, every other node at least 1."""
    count = d["count"]
    if type(count) is not int or (count != 0 if fallback else count < 1):
        want = "0 on a categorical fallback" if fallback else "an integer >= 1"
        raise StructuralError(f"tree node count must be {want}, got {count!r}")
    if "leaf_label" in d:
        if type(d["tie_broken"]) is not bool:
            raise StructuralError(f"tree leaf tie_broken {d['tie_broken']!r} is not a bool")
        return Leaf(d["leaf_label"], count, d["tie_broken"])
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
        return NumericNode(attr, threshold, count, low, high)
    values = test["values"]
    if not all(isinstance(v, str) for v in values):
        raise StructuralError(f"categorical tree test values must be strings, got {values!r}")
    branches = {v: _node_from_payload(c, schema) for v, c in zip(values, children)}
    return CategoricalNode(attr, count, branches,
                           _node_from_payload(d["fallback"], schema, fallback=True))


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
    elif isinstance(model, MetaClassifier):
        params = model.tree.params
        body = {
            "train_accuracy": model.train_accuracy,
            "tree": {"params": {"min_leaf_size": params.min_leaf_size,
                                "max_depth": params.max_depth},
                     "schema": [[n, k] for n, k in model.tree.schema],
                     "root": _node_to_payload(model.tree.root)},
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
        kern = payload["kernel"]
        dim = payload["dim"]
        if type(dim) is not int or dim < 1 or any(len(s["x"]) != dim for s in svs):
            raise StructuralError(f"svm payload needs a positive integer dim, the length of "
                                  f"every support vector, got dim={dim!r}")
        # SvmModel checks the dtypes numpy infers below, but numpy reads a JSON true as 1.
        if any(type(v) is bool for s in svs for v in (s["index"], s["y"], s["alpha"], *s["x"])):
            raise StructuralError("svm payload support_vectors must hold numbers, not booleans")
        return SvmModel(
            sv_indices=np.array([s["index"] for s in svs], dtype=None if svs else np.int64),
            sv_y=np.array([s["y"] for s in svs]),
            sv_x=np.array([s["x"] for s in svs]).reshape(len(svs), dim),
            sv_alpha=np.array([s["alpha"] for s in svs]),
            bias=payload["bias"],
            kernel=KernelSpec(kern["kind"], kern["gamma"], kern["r"], kern["degree"]),
            C=payload["C"],
            converged=payload["converged"],
            label_map=None if label_map is None else {int(k): v for k, v in label_map.items()},
        )
    if kind == "acoustic":
        hmms = {ph: GaussianHmm(np.array(d["trans"]), np.array(d["means"]), np.array(d["vars"]))
                for ph, d in payload["phonemes"].items()}
        return AcousticModel(hmms)
    if kind == "meta":
        d = payload["tree"]
        params = TreeParams(d["params"]["min_leaf_size"], d["params"]["max_depth"])
        schema = tuple((n, k) for n, k in d["schema"])
        tree = DecisionTree(_node_from_payload(d["root"], schema), schema, params)
        return MetaClassifier(tree, payload["train_accuracy"])
    raise FormatError(f"unknown model kind {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_payload(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    """The JSON value in a UTF-8 file; bad JSON, or JSON nested too deep
    to decode, is a StructuralError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise StructuralError(f"{path}: not valid JSON ({e})") from e
    except RecursionError as e:
        raise StructuralError(f"{path}: JSON nested too deeply ({e})") from e


def load_model(path):
    return from_payload(load_json(path))


def save_report(report: dict, path) -> None:
    """Reports use the same deterministic JSON encoding as models."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
