"""Config-driven experiment pipelines for the four case studies.

Each case consumes a PipelineConfig and produces a JSON report plus
serialized artifacts. ``CASE_FIELDS`` names the config fields each case
reads: a config may set only those and the common ``case``, ``seed``,
``out_dir`` and ``jobs``, and the report's ``config`` block echoes the
seed and exactly those fields (a few under a report name), together
with the fixed tunables that matter for reproduction (verdict
aggregation rule, variance floor).
Reports are byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import attack, datagen, dtree, hmm, metrics, serialize, svm
from .core import (P, ContractError, Dataset, RandomSource, numeric_matrix, property_labels,
                   shadow_tasks)
from .dtree import TreeParams
from .mlp import backprop_train, forward, init_mlp, total_squared_error
from .svm import KernelSpec

log = logging.getLogger("shadowprobe")

# The config fields each case reads (space-separated), besides the
# common ones that every case may set.
CASE_FIELDS = {
    "speech": "shadows n_phonemes n_states dim n_sequences n_boosted boost_shift base_shift "
              "train_iters top_k baseline_models holdout_fraction min_leaf_size max_depth",
    "netflow": "shadows flows_per_shadow signature_fraction kernel_kind gamma r degree C tol "
               "folds n_targets min_leaf_size max_depth",
    "dp_bypass": "pool_size signature_fraction k sample_size sigma n_runs holdout_fraction "
                 "min_leaf_size max_depth",
    "mlp_demo": "mlp_seeds learning_rate epochs target_low target_high",
}
CASES = tuple(CASE_FIELDS)
_COMMON_FIELDS = ("case", "seed", "out_dir", "jobs")


class ConfigError(ContractError):
    """A pipeline config field failed validation."""


# Field annotation -> (accepted types, description). bool is never an
# accepted int, and floats must be finite.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a finite number"),
    "str": ((str,), "a string"),
}


@dataclass
class PipelineConfig:
    """One run's parameters; ``CASE_FIELDS`` says which fields each case reads."""

    case: str
    seed: int = 7
    out_dir: str = "out"
    jobs: int = 1
    n_phonemes: int = 40
    n_states: int = 5
    dim: int = 25
    n_sequences: int = 8
    n_boosted: int = 5
    boost_shift: float = 1.5
    base_shift: float = 0.5
    train_iters: int = 4
    top_k: int = 5
    baseline_models: int = 8
    holdout_fraction: float = 0.25
    flows_per_shadow: int = 2000
    signature_fraction: float = 1.0
    kernel_kind: str = "polynomial"
    gamma: float = 1.0
    r: float = 0.0
    degree: int = 3
    C: float = 1.0
    tol: float = 1e-3
    folds: int = 10
    n_targets: int = 20
    shadows: int = 40
    k: int = 3
    sigma: float = 8.0
    n_runs: int = 70
    pool_size: int = 24000
    sample_size: int = 2000
    min_leaf_size: int = 5
    max_depth: int | None = None
    mlp_seeds: int = 10
    learning_rate: float = 0.3
    epochs: int = 60000
    target_low: float = 0.02
    target_high: float = 0.98

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            types, what = _FIELD_TYPES[f.type]
            if (not isinstance(value, types) or isinstance(value, bool)
                    or (isinstance(value, float) and not math.isfinite(value))):
                raise ConfigError(f"{f.name}: must be {what} (got {value!r})")
        if self.case not in CASES:
            raise ConfigError(f"case: must be one of {CASES} (got {self.case!r})")
        # Every bound below pairs fields of one case, so once the fields a
        # case does not read hold their defaults, only its own bounds fire.
        reads = {*_COMMON_FIELDS, *CASE_FIELDS[self.case].split()}
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name}: case {self.case!r} does not read it")
        validate = [
            ("seed", 0 <= self.seed < 1 << 64, "must be in [0, 2**64 - 1]"),
            ("jobs", self.jobs >= 1, "must be >= 1"),
            ("shadows", self.shadows >= 2, "must be >= 2"),
            ("n_phonemes", 1 <= self.n_phonemes <= 40, "must be in [1, 40]"),
            ("n_states", self.n_states >= 1, "must be >= 1"),
            ("dim", self.dim >= 1, "must be >= 1"),
            ("n_sequences", self.n_sequences >= 1, "must be >= 1"),
            ("n_boosted", 0 <= self.n_boosted <= self.n_phonemes, "must be in [0, n_phonemes]"),
            ("train_iters", self.train_iters >= 0, "must be >= 0"),
            ("top_k", 1 <= self.top_k <= self.n_phonemes, "must be in [1, n_phonemes]"),
            ("baseline_models", self.baseline_models >= 1, "must be >= 1"),
            ("holdout_fraction", 0 < self.holdout_fraction < 1, "must be in (0, 1)"),
            ("flows_per_shadow", self.flows_per_shadow >= 2, "must be >= 2"),
            ("signature_fraction", 0 <= self.signature_fraction <= 1, "must be in [0, 1]"),
            ("kernel_kind", self.kernel_kind in svm.KERNEL_KINDS,
             f"must be one of {svm.KERNEL_KINDS}"),
            ("gamma", self.gamma >= 0 or self.kernel_kind not in ("polynomial", "rbf"),
             "must be >= 0 for polynomial and rbf kernels"),
            ("degree", self.degree >= 1, "must be >= 1"),
            ("C", self.C > 0, "must be positive"),
            ("tol", self.tol > 0, "must be positive"),
            ("folds", self.folds >= 2, "must be >= 2"),
            ("n_targets", self.n_targets >= 2, "must be >= 2"),
            ("sample_size", self.sample_size >= 1, "must be >= 1"),
            ("k", 1 <= self.k <= self.sample_size, "must be in [1, sample_size]"),
            ("sigma", self.sigma > 0, "must be positive"),
            ("n_runs", self.n_runs >= 4, "must be >= 4"),
            # Only the pool's pool_size // 2 WEB rows become k-means points.
            ("pool_size", self.pool_size >= 2 * self.sample_size, "must be >= 2 * sample_size"),
            ("min_leaf_size", self.min_leaf_size >= 1, "must be >= 1"),
            ("max_depth", self.max_depth is None or self.max_depth >= 1, "must be null or >= 1"),
            ("mlp_seeds", self.mlp_seeds >= 1, "must be >= 1"),
            ("learning_rate", self.learning_rate > 0, "must be positive"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
            ("target_low", 0 < self.target_low < 1, "must be in (0, 1)"),
            ("target_high", self.target_low < self.target_high < 1, "must be in (target_low, 1)"),
        ]
        for name, ok, msg in validate:
            if not ok:
                raise ConfigError(f"{name}: {msg} (got {getattr(self, name)!r})")
        # speech holds out some of its shadows, dp_bypass some of its runs.
        count = {"speech": "shadows", "dp_bypass": "n_runs"}.get(self.case)
        if count is not None:
            n = getattr(self, count)
            try:
                attack.split_by_property(property_labels(n), self.holdout_fraction)
            except ContractError as e:
                raise ConfigError(f"{count}: {n} models cannot be split at holdout_fraction "
                                  f"{self.holdout_fraction} ({e})") from None

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "case" not in d:
            raise ConfigError("case: required")
        return cls(**d)

    def tree_params(self) -> TreeParams:
        return TreeParams(self.min_leaf_size, self.max_depth)

    def tree_trainer(self):
        """k_fold_cross_validate's trainer: a fold's tree, as a classifier."""
        def train(train_ds: Dataset, fold_rng: RandomSource):
            tree = dtree.train_tree(train_ds, self.tree_params(), fold_rng)
            return lambda test_ds: dtree.classify(tree, test_ds)
        return train

    def spec(self, rng: RandomSource):
        """The case's data spec: a SpeechSpec drawn from ``rng.child(0)``
        (speech) or the default FlowSpec (netflow, dp_bypass)."""
        if self.case == "speech":
            return datagen.default_speech_spec(
                rng.child(0), n_phonemes=self.n_phonemes, n_states=self.n_states, dim=self.dim,
                n_boosted=self.n_boosted, boost_shift=self.boost_shift,
                base_shift=self.base_shift)
        if self.case in ("netflow", "dp_bypass"):
            return datagen.default_flow_spec(self.signature_fraction)
        raise ConfigError(f"case {self.case!r} draws no data")

    def train_model(self, data):
        """One shadow or target model: an SVM from a flow Dataset (netflow)
        or an acoustic model from a phoneme corpus (speech)."""
        if self.case == "netflow":
            kernel = KernelSpec(self.kernel_kind, self.gamma, self.r, self.degree)
            return svm.smo_train(data, kernel, C=self.C, tol=self.tol)
        if self.case == "speech":
            return hmm.train_acoustic_model(data, n_states=self.n_states, iters=self.train_iters)
        raise ConfigError(f"case {self.case!r} trains no shadow models")

    def training_set(self, spec, with_property: bool, rng: RandomSource):
        """One shadow's or target's training set: a flow Dataset of
        ``flows_per_shadow`` rows (netflow) or a corpus of ``n_sequences``
        sequences per phoneme (speech)."""
        # The generators are looked up on ``datagen`` at call time, so a
        # wrapper patched onto the module sees every call.
        if self.case == "netflow":
            return datagen.gen_flow_dataset(spec, with_property, self.flows_per_shadow, rng)
        if self.case == "speech":
            return datagen.gen_speech_corpus(spec, with_property, self.n_sequences, rng)
        raise ConfigError(f"case {self.case!r} generates no training sets")

    def train_new_model(self, spec, with_property: bool, rng: RandomSource):
        """The model trained on a freshly generated training set, which is
        dropped once trained on."""
        return self.train_model(self.training_set(spec, with_property, rng))


def _echo(cfg: PipelineConfig, renamed: str = "", **extras) -> dict:
    """Report config block: the seed and every field the case reads, less
    those ``renamed`` names (space-separated), plus extras for renamed or
    derived entries."""
    names = ["seed", *CASE_FIELDS[cfg.case].split()]
    return {**{n: getattr(cfg, n) for n in names if n not in renamed.split()}, **extras}


def _map_jobs(cfg: PipelineConfig, spec, tasks) -> list:
    """The model of each ``(with_property, source)`` task, in task order.

    Each task generates its training set, trains on it and keeps only the
    model, so at most one training set per worker is alive. With
    ``cfg.jobs`` > 1 the tasks run across that many processes; a worker
    receives the spec and a seeded source, never a training set.
    """
    train = partial(cfg.train_new_model, spec)
    if cfg.jobs <= 1:
        return [train(*task) for task in tasks]
    # Imported here so that a one-process run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(train, *zip(*tasks)))


def _metrics_block(cm: metrics.ConfusionMatrix) -> dict:
    pra = metrics.precision_recall_accuracy(cm)
    return {
        "labels": list(cm.labels),
        "confusion_matrix": cm.to_lists(),
        "accuracy": pra["accuracy"],
        "per_class": pra["per_class"],
    }


def run_speech_case(cfg: PipelineConfig, rng: RandomSource) -> dict:
    spec = cfg.spec(rng)
    log.info("speech: training %d shadow acoustic models", cfg.shadows)
    models = _map_jobs(cfg, spec, shadow_tasks(cfg.shadows, rng.child(1)))
    labels = property_labels(cfg.shadows)

    def evaluate(shadow_models, meta_rng):
        md, mc, verdicts, truths, votes = attack.holdout_attack(
            shadow_models, labels, cfg.holdout_fraction, cfg.tree_params(), meta_rng)
        block = _metrics_block(metrics.confusion_matrix(truths, votes))
        block.update({"tree_nodes": mc.tree.n_nodes, "tree_leaves": mc.tree.n_leaves,
                      "meta_train_rows": md.data.n_rows})
        return block, mc, verdicts

    unfiltered, mc, verdicts = evaluate(models, rng.child(2))

    log.info("speech: building reference and %d baseline models for the divergence filter",
             cfg.baseline_models)
    reference, *baselines = _map_jobs(
        cfg, spec,
        [(True, rng.child(3))] + [(False, rng.child(100 + i)) for i in range(cfg.baseline_models)])
    scores = attack.kl_divergence_scores(reference, baselines)
    selected = attack.kl_filter(scores, cfg.top_k)

    filtered, _, _ = evaluate(
        [hmm.AcousticModel({ph: m.hmms[ph] for ph in selected}) for m in models], rng.child(4))

    return {
        "case": "speech",
        "config": _echo(cfg, variance_floor=hmm.VAR_FLOOR, verdict_rule="majority_vote"),
        "shadow_summary": [{"label": l, "phonemes": cfg.n_phonemes} for l in labels],
        "unfiltered": unfiltered,
        "filter": {"scores": {ph: scores[ph] for ph in sorted(scores)},
                   "selected": selected},
        "filtered": filtered,
        "verdicts": verdicts,
        "artifacts": {"meta_classifier": "meta_classifier.json"},
        "_meta_classifier": mc,
    }


def run_netflow_case(cfg: PipelineConfig, rng: RandomSource) -> dict:
    spec = cfg.spec(rng)
    log.info("netflow: training %d shadow SVMs", cfg.shadows)
    models = _map_jobs(cfg, spec, shadow_tasks(cfg.shadows, rng.child(1)))
    labels = property_labels(cfg.shadows)

    md = attack.build_meta_training_set(list(zip(models, labels)))
    mc = attack.train_meta(md, cfg.tree_params(), rng.child(2))

    log.info("netflow: %d-fold cross-validation on %d support-vector rows",
             cfg.folds, md.data.n_rows)
    cv = metrics.k_fold_cross_validate(md.data, cfg.folds, cfg.tree_trainer(), rng.child(3))

    log.info("netflow: evaluating %d held-out target classifiers", cfg.n_targets)
    targets = _map_jobs(cfg, spec, shadow_tasks(cfg.n_targets, rng.child(4)))
    verdicts, _, _ = attack.judge(mc, targets, property_labels(cfg.n_targets))

    return {
        "case": "netflow",
        "config": _echo(cfg, "kernel_kind gamma r degree",
                        kernel={"kind": cfg.kernel_kind, "gamma": cfg.gamma, "r": cfg.r,
                                "degree": cfg.degree},
                        verdict_rule="majority_vote"),
        "shadow_summary": [
            {"label": l, "support_vectors": int(m.n_support), "converged": bool(m.converged)}
            for l, m in zip(labels, models)
        ],
        "cross_validation": {"fold_accuracies": cv.fold_accuracies,
                             "mean_accuracy": cv.mean_accuracy, **_metrics_block(cv.pooled)},
        "meta_tree": {"nodes": mc.tree.n_nodes, "leaves": mc.tree.n_leaves,
                      "train_rows": md.data.n_rows, "train_accuracy": mc.train_accuracy},
        "targets": {"verdicts": verdicts,
                    "verdict_accuracy": sum(v["verdict"] == v["truth"] for v in verdicts)
                                        / len(targets)},
        "artifacts": {"meta_classifier": "meta_classifier.json"},
        "_meta_classifier": mc,
    }


def run_dp_bypass_case(cfg: PipelineConfig, rng: RandomSource) -> dict:
    spec = cfg.spec(rng)
    log.info("dp_bypass: generating point pools")

    def web_points(with_property: bool, source: RandomSource) -> np.ndarray:
        # One pool is alive at a time: only its WEB points outlive this call.
        ds = datagen.gen_flow_dataset(spec, with_property, cfg.pool_size, source)
        return numeric_matrix(ds.subset(ds.labels == datagen.WEB))

    points_p = web_points(True, rng.child(0))
    points_notp = web_points(False, rng.child(1))
    log.info("dp_bypass: %d runs per arm, k=%d, sigma=%g", cfg.n_runs, cfg.k, cfg.sigma)
    result = attack.run_dp_bypass(points_p, points_notp, cfg.k, cfg.sigma, cfg.n_runs,
                                  cfg.sample_size, cfg.holdout_fraction, cfg.tree_params(),
                                  rng.child(2))
    clamp_low, clamp_high = result.pop("clamp_low"), result.pop("clamp_high")
    return {
        "case": "dp_bypass",
        "config": _echo(cfg, "n_runs", n_runs_per_arm=cfg.n_runs, points="WEB flows only",
                        clamp_source="per-run sample min/max", clamp_low=clamp_low,
                        clamp_high=clamp_high, verdict_rule="majority_vote"),
        **result,
    }


def _identity_state(net, pairs):
    rows = []
    codes = set()
    identity = True
    for x, _ in pairs:
        out, acts = forward(net, x)
        hidden = acts[0]
        code = tuple(int(h > 0.5) for h in hidden)
        codes.add(code)
        ok = int(np.argmax(out)) == int(np.argmax(x))
        identity = identity and ok
        rows.append({"input_argmax": int(np.argmax(x)),
                     "output_argmax": int(np.argmax(out)),
                     "hidden": [round(float(h), 3) for h in hidden],
                     "code": list(code)})
    return identity, codes, rows


def _crystallized(net, pairs) -> bool:
    identity, codes, _ = _identity_state(net, pairs)
    return identity and len(codes) == 8


def run_mlp_demo_case(cfg: PipelineConfig, rng: RandomSource) -> dict:
    """8-3-8 identity task: the hidden layer learns a 3-bit code.

    All seeds train side by side in chunks. A seed leaves the stack as
    soon as every pattern's output argmax matches its input and the
    thresholded hidden codes are pairwise distinct (the learned solution
    is stable once reached), or when the epoch budget runs out.
    """
    patterns = np.eye(8)
    targets = np.where(patterns > 0.5, cfg.target_high, cfg.target_low)
    pairs = list(zip(patterns, targets))
    chunk = 1000
    seed_rngs = [rng.child(s) for s in range(cfg.mlp_seeds)]
    nets = [init_mlp((8, 3, 8), seed_rng) for seed_rng in seed_rngs]
    start_errs = [total_squared_error(net, pairs) for net in nets]
    epochs_run = 0
    stopped_at = [0] * cfg.mlp_seeds
    training = list(range(cfg.mlp_seeds))
    while training and epochs_run < cfg.epochs:
        step = min(chunk, cfg.epochs - epochs_run)
        trained = backprop_train([nets[s] for s in training], pairs, cfg.learning_rate, step,
                                 [seed_rngs[s] for s in training])
        epochs_run += step
        for s, net in zip(training, trained):
            nets[s] = net
            stopped_at[s] = epochs_run
        training = [s for s in training if not _crystallized(nets[s], pairs)]
    runs = []
    for s, net in enumerate(nets):
        identity, codes, rows = _identity_state(net, pairs)
        runs.append({
            "seed_index": s,
            "identity_learned": bool(identity),
            "distinct_codes": len(codes),
            "epochs_run": stopped_at[s],
            "start_error": start_errs[s],
            "end_error": total_squared_error(net, pairs),
            "patterns": rows,
        })
    n_ok = sum(1 for r in runs if r["identity_learned"] and r["distinct_codes"] == 8)
    return {
        "case": "mlp_demo",
        "config": _echo(cfg, "mlp_seeds target_low target_high", seeds=cfg.mlp_seeds,
                        layer_sizes=[8, 3, 8],
                        target_encoding=[cfg.target_low, cfg.target_high]),
        "runs": runs,
        "successful_seeds": n_ok,
    }


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run one case end to end; writes report and artifacts to cfg.out_dir."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    rng = RandomSource(cfg.seed)
    runner = {
        "speech": run_speech_case,
        "netflow": run_netflow_case,
        "dp_bypass": run_dp_bypass_case,
        "mlp_demo": run_mlp_demo_case,
    }[cfg.case]
    report = runner(cfg, rng)

    mc = report.pop("_meta_classifier", None)
    if mc is not None:
        serialize.save_model(mc, os.path.join(cfg.out_dir, "meta_classifier.json"))
    if cfg.case == "dp_bypass":
        _write_scatter_files(report, cfg.out_dir)
    serialize.save_report(report, os.path.join(cfg.out_dir, "report.json"))
    return report


def _write_scatter_files(report: dict, out_dir: str) -> None:
    """One CSV per (arm, property) quadrant with columns x,y,arm,run."""
    quadrants = {}
    for row in report["scatter"]:
        key = (row["arm"], row["property"])
        quadrants.setdefault(key, []).append(row)
    names = {}
    for (arm, prop), rows in sorted(quadrants.items()):
        prop_tag = "with_property" if prop == P else "without_property"
        name = f"centroids_{arm}_{prop_tag}.csv"
        names[f"{arm}_{prop_tag}"] = name
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("x,y,arm,run\n")
            for r in rows:
                fh.write(f"{r['x']!r},{r['y']!r},{r['arm']},{r['run']}\n")
    report["artifacts"] = {"scatter_files": names}
