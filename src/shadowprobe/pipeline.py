"""Config-driven experiment pipelines for the four case studies.

Each case consumes a PipelineConfig and produces a JSON report plus
serialized artifacts. Reports echo every tunable that matters for
reproduction (kernel gamma/r, SuLQ sigma, verdict aggregation rule,
variance floor) and are byte-identical across runs with the same
config and seed.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import attack, datagen, dtree, hmm, metrics, serialize, svm
from .attack import NOT_PROPERTY, PROPERTY
from .core import ContractError, Dataset, RandomSource, numeric_matrix, round_half_up
from .dtree import TreeParams
from .kmeans import SulqParams
from .mlp import backprop_train, forward, init_mlp
from .svm import KernelSpec

log = logging.getLogger("shadowprobe")

CASES = ("speech", "netflow", "dp_bypass", "mlp_demo")


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
    case: str
    seed: int = 7
    out_dir: str = "out"
    jobs: int = 1
    # speech case
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
    # netflow case
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
    # shared shadow count
    shadows: int = 40
    # dp_bypass case
    k: int = 3
    sigma: float = 8.0
    n_runs: int = 70
    pool_size: int = 24000
    sample_size: int = 2000
    # meta-classifier growth limits
    min_leaf_size: int = 5
    max_depth: int | None = None
    # mlp_demo case
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
        validate = [
            ("case", self.case in CASES, f"must be one of {CASES}"),
            ("seed", self.seed >= 0, "must be a non-negative integer"),
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
            ("degree", self.degree >= 1, "must be >= 1"),
            ("C", self.C > 0, "must be positive"),
            ("tol", self.tol > 0, "must be positive"),
            ("folds", self.folds >= 2, "must be >= 2"),
            ("n_targets", self.n_targets >= 1, "must be >= 1"),
            ("sample_size", self.sample_size >= 1, "must be >= 1"),
            ("k", 1 <= self.k <= self.sample_size, "must be in [1, sample_size]"),
            ("sigma", self.sigma > 0, "must be positive"),
            ("n_runs", self.n_runs >= 4, "must be >= 4"),
            # Only the pool's pool_size // 2 WEB rows become k-means points.
            ("pool_size", self.pool_size >= 2 * self.k, "must be >= 2 * k"),
            ("min_leaf_size", self.min_leaf_size >= 1, "must be >= 1"),
            ("max_depth", self.max_depth is None or self.max_depth >= 0, "must be null or >= 0"),
            ("mlp_seeds", self.mlp_seeds >= 1, "must be >= 1"),
            ("learning_rate", self.learning_rate > 0, "must be positive"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
        ]
        for name, ok, msg in validate:
            if not ok:
                raise ConfigError(f"{name}: {msg} (got {getattr(self, name)!r})")
        # speech holds out some of its shadows, dp_bypass some of its runs;
        # the first round_half_up(n / 2) of them carry the property.
        count = {"speech": "shadows", "dp_bypass": "n_runs"}.get(self.case)
        if count is not None:
            n = getattr(self, count)
            n_p = round_half_up(0.5 * n)
            try:
                attack.split_by_property([PROPERTY] * n_p + [NOT_PROPERTY] * (n - n_p),
                                         self.holdout_fraction)
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


def _echo(cfg: PipelineConfig, names: str, **extras) -> dict:
    """Report config block: the named fields (space-separated) plus extras
    for renamed or derived entries."""
    return {**{n: getattr(cfg, n) for n in names.split()}, **extras}


def _map_jobs(fn, items, jobs: int):
    """Ordered map, optionally across processes; results keep input order."""
    if jobs <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _train_acoustic_shadow(args):
    corpus, n_states, iters = args
    return hmm.train_acoustic_model(corpus, n_states=n_states, iters=iters)


def _train_svm_shadow(args):
    ds, kernel, C, tol = args
    return svm.smo_train(ds, kernel, C=C, tol=tol)


def _metrics_block(truths, preds):
    cm = metrics.confusion_matrix(truths, preds)
    pra = metrics.precision_recall_accuracy(cm)
    return {
        "labels": list(cm.labels),
        "confusion_matrix": cm.to_lists(),
        "accuracy": pra["accuracy"],
        "per_class": pra["per_class"],
    }


def _row_level_eval(mc, models, labels):
    truths, preds = [], []
    verdicts = []
    for model, label in zip(models, labels):
        v = attack.infer_property(mc, model, include_rows=True)
        verdicts.append({"truth": label, "verdict": v.label.value,
                         "votes_p": v.votes_p, "votes_notp": v.votes_notp, "tie": v.tie})
        preds.extend(v.per_row)
        truths.extend([label] * len(v.per_row))
    return truths, preds, verdicts


def run_speech_case(cfg: PipelineConfig, rng: RandomSource) -> dict:
    spec = datagen.default_speech_spec(
        rng.child(0), n_phonemes=cfg.n_phonemes, n_states=cfg.n_states, dim=cfg.dim,
        n_boosted=cfg.n_boosted, boost_shift=cfg.boost_shift, base_shift=cfg.base_shift)
    shadows = datagen.gen_shadow_array(spec, cfg.shadows, 0.5, rng.child(1),
                                       size=cfg.n_sequences)
    log.info("speech: training %d shadow acoustic models", len(shadows))
    models = _map_jobs(
        _train_acoustic_shadow,
        [(corpus, cfg.n_states, cfg.train_iters) for corpus, _ in shadows],
        cfg.jobs,
    )
    labels = [pl.value for _, pl in shadows]

    train_idx, hold_idx = attack.split_by_property(labels, cfg.holdout_fraction)
    train_shadows = [(models[i], shadows[i][1]) for i in train_idx]
    md = attack.build_meta_training_set(train_shadows)
    mc = attack.train_meta(md, cfg.tree_params(), rng.child(2))
    hold_models = [models[i] for i in hold_idx]
    hold_labels = [labels[i] for i in hold_idx]
    truths, preds, verdicts = _row_level_eval(mc, hold_models, hold_labels)
    unfiltered = _metrics_block(truths, preds)
    unfiltered.update({"tree_nodes": mc.tree.n_nodes, "tree_leaves": mc.tree.n_leaves,
                       "meta_train_rows": md.data.n_rows})

    log.info("speech: building reference and %d baseline models for the divergence filter",
             cfg.baseline_models)
    ref_corpus = datagen.gen_speech_corpus(spec, True, cfg.n_sequences, rng.child(3))
    reference = hmm.train_acoustic_model(ref_corpus, n_states=cfg.n_states, iters=cfg.train_iters)
    baselines = _map_jobs(
        _train_acoustic_shadow,
        [(datagen.gen_speech_corpus(spec, False, cfg.n_sequences, rng.child(100 + i)),
          cfg.n_states, cfg.train_iters) for i in range(cfg.baseline_models)],
        cfg.jobs,
    )
    scores = attack.kl_divergence_scores(reference, baselines)
    selected = attack.kl_filter(reference, baselines, cfg.top_k)

    md_f = attack.restrict_to_phonemes(md, selected)
    mc_f = attack.train_meta(md_f, cfg.tree_params(), rng.child(4))
    f_truths, f_preds = [], []
    for model, label in zip(hold_models, hold_labels):
        rows = attack.phoneme_rows(attack.extract_features(model).data, selected)
        f_truths += [label] * rows.n_rows
        f_preds += dtree.classify(mc_f.tree, rows)
    filtered = _metrics_block(f_truths, f_preds)
    filtered.update({"tree_nodes": mc_f.tree.n_nodes, "tree_leaves": mc_f.tree.n_leaves,
                     "meta_train_rows": md_f.data.n_rows})

    return {
        "case": "speech",
        "config": _echo(cfg, "seed shadows n_phonemes n_states dim n_sequences n_boosted "
                             "boost_shift base_shift train_iters top_k baseline_models "
                             "holdout_fraction min_leaf_size max_depth",
                        variance_floor=hmm.VAR_FLOOR, verdict_rule="majority_vote"),
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
    spec = datagen.default_flow_spec(cfg.signature_fraction)
    kernel = KernelSpec(cfg.kernel_kind, cfg.gamma, cfg.r, cfg.degree)
    shadows = datagen.gen_shadow_array(spec, cfg.shadows, 0.5, rng.child(1),
                                       size=cfg.flows_per_shadow)
    log.info("netflow: training %d shadow SVMs", len(shadows))
    models = _map_jobs(
        _train_svm_shadow, [(ds, kernel, cfg.C, cfg.tol) for ds, _ in shadows], cfg.jobs)
    labels = [pl.value for _, pl in shadows]

    md = attack.build_meta_training_set(list(zip(models, [pl for _, pl in shadows])))
    mc = attack.train_meta(md, cfg.tree_params(), rng.child(2))

    def tree_trainer(train_ds: Dataset, fold_rng: RandomSource):
        tree = dtree.train_tree(train_ds, cfg.tree_params(), fold_rng)
        return lambda test_ds: dtree.classify(tree, test_ds)

    log.info("netflow: %d-fold cross-validation on %d support-vector rows",
             cfg.folds, md.data.n_rows)
    cv = metrics.k_fold_cross_validate(md.data, cfg.folds, tree_trainer, rng.child(3))
    pra = metrics.precision_recall_accuracy(cv.pooled)

    log.info("netflow: evaluating %d held-out target classifiers", cfg.n_targets)
    target_specs = datagen.gen_shadow_array(spec, cfg.n_targets, 0.5, rng.child(4),
                                            size=cfg.flows_per_shadow)
    targets = _map_jobs(
        _train_svm_shadow, [(ds, kernel, cfg.C, cfg.tol) for ds, _ in target_specs], cfg.jobs)
    verdicts = []
    correct = 0
    for model, (_, pl) in zip(targets, target_specs):
        v = attack.infer_property(mc, model)
        verdicts.append({"truth": pl.value, "verdict": v.label.value,
                         "votes_p": v.votes_p, "votes_notp": v.votes_notp, "tie": v.tie})
        correct += v.label.value == pl.value

    return {
        "case": "netflow",
        "config": _echo(cfg, "seed shadows flows_per_shadow signature_fraction C tol folds "
                             "n_targets min_leaf_size max_depth",
                        kernel={"kind": cfg.kernel_kind, "gamma": cfg.gamma, "r": cfg.r,
                                "degree": cfg.degree},
                        verdict_rule="majority_vote"),
        "shadow_summary": [
            {"label": l, "support_vectors": int(m.n_support), "converged": bool(m.converged)}
            for l, m in zip(labels, models)
        ],
        "cross_validation": {
            "fold_accuracies": cv.fold_accuracies,
            "mean_accuracy": cv.mean_accuracy,
            "labels": list(cv.pooled.labels),
            "confusion_matrix": cv.pooled.to_lists(),
            "accuracy": pra["accuracy"],
            "per_class": pra["per_class"],
        },
        "meta_tree": {"nodes": mc.tree.n_nodes, "leaves": mc.tree.n_leaves,
                      "train_rows": md.data.n_rows, "train_accuracy": mc.train_accuracy},
        "targets": {"verdicts": verdicts,
                    "verdict_accuracy": correct / len(targets)},
        "artifacts": {"meta_classifier": "meta_classifier.json"},
        "_meta_classifier": mc,
    }


def run_dp_bypass_case(cfg: PipelineConfig, rng: RandomSource) -> dict:
    spec = datagen.default_flow_spec(cfg.signature_fraction)
    log.info("dp_bypass: generating point pools")
    ds_p = datagen.gen_flow_dataset(spec, True, cfg.pool_size, rng.child(0))
    ds_notp = datagen.gen_flow_dataset(spec, False, cfg.pool_size, rng.child(1))

    def web_points(ds: Dataset) -> np.ndarray:
        return numeric_matrix(ds.subset(ds.labels == datagen.WEB))

    points_p = web_points(ds_p)
    points_notp = web_points(ds_notp)
    log.info("dp_bypass: %d runs per arm, k=%d, sigma=%g", cfg.n_runs, cfg.k, cfg.sigma)
    report = attack.run_dp_bypass(
        points_p, points_notp, cfg.k, SulqParams(cfg.sigma), cfg.n_runs,
        rng.child(2), sample_size=cfg.sample_size,
        holdout_fraction=cfg.holdout_fraction, tree_params=cfg.tree_params())
    report["case"] = "dp_bypass"
    report["config"].update(_echo(cfg, "seed pool_size signature_fraction",
                                  points="WEB flows only"))
    return report


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


def run_mlp_demo_case(cfg: PipelineConfig, rng: RandomSource) -> dict:
    """8-3-8 identity task: the hidden layer learns a 3-bit code.

    Each seed trains in chunks and stops as soon as every pattern's
    output argmax matches its input and the thresholded hidden codes are
    pairwise distinct (the learned solution is stable once reached), or
    when the epoch budget runs out.
    """
    patterns = np.eye(8)
    targets = np.where(patterns > 0.5, cfg.target_high, cfg.target_low)
    pairs = list(zip(patterns, targets))
    chunk = 1000
    runs = []
    for s in range(cfg.mlp_seeds):
        seed_rng = rng.child(s)
        net = init_mlp((8, 3, 8), seed_rng)
        start_err = sum(0.5 * float(((forward(net, x)[0] - t) ** 2).sum()) for x, t in pairs)
        epochs_run = 0
        while epochs_run < cfg.epochs:
            step = min(chunk, cfg.epochs - epochs_run)
            net = backprop_train(net, pairs, cfg.learning_rate, step, seed_rng)
            epochs_run += step
            identity, codes, rows = _identity_state(net, pairs)
            if identity and len(codes) == 8:
                break
        identity, codes, rows = _identity_state(net, pairs)
        end_err = sum(0.5 * float(((forward(net, x)[0] - t) ** 2).sum()) for x, t in pairs)
        runs.append({
            "seed_index": s,
            "identity_learned": bool(identity),
            "distinct_codes": len(codes),
            "epochs_run": epochs_run,
            "start_error": start_err,
            "end_error": end_err,
            "patterns": rows,
        })
    n_ok = sum(1 for r in runs if r["identity_learned"] and r["distinct_codes"] == 8)
    return {
        "case": "mlp_demo",
        "config": _echo(cfg, "seed learning_rate epochs", seeds=cfg.mlp_seeds,
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
        prop_tag = "with_property" if prop == PROPERTY else "without_property"
        name = f"centroids_{arm}_{prop_tag}.csv"
        names[f"{arm}_{prop_tag}"] = name
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("x,y,arm,run\n")
            for r in rows:
                fh.write(f"{r['x']!r},{r['y']!r},{r['arm']},{r['run']}\n")
    report["artifacts"] = {"scatter_files": names}
