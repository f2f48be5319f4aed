"""Batch command-line front-end.

Subcommands: ``generate`` (emit synthetic data), ``train`` (fit one
target model from a data file), ``attack`` (apply a saved
meta-classifier to a saved target model), ``filter`` (rank phonemes by
divergence), ``evaluate`` (cross-validate a labeled CSV), and ``run``
(full pipeline for a case). Every parameter can come from a JSON config
file; flags override config values. The SHADOWPROBE_LOG environment
variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import datagen, dtree, hmm, metrics, serialize, svm
from .attack import infer_property, kl_divergence_scores, kl_filter
from .core import (ContractError, RandomSource, ShadowprobeError, StructuralError,
                   load_dataset, save_dataset)
from .pipeline import CASES, ConfigError, PipelineConfig, run_pipeline
from .svm import KernelSpec

log = logging.getLogger("shadowprobe")


def _setup_logging():
    level = os.environ.get("SHADOWPROBE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file is not valid JSON ({e})") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    overrides = {
        "case": getattr(args, "case", None),
        "seed": getattr(args, "seed", None),
        "out_dir": getattr(args, "out", None),
        "shadows": getattr(args, "shadows", None),
        "top_k": getattr(args, "top_k", None),
        "sigma": getattr(args, "sigma", None),
        "jobs": getattr(args, "jobs", None),
    }
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, help="master seed (overrides config)")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--case", choices=CASES, help="case study")
    sp.add_argument("--shadows", type=int, help="number of shadow classifiers")
    sp.add_argument("--top-k", dest="top_k", type=int, help="phonemes kept by the filter")
    sp.add_argument("--sigma", type=float, help="SuLQ noise scale")
    sp.add_argument("--jobs", type=int, help="parallel workers for shadow training")


def cmd_run(args) -> int:
    cfg = PipelineConfig.from_dict(_load_config(args))
    try:
        report = run_pipeline(cfg)
    except ShadowprobeError:
        raise
    except Exception as e:  # partial report so the failure is inspectable
        os.makedirs(cfg.out_dir, exist_ok=True)
        serialize.save_report({"case": cfg.case, "seed": cfg.seed, "error": repr(e)},
                              os.path.join(cfg.out_dir, "report.json"))
        log.error("pipeline failed: %r", e)
        return 1
    print(f"report written to {os.path.join(cfg.out_dir, 'report.json')}")
    if cfg.case == "speech":
        print(f"unfiltered row accuracy: {report['unfiltered']['accuracy']:.3f}")
        print(f"filtered row accuracy:   {report['filtered']['accuracy']:.3f}")
    elif cfg.case == "netflow":
        print(f"cross-validated accuracy: {report['cross_validation']['mean_accuracy']:.3f}")
        print(f"target verdict accuracy:  {report['targets']['verdict_accuracy']:.3f}")
    elif cfg.case == "dp_bypass":
        print(f"verdict accuracy without noise: {report['noiseless']['verdict_accuracy']:.3f}")
        print(f"verdict accuracy with SuLQ:     {report['sulq']['verdict_accuracy']:.3f}")
    else:
        print(f"successful seeds: {report['successful_seeds']}/{len(report['runs'])}")
    return 0


def cmd_generate(args) -> int:
    d = _load_config(args)
    d.setdefault("case", "netflow")
    cfg = PipelineConfig.from_dict(d)
    os.makedirs(cfg.out_dir, exist_ok=True)
    rng = RandomSource(cfg.seed)
    if cfg.case in ("netflow", "dp_bypass"):
        spec = datagen.default_flow_spec(cfg.signature_fraction)
        for tag, with_p in (("with_property", True), ("without_property", False)):
            ds = datagen.gen_flow_dataset(spec, with_p, cfg.flows_per_shadow, rng.child(with_p))
            path = os.path.join(cfg.out_dir, f"flows_{tag}.csv")
            save_dataset(ds, path)
            print(f"wrote {path} ({ds.n_rows} rows)")
    elif cfg.case == "speech":
        spec = datagen.default_speech_spec(
            rng.child(0), n_phonemes=cfg.n_phonemes, n_states=cfg.n_states, dim=cfg.dim,
            n_boosted=cfg.n_boosted, boost_shift=cfg.boost_shift, base_shift=cfg.base_shift)
        for tag, with_p in (("with_property", True), ("without_property", False)):
            corpus = datagen.gen_speech_corpus(spec, with_p, cfg.n_sequences, rng.child(10 + with_p))
            path = os.path.join(cfg.out_dir, f"corpus_{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({ph: [s.tolist() for s in seqs] for ph, seqs in corpus.items()},
                          fh, sort_keys=True)
            print(f"wrote {path} ({len(corpus)} phonemes)")
    else:
        raise ConfigError(f"generate does not apply to case {cfg.case!r}")
    return 0


def _load_corpus(path) -> dict:
    """A JSON object mapping each phoneme to a list of (T, dim) frame lists."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise StructuralError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise StructuralError(f"{path}: a corpus must be a JSON object of phoneme sequences")
    corpus = {}
    for ph, seqs in raw.items():
        if not isinstance(seqs, list):
            raise StructuralError(f"{path}: phoneme {ph!r}: sequences must be a JSON list")
        try:
            corpus[ph] = [hmm.as_sequence(s) for s in seqs]
        except ContractError as e:
            raise ContractError(f"{path}: phoneme {ph!r}: {e}") from None
    return corpus


def cmd_train(args) -> int:
    d = _load_config(args)
    d.setdefault("case", "netflow")
    cfg = PipelineConfig.from_dict(d)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.case == "netflow":
        ds = load_dataset(args.data, has_header=True,
                          label_column=len(datagen.FLOW_COLUMNS))
        kernel = KernelSpec(cfg.kernel_kind, cfg.gamma, cfg.r, cfg.degree)
        model = svm.smo_train(ds, kernel, C=cfg.C, tol=cfg.tol)
        out = os.path.join(cfg.out_dir, "svm_model.json")
    elif cfg.case == "speech":
        corpus = _load_corpus(args.data)
        model = hmm.train_acoustic_model(corpus, n_states=cfg.n_states, iters=cfg.train_iters)
        out = os.path.join(cfg.out_dir, "acoustic_model.json")
    else:
        raise ConfigError(f"train does not apply to case {cfg.case!r}")
    serialize.save_model(model, out)
    print(f"wrote {out}")
    return 0


def cmd_attack(args) -> int:
    mc = serialize.load_model(args.meta)
    target = serialize.load_model(args.target)
    verdict = infer_property(mc, target)
    result = {"verdict": verdict.label.value, "votes_p": verdict.votes_p,
              "votes_notp": verdict.votes_notp, "tie": verdict.tie}
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_filter(args) -> int:
    reference = serialize.load_model(args.reference)
    baselines = [serialize.load_model(p) for p in args.baselines]
    scores = kl_divergence_scores(reference, baselines)
    selected = kl_filter(reference, baselines, args.top_k or 5)
    print(json.dumps({"selected": selected,
                      "scores": {ph: scores[ph] for ph in sorted(scores)}},
                     indent=2, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    d = _load_config(args)
    d.setdefault("case", "netflow")
    cfg = PipelineConfig.from_dict(d)
    ds = load_dataset(args.data, has_header=True, label_column=args.label_column)
    rng = RandomSource(cfg.seed)

    def tree_trainer(train_ds, fold_rng):
        tree = dtree.train_tree(train_ds, cfg.tree_params(), fold_rng)
        return lambda test_ds: dtree.classify(tree, test_ds)

    cv = metrics.k_fold_cross_validate(ds, args.folds, tree_trainer, rng)
    pra = metrics.precision_recall_accuracy(cv.pooled)
    print(json.dumps({
        "folds": args.folds,
        "fold_accuracies": cv.fold_accuracies,
        "mean_accuracy": cv.mean_accuracy,
        "labels": list(cv.pooled.labels),
        "confusion_matrix": cv.pooled.to_lists(),
        "per_class": pra["per_class"],
    }, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowprobe",
        description="Training-set property inference against classical ML classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run a full case pipeline")
    _add_common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("generate", help="emit synthetic datasets or corpora")
    _add_common(sp)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("train", help="train one target model from a data file")
    _add_common(sp)
    sp.add_argument("--data", required=True, help="CSV flow file or JSON corpus")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("attack", help="apply a meta-classifier to a target model")
    sp.add_argument("--meta", required=True, help="saved meta-classifier")
    sp.add_argument("--target", required=True, help="saved target model")
    sp.set_defaults(fn=cmd_attack)

    sp = sub.add_parser("filter", help="rank phonemes by output-distribution divergence")
    sp.add_argument("--reference", required=True, help="acoustic model with the property")
    sp.add_argument("--baselines", required=True, nargs="+",
                    help="acoustic models without the property")
    sp.add_argument("--top-k", dest="top_k", type=int, default=5)
    sp.set_defaults(fn=cmd_filter)

    sp = sub.add_parser("evaluate", help="cross-validate a labeled CSV with the tree engine")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--label-column", dest="label_column", type=int, required=True)
    sp.add_argument("--folds", type=int, default=10)
    sp.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ShadowprobeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
