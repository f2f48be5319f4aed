"""Batch command-line front-end.

Subcommands: ``generate`` (emit netflow or speech synthetic data),
``train`` (fit one target model from a data file), ``attack`` (apply a
saved meta-classifier to a saved target model), ``filter`` (rank
phonemes by divergence), ``evaluate`` (cross-validate the decision
tree on a labeled CSV), and ``run`` (full pipeline for a case, printing
its case's ``pipeline.HEADLINES``). ``run``, ``generate``, ``train``
and ``evaluate`` read a PipelineConfig from ``--config`` (a JSON
object); each takes only the override flags of the config fields it
reads (``CONFIG_FLAGS``), and a flag overrides the file. The config
itself may set only the fields its case reads
(``pipeline.CASE_FIELDS``), so ``run --case mlp_demo --sigma 3`` is a
config error. ``attack`` and ``evaluate`` print the blocks the library
returns (``infer_property``'s verdict, ``k_fold_cross_validate``'s
report block) as they are. The SHADOWPROBE_LOG environment variable
sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import datagen, hmm, metrics, serialize
from .attack import MetaClassifier, infer_property, kl_divergence_scores, kl_filter
from .core import (ContractError, ShadowprobeError, StructuralError, load_dataset, read_text,
                   save_dataset)
from .pipeline import CASES, HEADLINES, ConfigError, PipelineConfig, run_pipeline

log = logging.getLogger("shadowprobe")


def _setup_logging():
    level = os.environ.get("SHADOWPROBE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# Override flag -> (PipelineConfig field, argparse keywords).
CONFIG_FLAGS = {
    "seed": ("seed", {"type": int, "help": "master seed"}),
    "out": ("out_dir", {"help": "output directory"}),
    "case": ("case", {"choices": CASES, "help": "case study"}),
    "shadows": ("shadows", {"type": int, "help": "number of shadow classifiers"}),
    "top-k": ("top_k", {"type": int, "help": "phonemes kept by the filter"}),
    "sigma": ("sigma", {"type": float, "help": "SuLQ noise scale"}),
    "jobs": ("jobs", {"type": int, "help": "parallel workers for shadow training"}),
    "folds": ("folds", {"type": int, "help": "cross-validation folds"}),
}


def _add_config(sp, *flags):
    """--config plus the named override flags; a flag's default is the config's."""
    sp.add_argument("--config", help="JSON config file")
    for flag in flags:
        field, kwargs = CONFIG_FLAGS[flag]
        sp.add_argument(f"--{flag}", dest=field, **kwargs)
    sp.set_defaults(config_fields=[CONFIG_FLAGS[flag][0] for flag in flags])


def _load_config(args, default_case=None) -> PipelineConfig:
    """The config file's fields, overridden by the subcommand's flags given."""
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(read_text(args.config))
        except (OSError, StructuralError) as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON ({e})") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for field in args.config_fields:
        value = getattr(args, field)
        if value is not None:
            cfg[field] = value
    if default_case is not None:
        cfg.setdefault("case", default_case)
    return PipelineConfig.from_dict(cfg)


def cmd_run(args) -> int:
    cfg = _load_config(args)
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
    for line in HEADLINES[cfg.case]:
        print(line.format(**report))
    return 0


def cmd_generate(args) -> int:
    cfg = _load_config(args, default_case="netflow")
    if cfg.case not in ("netflow", "speech"):
        raise ConfigError(f"generate does not apply to case {cfg.case!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    first_key = 0 if cfg.case == "netflow" else 10
    for tag, with_p in (("with_property", True), ("without_property", False)):
        data = cfg.training_set(with_p, cfg.rng.child(first_key + with_p))
        if cfg.case == "netflow":
            path = os.path.join(cfg.out_dir, f"flows_{tag}.csv")
            save_dataset(data, path)
            print(f"wrote {path} ({data.n_rows} rows)")
        else:
            path = os.path.join(cfg.out_dir, f"corpus_{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({ph: [s.tolist() for s in seqs] for ph, seqs in data.items()},
                          fh, sort_keys=True)
            print(f"wrote {path} ({len(data)} phonemes)")
    return 0


def _load_corpus(path) -> dict:
    """A JSON object mapping each phoneme to a list of (T, dim) frame lists."""
    raw = serialize.load_json(path)
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
    cfg = _load_config(args, default_case="netflow")
    if cfg.case == "netflow":
        data = load_dataset(args.data, label_column=len(datagen.FLOW_COLUMNS))
        out = os.path.join(cfg.out_dir, "svm_model.json")
    elif cfg.case == "speech":
        data = _load_corpus(args.data)
        out = os.path.join(cfg.out_dir, "acoustic_model.json")
    else:
        raise ConfigError(f"train does not apply to case {cfg.case!r}")
    model = cfg.train_model(data)
    os.makedirs(cfg.out_dir, exist_ok=True)
    serialize.save_model(model, out)
    print(f"wrote {out}")
    return 0


def _load_model_of(path, cls):
    """A saved model that must be a ``cls``; another kind is a ContractError."""
    model = serialize.load_model(path)
    if not isinstance(model, cls):
        raise ContractError(f"{path}: holds {type(model).__name__}, not {cls.__name__}")
    return model


def cmd_attack(args) -> int:
    mc = _load_model_of(args.meta, MetaClassifier)
    target = serialize.load_model(args.target)
    verdict, _ = infer_property(mc, target)
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0


def cmd_filter(args) -> int:
    reference = _load_model_of(args.reference, hmm.AcousticModel)
    baselines = [_load_model_of(p, hmm.AcousticModel) for p in args.baselines]
    scores = kl_divergence_scores(reference, baselines)
    selected = kl_filter(scores, args.top_k)
    print(json.dumps({"selected": selected,
                      "scores": {ph: scores[ph] for ph in sorted(scores)}},
                     indent=2, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args, default_case="netflow")
    ds = load_dataset(args.data, label_column=args.label_column)
    cv = metrics.k_fold_cross_validate(ds, cfg.folds, cfg.tree_params, cfg.rng)
    print(json.dumps({"folds": cfg.folds, **cv}, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowprobe",
        description="Training-set property inference against classical ML classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run a full case pipeline")
    _add_config(sp, "seed", "out", "case", "shadows", "top-k", "sigma", "jobs")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("generate", help="emit synthetic datasets or corpora")
    _add_config(sp, "seed", "out", "case")
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("train", help="train one target model from a data file")
    _add_config(sp, "case", "out")
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
    sp.add_argument("--top-k", dest="top_k", type=int, default=PipelineConfig.top_k)
    sp.set_defaults(fn=cmd_filter)

    sp = sub.add_parser("evaluate", help="cross-validate a labeled CSV with the tree engine")
    _add_config(sp, "seed", "folds")
    sp.add_argument("--data", required=True)
    sp.add_argument("--label-column", dest="label_column", type=int, required=True)
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
    except (ShadowprobeError, OSError) as e:  # an OSError names the file it failed on
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
