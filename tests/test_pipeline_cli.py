import filecmp
import json
import os

import numpy as np
import pytest

from shadowprobe.attack import NOT_P, P, build_meta_training_set, train_meta
from shadowprobe.cli import main
from shadowprobe.core import RandomSource
from shadowprobe.dtree import TreeParams
from shadowprobe.pipeline import ConfigError, PipelineConfig, run_pipeline
from shadowprobe.serialize import load_model, save_model, to_payload
from shadowprobe.svm import KernelSpec, SvmModel

SPEECH_SMALL = dict(shadows=8, n_phonemes=8, dim=6, n_states=3, n_sequences=4,
                    n_boosted=3, baseline_models=3, train_iters=3, top_k=3)
NETFLOW_SMALL = dict(shadows=6, flows_per_shadow=200, folds=3, n_targets=4)


def svm_model(seed, n=5):
    rng = RandomSource(seed)
    return SvmModel(sv_indices=np.arange(n), sv_y=np.array([1.0, -1.0] * 2 + [1.0])[:n],
                    sv_x=rng.normal(size=(n, 3)), sv_alpha=np.full(n, 0.5),
                    bias=0.0, kernel=KernelSpec("linear"), C=1.0, converged=True)


def svm_meta_classifier():
    shadows = [(svm_model(s), P if s % 2 else NOT_P) for s in range(4)]
    return train_meta(build_meta_training_set(shadows), TreeParams(min_leaf_size=1),
                      RandomSource(0))


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            PipelineConfig.from_dict({"case": "speech", "mystery": 1})

    def test_missing_case_rejected(self):
        with pytest.raises(ConfigError, match="case"):
            PipelineConfig.from_dict({"seed": 1})

    def test_field_level_message(self):
        with pytest.raises(ConfigError, match="shadows"):
            PipelineConfig(case="speech", shadows=1)

    def test_holdout_too_large_names_the_holdout(self):
        with pytest.raises(ConfigError, match="2 of 2 models with label P would be held out, "
                                              "leaving none to train on"):
            PipelineConfig.from_dict({"case": "dp_bypass", "n_runs": 4, "holdout_fraction": 0.75})

    @pytest.mark.parametrize("field,value", [
        ("jobs", "2"), ("jobs", True), ("jobs", 2.0), ("n_states", "5"), ("dim", None),
        ("train_iters", 1.5), ("seed", False), ("sigma", "8"), ("sigma", float("nan")),
        ("boost_shift", float("inf")), ("case", 3), ("max_depth", "4"),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig.from_dict({"case": "speech", field: value})

    @pytest.mark.parametrize("field,value", [
        ("n_states", 0), ("dim", 0), ("train_iters", -1), ("n_boosted", 41), ("n_boosted", -1),
    ])
    def test_hmm_fields_bounded(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig(case="speech", **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("sample_size", 0), ("k", 0), ("k", 2001), ("pool_size", 1), ("pool_size", 5),
        ("n_targets", 0),
        ("baseline_models", 0), ("epochs", -1), ("learning_rate", 0.0), ("C", 0.0),
        ("C", -1.0), ("tol", 0.0), ("degree", 0), ("min_leaf_size", 0), ("max_depth", -1),
    ])
    def test_count_and_rate_fields_bounded(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            PipelineConfig(case="netflow", **{field: value})

    def test_boundary_values_accepted(self):
        cfg = PipelineConfig(case="dp_bypass", k=5, sample_size=5, pool_size=10, n_targets=1,
                             baseline_models=1, epochs=0, degree=1, min_leaf_size=1,
                             max_depth=0)
        assert cfg.k == cfg.sample_size == 5

    def test_boosted_may_equal_phonemes(self):
        cfg = PipelineConfig(case="speech", n_phonemes=6, n_boosted=6, train_iters=0,
                             max_depth=3, sigma=8)
        assert cfg.n_boosted == 6

    def test_valid_roundtrip(self):
        cfg = PipelineConfig.from_dict({"case": "netflow", "seed": 9, "shadows": 10})
        assert cfg.case == "netflow" and cfg.seed == 9


class TestPipelines:
    def test_speech_report_contents(self, tmp_path):
        cfg = PipelineConfig(case="speech", seed=5, out_dir=str(tmp_path), **SPEECH_SMALL)
        report = run_pipeline(cfg)
        assert set(report["filter"]["selected"]) <= set("abcdefghijklmnopqrstuvwxyz_") | {
            p for p in report["filter"]["scores"]}
        assert len(report["filter"]["selected"]) == 3
        assert 0.0 <= report["unfiltered"]["accuracy"] <= 1.0
        # Tunables the paper left open must be echoed.
        assert "variance_floor" in report["config"]
        assert report["config"]["verdict_rule"] == "majority_vote"
        mc = load_model(tmp_path / "meta_classifier.json")
        assert mc.source_kind == "hmm"

    def test_netflow_report_contents(self, tmp_path):
        cfg = PipelineConfig(case="netflow", seed=6, out_dir=str(tmp_path), **NETFLOW_SMALL)
        report = run_pipeline(cfg)
        cv = report["cross_validation"]
        assert len(cv["confusion_matrix"]) == 2
        assert set(cv["per_class"]) == {"P", "NotP"}
        assert report["config"]["kernel"] == {
            "kind": "polynomial", "gamma": 1.0, "r": 0.0, "degree": 3}
        assert len(report["targets"]["verdicts"]) == 4

    def test_dp_bypass_scatter_files(self, tmp_path):
        cfg = PipelineConfig(case="dp_bypass", seed=7, out_dir=str(tmp_path),
                             n_runs=8, pool_size=2000, sample_size=400, k=2)
        report = run_pipeline(cfg)
        files = sorted(f for f in os.listdir(tmp_path) if f.startswith("centroids_"))
        assert len(files) == 4
        for f in files:
            lines = (tmp_path / f).read_text().strip().splitlines()
            assert lines[0] == "x,y,arm,run"
            assert len(lines) - 1 == 4 * 2  # runs in quadrant x k
        assert report["config"]["sigma"] == 8.0

    def test_mlp_demo(self, tmp_path):
        cfg = PipelineConfig(case="mlp_demo", seed=3, out_dir=str(tmp_path),
                             mlp_seeds=2, epochs=4000)
        report = run_pipeline(cfg)
        assert report["successful_seeds"] >= 1
        assert len(report["runs"][0]["patterns"]) == 8

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"r{i}"
            cfg = PipelineConfig(case="speech", seed=11, out_dir=str(out), **SPEECH_SMALL)
            run_pipeline(cfg)
            outs.append(out)
        for f in sorted(os.listdir(outs[0])):
            assert filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False), f

    def test_parallel_jobs_same_bytes(self, tmp_path):
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            cfg = PipelineConfig(case="speech", seed=11, out_dir=str(out),
                                 jobs=jobs, **SPEECH_SMALL)
            run_pipeline(cfg)
            outs.append(out)
        for f in sorted(os.listdir(outs[0])):
            assert filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False), f


class TestCli:
    def test_generate_train_attack_chain(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "--case", "netflow", "--seed", "3", "--out", out]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "netflow"}))
        assert main(["train", "--config", str(cfg), "--seed", "4", "--out", out,
                     "--data", os.path.join(out, "flows_with_property.csv")]) == 0
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({"case": "netflow", **NETFLOW_SMALL}))
        assert main(["run", "--config", str(run_cfg), "--seed", "5",
                     "--out", os.path.join(out, "run")]) == 0
        assert main(["attack", "--meta", os.path.join(out, "run", "meta_classifier.json"),
                     "--target", os.path.join(out, "svm_model.json")]) == 0

    def test_attack_rejects_non_finite_target(self, tmp_path, capsys):
        meta, target = tmp_path / "meta.json", tmp_path / "target.json"
        save_model(svm_meta_classifier(), meta)
        payload = to_payload(svm_model(9))
        payload["support_vectors"][0]["x"][0] = float("nan")
        target.write_text(json.dumps(payload))
        # The NaN used to reach the meta-tree and yield a verdict (exit 0).
        assert main(["attack", "--meta", str(meta), "--target", str(target)]) == 1
        assert "'x1', row 0: non-finite value nan" in capsys.readouterr().err

    def test_attack_rejects_target_without_support_vectors(self, tmp_path, capsys):
        meta, target = tmp_path / "meta.json", tmp_path / "target.json"
        save_model(svm_meta_classifier(), meta)
        save_model(svm_model(9, n=0), target)
        # A model with no rows used to print a NotP tie verdict and exit 0.
        assert main(["attack", "--meta", str(meta), "--target", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and "no feature rows" in captured.err

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "mlp_demo", "seed": 1, "mlp_seeds": 1,
                                   "epochs": 200, "out_dir": str(tmp_path / "a")}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "report.json").exists()
        assert not (tmp_path / "a").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"case": "netflow", "bogus": True}))
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("bad", [
        {"case": "speech", "jobs": "2"},
        {"case": "speech", "n_states": "5"},
        {"case": "speech", "n_phonemes": 4, "n_boosted": 5},
        {"case": "speech", "train_iters": -2},
        # Both used to pass validation and fail inside the pipeline (exit 1).
        {"case": "dp_bypass", "sample_size": 0, "n_runs": 4, "pool_size": 500},
        {"case": "netflow", "n_targets": 0},
        # Passed validation, then k-means found 2 points for k=3 (exit 1).
        {"case": "dp_bypass", "pool_size": 4, "n_runs": 4, "k": 3},
        # Passed validation, then no model of one label was left to hold out (exit 1).
        {"case": "speech", "shadows": 3},
        {"case": "dp_bypass", "n_runs": 4, "holdout_fraction": 0.75},
    ])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**bad, "out_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert any(f"config error: {f}:" in err for f in bad if f != "case"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corpus", [
        '{"aa": [[[1.0, 2.0], [3.0]]]}',
        '{"aa": "x"}',
        '[1, 2]',
        '{"aa": [[[1.0, 2.0',
        '{"aa": [[[NaN, 2.0], [1.0, 2.0], [0.5, 1.5], [1.0, 0.0], [2.0, 2.0]]]}',
    ])
    def test_train_rejects_malformed_corpus(self, tmp_path, capsys, corpus):
        data = tmp_path / "corpus.json"
        data.write_text(corpus)
        assert main(["train", "--case", "speech", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "must be finite" not in err

    def test_config_not_json_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"case": "speech",')
        assert main(["run", "--config", str(cfg)]) == 2

    def test_filter_command(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({
            "case": "speech", "n_phonemes": 6, "dim": 4, "n_states": 3,
            "n_sequences": 4, "n_boosted": 2, "train_iters": 2}))
        out = str(tmp_path)
        assert main(["generate", "--config", str(gen_cfg), "--seed", "2", "--out", out]) == 0
        for tag in ("with_property", "without_property"):
            assert main(["train", "--config", str(gen_cfg), "--seed", "3", "--out",
                         os.path.join(out, tag),
                         "--data", os.path.join(out, f"corpus_{tag}.json")]) == 0
        assert main(["filter",
                     "--reference", os.path.join(out, "with_property", "acoustic_model.json"),
                     "--baselines", os.path.join(out, "without_property", "acoustic_model.json"),
                     "--top-k", "2"]) == 0

    def test_evaluate_command(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "--case", "netflow", "--seed", "3", "--out", out]) == 0
        assert main(["evaluate", "--data", os.path.join(out, "flows_with_property.csv"),
                     "--label-column", "7", "--folds", "3", "--seed", "1"]) == 0

    def test_evaluate_rejects_non_finite_cells(self, tmp_path, capsys):
        data = tmp_path / "flows.csv"
        rows = [f"{i}.0,{i % 3}.5,{'a' if i % 2 else 'b'}" for i in range(12)]
        rows[7] = "7.0,nan,a"
        data.write_text("x,y,label\n" + "\n".join(rows) + "\n")
        assert main(["evaluate", "--data", str(data), "--label-column", "2",
                     "--folds", "3", "--seed", "1"]) == 1
        assert "row 8, column 1" in capsys.readouterr().err
