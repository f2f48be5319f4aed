import concurrent.futures
import copy
import filecmp
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from shadowprobe import attack, datagen, metrics, pipeline, svm
from shadowprobe.attack import NOT_P, P, build_meta_training_set, train_meta
from shadowprobe.cli import build_parser, main
from shadowprobe.core import RandomSource, load_dataset, save_dataset, shadow_tasks
from shadowprobe.dtree import TreeParams
from shadowprobe.hmm import AcousticModel, GaussianHmm
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
        ("n_targets", 0), ("n_targets", 1),
        ("baseline_models", 0), ("epochs", -1), ("learning_rate", 0.0), ("C", 0.0),
        ("C", -1.0), ("tol", 0.0), ("degree", 0), ("min_leaf_size", 0), ("max_depth", -1),
    ])
    def test_count_and_rate_fields_bounded(self, field, value):
        case = {"sample_size": "dp_bypass", "k": "dp_bypass", "pool_size": "dp_bypass",
                "baseline_models": "speech", "epochs": "mlp_demo",
                "learning_rate": "mlp_demo"}.get(field, "netflow")
        with pytest.raises(ConfigError, match=f"^{field}: must"):
            PipelineConfig(case=case, **{field: value})

    def test_boundary_values_accepted(self):
        cfg = PipelineConfig(case="dp_bypass", k=5, sample_size=5, pool_size=10,
                             min_leaf_size=1, max_depth=1)
        assert cfg.k == cfg.sample_size == 5
        cfg = PipelineConfig(case="netflow", n_targets=2, degree=1, min_leaf_size=1,
                             max_depth=1)
        assert cfg.n_targets == 2
        assert PipelineConfig(case="speech", baseline_models=1).baseline_models == 1
        assert PipelineConfig(case="mlp_demo", epochs=0).epochs == 0
        assert PipelineConfig(case="mlp_demo", seed=2**64 - 1).seed == 2**64 - 1
        for case in ("netflow", "dp_bypass"):
            for fraction in (0, 1):
                cfg = PipelineConfig(case=case, signature_fraction=fraction)
                assert cfg.signature_fraction == fraction

    @pytest.mark.parametrize("case,field,value", [
        ("speech", "sigma", 3.0), ("netflow", "n_phonemes", 3), ("dp_bypass", "shadows", 99),
        ("mlp_demo", "sample_size", 30000),
    ])
    def test_field_the_case_does_not_read_rejected(self, case, field, value):
        # Each was accepted and ignored, or failed a bound of a field the
        # case never reads (netflow: n_boosted, mlp_demo: pool_size).
        with pytest.raises(ConfigError, match=f"^{field}: case '{case}' does not read it$"):
            PipelineConfig.from_dict({"case": case, field: value})

    def test_boosted_may_equal_phonemes(self):
        cfg = PipelineConfig(case="speech", n_phonemes=6, n_boosted=6, train_iters=0,
                             max_depth=3, sigma=8)
        assert cfg.n_boosted == 6

    @pytest.mark.parametrize("n_runs", [-1, 0, 1, 2, 3])
    def test_fewer_than_four_runs_cannot_be_split(self, n_runs):
        # Two runs of each label are needed to hold one of each out.
        with pytest.raises(ConfigError, match=f"^n_runs: {n_runs} models cannot be split"):
            PipelineConfig(case="dp_bypass", n_runs=n_runs)

    @pytest.mark.parametrize("case,field", [("speech", "shadows"), ("dp_bypass", "n_runs"),
                                            ("speech", "n_states"), ("speech", "dim")])
    @pytest.mark.parametrize("n", [10**9, 2**70])
    def test_huge_model_count_checked_in_constant_memory(self, case, field, n):
        # The holdout check used to build all n labels to trial-split them,
        # and the speech spec drew its arrays before any size check: 10**9
        # raised MemoryError and 2**70 OverflowError or ValueError.
        PipelineConfig(case=case)  # the first config of a case imports modules
        tracemalloc.start()
        try:
            try:
                PipelineConfig(case=case, **{field: n})
            except ConfigError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_speech_spec_drawn_from_child_zero(self):
        cfg = PipelineConfig(case="speech", seed=9, **SPEECH_SMALL)
        want = datagen.default_speech_spec(RandomSource(9).child(0), n_phonemes=8, n_states=3,
                                           dim=6, n_boosted=3, base_shift=0.5)
        assert cfg.spec.boosted == want.boosted
        assert np.array_equal(cfg.spec.means, want.means)
        assert np.array_equal(cfg.spec.sigmas, want.sigmas)

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

    def test_dp_bypass_eight_centroids_exact_pairing(self, tmp_path, monkeypatch):
        # At k = 8 a greedy pairing overstates the displacement; the
        # report must hold the mean of the optimal pairings' distances.
        centroids = {"plain": [], "noisy": []}

        def spy(arm, train):
            def run(*args, **kwargs):
                model = train(*args, **kwargs)
                centroids[arm].append(model.centroids)
                return model
            return run

        monkeypatch.setattr(attack, "kmeans_train", spy("plain", attack.kmeans_train))
        monkeypatch.setattr(attack, "sulq_kmeans_train",
                            spy("noisy", attack.sulq_kmeans_train))
        cfg = PipelineConfig(case="dp_bypass", seed=7, out_dir=str(tmp_path),
                             n_runs=8, pool_size=2000, sample_size=400, k=8)
        report = run_pipeline(cfg)
        want = []
        for noisy, plain in zip(centroids["noisy"], centroids["plain"]):
            cost = np.linalg.norm(noisy[:, None, :] - plain[None, :, :], axis=2)
            rows, cols = linear_sum_assignment(cost)
            want.append(float(sum(cost[i, cols[i]] for i in rows) / 8))
        assert len(want) == 8
        assert report["centroid_displacement_mean"] == float(np.mean(want))

    def test_mlp_demo(self, tmp_path):
        cfg = PipelineConfig(case="mlp_demo", seed=3, out_dir=str(tmp_path),
                             mlp_seeds=2, epochs=4000)
        report = run_pipeline(cfg)
        assert report["successful_seeds"] >= 1
        assert len(report["runs"][0]["patterns"]) == 8

    def test_mlp_seed_independent_of_other_seeds(self, tmp_path):
        # At seed 3 the three nets stop after 4000, 1000 and 3000 epochs,
        # so seed 0 keeps training while the others leave the stack.
        runs = {}
        for n in (1, 3):
            cfg = PipelineConfig(case="mlp_demo", seed=3, out_dir=str(tmp_path / f"s{n}"),
                                 mlp_seeds=n, epochs=4000)
            runs[n] = run_pipeline(cfg)["runs"]
        assert [r["epochs_run"] for r in runs[3]] == [4000, 1000, 3000]
        assert runs[1][0] == runs[3][0]

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
        # With jobs > 1 each worker generates its own training sets.
        for case, small in (("speech", SPEECH_SMALL), ("netflow", NETFLOW_SMALL)):
            outs = []
            for jobs in (1, 2):
                out = tmp_path / f"{case}-j{jobs}"
                cfg = PipelineConfig(case=case, seed=11, out_dir=str(out), jobs=jobs, **small)
                run_pipeline(cfg)
                outs.append(out)
            for f in sorted(os.listdir(outs[0])):
                assert filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False), (case, f)

    def test_pool_never_larger_than_the_task_list(self, monkeypatch):
        # The pool was sized by jobs alone, and a fork pool starts all its
        # workers on the first submit: jobs=10**6 asked for 10**6 processes.
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = PipelineConfig(case="netflow", seed=3, jobs=10**6, flows_per_shadow=20)
        models = pipeline._map_jobs(cfg, shadow_tasks(3, RandomSource(3)))
        assert workers == [3]
        assert len(models) == 3 and all(isinstance(m, SvmModel) for m in models)

    @pytest.mark.parametrize("case,small", [("speech", SPEECH_SMALL),
                                            ("netflow", NETFLOW_SMALL)])
    def test_run_uses_the_objects_the_config_built(self, tmp_path, monkeypatch, case, small):
        cfg = PipelineConfig(case=case, seed=3, out_dir=str(tmp_path), **small)

        def built_again(*args, **kwargs):
            raise AssertionError("built again")

        for module, name in ((pipeline, "RandomSource"), (pipeline, "KernelSpec"),
                             (pipeline, "TreeParams"), (datagen, "default_speech_spec"),
                             (datagen, "default_flow_spec")):
            monkeypatch.setattr(module, name, built_again)
        kernels, smo_train = [], svm.smo_train

        def spy(data, kernel, **kwargs):
            kernels.append(kernel)
            return smo_train(data, kernel, **kwargs)

        monkeypatch.setattr(svm, "smo_train", spy)
        run_pipeline(cfg)
        assert len(kernels) == (cfg.shadows + cfg.n_targets if case == "netflow" else 0)
        assert all(k is cfg.kernel for k in kernels)

    @pytest.mark.parametrize("case,small,generator", [
        ("speech", SPEECH_SMALL, "gen_speech_corpus"),
        ("netflow", NETFLOW_SMALL, "gen_flow_dataset"),
    ])
    def test_one_training_set_alive_at_a_time(self, tmp_path, monkeypatch, case, small,
                                              generator):
        # Training sets generated but not yet trained on, at most one at once.
        live, peak, generated = [0], [0], [0]
        gen, train = getattr(datagen, generator), PipelineConfig.train_model

        def counting_gen(*args, **kwargs):
            data = gen(*args, **kwargs)
            live[0] += 1
            generated[0] += 1
            peak[0] = max(peak[0], live[0])
            return data

        def counting_train(self, data):
            live[0] -= 1
            return train(self, data)

        monkeypatch.setattr(datagen, generator, counting_gen)
        monkeypatch.setattr(PipelineConfig, "train_model", counting_train)
        cfg = PipelineConfig(case=case, seed=3, out_dir=str(tmp_path), **small)
        run_pipeline(cfg)
        trained = cfg.shadows + (1 + cfg.baseline_models if case == "speech" else cfg.n_targets)
        assert generated[0] == trained and live[0] == 0
        assert peak[0] == 1


class TestCli:
    def test_generate_train_attack_chain(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "--case", "netflow", "--seed", "3", "--out", out]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "netflow"}))
        assert main(["train", "--config", str(cfg), "--out", out,
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
        assert "SvmModel sv_x row 0 must be finite, got [nan, " in capsys.readouterr().err

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
        # The first exited 1 from backprop_train; the inverted pair ran and exited 0.
        {"case": "mlp_demo", "mlp_seeds": 1, "epochs": 10, "target_low": 0.0},
        {"case": "mlp_demo", "mlp_seeds": 1, "epochs": 10, "target_low": 0.9,
         "target_high": 0.1},
        # Ran and exited 0, echoing sample_size 2000 while each run drew 50 points.
        {"case": "dp_bypass", "pool_size": 100, "sample_size": 2000, "k": 3, "n_runs": 4},
        # Both generated the shadows, then KernelSpec rejected them (exit 1).
        {"case": "netflow", "kernel_kind": "foo"},
        {"case": "netflow", "kernel_kind": "rbf", "gamma": -1},
        # Passed validation, trained every shadow, then TreeParams rejected it (exit 1).
        {"case": "netflow", "max_depth": 0},
        # Each passed validation, then RandomSource or FlowSpec rejected it (exit 1).
        {"case": "mlp_demo", "seed": 2**64},
        {"case": "netflow", "signature_fraction": 1.5},
        {"case": "dp_bypass", "signature_fraction": -0.1},
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_huge_frames_error_without_warning(self, tmp_path, capsys):
        # The flat start's variance of +-1e200 frames overflows; numpy's
        # overflow warning used to print before the error line.
        frames = [[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200], [-1e200, -1e200]]
        data = tmp_path / "corpus.json"
        data.write_text(json.dumps({"aa": [frames]}))
        assert main(["train", "--case", "speech", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: phoneme 'aa': variances must be finite\n", err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_tiny_features_without_warning(self, tmp_path, capsys):
        # Features scaled by 1e-160 make some a_ij = K_ii + K_jj - 2 K_ij
        # subnormal, and SMO's second-order gain (m - F_j)^2 / a_ij used to
        # print numpy's overflow warning.
        assert main(["generate", "--case", "netflow", "--seed", "3", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "flows_with_property.csv").read_text().splitlines()
        rows = [line.rsplit(",", 1) for line in lines[1:60]]
        data = tmp_path / "tiny.csv"
        data.write_text("\n".join([lines[0]] + [
            ",".join([repr(float(v) * 1e-160) for v in x.split(",")] + [label])
            for x, label in rows]) + "\n")
        cfg = tmp_path / "linear.json"
        cfg.write_text(json.dumps({"case": "netflow", "kernel_kind": "linear"}))
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "svm_model.json").is_file()
        assert "Warning" not in capsys.readouterr().err

    def test_config_not_json_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"case": "speech",')
        assert main(["run", "--config", str(cfg)]) == 2

    @staticmethod
    def unreadable(tmp_path, how):
        """A path that is missing, a directory, or a file that is not UTF-8."""
        if how == "missing":
            return tmp_path / "missing.json"
        if how == "directory":
            (tmp_path / "somedir").mkdir()
            return tmp_path / "somedir"
        path = tmp_path / "latin1.json"
        path.write_bytes('{"case": "speech", "out_dir": "caf\xe9"}'.encode("latin-1"))
        return path

    @pytest.mark.parametrize("how", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, how):
        # Each used to end in a FileNotFoundError, IsADirectoryError or
        # UnicodeDecodeError traceback with exit 1.
        path = self.unreadable(tmp_path, how)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["missing", "directory", "not_utf8"])
    @pytest.mark.parametrize("command", ["attack", "evaluate", "train"])
    def test_unreadable_input_file_exit_1(self, tmp_path, capsys, how, command):
        path = str(self.unreadable(tmp_path, how))
        argv = {
            "attack": ["attack", "--meta", path, "--target", path],
            "evaluate": ["evaluate", "--data", path, "--label-column", "1"],
            "train": ["train", "--case", "speech", "--data", path,
                      "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert path in err
        # train used to create --out before it read --data.
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,field", [
        (["generate", "--seed", str(2**64), "--out", "{out}"], "seed"),
        (["generate", "--config", "{cfg}", "--out", "{out}"], "signature_fraction"),
        (["evaluate", "--seed", str(2**64), "--data", "{out}/flows.csv",
          "--label-column", "7"], "seed"),
    ])
    def test_out_of_range_seed_or_fraction_exit_2(self, tmp_path, capsys, argv, field):
        # Each printed "error: ..." and exited 1 (generate after creating --out).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "netflow", "signature_fraction": 1.5}))
        out = tmp_path / "out"
        assert main([a.format(cfg=cfg, out=out) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: must be in [")
        assert not out.exists()

    def test_run_failure_writes_partial_report(self, tmp_path, monkeypatch, capsys):
        # An error outside ShadowprobeError (internal checks raise
        # ArithmeticError) exits 1 with a report naming only the failure.
        def fail(cfg, rng):
            raise ArithmeticError("internal check failed")
        monkeypatch.setattr(pipeline, "run_mlp_demo_case", fail)
        out = tmp_path / "out"
        assert main(["run", "--case", "mlp_demo", "--seed", "11", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report == {"case": "mlp_demo", "seed": 11,
                          "error": "ArithmeticError('internal check failed')"}
        assert capsys.readouterr().out == ""

    def test_generate_rejects_case_before_creating_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        for case in ("mlp_demo", "dp_bypass"):
            # dp_bypass used to write netflow's two flow files (exit 0).
            assert main(["generate", "--case", case, "--out", str(out)]) == 2
            assert f"generate does not apply to case '{case}'" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("flag,field", [
        ("--sigma", "sigma"), ("--shadows", "shadows"), ("--top-k", "top_k"),
    ])
    def test_run_flag_the_case_does_not_read_exits_2(self, tmp_path, capsys, flag, field):
        # Each was accepted, ignored and left out of the report (exit 0).
        out = tmp_path / "out"
        assert main(["run", "--case", "mlp_demo", flag, "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {field}: case 'mlp_demo' does not read it\n"
        assert not out.exists()

    def test_attack_rejects_meta_of_another_kind(self, tmp_path, capsys):
        model = tmp_path / "svm_model.json"
        save_model(svm_model(9), model)
        # Used to end in an AttributeError traceback.
        assert main(["attack", "--meta", str(model), "--target", str(model)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model}: holds SvmModel, not MetaClassifier\n"

    def test_filter_rejects_models_of_another_kind(self, tmp_path, capsys):
        model = tmp_path / "svm_model.json"
        save_model(svm_model(9), model)
        # Used to end in an AttributeError traceback.
        assert main(["filter", "--reference", str(model), "--baselines", str(model)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model}: holds SvmModel, not AcousticModel\n"

    @pytest.mark.parametrize("key,value", [("attribute", 99), ("threshold", "0.5")])
    def test_attack_rejects_tree_outside_schema(self, tmp_path, capsys, key, value):
        meta, target = tmp_path / "meta.json", tmp_path / "target.json"
        payload = to_payload(svm_meta_classifier())
        root = payload["tree"]["root"]
        assert root["test"]["kind"] == "numeric"
        root["test"][key] = value
        meta.write_text(json.dumps(payload))
        save_model(svm_model(9), target)
        # Used to crash inside classify with IndexError / UFuncNoLoopError.
        assert main(["attack", "--meta", str(meta), "--target", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("field,value", [
        ("leaf_label", "maybe"), ("train_accuracy", 1.5), ("train_accuracy", "x"),
    ])
    def test_attack_rejects_meta_outside_its_invariants(self, tmp_path, capsys, field, value):
        meta, target = tmp_path / "meta.json", tmp_path / "target.json"
        payload = to_payload(svm_meta_classifier())
        if field == "leaf_label":
            node = payload["tree"]["root"]
            while "leaf_label" not in node:
                node = node["children"][-1]
            node["leaf_label"] = value
        else:
            payload["train_accuracy"] = value
        meta.write_text(json.dumps(payload))
        save_model(svm_model(9), target)
        # A "maybe" leaf used to load, and its rows counted as NotP votes.
        assert main(["attack", "--meta", str(meta), "--target", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("file,path,value,field", [
        pytest.param("target", ("support_vectors", 0, "y"), 5.0, "sv_y", id="y-5"),
        pytest.param("target", ("support_vectors", 0, "y"), True, "support_vectors", id="y-true"),
        pytest.param("target", ("support_vectors", 0, "alpha"), float("nan"), "sv_alpha",
                     id="alpha-nan"),
        pytest.param("target", ("support_vectors", 0, "alpha"), 1.5, "sv_alpha",
                     id="alpha-above-C"),
        pytest.param("target", ("support_vectors", 0, "index"), -3, "sv_indices",
                     id="index-negative"),
        pytest.param("target", ("support_vectors", 1, "index"), 0, "sv_indices",
                     id="index-repeated"),
        pytest.param("target", ("bias",), "zero", "bias", id="bias-str"),
        pytest.param("target", ("C",), -1, "SvmModel C", id="C-negative"),
        pytest.param("target", ("converged",), "yes", "converged", id="converged-str"),
        pytest.param("target", ("label_map",), {"0": "DNS", "7": "WEB"}, "label_map",
                     id="label-map-keys"),
        pytest.param("target", ("kernel", "degree"), True, "degree", id="degree-bool"),
        pytest.param("meta", ("tree", "root", "children", -1, "count"), -4, "count",
                     id="leaf-count-negative"),
        pytest.param("meta", ("tree", "root", "children", -1, "tie_broken"), "yes",
                     "tie_broken", id="tie-broken-str"),
        pytest.param("meta", ("tree", "params", "min_leaf_size"), 2.5, "min_leaf_size",
                     id="min-leaf-size-fraction"),
    ])
    def test_attack_rejects_values_no_trainer_writes(self, tmp_path, capsys, file, path,
                                                     value, field):
        files = {"meta": tmp_path / "meta.json", "target": tmp_path / "target.json"}
        save_model(svm_meta_classifier(), files["meta"])
        save_model(svm_model(9), files["target"])
        payload = json.loads(files[file].read_text())
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        files[file].write_text(json.dumps(payload))
        # Each of these loaded, and attack printed a verdict and exited 0.
        assert main(["attack", "--meta", str(files["meta"]),
                     "--target", str(files["target"])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
        assert "Traceback" not in err

    def test_filter_command(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({
            "case": "speech", "n_phonemes": 6, "dim": 4, "n_states": 3,
            "n_sequences": 4, "n_boosted": 2, "train_iters": 2}))
        out = str(tmp_path)
        assert main(["generate", "--config", str(gen_cfg), "--seed", "2", "--out", out]) == 0
        for tag in ("with_property", "without_property"):
            assert main(["train", "--config", str(gen_cfg), "--out",
                         os.path.join(out, tag),
                         "--data", os.path.join(out, f"corpus_{tag}.json")]) == 0
        models = ["--reference", os.path.join(out, "with_property", "acoustic_model.json"),
                  "--baselines", os.path.join(out, "without_property", "acoustic_model.json")]
        assert main(["filter", *models, "--top-k", "2"]) == 0
        # --top-k 0 used to be replaced by the default 5 before the range check.
        capsys.readouterr()
        assert main(["filter", *models, "--top-k", "0"]) == 1
        assert "got 0" in capsys.readouterr().err

    def test_evaluate_command(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "--case", "netflow", "--seed", "3", "--out", out]) == 0
        assert main(["evaluate", "--data", os.path.join(out, "flows_with_property.csv"),
                     "--label-column", "7", "--folds", "3", "--seed", "1"]) == 0

    def test_evaluate_reads_folds_from_config(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["generate", "--case", "netflow", "--seed", "3", "--out", out]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": 3}))
        capsys.readouterr()
        # The config's folds used to be ignored for the flag's own default, 10.
        assert main(["evaluate", "--config", str(cfg), "--label-column", "7",
                     "--data", os.path.join(out, "flows_with_property.csv")]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["folds"] == 3 and len(result["fold_accuracies"]) == 3

    def test_evaluate_prints_the_run_cv_block(self, tmp_path, capsys):
        # evaluate and netflow's report share one cross-validation block.
        out = str(tmp_path)
        assert main(["generate", "--case", "netflow", "--seed", "3", "--out", out]) == 0
        data = os.path.join(out, "flows_with_property.csv")
        capsys.readouterr()
        assert main(["evaluate", "--data", data, "--label-column", "7", "--folds", "3",
                     "--seed", "1"]) == 0
        result = json.loads(capsys.readouterr().out)
        cfg = PipelineConfig(case="netflow", folds=3, seed=1)
        cv = metrics.k_fold_cross_validate(load_dataset(data, label_column=7), 3,
                                           cfg.tree_params, RandomSource(1))
        assert result == json.loads(json.dumps({"folds": 3, **cv}))
        assert 0 <= result["accuracy"] <= 1

    @pytest.mark.parametrize("settings,lines", [
        pytest.param(dict(case="speech", seed=5, **SPEECH_SMALL),
                     ["unfiltered row accuracy: 0.875", "filtered row accuracy:   1.000"],
                     id="speech"),
        pytest.param(dict(case="netflow", seed=5, **NETFLOW_SMALL),
                     ["cross-validated accuracy: 0.866", "target verdict accuracy:  1.000"],
                     id="netflow"),
        pytest.param(dict(case="dp_bypass", seed=5, n_runs=8, pool_size=2000, sample_size=400,
                          k=2, sigma=80.0),
                     ["verdict accuracy without noise: 1.000",
                      "verdict accuracy with SuLQ:     0.500"],
                     id="dp_bypass"),
        pytest.param(dict(case="mlp_demo", seed=3, mlp_seeds=3, epochs=2000),
                     ["successful seeds: 1/3"], id="mlp_demo"),
    ])
    def test_run_prints_its_headline(self, tmp_path, capsys, settings, lines):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        report = os.path.join(out, "report.json")
        assert capsys.readouterr().out.splitlines() == [f"report written to {report}", *lines]

    def test_attack_filter_and_evaluate_print_pinned_blocks(self, tmp_path, monkeypatch,
                                                            capsys):
        # Each printed block is the library's report block itself, so this
        # pins what each command prints, byte for byte. attack prints vote
        # counts, the filter's models share their variances (the log term
        # is 0) and the CSV holds dyadic values, so no printed number
        # depends on the platform's math library.
        monkeypatch.chdir(tmp_path)
        save_model(svm_meta_classifier(), "meta.json")
        save_model(svm_model(9), "target.json")
        for name, shift in (("reference", 1.0), ("base0", 0.0), ("base1", -1.0)):
            save_model(AcousticModel({
                ph: GaussianHmm([[0.5, 0.5], [0.0, 1.0]], np.full((2, 2), s * shift),
                                np.full((2, 2), 0.5))
                for ph, s in (("aa", 1.0), ("ae", 2.0), ("ah", 0.5))}), f"{name}.json")
        (tmp_path / "data.csv").write_text("x,y,label\n" + "".join(
            f"{i / 16},{7 * i % 18 / 16},{'p' if (i + (i % 5 == 0)) % 2 else 'q'}\n"
            for i in range(18)))
        (tmp_path / "cfg.json").write_text(json.dumps({"folds": 3, "min_leaf_size": 2}))
        runs = [
            (["attack", "--meta", "meta.json", "--target", "target.json"],
             {"tie": False, "verdict": "NotP", "votes_notp": 3, "votes_p": 2}),
            (["filter", "--reference", "reference.json", "--baselines", "base0.json",
              "base1.json", "--top-k", "2"],
             {"scores": {"aa": 2.5, "ae": 10.0, "ah": 0.625}, "selected": ["ae", "aa"]}),
            (["evaluate", "--config", "cfg.json", "--seed", "4", "--data", "data.csv",
              "--label-column", "2"],
             {"accuracy": 0.2777777777777778, "confusion_matrix": [[1, 8], [5, 4]],
              "fold_accuracies": [0.16666666666666666, 0.0, 0.6666666666666666], "folds": 3,
              "labels": ["p", "q"], "mean_accuracy": 0.27777777777777773,
              "per_class": {
                  "p": {"empty_column": False, "empty_row": False,
                        "precision": 0.16666666666666666, "recall": 0.1111111111111111},
                  "q": {"empty_column": False, "empty_row": False,
                        "precision": 0.3333333333333333, "recall": 0.4444444444444444}}}),
        ]
        for argv, block in runs:
            assert main(argv) == 0
            assert capsys.readouterr().out == json.dumps(block, indent=2, sort_keys=True) + "\n"

    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(datagen, "gen_flow_dataset", exhausted)
        assert main(["generate", "--case", "netflow", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_filter_top_k_defaults_to_the_config_default(self):
        args = build_parser().parse_args(["filter", "--reference", "r", "--baselines", "b"])
        assert args.top_k == PipelineConfig.top_k

    @pytest.mark.parametrize("settings", [
        {"case": "netflow", "flows_per_shadow": 200},
        {"case": "speech", "n_phonemes": 4, "n_states": 3, "dim": 3, "n_sequences": 3,
         "n_boosted": 2, "top_k": 2, "train_iters": 2},
    ], ids=lambda settings: settings["case"])
    def test_train_matches_pipeline_trainer(self, tmp_path, settings):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        out = str(tmp_path)
        assert main(["generate", "--config", str(cfg_path), "--seed", "4", "--out", out]) == 0
        if settings["case"] == "netflow":
            data, model = os.path.join(out, "flows_with_property.csv"), "svm_model.json"
            training_set = load_dataset(data, label_column=7)
        else:
            data, model = os.path.join(out, "corpus_with_property.json"), "acoustic_model.json"
            with open(data, encoding="utf-8") as fh:
                training_set = {ph: [np.array(s) for s in seqs]
                                for ph, seqs in json.load(fh).items()}
        assert main(["train", "--config", str(cfg_path), "--out", out, "--data", data]) == 0
        cfg = PipelineConfig.from_dict(settings)
        save_model(cfg.train_model(training_set), tmp_path / "expected.json")
        assert filecmp.cmp(tmp_path / model, tmp_path / "expected.json", shallow=False)

    @pytest.mark.parametrize("command,flag", [
        (command, flag)
        for command, flags in (
            ("generate", ["--shadows", "--top-k", "--sigma", "--jobs"]),
            ("train", ["--seed", "--shadows", "--top-k", "--sigma", "--jobs"]),
            ("evaluate", ["--out", "--case", "--shadows", "--top-k", "--sigma", "--jobs"]),
        )
        for flag in flags
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        # These flags were accepted and ignored, or failed validation of a
        # field the command never uses (train --sigma -5, generate --top-k 0).
        value = "mlp_demo" if flag == "--case" else "3"
        argv = {
            "generate": ["generate", "--out", str(tmp_path / "out")],
            "train": ["train", "--data", str(tmp_path / "flows.csv")],
            "evaluate": ["evaluate", "--data", str(tmp_path / "flows.csv"),
                         "--label-column", "7"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_evaluate_rejects_non_finite_cells(self, tmp_path, capsys):
        data = tmp_path / "flows.csv"
        rows = [f"{i}.0,{i % 3}.5,{'a' if i % 2 else 'b'}" for i in range(12)]
        rows[7] = "7.0,nan,a"
        data.write_text("x,y,label\n" + "\n".join(rows) + "\n")
        assert main(["evaluate", "--data", str(data), "--label-column", "2",
                     "--folds", "3", "--seed", "1"]) == 1
        assert "row 8, column 1" in capsys.readouterr().err


# Hostile values for every config field and model payload cell: each must
# be rejected with one error or accepted, never end in a traceback.
HOSTILE = [None, True, 0, -1, 0.5, float("nan"), float("inf"), float("-inf"), 1e308, 1e-320,
           10**9, 2**70, "x", [], {}]


def acoustic_model(shift):
    trans = np.array([[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [0.0, 0.0, 1.0]])
    return AcousticModel({ph: GaussianHmm(trans, np.full((3, 3), shift + i), np.ones((3, 3)))
                          for i, ph in enumerate(("aa", "bb"))})


def field_paths(node, path=()):
    """The path of every dict value and list element in a JSON value, each
    list cut to its first three elements, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:3])
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def hostile_payloads(payload, paths):
    """(path, value, payload copy) for each path set to each HOSTILE value."""
    for path in paths:
        for value in HOSTILE:
            edited = copy.deepcopy(payload)
            node = edited
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield path, value, edited


def unclean_exit(capsys, argv):
    """None when ``main(argv)`` exits 0 with finite JSON numbers (if any)
    and nothing on stderr, or exits 1 with one ``error:`` line and no
    warning; otherwise what went wrong."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            status = main(argv)
        except Exception as e:
            status = repr(e)
    out, err = capsys.readouterr()
    if ((status == 0 and not err and "NaN" not in out and "Infinity" not in out)
            or (status == 1 and err.startswith("error: ") and err.count("\n") == 1)):
        return None
    return status, err


class TestBoundaryValues:
    @pytest.mark.parametrize("case", pipeline.CASES)
    def test_config_field_is_rejected_or_accepted(self, case):
        PipelineConfig(case=case)  # the first config of a case imports modules
        escapes = []
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for field in (*pipeline.CASE_FIELDS[case].split(), "seed", "jobs"):
                    for value in HOSTILE:
                        try:
                            PipelineConfig.from_dict({"case": case, field: value})
                        except ConfigError:
                            pass
                        except Exception as e:
                            escapes.append((field, value, repr(e)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not escapes, escapes
        assert peak < 2**20

    @pytest.mark.parametrize("part", ["header", "trans", "means", "vars"])
    def test_acoustic_payload_cell_exits_0_or_1(self, tmp_path, capsys, part):
        # A mean or variance of 1e308 passed the model checks, then filter
        # printed numpy overflow warnings, and for a mean Infinity, which
        # is not JSON.
        reference, baseline = tmp_path / "reference.json", tmp_path / "baseline.json"
        save_model(acoustic_model(0.0), reference)
        save_model(acoustic_model(1.0), baseline)
        payload = json.loads(reference.read_text())
        if part == "header":
            paths = [("format_version",), ("kind",)]
        else:
            paths = [("phonemes", "aa", part, i, j) for i in range(3) for j in range(3)]
        failures = []
        for path, value, edited in hostile_payloads(payload, paths):
            reference.write_text(json.dumps(edited))
            failure = unclean_exit(capsys, ["filter", "--reference", str(reference),
                                            "--baselines", str(baseline), "--top-k", "1"])
            if failure:
                failures.append((path, value, failure))
        assert not failures, failures

    @pytest.mark.parametrize("edit", ["meta", "target"])
    def test_svm_attack_payload_field_exits_0_or_1(self, tmp_path, capsys, edit):
        cfg = PipelineConfig(case="netflow", flows_per_shadow=40)
        labels = [P, NOT_P, P, NOT_P, P]
        models = [cfg.train_new_model(label == P, RandomSource(s))
                  for s, label in enumerate(labels)]
        shadows = list(zip(models[:4], labels[:4]))
        meta, target = tmp_path / "meta.json", tmp_path / "target.json"
        # A depth bound keeps the tree, and so the number of paths, small.
        save_model(train_meta(build_meta_training_set(shadows),
                              TreeParams(cfg.min_leaf_size, max_depth=2), RandomSource(0)), meta)
        save_model(models[4], target)
        argv = ["attack", "--meta", str(meta), "--target", str(target)]
        assert unclean_exit(capsys, argv) is None
        edited_file = meta if edit == "meta" else target
        payload = json.loads(edited_file.read_text())
        failures = []
        for path, value, edited in hostile_payloads(payload, list(field_paths(payload))):
            edited_file.write_text(json.dumps(edited))
            failure = unclean_exit(capsys, argv)
            if failure:
                failures.append((path, value, failure))
        assert not failures, failures

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_csv_cell_exits_0_or_1(self, tmp_path, capsys, monkeypatch, command):
        # A src_port_frac of 1e9 leaves SMO unconverged until its 10^7
        # iteration cap, about two minutes; a lower cap reaches the same
        # exit paths in a fraction of a second.
        monkeypatch.setattr(svm, "_MIN_ITERS", 10_000)
        data, folds = tmp_path / "flows.csv", tmp_path / "folds.json"
        save_dataset(datagen.gen_flow_dataset(datagen.default_flow_spec(), True, 30,
                                              RandomSource(1)), data)
        folds.write_text('{"folds": 3}')
        argv = {"train": ["train", "--out", str(tmp_path / "out"), "--data", str(data)],
                "evaluate": ["evaluate", "--config", str(folds), "--seed", "1",
                             "--label-column", "7", "--data", str(data)]}[command]
        lines = data.read_text().splitlines()
        failures = []
        for row in (0, 1):
            for col in range(len(datagen.FLOW_COLUMNS) + 1):
                for value in [*map(str, HOSTILE), ""]:
                    cells = [line.split(",") for line in lines]
                    cells[row][col] = value
                    data.write_text("\n".join(",".join(c) for c in cells) + "\n")
                    failure = unclean_exit(capsys, argv)
                    if failure:
                        failures.append((row, col, value, failure))
        assert not failures, failures
