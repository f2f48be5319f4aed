"""Acceptance suite: one test per criterion, every threshold pinned.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``-s`` to see
them live). All experiments run at fixed seeds, so the whole suite is
deterministic on a given build.
"""

import filecmp
import os
import time

import numpy as np

from shadowprobe.attack import (
    build_meta_training_set,
    infer_property,
    kl_gaussian,
    split_by_property,
    train_meta,
)
from shadowprobe.core import NUMERIC, RandomSource, make_dataset
from shadowprobe.datagen import (
    PHONEME_INVENTORY,
    default_flow_spec,
    default_speech_spec,
    gen_shadow_array,
)
from shadowprobe.dtree import TreeParams, entropy, info_gain, NumericSplit
from shadowprobe.hmm import GaussianHmm, forward_loglik, train_acoustic_model, viterbi
from shadowprobe.mlp import forward, gradients, init_mlp
from shadowprobe.pipeline import PipelineConfig, run_pipeline
from shadowprobe.svm import KernelSpec, kernel_matrix, kkt_audit, smo_train

from oracles import (
    entropy_bits_exact,
    hmm_enumerate,
    info_gain_exact,
    kl_gaussian_numeric,
    mlp_numeric_gradients,
    svm_dual_objective,
    svm_dual_pga,
)

SEED = 20260809


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def lr_trans(n, advance=0.4):
    t = np.zeros((n, n))
    for s in range(n - 1):
        t[s, s] = 1.0 - advance
        t[s, s + 1] = advance
    t[n - 1, n - 1] = 1.0
    return t


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    failures = []

    # Viterbi path / forward likelihood vs exhaustive enumeration.
    for seed in range(4):
        rng = RandomSource(500 + seed)
        n = 2 if seed % 2 == 0 else 3
        model = GaussianHmm(lr_trans(n), rng.normal(0, 2, size=(n, 2)),
                            rng.uniform(0.5, 1.5, size=(n, 2)))
        T = 4 if n == 2 else 5
        seq = rng.normal(0, 2, size=(T, 2))
        path, lp = viterbi(model, seq)
        fwd = forward_loglik(model, seq)
        bp, blp, total, _, _ = hmm_enumerate(model.trans, model.means, model.vars, seq)
        if path != bp or abs(lp - blp) > 1e-9:
            failures.append(f"viterbi mismatch at seed {seed}")
        if abs(fwd - total) > 1e-9:
            failures.append(f"forward mismatch at seed {seed}")

    # SMO dual objective vs projected-gradient oracle; KKT audit at 1e-3.
    for seed, kernel in ((1, KernelSpec("linear")), (2, KernelSpec("rbf", gamma=0.5))):
        rng = RandomSource(600 + seed)
        X = np.vstack([rng.normal(0, 1, size=(10, 2)), rng.normal(3.5, 1, size=(10, 2))])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        ds = make_dataset([("a", NUMERIC), ("b", NUMERIC)], X.tolist(), y.tolist())
        model = smo_train(ds, kernel, C=1.0, tol=1e-5)
        K = kernel_matrix(kernel, X, X)
        alpha = np.zeros(20)
        alpha[model.sv_indices] = model.sv_alpha
        got = svm_dual_objective(alpha, y, K)
        want = svm_dual_objective(svm_dual_pga(y, K, C=1.0), y, K)
        if abs(got - want) > 1e-4:
            failures.append(f"dual gap {abs(got - want):.2e} for {kernel.kind}")
        if not kkt_audit(model, ds, 1e-3)["passed"]:
            failures.append(f"KKT audit failed for {kernel.kind}")

    # Entropy and information gain vs arbitrary-precision oracles.
    for counts in ([9, 5], [1, 1, 1], [3, 7, 2, 8], [50, 1]):
        got = entropy({i: c for i, c in enumerate(counts)})
        if abs(got - entropy_bits_exact(counts)) > 1e-12:
            failures.append(f"entropy mismatch on {counts}")
    rng = RandomSource(800)
    rows = [(float(v),) for v in rng.uniform(0, 10, size=14)]
    labels = ["a" if rng.uniform() < 0.5 else "b" for _ in range(14)]
    ds = make_dataset([("x", NUMERIC)], rows, labels)
    for t in (2.0, 5.0, 7.5):
        left = [i for i in range(14) if rows[i][0] <= t]
        right = [i for i in range(14) if rows[i][0] > t]
        want = info_gain_exact(labels, [left, right])
        if abs(info_gain(ds, 0, NumericSplit(t)) - want) > 1e-12:
            failures.append(f"info gain mismatch at threshold {t}")

    # Gaussian divergence vs numerical integration, 20 random pairs drawn
    # from the family where the implemented convention coincides with the
    # density integral (shared variance or shared mean).
    rng = RandomSource(900)
    for i in range(20):
        if i % 2 == 0:
            v = float(rng.uniform(0.2, 3.0))
            p, q = (float(rng.normal(0, 2)), v), (float(rng.normal(0, 2)), v)
        else:
            mu = float(rng.normal(0, 2))
            p = (mu, float(rng.uniform(0.2, 3.0)))
            q = (mu, float(rng.uniform(0.2, 3.0)))
        if abs(kl_gaussian(p, q) - kl_gaussian_numeric(*p, *q)) > 1e-6:
            failures.append(f"divergence mismatch on pair {i}")

    # MLP analytic gradients vs central finite differences.
    rng = RandomSource(1000)
    net = init_mlp((4, 3, 2), rng)
    x = rng.normal(size=4)
    t = np.array([0.7, 0.2])
    analytic = gradients(net, x, t)

    def err():
        out, _ = forward(net, x)
        return 0.5 * float(((t - out) ** 2).sum())

    numeric = mlp_numeric_gradients(err, net.weights, h=1e-5)
    worst = max(np.max(np.abs(a - n)) for a, n in zip(analytic, numeric))
    if worst > 1e-6:
        failures.append(f"gradient component error {worst:.2e}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    report(1, "oracle equivalence", ok,
           f"{'all oracles agree' if not failures else failures}; {elapsed:.1f}s (< 60s)")


def test_criterion_2_mlp_identity(tmp_path):
    t0 = time.time()
    cfg = PipelineConfig(case="mlp_demo", seed=42, out_dir=str(tmp_path))
    rep = run_pipeline(cfg)
    elapsed = time.time() - t0
    good = rep["successful_seeds"]
    ok = good >= 8 and elapsed < 120
    report(2, "8-3-8 identity", ok,
           f"{good}/10 seeds learned the identity with 8 distinct 3-bit codes; "
           f"{elapsed:.1f}s (< 120s)")


def test_criterion_3_speech_attack(tmp_path):
    t0 = time.time()
    cfg = PipelineConfig(case="speech", seed=SEED, out_dir=str(tmp_path))
    assert cfg.shadows == 40 and cfg.n_phonemes == 40 and cfg.boost_shift == 1.5
    rep = run_pipeline(cfg)
    elapsed = time.time() - t0
    unfiltered = rep["unfiltered"]["accuracy"]
    filtered = rep["filtered"]["accuracy"]
    recovered = len(set(rep["filter"]["selected"]) & set(PHONEME_INVENTORY[:5]))
    ok = (unfiltered >= 0.80 and filtered >= unfiltered - 0.02 and filtered >= 0.90
          and recovered >= 4 and elapsed < 300)
    report(3, "speech-analogue attack", ok,
           f"unfiltered row accuracy {unfiltered:.3f} (>= 0.80), "
           f"filtered {filtered:.3f} (>= 0.90 and >= unfiltered - 0.02), "
           f"filter recovered {recovered}/5 shifted phonemes (>= 4), "
           f"meta tree {rep['unfiltered']['tree_nodes']}/{rep['unfiltered']['tree_leaves']} -> "
           f"{rep['filtered']['tree_nodes']}/{rep['filtered']['tree_leaves']} nodes/leaves; "
           f"{elapsed:.1f}s (< 300s)")


def test_criterion_4_netflow_attack(tmp_path):
    t0 = time.time()
    cfg = PipelineConfig(case="netflow", seed=SEED, out_dir=str(tmp_path), shadows=70)
    assert cfg.shadows == 70 and cfg.flows_per_shadow == 2000
    assert cfg.kernel_kind == "polynomial" and cfg.degree == 3
    rep = run_pipeline(cfg)
    elapsed = time.time() - t0
    pc = rep["cross_validation"]["per_class"]
    worst = min(pc[l][m] for l in ("P", "NotP") for m in ("precision", "recall"))
    verdicts = rep["targets"]["verdict_accuracy"]
    ok = worst >= 0.85 and verdicts >= 18 / 20 and elapsed < 600
    report(4, "netflow-analogue attack", ok,
           f"10-fold CV per-class precision/recall all >= {worst:.3f} (>= 0.85), "
           f"held-out verdicts {verdicts * 20:.0f}/20 correct (>= 18); "
           f"{elapsed:.1f}s (< 600s)")


def test_criterion_5_dp_bypass(tmp_path):
    t0 = time.time()
    cfg = PipelineConfig(case="dp_bypass", seed=SEED, out_dir=str(tmp_path))
    assert cfg.n_runs == 70
    rep = run_pipeline(cfg)
    elapsed = time.time() - t0
    ratio = rep["centroid_displacement_mean"] / rep["property_separation"]
    plain = rep["noiseless"]["verdict_accuracy"]
    noisy = rep["sulq"]["verdict_accuracy"]
    ok = (ratio <= 0.25 and noisy >= plain - 0.10 and plain >= 0.85 and noisy >= 0.85
          and elapsed < 300)
    report(5, "differential-privacy bypass", ok,
           f"noise displacement / property separation = {ratio:.3f} (<= 0.25), "
           f"attack accuracy without noise {plain:.3f}, with SuLQ {noisy:.3f} "
           f"(both >= 0.85, gap <= 0.10), 70 runs per arm; {elapsed:.1f}s (< 300s)")


def _speech_null_accuracy(seed):
    rng = RandomSource(seed)
    spec = default_speech_spec(rng.child(0), n_phonemes=8, n_states=3, dim=4,
                               n_boosted=3, boost_shift=0.0, base_shift=0.0)
    shadows = gen_shadow_array(spec, 8, 0.5, rng.child(1), size=3)
    models = [train_acoustic_model(c, n_states=3, iters=2) for c, _ in shadows]
    labels = [pl.value for _, pl in shadows]
    return _holdout_row_accuracy(models, labels, rng)


def _netflow_null_accuracy(seed):
    rng = RandomSource(seed)
    spec = default_flow_spec(signature_fraction=0.0)  # property knob disabled
    shadows = gen_shadow_array(spec, 8, 0.5, rng.child(1), size=200)
    kernel = KernelSpec("polynomial", 1.0, 0.0, 3)
    models = [smo_train(ds, kernel, C=1.0, tol=1e-3) for ds, _ in shadows]
    labels = [pl.value for _, pl in shadows]
    return _holdout_row_accuracy(models, labels, rng)


def _holdout_row_accuracy(models, labels, rng):
    train_idx, hold_idx = split_by_property(labels, 0.25)
    from shadowprobe.attack import NOT_P, P
    md = build_meta_training_set(
        [(models[i], P if labels[i] == "P" else NOT_P) for i in train_idx])
    mc = train_meta(md, TreeParams(min_leaf_size=5), rng.child(999))
    correct = total = 0
    for i in hold_idx:
        v = infer_property(mc, models[i], include_rows=True)
        correct += sum(p == labels[i] for p in v.per_row)
        total += len(v.per_row)
    return correct / total


def test_criterion_6_null_hypothesis_guard():
    t0 = time.time()
    speech = [_speech_null_accuracy(3000 + s) for s in range(20)]
    netflow = [_netflow_null_accuracy(4000 + s) for s in range(20)]
    m_speech = float(np.mean(speech))
    m_netflow = float(np.mean(netflow))
    elapsed = time.time() - t0
    ok = 0.4 <= m_speech <= 0.6 and 0.4 <= m_netflow <= 0.6
    report(6, "null-hypothesis guard", ok,
           f"zero-signal attack accuracy over 20 seeds: speech {m_speech:.3f}, "
           f"netflow {m_netflow:.3f} (both within [0.4, 0.6]); {elapsed:.1f}s")


def test_criterion_7_determinism(tmp_path):
    t0 = time.time()
    small = {
        "speech": dict(shadows=8, n_phonemes=8, dim=6, n_states=3, n_sequences=4,
                       n_boosted=3, baseline_models=3, train_iters=3, top_k=3),
        "netflow": dict(shadows=6, flows_per_shadow=200, folds=3, n_targets=4),
        "dp_bypass": dict(n_runs=8, pool_size=2000, sample_size=400, k=2),
        "mlp_demo": dict(mlp_seeds=2, epochs=3000),
    }
    diffs = []
    for case, kw in small.items():
        outs = []
        for i in (1, 2):
            out = tmp_path / f"{case}_{i}"
            run_pipeline(PipelineConfig(case=case, seed=SEED, out_dir=str(out), **kw))
            outs.append(out)
        for f in sorted(os.listdir(outs[0])):
            if not filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False):
                diffs.append(f"{case}/{f}")
    elapsed = time.time() - t0
    report(7, "determinism", not diffs,
           f"{'all four cases byte-identical across reruns' if not diffs else diffs}; "
           f"{elapsed:.1f}s")
