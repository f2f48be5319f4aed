"""The benchmark's cases and workloads.

A case is one pipeline of ``shadowprobe.pipeline.run_pipeline``, run with
``jobs=1``: ``bench`` is the configuration the timed runs use,
``acceptance`` the configuration of ``tests/test_acceptance.py``, which
``perfbench/acceptance.py`` runs at the pinned seed. The timed runs are
scaled down from acceptance scale so that one pipeline takes a few
seconds (see README.md).

A workload runs two cases one after the other in every timed run. Each
model layer is busy in one workload and bypassed by the other. ``busy``
names the traced modules that must record calls on the workload and
``idle`` the ones that must record none; a traced run fails when either
does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass

ACCEPTANCE_SEED = 20260809


@dataclass(frozen=True)
class Case:
    name: str  # the pipeline case it runs
    pinned_seed: int
    bench: dict
    acceptance: dict
    bench_gate: dict
    acceptance_gate: dict

    def config(self, scale: str) -> dict:
        return dict(self.bench if scale == "bench" else self.acceptance, case=self.name)

    def gate(self, scale: str) -> dict:
        return self.bench_gate if scale == "bench" else self.acceptance_gate


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple
    busy: tuple
    idle: tuple


def _failures(checks):
    return [msg for ok, msg in checks if not ok]


def check_netflow(rep: dict, gate: dict) -> list:
    pc = rep["cross_validation"]["per_class"]
    worst = min(pc[l][m] for l in ("P", "NotP") for m in ("precision", "recall"))
    verdicts = rep["targets"]["verdict_accuracy"]
    unconverged = sum(not s["converged"] for s in rep["shadow_summary"])
    return _failures([
        (worst >= gate["min_cv"], f"CV per-class precision/recall {worst:.3f} < {gate['min_cv']}"),
        (verdicts >= gate["min_verdicts"],
         f"verdict accuracy {verdicts:.3f} < {gate['min_verdicts']:.3f}"),
        (unconverged == 0, f"{unconverged} shadow SVMs did not converge"),
    ])


def check_speech(rep: dict, gate: dict) -> list:
    from shadowprobe.datagen import PHONEME_INVENTORY

    unfiltered = rep["unfiltered"]["accuracy"]
    filtered = rep["filtered"]["accuracy"]
    recovered = len(set(rep["filter"]["selected"]) & set(PHONEME_INVENTORY[:5]))
    return _failures([
        (unfiltered >= gate["min_unfiltered"],
         f"unfiltered accuracy {unfiltered:.3f} < {gate['min_unfiltered']}"),
        (filtered >= gate["min_filtered"],
         f"filtered accuracy {filtered:.3f} < {gate['min_filtered']}"),
        (filtered - unfiltered >= gate["min_filtered_gain"],
         f"filtered minus unfiltered accuracy {filtered - unfiltered:.3f} "
         f"< {gate['min_filtered_gain']}"),
        (recovered >= gate["min_recovered"],
         f"filter recovered {recovered}/5 boosted phonemes < {gate['min_recovered']}"),
    ])


def check_mlp_demo(rep: dict, gate: dict) -> list:
    worse = [r["seed_index"] for r in rep["runs"] if not r["end_error"] < r["start_error"]]
    return _failures([
        (rep["successful_seeds"] >= gate["min_successful"],
         f"{rep['successful_seeds']} seeds crystallized < {gate['min_successful']}"),
        (not worse, f"training did not lower the error for seed indices {worse}"),
    ])


def check_dp_bypass(rep: dict, gate: dict) -> list:
    ratio = rep["centroid_displacement_mean"] / rep["property_separation"]
    plain = rep["noiseless"]["verdict_accuracy"]
    noisy = rep["sulq"]["verdict_accuracy"]
    return _failures([
        (ratio <= gate["max_ratio"], f"displacement/separation {ratio:.3f} > {gate['max_ratio']}"),
        (plain >= gate["min_accuracy"], f"noiseless accuracy {plain:.3f} < {gate['min_accuracy']}"),
        (noisy >= gate["min_accuracy"], f"SuLQ accuracy {noisy:.3f} < {gate['min_accuracy']}"),
        (plain - noisy <= gate["max_arm_gap"],
         f"noiseless minus SuLQ accuracy {plain - noisy:.3f} > {gate['max_arm_gap']}"),
    ])


CHECKS = {
    "netflow": check_netflow,
    "speech": check_speech,
    "mlp_demo": check_mlp_demo,
    "dp_bypass": check_dp_bypass,
}

CASES = {c.name: c for c in (
    Case(
        name="netflow",
        pinned_seed=ACCEPTANCE_SEED,
        bench=dict(jobs=1, shadows=10, flows_per_shadow=1000, n_targets=4, folds=5),
        acceptance=dict(jobs=1, shadows=70),
        bench_gate=dict(min_cv=0.80, min_verdicts=0.75),
        acceptance_gate=dict(min_cv=0.85, min_verdicts=18 / 20),
    ),
    Case(
        name="speech",
        pinned_seed=ACCEPTANCE_SEED,
        bench=dict(jobs=1, shadows=8, n_sequences=4, baseline_models=4),
        acceptance=dict(jobs=1),
        bench_gate=dict(min_unfiltered=0.65, min_filtered=0.75, min_filtered_gain=-0.05,
                        min_recovered=2),
        acceptance_gate=dict(min_unfiltered=0.80, min_filtered=0.90, min_filtered_gain=-0.02,
                             min_recovered=4),
    ),
    Case(
        name="mlp_demo",
        pinned_seed=42,
        # epochs <= 1000 fits in one training chunk, so every seed trains
        # exactly `epochs` epochs whether or not it crystallizes, and the
        # work per run does not depend on the seed.
        bench=dict(jobs=1, mlp_seeds=5, epochs=1000),
        acceptance=dict(jobs=1),
        bench_gate=dict(min_successful=0),
        acceptance_gate=dict(min_successful=8),
    ),
    Case(
        name="dp_bypass",
        pinned_seed=ACCEPTANCE_SEED,
        bench=dict(jobs=1, n_runs=20),
        acceptance=dict(jobs=1),
        bench_gate=dict(max_ratio=0.5, min_accuracy=0.75, max_arm_gap=0.25),
        acceptance_gate=dict(max_ratio=0.25, min_accuracy=0.85, max_arm_gap=0.10),
    ),
)}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="flows",
        why="netflow then dp_bypass: SMO shadow SVMs, all-numeric meta-tree with k-fold CV, "
            "k-means with and without SuLQ noise; bypasses hmm and mlp",
        cases=(CASES["netflow"], CASES["dp_bypass"]),
        busy=("svm", "core", "kmeans", "dtree", "datagen", "attack", "metrics", "serialize",
              "pipeline"),
        idle=("hmm", "mlp"),
    ),
    Workload(
        name="speech_mlp",
        why="speech then mlp_demo: Viterbi-trained phoneme HMMs, categorical meta-tree, "
            "tiny-vector backprop; bypasses svm, kmeans and k-fold CV",
        cases=(CASES["speech"], CASES["mlp_demo"]),
        busy=("hmm", "mlp", "core", "dtree", "datagen", "attack", "serialize", "pipeline"),
        idle=("svm", "kmeans", "metrics"),
    ),
)}
