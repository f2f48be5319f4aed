"""Property inference against trained classifiers.

A shadow classifier trained on data with a known property label is
reduced to a fixed-schema set of feature vectors (its internals); the
union of those rows, labeled per shadow, trains a decision-tree
meta-classifier that predicts whether an unseen classifier's training
set carried the property. Includes the Gaussian KL phoneme filter and
the differential-privacy bypass experiment on noisy k-means.

Feature encodings per model family:

* SVM: one row per support vector, ``(y, x1..xd)``, all numeric.
* Acoustic model: one row per (phoneme, state): the phoneme name
  followed by the state's mean vector then its variance vector.
* K-means: one row per centroid.
* MLP: one row per first-hidden-layer unit, its incoming weights with
  the bias first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CATEGORICAL,
    NUMERIC,
    ContractError,
    Dataset,
    DomainError,
    RandomSource,
    round_half_up,
)
from . import dtree
from .dtree import DecisionTree, TreeParams
from .hmm import AcousticModel
from .kmeans import KMeansModel, SulqParams, clamp_from_points, kmeans_train, sulq_kmeans_train
from .mlp import Mlp
from .svm import SvmModel

PROPERTY = "P"
NOT_PROPERTY = "NotP"


@dataclass(frozen=True)
class PropertyLabel:
    """Binary training-set property: held (P) or not held (NotP)."""

    value: str
    description: str = ""

    def __post_init__(self):
        if self.value not in (PROPERTY, NOT_PROPERTY):
            raise ContractError(f"property label must be {PROPERTY!r} or {NOT_PROPERTY!r}, got {self.value!r}")


P = PropertyLabel(PROPERTY)
NOT_P = PropertyLabel(NOT_PROPERTY)


@dataclass(eq=False)
class FeatureVectorSet:
    data: Dataset  # unlabeled rows
    source_kind: str


@dataclass(eq=False)
class MetaDataset:
    data: Dataset  # labels in {P, NotP}
    source_kind: str


@dataclass(eq=False)
class MetaClassifier:
    tree: DecisionTree
    source_kind: str
    schema: tuple
    train_accuracy: float


@dataclass(eq=False)
class PropertyVerdict:
    label: PropertyLabel
    votes_p: int
    votes_notp: int
    tie: bool = False
    per_row: list | None = None


def extract_features(model) -> FeatureVectorSet:
    """Encode a trained model's internals as a fixed-schema row set."""
    if isinstance(model, SvmModel):
        schema = [("y", NUMERIC)] + [(f"x{i + 1}", NUMERIC) for i in range(model.dim)]
        return FeatureVectorSet(Dataset(schema, [model.sv_y, *model.sv_x.T]), "svm")
    if isinstance(model, AcousticModel):
        dim = model.dim
        schema = [("phoneme", CATEGORICAL)]
        schema += [(f"mu{i + 1}", NUMERIC) for i in range(dim)]
        schema += [(f"var{i + 1}", NUMERIC) for i in range(dim)]
        hmms = [model.hmms[ph] for ph in model.phonemes]
        phonemes = [ph for ph, h in zip(model.phonemes, hmms) for _ in range(h.n_states)]
        means = np.concatenate([h.means for h in hmms])
        variances = np.concatenate([h.vars for h in hmms])
        return FeatureVectorSet(Dataset(schema, [phonemes, *means.T, *variances.T]), "hmm")
    if isinstance(model, KMeansModel):
        schema = [(f"x{i + 1}", NUMERIC) for i in range(model.dim)]
        return FeatureVectorSet(Dataset(schema, model.centroids.T), "kmeans")
    if isinstance(model, Mlp):
        w = model.weights[0]  # first hidden layer, bias column included
        schema = [(f"w{i}", NUMERIC) for i in range(w.shape[1])]
        return FeatureVectorSet(Dataset(schema, w.T), "mlp")
    raise ContractError(f"cannot extract features from {type(model).__name__}")


def build_meta_training_set(shadows) -> MetaDataset:
    """Label every extracted row with its shadow's property label.

    All shadows must be the same model kind and both labels must be
    present, otherwise meta-training would be degenerate.
    """
    if not shadows:
        raise ContractError("no shadow classifiers given")
    parts, labels = [], []
    kind = None
    schema = None
    seen = set()
    for model, label in shadows:
        fv = extract_features(model)
        if kind is None:
            kind, schema = fv.source_kind, fv.data.schema
        elif fv.source_kind != kind or fv.data.schema != schema:
            raise ContractError(f"mixed shadow model kinds: {kind} vs {fv.source_kind}")
        seen.add(label.value)
        parts.append(fv.data.columns)
        labels += [label.value] * fv.data.n_rows
    if seen != {PROPERTY, NOT_PROPERTY}:
        raise ContractError(f"meta-training needs both property labels, got {sorted(seen)}")
    columns = [np.concatenate(col) for col in zip(*parts)]
    return MetaDataset(Dataset(schema, columns, labels), kind)


def train_meta(md: MetaDataset, params: TreeParams, rng: RandomSource) -> MetaClassifier:
    tree = dtree.train_tree(md.data, params, rng)
    acc = dtree.training_accuracy(tree, md.data)
    return MetaClassifier(tree, md.source_kind, md.data.schema, acc)


def infer_property(mc: MetaClassifier, target, include_rows: bool = False) -> PropertyVerdict:
    """Classify every extracted row of the target; majority vote decides.

    An exact tie resolves to NotP with the tie flag set. A target that
    yields no rows (an SVM without support vectors) gives no evidence
    and is a ContractError, not a tie.
    """
    fv = extract_features(target)
    if fv.source_kind != mc.source_kind or fv.data.schema != mc.schema:
        raise ContractError(
            f"target kind {fv.source_kind!r} does not match meta-classifier kind {mc.source_kind!r}"
        )
    if fv.data.n_rows == 0:
        raise ContractError(f"target {fv.source_kind} model yields no feature rows to vote on")
    votes = dtree.classify(mc.tree, fv.data)
    votes_p = votes.count(PROPERTY)
    votes_notp = len(votes) - votes_p
    tie = votes_p == votes_notp
    label = P if votes_p > votes_notp else NOT_P
    return PropertyVerdict(label, votes_p, votes_notp, tie, votes if include_rows else None)


def kl_gaussian(p, q) -> float:
    """Divergence of two univariate Gaussians given as (mean, variance).

    Computed as (mu_i - mu_j)^2 / (2 s2_i)
    + 0.5 (s2_i / s2_j - 1 - ln(s2_i / s2_j)), with the first term
    normalized by the *first* argument's variance. This coincides with
    the integral form of D_KL(p || q) whenever the variances are equal
    (and, for the second term alone, whenever the means are equal); for
    unequal means and variances it is a closely related asymmetric
    score, kept as-is by convention.
    """
    mu_i, s2_i = p
    mu_j, s2_j = q
    if s2_i <= 0 or s2_j <= 0:
        raise DomainError("variances must be positive")
    ratio = s2_i / s2_j
    return (mu_i - mu_j) ** 2 / (2.0 * s2_i) + 0.5 * (ratio - 1.0 - math.log(ratio))


def kl_divergence_scores(reference: AcousticModel, baselines) -> dict:
    """Mean per-phoneme divergence of the reference model from each baseline.

    For every phoneme the score averages kl_gaussian over all
    (state, dimension) output distributions, reference first, then
    averages over the baselines.
    """
    baselines = list(baselines)
    if not baselines:
        raise ContractError("at least one baseline model is required")
    ref_set = set(reference.hmms)
    for b in baselines:
        if set(b.hmms) != ref_set:
            raise ContractError("reference and baselines must share the phoneme set")
        if b.dim != reference.dim:
            raise ContractError("reference and baselines must share dim")
    scores = {}
    for phoneme in reference.phonemes:
        r = reference.hmms[phoneme]
        acc = 0.0
        for b in baselines:
            h = b.hmms[phoneme]
            if h.n_states != r.n_states:
                raise ContractError(f"state count mismatch for phoneme {phoneme!r}")
            d = (r.means - h.means) ** 2 / (2.0 * r.vars)
            ratio = r.vars / h.vars
            d += 0.5 * (ratio - 1.0 - np.log(ratio))
            acc += float(d.mean())
        scores[phoneme] = acc / len(baselines)
    return scores


def kl_filter(reference: AcousticModel, baselines, top_k: int) -> list:
    """Names of the top_k phonemes by descending divergence (ties by name)."""
    scores = kl_divergence_scores(reference, baselines)
    if not 1 <= top_k <= len(scores):
        raise ContractError(f"top_k must be in [1, {len(scores)}], got {top_k}")
    ranked = sorted(scores, key=lambda ph: (-scores[ph], ph))
    return ranked[:top_k]


def phoneme_rows(data: Dataset, phonemes) -> Dataset:
    """The acoustic-model feature rows whose phoneme is in ``phonemes``."""
    return data.subset(np.isin(data.columns[0], list(phonemes)))


def restrict_to_phonemes(md: MetaDataset, phonemes) -> MetaDataset:
    """Meta-dataset filtered to rows whose phoneme is in the given set."""
    if md.source_kind != "hmm":
        raise ContractError("phoneme filtering applies to acoustic-model feature rows")
    data = phoneme_rows(md.data, phonemes)
    if data.n_rows == 0:
        raise ContractError("filter removed every row")
    return MetaDataset(data, md.source_kind)


def matched_displacement(a: np.ndarray, b: np.ndarray) -> float:
    """Mean distance between two centroid sets under the best pairing.

    Guards the displacement measurement against index label-switching
    between runs; exact for small k, greedy beyond 6 centroids.
    """
    k = len(a)
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    if k <= 6:
        import itertools
        best = min(sum(cost[i, p[i]] for i in range(k))
                   for p in itertools.permutations(range(k)))
        return float(best / k)
    used = set()
    total = 0.0
    for i in np.argsort(cost.min(axis=1)):
        j = min((j for j in range(k) if j not in used), key=lambda j: cost[i, j])
        used.add(j)
        total += cost[i, j]
    return float(total / k)


def split_by_property(labels, holdout_fraction: float):
    """Per-property deterministic tail holdout; returns (train_idx, hold_idx)."""
    train_idx, hold_idx = [], []
    for want in (PROPERTY, NOT_PROPERTY):
        idx = [i for i, l in enumerate(labels) if l == want]
        if len(idx) < 2:
            raise ContractError(f"need at least 2 models with label {want} to hold one out, "
                                f"got {len(idx)}")
        n_hold = max(1, round_half_up(holdout_fraction * len(idx)))
        if n_hold >= len(idx):
            raise ContractError(f"{n_hold} of {len(idx)} models with label {want} would be "
                                f"held out, leaving none to train on")
        train_idx.extend(idx[:-n_hold])
        hold_idx.extend(idx[-n_hold:])
    return sorted(train_idx), sorted(hold_idx)


def _attack_on_models(models, labels, holdout_fraction, tree_params, rng):
    train_idx, hold_idx = split_by_property(labels, holdout_fraction)
    shadows = [(models[i], P if labels[i] == PROPERTY else NOT_P) for i in train_idx]
    md = build_meta_training_set(shadows)
    mc = train_meta(md, tree_params, rng)
    row_truths, row_preds = [], []
    verdict_correct = 0
    for i in hold_idx:
        verdict = infer_property(mc, models[i], include_rows=True)
        verdict_correct += verdict.label.value == labels[i]
        row_preds.extend(verdict.per_row)
        row_truths.extend([labels[i]] * len(verdict.per_row))
    row_accuracy = sum(t == p for t, p in zip(row_truths, row_preds)) / len(row_truths)
    return {
        "n_train_models": len(train_idx),
        "n_holdout_models": len(hold_idx),
        "meta_train_rows": md.data.n_rows,
        "meta_train_accuracy": mc.train_accuracy,
        "tree_nodes": mc.tree.n_nodes,
        "tree_leaves": mc.tree.n_leaves,
        "row_accuracy": row_accuracy,
        "verdict_accuracy": verdict_correct / len(hold_idx),
    }


def run_dp_bypass(points_p, points_notp, k: int, sulq: SulqParams, n_runs: int,
                  rng: RandomSource, sample_size: int | None = None,
                  holdout_fraction: float = 0.3, max_iters: int = 100,
                  tree_params: TreeParams | None = None) -> dict:
    """Compare the centroid attack with and without SuLQ noise.

    Trains ``n_runs`` models per arm (half on property data, half on
    non-property data, each run on a fresh subsample), runs the
    centroid meta-attack on both arms, and reports accuracies plus
    plot-ready centroid scatter data. The noiseless and noisy models of
    a run share the subsample and the initialization seed, so noisy
    centroid displacement is directly measurable.
    """
    points_p = np.asarray(points_p, dtype=np.float64)
    points_notp = np.asarray(points_notp, dtype=np.float64)
    if len(points_p) == 0 or len(points_notp) == 0:
        raise ContractError("both point pools must be non-empty")
    if n_runs < 2:
        raise ContractError("n_runs must be >= 2")
    if tree_params is None:
        tree_params = TreeParams(min_leaf_size=2)
    n_p = round_half_up(0.5 * n_runs)
    labels = [PROPERTY] * n_p + [NOT_PROPERTY] * (n_runs - n_p)
    if sample_size is None:
        sample_size = min(2000, len(points_p), len(points_notp))

    report_clamp = sulq.clamp
    plain_models, noisy_models = [], []
    scatter = []
    displacements = []
    for r in range(n_runs):
        pool = points_p if labels[r] == PROPERTY else points_notp
        run_rng = rng.child(r)
        size = min(sample_size, len(pool))
        idx = run_rng.child(0).choice(len(pool), size=size, replace=False)
        pts = pool[idx]
        # Clamp bounds come from each run's own training sample unless
        # fixed explicitly; a shared clamp would clip one arm's values
        # systematically and distort the comparison.
        params = SulqParams(sulq.sigma, sulq.clamp)
        if report_clamp is None:
            report_clamp = clamp_from_points(pts)
        init_seed_plain = run_rng.child(1)
        init_seed_noisy = run_rng.child(1)
        plain = kmeans_train(pts, k, max_iters, init_seed_plain)
        noisy = sulq_kmeans_train(pts, k, max_iters, params, init_seed_noisy)
        plain_models.append(plain)
        noisy_models.append(noisy)
        displacements.append(matched_displacement(noisy.centroids, plain.centroids))
        for arm, model in (("noiseless", plain), ("sulq", noisy)):
            for c in model.centroids:
                scatter.append({
                    "x": float(c[0]),
                    "y": float(c[1]) if model.dim > 1 else 0.0,
                    "arm": arm,
                    "property": labels[r],
                    "run": r,
                })

    mean_p = np.mean([m.centroids.mean(axis=0) for m, l in zip(plain_models, labels)
                      if l == PROPERTY], axis=0)
    mean_notp = np.mean([m.centroids.mean(axis=0) for m, l in zip(plain_models, labels)
                         if l == NOT_PROPERTY], axis=0)
    separation = float(np.linalg.norm(mean_p - mean_notp))

    report = {
        "config": {
            "k": k,
            "n_runs_per_arm": n_runs,
            "sample_size": sample_size,
            "sigma": sulq.sigma,
            "clamp_source": "fixed" if sulq.clamp is not None else "per-run sample min/max",
            "clamp_low": [float(v) for v in report_clamp[0]],
            "clamp_high": [float(v) for v in report_clamp[1]],
            "holdout_fraction": holdout_fraction,
            "verdict_rule": "majority_vote",
        },
        "noiseless": _attack_on_models(plain_models, labels, holdout_fraction,
                                       tree_params, rng.child(10_000)),
        "sulq": _attack_on_models(noisy_models, labels, holdout_fraction,
                                  tree_params, rng.child(10_001)),
        "centroid_displacement_mean": float(np.mean(displacements)),
        "property_separation": separation,
        "scatter": scatter,
    }
    return report
