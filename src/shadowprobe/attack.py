"""Property inference against trained classifiers.

A shadow classifier trained on data with a known property label is
reduced to a fixed-schema set of feature vectors (its internals); the
union of those rows, labeled per shadow, trains a decision-tree
meta-classifier that predicts whether an unseen classifier's training
set carried the property; ``holdout_attack`` judges held-out shadows.
Includes the Gaussian KL phoneme filter and the differential-privacy
bypass experiment on noisy k-means.

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
    NOT_P,
    NUMERIC,
    P,
    ContractError,
    Dataset,
    DomainError,
    RandomSource,
    property_labels,
    round_half_up,
    shadow_tasks,
)
from . import dtree
from .dtree import DecisionTree, TreeParams
from .hmm import AcousticModel
from .kmeans import KMeansModel, kmeans_train, sulq_kmeans_train
from .mlp import Mlp
from .svm import SvmModel

_KMEANS_MAX_ITERS = 100  # Lloyd iteration budget of every dp_bypass k-means run


@dataclass(eq=False)
class FeatureVectorSet:
    data: Dataset  # a meta-training set labels its rows P or NotP
    source_kind: str


@dataclass(eq=False)
class MetaClassifier:
    """A tree whose every leaf, fallbacks included, votes P or NotP."""

    tree: DecisionTree
    source_kind: str
    train_accuracy: float

    def __post_init__(self):
        acc = self.train_accuracy
        if isinstance(acc, bool) or not isinstance(acc, (int, float)) or not 0 <= acc <= 1:
            raise ContractError(f"meta-classifier train_accuracy must be in [0, 1], got {acc!r}")
        for leaf in self.tree.leaves():
            if leaf.label not in (P, NOT_P):
                raise ContractError(f"meta-classifier leaf_label must be {P!r} or {NOT_P!r}, "
                                    f"got {leaf.label!r}")

    @property
    def schema(self) -> tuple:
        return self.tree.schema


@dataclass(eq=False)
class PropertyVerdict:
    label: str  # P or NOT_P
    votes_p: int
    votes_notp: int
    tie: bool
    per_row: list  # the meta-classifier's vote on each feature row, in row order


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


def build_meta_training_set(shadows) -> FeatureVectorSet:
    """Label every extracted row with its shadow's property label.

    Each label must be P or NOT_P. All shadows must be the same model
    kind and both labels must be present, otherwise meta-training would
    be degenerate.
    """
    if not shadows:
        raise ContractError("no shadow classifiers given")
    parts, labels = [], []
    kind = None
    schema = None
    seen = set()
    for model, label in shadows:
        if label not in (P, NOT_P):
            raise ContractError(f"property label must be {P!r} or {NOT_P!r}, got {label!r}")
        fv = extract_features(model)
        if kind is None:
            kind, schema = fv.source_kind, fv.data.schema
        elif fv.source_kind != kind or fv.data.schema != schema:
            raise ContractError(f"mixed shadow model kinds: {kind} vs {fv.source_kind}")
        seen.add(label)
        parts.append(fv.data.columns)
        labels += [label] * fv.data.n_rows
    if seen != {P, NOT_P}:
        raise ContractError(f"meta-training needs both property labels, got {sorted(seen)}")
    columns = [np.concatenate(col) for col in zip(*parts)]
    return FeatureVectorSet(Dataset(schema, columns, labels), kind)


def train_meta(md: FeatureVectorSet, params: TreeParams, rng: RandomSource) -> MetaClassifier:
    tree = dtree.train_tree(md.data, params, rng)
    return MetaClassifier(tree, md.source_kind, dtree.training_accuracy(tree, md.data))


def infer_property(mc: MetaClassifier, target) -> PropertyVerdict:
    """Classify every extracted row of the target; majority vote decides.

    The verdict carries every row's vote in ``per_row``. An exact tie
    resolves to NotP with the tie flag set. A target that yields no rows
    (an SVM without support vectors) gives no evidence and is a
    ContractError, not a tie.
    """
    fv = extract_features(target)
    if fv.source_kind != mc.source_kind or fv.data.schema != mc.schema:
        raise ContractError(
            f"target kind {fv.source_kind!r} does not match meta-classifier kind {mc.source_kind!r}"
        )
    if fv.data.n_rows == 0:
        raise ContractError(f"target {fv.source_kind} model yields no feature rows to vote on")
    votes = dtree.classify(mc.tree, fv.data)
    votes_p = votes.count(P)
    votes_notp = len(votes) - votes_p
    tie = votes_p == votes_notp
    label = P if votes_p > votes_notp else NOT_P
    return PropertyVerdict(label, votes_p, votes_notp, tie, votes)


def judge(mc: MetaClassifier, models, labels):
    """Verdicts on models whose true property labels are known.

    Returns ``(verdicts, truths, votes)``: one report entry per model
    (truth, verdict, vote counts, tie flag), then the true label and the
    meta-classifier's vote of every feature row, models in the given order.
    """
    verdicts, truths, votes = [], [], []
    for model, label in zip(models, labels):
        v = infer_property(mc, model)
        verdicts.append({"truth": label, "verdict": v.label,
                         "votes_p": v.votes_p, "votes_notp": v.votes_notp, "tie": v.tie})
        truths += [label] * len(v.per_row)
        votes += v.per_row
    return verdicts, truths, votes


def kl_gaussian(p, q):
    """Divergence of two univariate Gaussians given as (mean, variance).

    Means and variances may be arrays of one shape; the result is then
    the divergence of each pair of elements.

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
    if np.any(s2_i <= 0) or np.any(s2_j <= 0):
        raise DomainError("variances must be positive")
    ratio = s2_i / s2_j
    return (mu_i - mu_j) ** 2 / (2.0 * s2_i) + 0.5 * (ratio - 1.0 - np.log(ratio))


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
            acc += float(kl_gaussian((r.means, r.vars), (h.means, h.vars)).mean())
        scores[phoneme] = acc / len(baselines)
    return scores


def kl_filter(scores: dict, top_k: int) -> list:
    """Names of the top_k phonemes by descending score (ties by name).

    ``scores`` maps each phoneme to its divergence, as
    :func:`kl_divergence_scores` returns it.
    """
    if not 1 <= top_k <= len(scores):
        raise ContractError(f"top_k must be in [1, {len(scores)}], got {top_k}")
    ranked = sorted(scores, key=lambda ph: (-scores[ph], ph))
    return ranked[:top_k]


def _min_cost_assignment(cost: np.ndarray) -> list:
    """Column assigned to each row of a square cost matrix by a minimum
    total cost matching: the Hungarian method in the shortest augmenting
    path form of Jonker & Volgenant (1987), O(k^3).

    Row i joins by a shortest path, over the reduced costs
    cost[r][c] - u[r] - v[c], from a root column 0 to an unassigned
    column; the assignments along the path then shift by one. Rows
    count from 1 so that ``row_of[c] == 0`` marks a free column. Plain
    lists, because k is small: at k = 3 this takes about a tenth of the
    time of the same steps as numpy vector operations.
    """
    c = cost.tolist()
    k = len(c)
    u, v = [0.0] * (k + 1), [0.0] * (k + 1)
    row_of = [0] * (k + 1)   # row assigned to each column
    way = [0] * (k + 1)      # previous column on the shortest path
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        dist = [math.inf] * (k + 1)
        done = [False] * (k + 1)
        while row_of[j0]:
            done[j0] = True
            r = row_of[j0]
            c_r, u_r = c[r - 1], u[r]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not done[j]:
                    reduced = c_r[j - 1] - u_r - v[j]
                    if reduced < dist[j]:
                        dist[j], way[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(k + 1):
                if done[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    col = [0] * k
    for j in range(1, k + 1):
        col[row_of[j] - 1] = j - 1
    return col


def matched_displacement(a: np.ndarray, b: np.ndarray) -> float:
    """Mean distance between two centroid sets under the best pairing.

    Guards the displacement measurement against index label-switching
    between runs. The pairing is an exact minimum-cost assignment for
    every k; the matched distances are summed in row order.
    """
    k = len(a)
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    if not np.isfinite(cost).all():
        # A NaN or infinite cost would stall the shortest-path search.
        raise ContractError("centroid distances must be finite")
    col = _min_cost_assignment(cost)
    return float(sum(cost[i, col[i]] for i in range(k)) / k)


def split_by_property(labels, holdout_fraction: float):
    """Per-property deterministic tail holdout; returns (train_idx, hold_idx)."""
    train_idx, hold_idx = [], []
    for want in (P, NOT_P):
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


def holdout_attack(models, labels, holdout_fraction: float, params: TreeParams,
                   rng: RandomSource):
    """Train a meta-classifier on the shadows and judge the held-out tail.

    ``split_by_property`` picks the held-out models. Returns
    ``(md, mc, verdicts, truths, votes)``: the meta-training set, the
    meta-classifier, and ``judge`` on the held-out models.
    """
    train_idx, hold_idx = split_by_property(labels, holdout_fraction)
    md = build_meta_training_set([(models[i], labels[i]) for i in train_idx])
    mc = train_meta(md, params, rng)
    return (md, mc, *judge(mc, [models[i] for i in hold_idx], [labels[i] for i in hold_idx]))


def _attack_on_models(models, labels, holdout_fraction, tree_params, rng):
    md, mc, verdicts, truths, votes = holdout_attack(models, labels, holdout_fraction,
                                                     tree_params, rng)
    return {
        "n_train_models": len(models) - len(verdicts),
        "n_holdout_models": len(verdicts),
        "meta_train_rows": md.data.n_rows,
        "meta_train_accuracy": mc.train_accuracy,
        "tree_nodes": mc.tree.n_nodes,
        "tree_leaves": mc.tree.n_leaves,
        "row_accuracy": sum(t == v for t, v in zip(truths, votes)) / len(votes),
        "verdict_accuracy": sum(v["verdict"] == v["truth"] for v in verdicts) / len(verdicts),
    }


def run_dp_bypass(points_p, points_notp, k: int, sigma: float, n_runs: int,
                  sample_size: int, holdout_fraction: float, tree_params: TreeParams,
                  rng: RandomSource) -> dict:
    """Compare the centroid attack with and without SuLQ noise.

    Trains ``n_runs`` models per arm (half on property data, half on
    non-property data, each run on a fresh subsample of ``sample_size``
    points; run r's pool and source are shadow r's of
    ``shadow_tasks(n_runs, rng)``), runs the centroid meta-attack on
    both arms, and returns each arm's attack results, the mean centroid
    displacement, the property separation and plot-ready centroid
    scatter data. The
    noiseless and noisy models of a run share the subsample and the
    initialization seed, so noisy centroid displacement is directly
    measurable. ``clamp_low`` and ``clamp_high`` give run 0's sample
    range: the per-dimension min and max, the max raised to min + 1
    where the two are equal.
    """
    points_p = np.asarray(points_p, dtype=np.float64)
    points_notp = np.asarray(points_notp, dtype=np.float64)
    smaller = min(len(points_p), len(points_notp))
    if not 1 <= sample_size <= smaller:
        raise ContractError(f"sample_size must be in [1, {smaller}] (the smaller point pool), "
                            f"got {sample_size}")
    if n_runs < 2:
        raise ContractError("n_runs must be >= 2")
    labels = property_labels(n_runs)

    plain_models, noisy_models = [], []
    scatter = []
    displacements = []
    for r, (with_property, run_rng) in enumerate(shadow_tasks(n_runs, rng)):
        pool = points_p if with_property else points_notp
        pts = pool[run_rng.child(0).choice(len(pool), size=sample_size, replace=False)]
        if r == 0:
            low, high = pts.min(axis=0), pts.max(axis=0)
            high = np.where(high > low, high, low + 1.0)
        plain = kmeans_train(pts, k, _KMEANS_MAX_ITERS, run_rng.child(1))
        noisy = sulq_kmeans_train(pts, k, _KMEANS_MAX_ITERS, sigma, run_rng.child(1))
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
                      if l == P], axis=0)
    mean_notp = np.mean([m.centroids.mean(axis=0) for m, l in zip(plain_models, labels)
                         if l == NOT_P], axis=0)
    return {
        "noiseless": _attack_on_models(plain_models, labels, holdout_fraction,
                                       tree_params, rng.child(10_000)),
        "sulq": _attack_on_models(noisy_models, labels, holdout_fraction,
                                  tree_params, rng.child(10_001)),
        "centroid_displacement_mean": float(np.mean(displacements)),
        "property_separation": float(np.linalg.norm(mean_p - mean_notp)),
        "scatter": scatter,
        "clamp_low": low.tolist(),
        "clamp_high": high.tolist(),
    }
