"""Left-to-right hidden Markov models with diagonal-Gaussian emissions.

States allow only a self-loop or a single-step advance; every sequence
is forced to enter at the first state and exit from the last one.
Observation sequences are plain (T, dim) float arrays. All sequence
arithmetic runs in the log domain.

Viterbi alignment, hard-EM training and the forward likelihood share
one trellis that runs several models in lockstep: the sequences of
every model are padded into one (time, sequence, state) array and
advanced one time step at a time, so an acoustic model's phoneme HMMs
train together. The forward likelihood is the same recurrence with
log-sum-exp in place of max, and a single model or sequence is the
one-model case of the same code.

Defaults follow common phoneme-model practice: five emitting states,
one Gaussian per state (no mixtures) and a variance floor of 1e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContractError, InfeasiblePathError

VAR_FLOOR = 1e-4
DEFAULT_STATES = 5

_LOG2PI = math.log(2.0 * math.pi)


def as_sequence(seq) -> np.ndarray:
    """The sequence as a (T, dim) float array of finite numbers."""
    try:
        arr = np.asarray(seq)
    except ValueError as e:  # ragged frames
        raise ContractError(f"observation sequence frames must be equal-length lists ({e})") from e
    if arr.dtype.kind not in "iuf":
        raise ContractError(f"observation sequence must hold numbers, got {arr.dtype} values")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ContractError(f"observation sequence must be a non-empty (T, dim) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractError("observation sequence holds a non-finite value")
    return arr


def _who(names, i: int) -> str:
    """Error-message prefix naming model i of a lockstep batch."""
    return "" if names is None else f"phoneme {names[i]!r}: "


def check_params(trans, means, vars_, names=None) -> None:
    """Validate left-to-right Gaussian HMM parameters.

    trans is (..., n, n) and means/vars are (..., n, dim); leading axes
    index independent models, named by ``names`` in error messages.
    Raises ContractError for the first model that breaks a rule.
    """
    n = trans.shape[-1] if trans.ndim >= 2 else -1
    if trans.ndim < 2 or trans.shape[-2] != n:
        raise ContractError("transition matrix must be square")
    if n < 1:
        raise ContractError("an HMM needs at least one state")
    if (means.shape != vars_.shape or means.ndim != trans.ndim
            or means.shape[:-1] != trans.shape[:-1]):
        raise ContractError("means/vars must be (n_states, dim) and match the transition matrix")

    models = trans.size // (n * n)

    def check(bad, msg):
        # One test over the whole stack; the failing model is looked up
        # only once a rule is broken.
        if bad.any():
            i = int(np.argmax(bad.reshape(models, -1).any(axis=1)))
            raise ContractError(_who(names, i) + msg)

    check(~np.isfinite(trans), "transition probabilities must be finite")
    check(~np.isfinite(means), "means must be finite")
    check(~np.isfinite(vars_), "variances must be finite")
    check(trans < 0.0, "transition probabilities must be non-negative")
    rows = trans.sum(axis=-1).reshape(models, n)
    bad = np.abs(rows - 1.0) > 1e-9
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        raise ContractError(_who(names, i) + f"transition rows must sum to 1, got {rows[i]}")
    band = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)  # self-loop and advance only
    check(trans[..., ~band] != 0.0,
          "left-to-right topology allows only self-loop or advance transitions")
    check(vars_ < VAR_FLOOR - 1e-15, f"variances must be >= {VAR_FLOOR}")


@dataclass(eq=False)
class GaussianHmm:
    """trans is (n, n) row-stochastic with zeros off the self/advance band;
    means and vars are (n, dim) with vars floored at VAR_FLOOR."""

    trans: np.ndarray
    means: np.ndarray
    vars: np.ndarray

    def __post_init__(self):
        self.trans = np.asarray(self.trans, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.vars = np.asarray(self.vars, dtype=np.float64)
        if self.trans.ndim != 2:
            raise ContractError("transition matrix must be square")
        check_params(self.trans, self.means, self.vars)

    @classmethod
    def _accepted(cls, trans, means, vars_) -> "GaussianHmm":
        """A model of float64 parameters that check_params has already
        accepted, built without checking them again."""
        model = cls.__new__(cls)
        model.trans, model.means, model.vars = trans, means, vars_
        return model

    @property
    def n_states(self) -> int:
        return self.trans.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(eq=False)
class AcousticModel:
    """One HMM per phoneme; all members share the frame dimension."""

    hmms: dict

    def __post_init__(self):
        if not self.hmms:
            raise ContractError("acoustic model needs at least one phoneme")
        dims = {h.dim for h in self.hmms.values()}
        if len(dims) != 1:
            raise ContractError(f"all phoneme models must share dim, got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return next(iter(self.hmms.values())).dim

    @property
    def phonemes(self) -> list:
        return sorted(self.hmms)


def _flat_start(groups: list, n_states: int, names=None):
    """Stacked flat-start parameters of one model per group of sequences.

    Every state of model p starts from the moments of all frames of
    groups[p]; transitions start at self-loop 0.6 / advance 0.4 (final
    state self-loop 1.0); variances are floored. Frames are concatenated
    one group at a time, so only one group's copy is held at once.
    """
    if n_states < 1:
        raise ContractError("n_states must be >= 1")
    for p, seqs in enumerate(groups):
        if not seqs:
            raise ContractError(_who(names, p) + "flat start needs at least one sequence")
    dim = groups[0][0].shape[1]
    means = np.empty((len(groups), n_states, dim))
    vars_ = np.empty_like(means)
    for p, seqs in enumerate(groups):
        for seq in seqs:
            if seq.shape[1] != dim:
                raise ContractError(_who(names, p) + f"sequence dim {seq.shape[1]} != {dim}, "
                                    "the dim of the first sequence")
        frames = np.concatenate(seqs, axis=0)
        # Huge frames overflow a moment to inf or NaN; check_params names it.
        with np.errstate(over="ignore", invalid="ignore"):
            means[p] = frames.mean(axis=0)
            vars_[p] = np.maximum(frames.var(axis=0), VAR_FLOOR)
    s = np.arange(n_states - 1)
    trans = np.zeros((len(groups), n_states, n_states))
    trans[:, s, s] = 0.6
    trans[:, s, s + 1] = 0.4
    trans[:, -1, -1] = 1.0
    check_params(trans, means, vars_, names)
    return trans, means, vars_


def flat_start(sequences, n_states: int) -> GaussianHmm:
    """Initialize every state from the global moments of all frames.

    Transitions start at self-loop 0.6 / advance 0.4 (final state
    self-loop 1.0); variances are floored.
    """
    trans, means, vars_ = _flat_start([[as_sequence(s) for s in sequences]], n_states)
    return GaussianHmm(trans[0], means[0], vars_[0])


def _emissions(means: np.ndarray, vars_: np.ndarray, const: np.ndarray, seq: np.ndarray,
               out: np.ndarray) -> None:
    """Log-densities of every frame of seq under every state, into the
    (frames, n_states) array out; const is each state's log normaliser."""
    diff = seq[:, None, :] - means[None, :, :]
    np.multiply(diff, diff, out=diff)
    np.divide(diff, vars_, out=diff)
    np.add.reduce(diff, axis=2, out=out)
    out *= -0.5
    out += const


class _Batch:
    """The sequences of several models, packed for lockstep alignment.

    Sequences are numbered model by model; frames are numbered the same
    way (model, then sequence, then time) and stacked into one
    (frames, dim) array, and frame f of that order sits at row
    (t_of[f], seq_of[f]) of a padded (time, sequence) array.
    """

    def __init__(self, groups: list, n_states: int, dim: int, names=None):
        for p, seqs in enumerate(groups):
            for seq in seqs:
                if seq.shape[0] < n_states:
                    raise InfeasiblePathError(
                        _who(names, p)
                        + f"sequence length {seq.shape[0]} < minimum path length {n_states}")
                if seq.shape[1] != dim:
                    raise ContractError(_who(names, p)
                                        + f"sequence dim {seq.shape[1]} != model dim {dim}")
        seqs = [seq for group in groups for seq in group]
        self.frames = np.concatenate(seqs) if seqs else np.empty((0, dim))
        per_model = [len(group) for group in groups]
        self.lengths = np.array([seq.shape[0] for seq in seqs], dtype=np.intp)
        self.owner = np.repeat(np.arange(len(groups)), per_model)
        self.seq_bounds = np.concatenate([[0], np.cumsum(per_model)])
        self.frame_bounds = np.concatenate([[0], np.cumsum(self.lengths)])[self.seq_bounds]
        self.seq_of = np.repeat(np.arange(len(self.lengths)), self.lengths)
        self.t_of = np.arange(len(self.seq_of)) - np.repeat(
            np.cumsum(self.lengths) - self.lengths, self.lengths)


def _align(trans, means, vars_, batch: _Batch, names=None, sum_paths=False):
    """Viterbi-align every sequence of the batch under its own model.

    trans, means and vars_ stack the models' parameters along axis 0.
    Returns each sequence's best-path log-probability and the best path's
    state for every frame in frame order; with ``sum_paths``, each
    sequence's log-probability summed over all paths and no states.
    """
    n = trans.shape[-1]
    lengths = batch.lengths
    B, T = len(lengths), int(lengths.max())
    const = -0.5 * (means.shape[-1] * _LOG2PI + np.log(vars_).sum(axis=-1))
    emit = np.empty((len(batch.frames), n))
    for p in range(len(batch.seq_bounds) - 1):
        lo, hi = batch.frame_bounds[p], batch.frame_bounds[p + 1]
        _emissions(means[p], vars_[p], const[p], batch.frames[lo:hi], emit[lo:hi])
    # delta[t] starts as the emissions at time t and becomes the score of
    # the paths ending there; padding past a sequence's end is 0.
    delta = np.zeros((T, B, n))
    delta[batch.t_of, batch.seq_of] = emit
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)[batch.owner]
    stay = np.diagonal(log_trans, axis1=-2, axis2=-1)  # self-loops, (B, n)
    adv = np.diagonal(log_trans, 1, axis1=-2, axis2=-1)  # advances, (B, n - 1)
    delta[0, :, 1:] = -np.inf
    from_adv = np.full((B, n), -np.inf)
    combine = np.logaddexp if sum_paths else np.maximum
    choice = None if sum_paths else np.zeros((T, B, n), dtype=bool)  # True = advanced
    for t in range(1, T):
        from_stay = delta[t - 1] + stay
        np.add(delta[t - 1, :, :-1], adv, out=from_adv[:, 1:])
        if not sum_paths:
            np.greater(from_adv, from_stay, out=choice[t])
        delta[t] += combine(from_stay, from_adv)
    rows = np.arange(B)
    scores = delta[lengths - 1, rows, n - 1]
    infeasible = ~np.isfinite(scores)
    if infeasible.any():
        raise InfeasiblePathError(_who(names, batch.owner[np.argmax(infeasible)])
                                  + "no feasible path reaches the final state")
    if sum_paths:
        return scores, None
    state = np.full(B, n - 1, dtype=np.intp)
    states = np.empty((T, B), dtype=np.intp)
    for t in range(T - 1, 0, -1):
        states[t] = state
        state -= choice[t, rows, state] & (t < lengths)
    states[0] = state
    return scores, states[batch.t_of, batch.seq_of]


def _stack(models: list):
    if len({(m.n_states, m.dim) for m in models}) != 1:
        raise ContractError("lockstep models must share n_states and dim")
    return (np.stack([m.trans for m in models]), np.stack([m.means for m in models]),
            np.stack([m.vars for m in models]))


def viterbi_batch(models: list, sequence_groups: list) -> list:
    """Viterbi-align ``sequence_groups[i]`` under ``models[i]`` for every i
    at once; the models must share n_states and dim.

    Returns, per model, one ``(path, logprob)`` pair per sequence, as
    :func:`viterbi` would.
    """
    if len(models) != len(sequence_groups):
        raise ContractError("need one sequence group per model")
    if not models:
        return []
    params = _stack(models)
    groups = [[as_sequence(s) for s in seqs] for seqs in sequence_groups]
    batch = _Batch(groups, models[0].n_states, models[0].dim)
    if not len(batch.lengths):
        return [[] for _ in models]
    scores, states = _align(*params, batch)
    paths = np.split(states, np.cumsum(batch.lengths)[:-1])
    return [[(paths[b].tolist(), float(scores[b]))
             for b in range(batch.seq_bounds[p], batch.seq_bounds[p + 1])]
            for p in range(len(models))]


def viterbi(model: GaussianHmm, seq) -> tuple[list, float]:
    """Most probable state path (0-based indices) and its joint log-probability.

    Entry is forced at state 0 and the path must end in the final state;
    sequences shorter than n_states cannot reach it.
    """
    return viterbi_batch([model], [[seq]])[0][0]


def forward_loglik(model: GaussianHmm, seq) -> float:
    """Log-probability of the sequence summed over all feasible paths."""
    batch = _Batch([[as_sequence(seq)]], model.n_states, model.dim)
    return float(_align(*_stack([model]), batch, sum_paths=True)[0][0])


def _reestimate_trans(trans, stays, advances):
    """Stacked transition matrices (models, n, n) from self-loop and
    advance counts (models, n), the final state's advance count being 0;
    a state that is never left keeps its row."""
    trans = trans.copy()
    out = stays + advances
    p, s = np.nonzero(out > 0)
    trans[p, s] = 0.0
    trans[p, s, s] = stays[p, s] / out[p, s]
    a = s < trans.shape[-1] - 1
    p, s = p[a], s[a]
    trans[p, s, s + 1] = advances[p, s] / out[p, s]
    return trans


def _train_lockstep(trans, means, vars_, groups: list, iters: int, names=None) -> list:
    """Hard-EM for several models at once; model i, the valid parameters
    trans[i], means[i] and vars_[i], trains on groups[i].

    Each iteration aligns every sequence of every model in one lockstep
    Viterbi pass, then re-estimates all models from the alignments.
    Each model's total Viterbi log-likelihood (its sequences' scores
    added in order) must not decrease beyond 1e-8 relative slack, and
    its parameters must stay valid; either failure names the model.
    means and vars_ are re-estimated in place. Each iteration checks the
    whole stack once, and the returned models are built from the
    parameters that check (or the caller's, when iters is 0) accepted.
    """
    P, n, d = means.shape
    batch = _Batch(groups, n, d, names)
    frame_cell = batch.owner[batch.seq_of] * n  # + state = flat (model, state) cell
    continues = batch.t_of[1:] > 0  # frame f + 1 follows frame f in one sequence

    def totals(scores):
        return [float(np.cumsum(scores[lo:hi])[-1])
                for lo, hi in zip(batch.seq_bounds[:-1], batch.seq_bounds[1:])]

    def check(prev, new):
        for p in range(P):
            if prev is not None and new[p] < prev[p] - 1e-8 * max(1.0, abs(prev[p])):
                raise ArithmeticError(_who(names, p) + "viterbi log-likelihood decreased: "
                                      f"{prev[p]} -> {new[p]}")

    prev = None
    for _ in range(iters):
        scores, path = _align(trans, means, vars_, batch, names)
        cur = totals(scores)
        check(prev, cur)
        prev = cur
        cell = frame_cell + path
        counts = np.bincount(cell, minlength=P * n).reshape(P, n).astype(np.float64)
        moved = path[1:] != path[:-1]
        steps = np.bincount((2 * cell[:-1] + moved)[continues], minlength=2 * P * n)
        steps = steps.reshape(P, n, 2).astype(np.float64)
        # bincount adds to each (model, state) cell frame by frame, in the
        # order a sequence-by-sequence accumulation would; one dim at a time.
        dims = batch.frames.T
        sums = np.stack([np.bincount(cell, x, P * n) for x in dims], axis=1).reshape(P, n, d)
        sqs = np.stack([np.bincount(cell, x * x, P * n) for x in dims], axis=1).reshape(P, n, d)
        # States without frames keep their emission parameters.
        hit = counts > 0
        means[hit] = sums[hit] / counts[hit][:, None]
        vars_[hit] = np.maximum(sqs[hit] / counts[hit][:, None] - means[hit] ** 2, VAR_FLOOR)
        trans = _reestimate_trans(trans, steps[..., 0], steps[..., 1])
        check_params(trans, means, vars_, names)
    if iters > 0:
        check(prev, totals(_align(trans, means, vars_, batch, names)[0]))
    return [GaussianHmm._accepted(trans[p], means[p], vars_[p]) for p in range(P)]


def viterbi_train(model: GaussianHmm, sequences, iters: int) -> GaussianHmm:
    """Hard-EM: align each sequence by Viterbi, then re-estimate moments
    and transition counts from the alignment.

    The total Viterbi log-likelihood is non-decreasing across iterations;
    a decrease beyond 1e-8 relative slack raises ArithmeticError. States
    that receive no frames keep their previous parameters.
    """
    seqs = [as_sequence(s) for s in sequences]
    if not seqs:
        raise ContractError("viterbi_train needs at least one sequence")
    return _train_lockstep(*_stack([model]), [seqs], iters)[0]


def train_acoustic_model(corpus: dict, n_states: int = DEFAULT_STATES, *,
                         iters: int) -> AcousticModel:
    """Flat-start one HMM per phoneme, then Viterbi-train all of them in
    lockstep for ``iters`` hard-EM iterations."""
    if not corpus:
        raise ContractError("acoustic model needs at least one phoneme")
    phonemes = sorted(corpus)
    groups = [[as_sequence(s) for s in corpus[ph]] for ph in phonemes]
    models = _train_lockstep(*_flat_start(groups, n_states, phonemes), groups, iters, phonemes)
    return AcousticModel(dict(zip(phonemes, models)))
