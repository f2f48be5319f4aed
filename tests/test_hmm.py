import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowprobe import datagen, hmm
from shadowprobe.core import ContractError, InfeasiblePathError, RandomSource
from shadowprobe.hmm import (
    VAR_FLOOR,
    AcousticModel,
    GaussianHmm,
    check_params,
    forward_loglik,
    train_acoustic_model,
    viterbi,
    viterbi_train,
)

from oracles import hmm_enumerate, log_gauss_diag, viterbi_train_reference


def lr_trans(n, advance=0.4):
    t = np.zeros((n, n))
    for s in range(n - 1):
        t[s, s] = 1.0 - advance
        t[s, s + 1] = advance
    t[n - 1, n - 1] = 1.0
    return t


def small_model(n=2, dim=2, seed=0):
    rng = RandomSource(seed)
    means = rng.normal(0, 2, size=(n, dim))
    vars_ = rng.uniform(0.5, 1.5, size=(n, dim))
    return GaussianHmm(lr_trans(n), means, vars_)


def flat_start_model(seqs, n_states):
    """The flat start of one group of sequences: an acoustic model of one
    phoneme trained for no iterations."""
    return train_acoustic_model({"x": seqs}, n_states, iters=0).hmms["x"]


def lockstep(models, groups):
    """One lockstep ``_align`` pass of groups[i] under models[i]: each
    sequence's (states, score), sequence by sequence in batch order."""
    batch = hmm._Batch(groups, models[0].n_states, models[0].dim)
    stacked = [np.stack([getattr(m, a) for m in models]) for a in ("trans", "means", "vars")]
    scores, states = hmm._align(*stacked, batch)
    paths = np.split(states, np.cumsum(batch.lengths)[:-1])
    return [(path.tolist(), float(score)) for path, score in zip(paths, scores)]


class TestFlatStart:
    def test_single_frame(self):
        # One frame is shorter than the 3-state path, so no model trains on
        # it; the flat start alone still takes its moments.
        v = np.array([[1.0, -2.0, 3.0]])
        _, means, vars_ = hmm._flat_start([[v]], 3)
        assert np.allclose(means[0], np.tile(v, (3, 1)))
        assert np.allclose(vars_[0], VAR_FLOOR)

    def test_two_point_moments(self):
        m = flat_start_model([np.array([[0.0], [2.0]])], 2)
        assert np.allclose(m.means, 1.0)
        assert np.allclose(m.vars, 1.0)

    def test_random_frames_match_streaming_oracle(self):
        rng = RandomSource(1)
        seqs = [rng.normal(3, 2, size=(25, 4)) for _ in range(4)]
        m = flat_start_model(seqs, 5)
        # Independent streaming-moments pass (Welford).
        count = 0
        mean = np.zeros(4)
        m2 = np.zeros(4)
        for seq in seqs:
            for frame in seq:
                count += 1
                delta = frame - mean
                mean += delta / count
                m2 += delta * (frame - mean)
        var = m2 / count
        assert np.max(np.abs(m.means - mean)) < 1e-10
        assert np.max(np.abs(m.vars - var)) < 1e-10

    def test_transition_layout(self):
        m = flat_start_model([np.zeros((3, 1))], 3)
        assert np.allclose(np.diag(m.trans)[:-1], 0.6)
        assert m.trans[2, 2] == 1.0
        assert m.trans[0, 2] == 0.0

    def test_empty_input(self):
        with pytest.raises(ContractError):
            flat_start_model([], 2)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ContractError, match="^phoneme 'x': sequence dim 3 != 2"):
            flat_start_model([np.zeros((4, 2)), np.zeros((4, 3))], 2)


class TestViterbi:
    def test_single_state_unique_path(self):
        m = small_model(n=1)
        rng = RandomSource(2)
        seq = rng.normal(size=(6, 2))
        path, lp = viterbi(m, seq)
        assert path == [0] * 6
        want = sum(log_gauss_diag(f, m.means[0], m.vars[0]) for f in seq)
        assert abs(lp - want) < 1e-9

    def test_matches_enumeration(self):
        for seed in range(5):
            m = small_model(n=2, seed=seed)
            seq = RandomSource(100 + seed).normal(0, 2, size=(4, 2))
            path, lp = viterbi(m, seq)
            best_path, best_lp, _, _, _ = hmm_enumerate(m.trans, m.means, m.vars, seq)
            assert path == best_path
            assert abs(lp - best_lp) < 1e-9

    def test_three_state_enumeration(self):
        rng = RandomSource(7)
        m = GaussianHmm(lr_trans(3, 0.5), rng.normal(0, 1, size=(3, 2)),
                        rng.uniform(0.5, 1.0, size=(3, 2)))
        seq = rng.normal(0, 1, size=(5, 2))
        path, lp = viterbi(m, seq)
        best_path, best_lp, _, _, _ = hmm_enumerate(m.trans, m.means, m.vars, seq)
        assert path == best_path and abs(lp - best_lp) < 1e-9

    def test_too_short_sequence(self):
        m = small_model(n=3)
        with pytest.raises(InfeasiblePathError):
            viterbi(m, np.zeros((2, 2)))

    def test_blocked_advance(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = GaussianHmm(t, np.zeros((2, 1)), np.ones((2, 1)))
        with pytest.raises(InfeasiblePathError):
            viterbi(m, np.zeros((4, 1)))


class TestForward:
    def test_single_state_equals_viterbi(self):
        m = small_model(n=1)
        seq = RandomSource(3).normal(size=(5, 2))
        assert abs(forward_loglik(m, seq) - viterbi(m, seq)[1]) < 1e-12

    def test_matches_enumeration(self):
        for seed in range(5):
            m = small_model(n=2, seed=seed)
            seq = RandomSource(200 + seed).normal(0, 2, size=(4, 2))
            _, _, total, _, _ = hmm_enumerate(m.trans, m.means, m.vars, seq)
            assert abs(forward_loglik(m, seq) - total) < 1e-9

    def test_forward_at_least_viterbi(self):
        for seed in range(6):
            m = small_model(n=2, seed=seed)
            seq = RandomSource(300 + seed).normal(0, 2, size=(7, 2))
            assert forward_loglik(m, seq) >= viterbi(m, seq)[1] - 1e-12

    def test_too_short_sequence(self):
        with pytest.raises(InfeasiblePathError,
                           match="^sequence length 2 < minimum path length 3$"):
            forward_loglik(small_model(n=3), np.zeros((2, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(ContractError, match="^sequence dim 3 != model dim 2$"):
            forward_loglik(small_model(n=2, dim=2), np.zeros((4, 3)))

    def test_blocked_advance(self):
        m = GaussianHmm(np.eye(2), np.zeros((2, 1)), np.ones((2, 1)))
        with pytest.raises(InfeasiblePathError,
                           match="^no feasible path reaches the final state$"):
            forward_loglik(m, np.zeros((4, 1)))


def generate_from(model, n_seqs, frames_per_state, rng):
    seqs = []
    n = model.n_states
    for _ in range(n_seqs):
        frames = []
        for s in range(n):
            d = rng.integers(frames_per_state[0], frames_per_state[1] + 1)
            frames.append(model.means[s] + np.sqrt(model.vars[s]) * rng.normal(size=(d, model.dim)))
        seqs.append(np.concatenate(frames))
    return seqs


class TestViterbiTrain:
    def test_zero_iters_identity(self):
        m = small_model()
        seqs = [RandomSource(7).normal(size=(4, 2))]
        out = viterbi_train(m, seqs, 0)
        assert np.array_equal(out.means, m.means)
        assert np.array_equal(out.trans, m.trans)

    def test_alignment_fixed_point_on_own_data(self):
        # Well-separated states: after one iteration the alignment stops
        # changing, so a second iteration does not move the parameters.
        gen = GaussianHmm(lr_trans(2, 0.3),
                          np.array([[-4.0, -4.0], [4.0, 4.0]]),
                          np.full((2, 2), 0.25))
        rng = RandomSource(8)
        seqs = generate_from(gen, 60, (8, 14), rng)  # ~10k frames total
        once = viterbi_train(gen, seqs, 1)
        twice = viterbi_train(gen, seqs, 2)
        assert np.max(np.abs(once.means - twice.means)) < 1e-6
        assert np.max(np.abs(once.vars - twice.vars)) < 1e-6
        assert np.max(np.abs(once.trans - twice.trans)) < 1e-6

    def test_recovers_bimodal_centers(self):
        gen = GaussianHmm(lr_trans(2, 0.25),
                          np.array([[-2.0], [2.0]]),
                          np.full((2, 1), 0.3))
        rng = RandomSource(9)
        seqs = generate_from(gen, 300, (4, 9), rng)
        # A pure flat start leaves both states identical, which makes the
        # first hard alignment degenerate; break the symmetry slightly the
        # way a segmental initializer would.
        start = flat_start_model(seqs, 2)
        nudged = GaussianHmm(start.trans,
                             start.means + np.array([[-0.5], [0.5]]),
                             start.vars)
        trained = viterbi_train(nudged, seqs, 8)
        assert abs(trained.means[0, 0] - (-2.0)) < 0.1
        assert abs(trained.means[1, 0] - 2.0) < 0.1

    def test_monotone_viterbi_loglik(self):
        rng = RandomSource(10)
        gen = small_model(n=3, dim=2, seed=11)
        seqs = generate_from(gen, 20, (3, 6), rng)
        start = flat_start_model(seqs, 3)
        # Raises ArithmeticError internally on any beyond-slack decrease.
        trained = viterbi_train(start, seqs, 6)
        t0 = sum(viterbi(start, s)[1] for s in seqs)
        t1 = sum(viterbi(trained, s)[1] for s in seqs)
        assert t1 >= t0 - 1e-8

    def test_rows_stochastic_and_topology_preserved(self):
        rng = RandomSource(12)
        gen = small_model(n=3, dim=2, seed=13)
        seqs = generate_from(gen, 15, (3, 6), rng)
        trained = viterbi_train(flat_start_model(seqs, 3), seqs, 5)
        assert np.allclose(trained.trans.sum(axis=1), 1.0, atol=1e-9)
        band = np.triu(np.tril(np.ones((3, 3)), 1))
        assert np.all(trained.trans[band == 0] == 0.0)


class TestAsSequence:
    @pytest.mark.parametrize("seq", [
        [[1.0, 2.0], [3.0]], [["1.0", "2.0"]], [[None, 1.0]], [[True, False]],
        [[1.0, np.nan]], [[np.inf, 1.0]], [1.0, 2.0], [[]],
    ])
    def test_rejects_malformed(self, seq):
        with pytest.raises(ContractError):
            hmm.as_sequence(seq)

    def test_integers_become_floats(self):
        arr = hmm.as_sequence([[1, 2], [3, 4]])
        assert arr.dtype == np.float64 and arr.shape == (2, 2)


class TestAcousticModel:
    def test_shared_dim_enforced(self):
        a = small_model(n=2, dim=2)
        b = GaussianHmm(lr_trans(2), np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ContractError):
            AcousticModel({"aa": a, "bb": b})

    def test_train_acoustic_model(self):
        rng = RandomSource(18)
        corpus = {
            "aa": [rng.normal(0, 1, size=(12, 2)) for _ in range(3)],
            "bb": [rng.normal(5, 1, size=(12, 2)) for _ in range(3)],
        }
        am = train_acoustic_model(corpus, n_states=3, iters=2)
        assert am.phonemes == ["aa", "bb"]
        assert am.dim == 2


class TestValidation:
    def test_bad_topology_rejected(self):
        t = np.array([[0.5, 0.5], [0.5, 0.5]])  # backward transition
        t[1, 0] = 0.5
        with pytest.raises(ContractError):
            GaussianHmm(t, np.zeros((2, 1)), np.ones((2, 1)))

    def test_non_stochastic_rejected(self):
        t = np.array([[0.5, 0.4], [0.0, 1.0]])
        with pytest.raises(ContractError):
            GaussianHmm(t, np.zeros((2, 1)), np.ones((2, 1)))

    def test_var_floor_enforced(self):
        with pytest.raises(ContractError):
            GaussianHmm(lr_trans(2), np.zeros((2, 1)), np.full((2, 1), 1e-9))


def speech_corpus(seed, n_phonemes=6, n_states=3, dim=4, n_sequences=5):
    rng = RandomSource(seed)
    spec = datagen.default_speech_spec(rng.child(0), n_phonemes=n_phonemes,
                                       n_states=n_states, dim=dim,
                                       n_boosted=min(5, n_phonemes), base_shift=0.4)
    return datagen.gen_speech_corpus(spec, seed % 2 == 0, n_sequences, rng.child(1))


def random_lr_model(n, dim, rng):
    trans = lr_trans(n)
    for s in range(n - 1):
        adv = rng.uniform(0.05, 0.95)
        trans[s, s], trans[s, s + 1] = 1.0 - adv, adv
    return GaussianHmm(trans, rng.normal(0, 1.5, size=(n, dim)),
                       rng.uniform(0.3, 2.0, size=(n, dim)))


class TestLockstep:
    """The lockstep trainer must reproduce the per-sequence loop exactly."""

    @pytest.mark.parametrize("seed,n_states,iters", [
        (1, 3, 4), (2, 5, 4), (3, 1, 3), (4, 2, 6), (5, 4, 0),
    ])
    def test_acoustic_model_equals_reference_loop(self, seed, n_states, iters):
        corpus = speech_corpus(seed, n_states=n_states)
        am = train_acoustic_model(corpus, n_states=n_states, iters=iters)
        for ph, seqs in corpus.items():
            start = flat_start_model(seqs, n_states)
            trans, means, vars_, _ = viterbi_train_reference(
                start.trans, start.means, start.vars, seqs, iters)
            got = am.hmms[ph]
            assert np.array_equal(got.trans, trans), ph
            assert np.array_equal(got.means, means), ph
            assert np.array_equal(got.vars, vars_), ph

    def test_viterbi_train_equals_reference_loop(self):
        rng = RandomSource(20)
        gen = small_model(n=3, dim=2, seed=21)
        seqs = generate_from(gen, 12, (1, 5), rng)
        start = flat_start_model(seqs, 3)
        got = viterbi_train(start, seqs, 5)
        trans, means, vars_, _ = viterbi_train_reference(
            start.trans, start.means, start.vars, seqs, 5)
        assert np.array_equal(got.trans, trans)
        assert np.array_equal(got.means, means)
        assert np.array_equal(got.vars, vars_)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), dim=st.integers(1, 2),
           shape=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=3),
                          min_size=1, max_size=3))
    def test_batch_matches_enumeration(self, seed, n, dim, shape):
        # Ragged sequences (length n + extra) under models with different
        # parameters, all aligned in one lockstep pass.
        rng = RandomSource(seed)
        models = [random_lr_model(n, dim, rng) for _ in shape]
        groups = [[rng.normal(0, 2, size=(n + extra, dim)) for extra in extras]
                  for extras in shape]
        pairs = [(m, seq) for m, seqs in zip(models, groups) for seq in seqs]
        for (m, seq), (path, lp) in zip(pairs, lockstep(models, groups), strict=True):
            best_path, best_lp, _, _, _ = hmm_enumerate(m.trans, m.means, m.vars, seq)
            assert path == best_path
            assert abs(lp - best_lp) < 1e-9
            assert (path, lp) == viterbi(m, seq)

    def test_length_equal_to_states_has_one_path(self):
        rng = RandomSource(22)
        models = [random_lr_model(4, 2, rng) for _ in range(2)]
        groups = [[rng.normal(size=(4, 2))], [rng.normal(size=(6, 2)), rng.normal(size=(4, 2))]]
        out = lockstep(models, groups)
        assert out[0][0] == [0, 1, 2, 3]
        assert out[2][0] == [0, 1, 2, 3]

    def test_exact_ties_prefer_self_loop(self):
        # States 0 and 1 are identical with a 0.5/0.5 split, and only the
        # last frame fits state 2, so every split of the middle frames
        # between states 0 and 1 scores the same bit for bit. On a tie a
        # state counts as reached by its self-loop, so the backtrack
        # stays in state 1 and the path advances as early as it can.
        m = GaussianHmm(lr_trans(3, 0.5), np.array([[0.0], [0.0], [10.0]]), np.ones((3, 1)))
        seqs = [np.array([[0.0]] * k + [[10.0]]) for k in (4, 3, 2)]
        out = lockstep([m, m], [seqs[:2], seqs[2:]])
        assert [p for p, _ in out] == [[0, 1, 1, 1, 2], [0, 1, 1, 2], [0, 1, 2]]
        trans, means, vars_, _ = viterbi_train_reference(m.trans, m.means, m.vars, seqs, 1)
        got = viterbi_train(m, seqs, 1)
        assert np.array_equal(got.trans, trans) and np.array_equal(got.means, means)

    def test_single_state_models(self):
        rng = RandomSource(23)
        models = [random_lr_model(1, 3, rng) for _ in range(2)]
        groups = [[rng.normal(size=(5, 3))], [rng.normal(size=(1, 3)), rng.normal(size=(3, 3))]]
        pairs = [(m, seq) for m, seqs in zip(models, groups) for seq in seqs]
        for (m, seq), (path, lp) in zip(pairs, lockstep(models, groups), strict=True):
            assert path == [0] * len(seq)
            want = sum(log_gauss_diag(f, m.means[0], m.vars[0]) for f in seq)
            assert abs(lp - want) < 1e-9

    def test_infeasible_sequence_names_phoneme(self):
        corpus = speech_corpus(6)
        second = sorted(corpus)[1]
        corpus[second] = corpus[second] + [np.zeros((2, 4))]  # shorter than 3 states
        with pytest.raises(InfeasiblePathError, match=f"phoneme {second!r}"):
            train_acoustic_model(corpus, n_states=3, iters=2)

    def test_decreasing_loglik_names_phoneme(self, monkeypatch):
        # From the second M-step on, phoneme index 1 gets near-zero
        # self-loops: a valid model whose Viterbi likelihood drops sharply.
        original = hmm._reestimate_trans
        calls = []

        def skewed(trans, stays, advances):
            out = original(trans, stays, advances)
            calls.append(1)
            if len(calls) >= 2:
                out[1] = lr_trans(out.shape[-1], advance=0.999)
            return out

        monkeypatch.setattr(hmm, "_reestimate_trans", skewed)
        corpus = speech_corpus(7)
        second = sorted(corpus)[1]
        with pytest.raises(ArithmeticError, match=f"phoneme {second!r}"):
            train_acoustic_model(corpus, n_states=3, iters=3)

    def test_phoneme_without_sequences_named(self):
        corpus = speech_corpus(9)
        second = sorted(corpus)[1]
        corpus[second] = []
        with pytest.raises(ContractError,
                           match=f"^phoneme {second!r}: flat start needs at least one sequence$"):
            train_acoustic_model(corpus, n_states=3, iters=2)

    def test_phoneme_of_other_dim_named(self):
        corpus = speech_corpus(10)  # dim 4
        third = sorted(corpus)[2]
        corpus[third] = [np.zeros((6, 3))] * 2
        with pytest.raises(ContractError, match=f"^phoneme {third!r}: sequence dim 3 != 4"):
            train_acoustic_model(corpus, n_states=3, iters=2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError, match="at least one phoneme"):
            train_acoustic_model({}, n_states=3, iters=2)

    @pytest.mark.parametrize("iters", [-3, -1, 2.0, 1.5, True, "2", np.int64(2)])
    def test_iters_must_be_a_non_negative_int(self, iters):
        # iters=-3 used to return the untrained flat start.
        corpus = speech_corpus(11)
        with pytest.raises(ContractError, match="^iters must be an int >= 0, got "):
            train_acoustic_model(corpus, n_states=3, iters=iters)
        seqs = corpus[sorted(corpus)[0]]
        with pytest.raises(ContractError, match="^iters must be an int >= 0, got "):
            viterbi_train(flat_start_model(seqs, 3), seqs, iters)

    def test_bad_reestimate_caught_each_iteration(self, monkeypatch):
        original = hmm._reestimate_trans

        def broken(trans, stays, advances):
            out = original(trans, stays, advances)
            out[2, 0, :] = np.nan
            return out

        monkeypatch.setattr(hmm, "_reestimate_trans", broken)
        corpus = speech_corpus(8)
        third = sorted(corpus)[2]
        with pytest.raises(ContractError, match=f"phoneme {third!r}.*finite"):
            train_acoustic_model(corpus, n_states=3, iters=1)

    @pytest.mark.parametrize("iters", [0, 1, 3])
    def test_parameters_checked_once_per_iteration(self, monkeypatch, iters):
        # The flat start and each iteration check the whole stack once; the
        # returned phoneme models are not checked a second time.
        calls = []
        original = hmm.check_params

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(hmm, "check_params", counting)
        corpus = speech_corpus(8)
        am = train_acoustic_model(corpus, n_states=3, iters=iters)
        assert calls == [(len(corpus), 3, 3)] * (1 + iters)
        assert sorted(am.hmms) == sorted(corpus)
        calls.clear()
        with pytest.raises(ContractError, match="variances"):
            GaussianHmm(lr_trans(2), np.zeros((2, 1)), np.full((2, 1), 1e-9))
        assert calls == [(2, 2)]


class TestCheckParams:
    @pytest.mark.parametrize("field,value", [
        ("trans", [[np.nan, np.nan], [0.0, 1.0]]),
        ("trans", [[np.inf, 0.0], [0.0, 1.0]]),
        ("means", [[np.nan], [0.0]]),
        ("means", [[0.0], [-np.inf]]),
        ("vars", [[np.nan], [1.0]]),
        ("vars", [[1.0], [np.inf]]),
    ])
    def test_non_finite_rejected(self, field, value):
        args = {"trans": lr_trans(2), "means": np.zeros((2, 1)), "vars": np.ones((2, 1))}
        args[field] = np.array(value)
        with pytest.raises(ContractError, match="finite"):
            GaussianHmm(**args)

    def test_negative_probability_rejected(self):
        with pytest.raises(ContractError, match="non-negative"):
            GaussianHmm(np.array([[1.5, -0.5], [0.0, 1.0]]), np.zeros((2, 1)), np.ones((2, 1)))

    def test_stacked_names_first_bad_model(self):
        trans = np.stack([lr_trans(2)] * 3)
        trans[1, 0] = [0.7, 0.7]
        means = np.zeros((3, 2, 1))
        with pytest.raises(ContractError, match="phoneme 'bb': transition rows"):
            check_params(trans, means, np.ones((3, 2, 1)), names=["aa", "bb", "cc"])

    def test_stacked_first_rule_then_first_model(self):
        # Model 2 breaks an early rule (finite transitions) and model 0 a
        # later one (variance floor): the earlier rule is reported, for the
        # first model that breaks it.
        trans = np.stack([lr_trans(2)] * 3)
        trans[2, 0, 0] = np.inf
        vars_ = np.ones((3, 2, 1))
        vars_[0, 1, 0] = 1e-9
        vars_[1, 0, 0] = 1e-9
        with pytest.raises(ContractError,
                           match="^phoneme 'cc': transition probabilities must be finite$"):
            check_params(trans, np.zeros((3, 2, 1)), vars_, names=["aa", "bb", "cc"])
        trans[2, 0, 0] = 0.6
        with pytest.raises(ContractError, match="^phoneme 'aa': variances must be >= "):
            check_params(trans, np.zeros((3, 2, 1)), vars_, names=["aa", "bb", "cc"])

    def test_stacked_valid_passes(self):
        check_params(np.stack([lr_trans(3)] * 2), np.zeros((2, 3, 2)), np.ones((2, 3, 2)))

    def test_stacked_model_rejected_by_gaussian_hmm(self):
        with pytest.raises(ContractError):
            GaussianHmm(np.stack([lr_trans(2)] * 2), np.zeros((2, 2, 1)), np.ones((2, 2, 1)))
