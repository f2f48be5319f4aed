import tracemalloc

import numpy as np
import pytest

from shadowprobe.core import ContractError, RandomSource, numeric_matrix, shadow_tasks
from shadowprobe.attack import kl_divergence_scores, kl_filter
from shadowprobe.datagen import (
    DNS,
    FLOW_COLUMNS,
    PHONEME_INVENTORY,
    WEB,
    default_flow_spec,
    default_speech_spec,
    gen_flow_dataset,
    gen_speech_corpus,
)
from shadowprobe.hmm import train_acoustic_model, viterbi_train
from shadowprobe.pipeline import ConfigError, PipelineConfig

from oracles import speech_corpus_reference


class TestFlowDataset:
    def test_balanced_labels(self):
        ds = gen_flow_dataset(default_flow_spec(), False, 2000, RandomSource(1))
        labels = ds.labels.tolist()
        assert labels.count(WEB) == 1000
        assert labels.count(DNS) == 1000

    def test_large_balance(self):
        ds = gen_flow_dataset(default_flow_spec(), True, 20000, RandomSource(2))
        labels = ds.labels.tolist()
        assert labels.count(WEB) == 10000 and labels.count(DNS) == 10000

    def test_no_signature_mode_when_off(self):
        # Without the property the WEB flows come from the normal
        # mixture, whose port-80 mode is present; with it the signature
        # mixture is all-443.
        spec = default_flow_spec()
        off = gen_flow_dataset(spec, False, 4000, RandomSource(3))
        on = gen_flow_dataset(spec, True, 4000, RandomSource(3))
        port_col = FLOW_COLUMNS.index("dst_port_frac")
        web_ports_off = set(off.columns[port_col][off.labels == WEB].tolist())
        web_ports_on = set(on.columns[port_col][on.labels == WEB].tolist())
        assert 80 / 1024 in web_ports_off
        assert web_ports_on == {443 / 1024}

    def test_determinism(self):
        a = gen_flow_dataset(default_flow_spec(), True, 500, RandomSource(4))
        b = gen_flow_dataset(default_flow_spec(), True, 500, RandomSource(4))
        assert np.array_equal(numeric_matrix(a), numeric_matrix(b))
        assert a.labels.tolist() == b.labels.tolist()
        c = gen_flow_dataset(default_flow_spec(), True, 500, RandomSource(5))
        assert not np.array_equal(numeric_matrix(c), numeric_matrix(a))

    def test_fields_within_declared_ranges(self):
        spec = default_flow_spec()
        ds = gen_flow_dataset(spec, True, 3000, RandomSource(6))
        X = numeric_matrix(ds)
        ranges = {
            "src_port_frac": (1024 / 65536, 1.0),
            "dst_port_frac": (0.0, 64.0),
            "proto_code": (0.0, 1.0),
            "log_duration": (0.0, 1.0),
            "log_packets": (0.0, 1.0),
            "log_bytes": (0.0, 1.0),
            "tos": (0.0, 1.0),
        }
        for j, name in enumerate(FLOW_COLUMNS):
            lo, hi = ranges[name]
            assert X[:, j].min() >= lo - 1e-12, name
            assert X[:, j].max() <= hi + 1e-12, name

    def test_minimum_size(self):
        with pytest.raises(ContractError):
            gen_flow_dataset(default_flow_spec(), False, 1, RandomSource(7))

    def test_pool_peak_memory_under_two_blocks(self):
        # The (7, n) block of values alone takes 7 * n * 8 bytes.
        gen_flow_dataset(default_flow_spec(), True, 100, RandomSource(1))
        tracemalloc.start()
        try:
            gen_flow_dataset(default_flow_spec(), True, 24000, RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 24000 * 7 * 8

    def test_partial_signature_fraction(self):
        spec = default_flow_spec(signature_fraction=0.5)
        ds = gen_flow_dataset(spec, True, 4000, RandomSource(8))
        port_col = FLOW_COLUMNS.index("dst_port_frac")
        n80 = int(np.sum((ds.labels == WEB) & (ds.columns[port_col] == 80 / 1024)))
        # Half the WEB flows come from the normal mixture; a third of
        # those use port 80.
        assert 250 < n80 < 420


class TestSpeechCorpus:
    def test_zero_shift_identical_generators(self):
        rng = RandomSource(9)
        spec = default_speech_spec(rng, n_phonemes=6, n_states=3, dim=4,
                                   n_boosted=2, boost_shift=0.0, base_shift=0.0)
        a = gen_speech_corpus(spec, True, 3, RandomSource(10))
        b = gen_speech_corpus(spec, False, 3, RandomSource(10))
        for ph in spec.phonemes:
            for sa, sb in zip(a[ph], b[ph]):
                assert np.array_equal(sa, sb)

    def test_shifted_phonemes_found_by_filter(self):
        rng = RandomSource(11)
        spec = default_speech_spec(rng, n_phonemes=40, n_states=3, dim=12,
                                   n_boosted=5, boost_shift=2.0, base_shift=0.0)
        ref = train_acoustic_model(gen_speech_corpus(spec, True, 8, RandomSource(12)),
                                   n_states=3, iters=4)
        baselines = [
            train_acoustic_model(gen_speech_corpus(spec, False, 8, RandomSource(13 + i)),
                                 n_states=3, iters=4)
            for i in range(4)
        ]
        top = kl_filter(kl_divergence_scores(ref, baselines), 5)
        assert len(set(top) & set(spec.phonemes[:5])) >= 4

    def test_single_sequence_trainable(self):
        rng = RandomSource(14)
        spec = default_speech_spec(rng, n_phonemes=3, n_states=3, dim=4,
                                   n_boosted=3, base_shift=0.4)
        corpus = gen_speech_corpus(spec, False, 1, RandomSource(15))
        for ph, seqs in corpus.items():
            assert len(seqs) == 1
            model = train_acoustic_model({ph: seqs}, 3, iters=0).hmms[ph]
            trained = viterbi_train(model, seqs, 2)
            assert trained.n_states == 3

    def test_sequence_lengths_within_spec(self):
        rng = RandomSource(16)
        spec = default_speech_spec(rng, n_phonemes=2, n_states=4, dim=3, n_boosted=2,
                                   base_shift=0.4, frames_per_state=(2, 5))
        corpus = gen_speech_corpus(spec, False, 5, RandomSource(17))
        for seqs in corpus.values():
            for s in seqs:
                assert 4 * 2 <= s.shape[0] <= 4 * 5
                assert s.shape[1] == 3

    @pytest.mark.parametrize("n_phonemes,n_states,dim,frames_per_state,n_sequences", [
        (4, 5, 25, (4, 9), 3),
        (3, 1, 4, (4, 9), 2),
        (5, 3, 2, (3, 3), 4),
        (2, 2, 1, (1, 2), 5),
        (40, 5, 25, (4, 9), 1),
    ])
    @pytest.mark.parametrize("with_property", [False, True])
    def test_matches_reference_bit_for_bit(self, n_phonemes, n_states, dim, frames_per_state,
                                           n_sequences, with_property):
        spec = default_speech_spec(RandomSource(30 + n_phonemes), n_phonemes=n_phonemes,
                                   n_states=n_states, dim=dim, n_boosted=min(2, n_phonemes),
                                   base_shift=0.4, frames_per_state=frames_per_state)
        rng, ref_rng = RandomSource(31), RandomSource(31)
        got = gen_speech_corpus(spec, with_property, n_sequences, rng)
        want = speech_corpus_reference(spec, with_property, n_sequences, ref_rng)
        assert list(got) == list(want)
        for ph in want:
            assert len(got[ph]) == len(want[ph])
            for g, w in zip(got[ph], want[ph]):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)
        # Both consumed the same draws.
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    @pytest.mark.parametrize("field,value", [
        ("n_phonemes", 0), ("n_phonemes", 41), ("n_states", 0), ("dim", 0), ("n_boosted", -1),
        ("n_boosted", 7),
    ])
    def test_sizes_bounded(self, field, value):
        # n_boosted=-1 used to boost all but the last phoneme and report them
        # as the boosted ground truth; n_states=0 and dim=0 made an empty spec.
        sizes = {**dict(n_phonemes=6, n_states=3, dim=4, n_boosted=2), field: value}
        with pytest.raises(ContractError, match=rf"^{field}: must .* \(got {value}\)$"):
            default_speech_spec(RandomSource(1), base_shift=0.4, **sizes)

    def test_inventory_names(self):
        assert len(PHONEME_INVENTORY) == 40
        assert len(set(PHONEME_INVENTORY)) == 40


class TestShadowArray:
    """``core.shadow_tasks`` gives each shadow's label and source, and
    ``PipelineConfig.training_set`` draws its training set."""

    def test_seventy_balanced(self):
        with_p = [with_p for with_p, _ in shadow_tasks(70, RandomSource(18))]
        assert with_p == [True] * 35 + [False] * 35

    def test_two_shadows_one_each(self):
        assert [with_p for with_p, _ in shadow_tasks(2, RandomSource(19))] == [True, False]

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_rejected(self, n):
        with pytest.raises(ContractError, match="need at least 2 shadows"):
            shadow_tasks(n, RandomSource(1))

    def test_independent_child_seeds(self):
        rng = RandomSource(23)
        sources = [source for _, source in shadow_tasks(4, rng)]
        assert [s.seed for s in sources] == [rng.child(i).seed for i in range(4)]
        assert len({s.seed for s in sources}) == 4
        spec = default_flow_spec()
        first, third = (numeric_matrix(gen_flow_dataset(spec, True, 20, sources[i]))
                        for i in (0, 2))
        assert not np.array_equal(first, third)  # same label arm, different draws

    def test_speech_spec_dispatch(self):
        cfg = PipelineConfig(case="speech", n_phonemes=2, n_states=2, dim=2, n_boosted=2,
                             top_k=2, n_sequences=2)
        spec = cfg.spec
        corpus = cfg.training_set(True, RandomSource(22))
        assert list(corpus) == list(spec.phonemes)
        # The same draws as calling the generator directly.
        direct = gen_speech_corpus(spec, True, 2, RandomSource(22))
        assert all(len(corpus[ph]) == 2 and all(np.array_equal(a, b)
                                                for a, b in zip(corpus[ph], direct[ph]))
                   for ph in spec.phonemes)

    def test_flow_spec_dispatch(self):
        cfg = PipelineConfig(case="netflow", flows_per_shadow=10)
        assert cfg.training_set(False, RandomSource(2)).n_rows == 10

    def test_empty_shadows_rejected(self):
        # The config bounds forbid size 0; the generators reject it too.
        cfg = PipelineConfig(case="netflow")
        cfg.flows_per_shadow = 0
        with pytest.raises(ContractError, match="need at least 2 flows"):
            cfg.training_set(True, RandomSource(1))
        cfg = PipelineConfig(case="speech", n_phonemes=2, n_states=2, dim=2, n_boosted=2,
                             top_k=2)
        cfg.n_sequences = 0
        with pytest.raises(ContractError, match="need at least one sequence"):
            cfg.training_set(True, RandomSource(1))

    def test_case_without_shadows_rejected(self):
        cfg = PipelineConfig(case="mlp_demo")
        assert cfg.spec is None
        with pytest.raises(ConfigError, match="generates no training sets"):
            cfg.training_set(True, RandomSource(1))
