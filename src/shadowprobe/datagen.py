"""Synthetic data generators with a ground-truth hidden-property knob.

Two stand-in corpora: NetFlow-like traffic records for a WEB-vs-DNS
classifier, and Gaussian frame sequences for per-phoneme acoustic
models. Generation is a pure function of (spec, flags, RandomSource).
This module holds the specs and the two generators only: a
``PipelineConfig`` builds its case's spec once (its ``spec``),
``PipelineConfig.training_set`` picks the generator, and
``core.shadow_tasks`` gives each shadow's label and source.

Flow records emit seven numeric columns, each normalized to the
fraction of its field's range so all features are comparable:
``src_port_frac`` (port / 65536), ``dst_port_frac`` (port / 1024, the
well-known range), ``proto_code`` (IP protocol / 255), ``log_duration``
/ ``log_packets`` / ``log_bytes`` (log10(1 + value) over log10 of the
field maximum), and ``tos`` (/ 255). IP addresses are never generated.
Each traffic class is a weighted mixture of log-normal modes; the
hidden property replaces a configured fraction of WEB flows with
"search-engine-like" modes that have a distinct byte/duration profile.
A pool is drawn into one (7, n) column block, mode by mode, shuffled in
place and handed read-only to its Dataset, which keeps it uncopied.

Speech sequences are sampled directly from per-phoneme per-state
generator Gaussians walked left to right; the hidden property shifts
each phoneme's state means by a per-phoneme multiple of the state
sigmas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NUMERIC, ContractError, Dataset, RandomSource, round_half_up

WEB = "WEB"
DNS = "DNS"

FLOW_COLUMNS = (
    "src_port_frac", "dst_port_frac", "proto_code",
    "log_duration", "log_packets", "log_bytes", "tos",
)

# Hard semantic bounds applied to raw draws before encoding.
_DURATION_RANGE = (1e-4, 3600.0)
_PACKETS_RANGE = (1.0, 1e6)
_BYTES_RANGE = (40.0, 1e9)

_LOG_DUR_MAX = np.log10(1.0 + _DURATION_RANGE[1])
_LOG_PKT_MAX = np.log10(1.0 + _PACKETS_RANGE[1])
_LOG_BYT_MAX = np.log10(1.0 + _BYTES_RANGE[1])


@dataclass(frozen=True)
class FlowMode:
    """One log-normal traffic mode; a class mixes several by weight."""

    dst_ports: tuple          # ((port, probability), ...)
    protocol: int
    log10_duration: tuple     # (mu, sigma) of log10 seconds
    log10_packets: tuple
    log10_bytes: tuple
    tos: int = 0
    weight: float = 1.0

    def __post_init__(self):
        total = sum(p for _, p in self.dst_ports)
        if abs(total - 1.0) > 1e-9:
            raise ContractError(f"dst port probabilities must sum to 1, got {total}")
        for _, s in (self.log10_duration, self.log10_packets, self.log10_bytes):
            if s <= 0:
                raise ContractError("log-normal sigmas must be positive")
        if self.weight <= 0:
            raise ContractError("mode weight must be positive")


@dataclass(frozen=True)
class FlowSpec:
    web: tuple                # FlowMode mixture for normal WEB traffic
    dns: tuple
    web_signature: tuple      # WEB modes used when the property holds
    signature_fraction: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "web", tuple(self.web))
        object.__setattr__(self, "dns", tuple(self.dns))
        object.__setattr__(self, "web_signature", tuple(self.web_signature))
        for name in ("web", "dns", "web_signature"):
            if not getattr(self, name):
                raise ContractError(f"{name} needs at least one mode")
        if not 0.0 <= self.signature_fraction <= 1.0:
            raise ContractError(f"signature_fraction: must be in [0, 1] "
                                f"(got {self.signature_fraction!r})")


def default_flow_spec(signature_fraction: float = 1.0) -> FlowSpec:
    """Tight DNS cluster against two three-mode WEB mixtures.

    The signature mixture ("search-engine-like": short, small, snappy
    responses) sits between the DNS cluster and the normal WEB mixture,
    so the hidden property moves both the margin of a WEB/DNS classifier
    and the support vectors on both sides of it.
    """
    web = (
        FlowMode(((80, 1.0),), 6, (np.log10(1.0), 0.28), (np.log10(8.0), 0.28),
                 (np.log10(15000.0), 0.28)),
        FlowMode(((443, 1.0),), 6, (np.log10(2.6), 0.28), (np.log10(18.0), 0.28),
                 (np.log10(48000.0), 0.28)),
        FlowMode(((443, 1.0),), 6, (np.log10(6.5), 0.28), (np.log10(42.0), 0.28),
                 (np.log10(140000.0), 0.28)),
    )
    dns = (
        FlowMode(((53, 1.0),), 17, (np.log10(0.012), 0.08), (np.log10(1.2), 0.05),
                 (np.log10(150.0), 0.08)),
    )
    signature = (
        FlowMode(((443, 1.0),), 6, (np.log10(0.08), 0.24), (np.log10(3.5), 0.24),
                 (np.log10(1300.0), 0.24)),
        FlowMode(((443, 1.0),), 6, (np.log10(0.22), 0.24), (np.log10(6.0), 0.24),
                 (np.log10(3200.0), 0.24)),
        FlowMode(((443, 1.0),), 6, (np.log10(0.60), 0.24), (np.log10(10.0), 0.24),
                 (np.log10(7800.0), 0.24)),
    )
    return FlowSpec(web, dns, signature, signature_fraction)


def _draw_mode(mode: FlowMode, n: int, rng: RandomSource, out: np.ndarray) -> None:
    """Draw n flows of one mode into the (7, n) block ``out``, a column per row."""
    out[0] = rng.generator.integers(1024, 65536, size=n) / 65536.0
    ports = np.array([p for p, _ in mode.dst_ports], dtype=np.float64)
    probs = np.array([pr for _, pr in mode.dst_ports])
    out[1] = rng.generator.choice(ports, size=n, p=probs) / 1024.0
    out[2] = mode.protocol / 255.0
    dur = np.clip(10.0 ** rng.normal(*mode.log10_duration, size=n), *_DURATION_RANGE)
    out[3] = np.log10(1.0 + dur) / _LOG_DUR_MAX
    pkt = np.clip(np.round(10.0 ** rng.normal(*mode.log10_packets, size=n)), *_PACKETS_RANGE)
    out[4] = np.log10(1.0 + pkt) / _LOG_PKT_MAX
    byt = np.clip(np.round(10.0 ** rng.normal(*mode.log10_bytes, size=n)), *_BYTES_RANGE)
    out[5] = np.log10(1.0 + byt) / _LOG_BYT_MAX
    out[6] = mode.tos / 255.0


def _mixture_counts(modes: tuple, n: int) -> list:
    """Deterministic block sizes proportional to mode weights."""
    total = sum(m.weight for m in modes)
    counts = [int(n * m.weight / total) for m in modes]
    short = n - sum(counts)
    for i in range(short):
        counts[i % len(counts)] += 1
    return counts


def _draw_mixture(modes: tuple, rng: RandomSource, out: np.ndarray) -> None:
    """Fill the (7, n) block ``out`` mode by mode, in spec order."""
    start = 0
    for m, c in zip(modes, _mixture_counts(modes, out.shape[1])):
        if c:
            _draw_mode(m, c, rng, out[:, start:start + c])
        start += c


def gen_flow_dataset(spec: FlowSpec, with_property: bool, n: int,
                     rng: RandomSource) -> Dataset:
    """Balanced WEB/DNS flow dataset of n rows.

    When ``with_property`` holds, ``spec.signature_fraction`` of the WEB
    flows are drawn from the signature mixture instead of the normal WEB
    mixture.
    """
    if n < 2:
        raise ContractError("need at least 2 flows")
    n_web = n // 2
    n_dns = n - n_web
    n_sig = round_half_up(spec.signature_fraction * n_web) if with_property else 0
    values = np.empty((len(FLOW_COLUMNS), n))
    bounds = (0, n_dns, n - n_sig, n)
    for modes, lo, hi in zip((spec.dns, spec.web, spec.web_signature), bounds, bounds[1:]):
        _draw_mixture(modes, rng, values[:, lo:hi])
    perm = rng.permutation(n)
    for col in values:
        col[:] = col[perm]
    labels = np.array([DNS, WEB], dtype=object)[(perm >= n_dns).view(np.uint8)]
    values.flags.writeable = False
    labels.flags.writeable = False
    schema = [(c, NUMERIC) for c in FLOW_COLUMNS]
    return Dataset(schema, values, labels)


# 39 ARPAbet-style phones plus silence.
PHONEME_INVENTORY = (
    "aa", "ae", "ah", "ao", "aw", "ay", "b", "ch", "d", "dh",
    "eh", "er", "ey", "f", "g", "hh", "ih", "iy", "jh", "k",
    "l", "m", "n", "ng", "ow", "oy", "p", "r", "s", "sh",
    "t", "th", "uh", "uw", "v", "w", "y", "z", "zh", "sil",
)
# Cells of each (n_phonemes, n_states, dim) array of a speech spec: 8 MiB.
MAX_SPEC_CELLS = 1 << 20


@dataclass(eq=False)
class SpeechSpec:
    """Per-phoneme per-state generator Gaussians plus the accent knob.

    ``mean_shift_sigmas[p]`` moves phoneme p's state means by that many
    state sigmas when the property holds.
    """

    phonemes: tuple
    n_states: int
    dim: int
    means: np.ndarray          # (phonemes, states, dim)
    sigmas: np.ndarray         # (phonemes, states, dim), standard deviations
    mean_shift_sigmas: np.ndarray  # (phonemes,)
    frames_per_state: tuple = (4, 9)

    def __post_init__(self):
        p, s, d = len(self.phonemes), self.n_states, self.dim
        if self.means.shape != (p, s, d) or self.sigmas.shape != (p, s, d):
            raise ContractError("means/sigmas must be (phonemes, states, dim)")
        if np.any(self.sigmas <= 0):
            raise ContractError("generator sigmas must be positive")
        lo, hi = self.frames_per_state
        if lo < 1 or hi < lo:
            raise ContractError("frames_per_state must satisfy 1 <= lo <= hi")


def default_speech_spec(rng: RandomSource, *, n_phonemes: int, n_states: int, dim: int,
                        n_boosted: int, boost_shift: float = 1.5, base_shift: float,
                        frames_per_state: tuple = (4, 9)) -> SpeechSpec:
    """Random inventory where an accent perturbs every phoneme a little
    (``base_shift``) and the first ``n_boosted`` phonemes much more."""
    if not 1 <= n_phonemes <= len(PHONEME_INVENTORY):
        raise ContractError(f"n_phonemes: must be in [1, {len(PHONEME_INVENTORY)}] "
                            f"(got {n_phonemes!r})")
    for name, value in (("n_states", n_states), ("dim", dim)):
        if value < 1:
            raise ContractError(f"{name}: must be >= 1 (got {value!r})")
    if n_phonemes * n_states * dim > MAX_SPEC_CELLS:
        raise ContractError(f"n_phonemes * n_states * dim: must be <= {MAX_SPEC_CELLS} "
                            f"(got {n_phonemes} * {n_states} * {dim})")
    if not 0 <= n_boosted <= n_phonemes:
        raise ContractError(f"n_boosted: must be in [0, n_phonemes] (got {n_boosted!r})")
    phonemes = PHONEME_INVENTORY[:n_phonemes]
    means = rng.uniform(-2.0, 2.0, size=(n_phonemes, n_states, dim))
    sigmas = rng.uniform(0.3, 0.7, size=(n_phonemes, n_states, dim))
    shift = np.full(n_phonemes, base_shift)
    shift[:n_boosted] = boost_shift
    return SpeechSpec(
        phonemes=phonemes,
        n_states=n_states,
        dim=dim,
        means=means,
        sigmas=sigmas,
        mean_shift_sigmas=shift,
        frames_per_state=tuple(frames_per_state),
    )


def gen_speech_corpus(spec: SpeechSpec, with_property: bool, n_sequences: int,
                      rng: RandomSource) -> dict:
    """n_sequences observation sequences per phoneme, walked left to right."""
    if n_sequences < 1:
        raise ContractError("need at least one sequence per phoneme")
    lo, hi = spec.frames_per_state
    corpus = {}
    for p, phoneme in enumerate(spec.phonemes):
        mu = spec.means[p]
        sd = spec.sigmas[p]
        if with_property:
            mu = mu + spec.mean_shift_sigmas[p] * sd
        seqs = []
        for _ in range(n_sequences):
            durations, noise = [], []
            for _ in range(spec.n_states):
                durations.append(rng.integers(lo, hi + 1))
                noise.append(rng.normal(size=(durations[-1], spec.dim)))
            seqs.append(np.repeat(mu, durations, axis=0)
                        + np.repeat(sd, durations, axis=0) * np.concatenate(noise, axis=0))
        corpus[phoneme] = seqs
    return corpus

