"""Audio dataset construction.

Builds the benign, white-box AE, black-box AE and non-targeted AE datasets
used throughout the evaluation.  Every AE is verified to fool the target
model (the paper verifies the same property); failed attack attempts,
including hosts too short to carry the command, are retried with
different hosts before being dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.asr.registry import build_asr, get_shared_lexicon
from repro.attacks.alignment import HostTooShortError
from repro.attacks.blackbox import BlackBoxGeneticAttack
from repro.attacks.nontargeted import make_nontargeted_example
from repro.attacks.whitebox import WhiteBoxCarliniAttack
from repro.audio.synthesis import SpeechSynthesizer
from repro.audio.waveform import Waveform
from repro.config import DEFAULT_SEED, ReproScale, get_scale
from repro.text.corpus import (
    attack_command_corpus,
    commonvoice_like_corpus,
    librispeech_like_corpus,
)


@dataclass(frozen=True)
class LabeledAudio:
    """An audio clip plus its detection label (0 benign, 1 adversarial)."""

    waveform: Waveform
    label: int

    @property
    def kind(self) -> str:
        """The waveform's label string ("benign", "whitebox-ae", ...)."""
        return self.waveform.label


@dataclass
class DatasetBundle:
    """The full collection of datasets for one evaluation run (Table II)."""

    benign: list[LabeledAudio] = field(default_factory=list)
    whitebox: list[LabeledAudio] = field(default_factory=list)
    blackbox: list[LabeledAudio] = field(default_factory=list)
    nontargeted: list[LabeledAudio] = field(default_factory=list)

    @property
    def adversarial(self) -> list[LabeledAudio]:
        """White-box plus black-box AEs (the paper's "AE dataset")."""
        return self.whitebox + self.blackbox

    @property
    def all_samples(self) -> list[LabeledAudio]:
        """Benign plus adversarial samples (non-targeted AEs excluded)."""
        return self.benign + self.adversarial

    def summary(self) -> dict[str, int]:
        """Dataset sizes, mirroring Table II."""
        return {
            "benign": len(self.benign),
            "whitebox": len(self.whitebox),
            "blackbox": len(self.blackbox),
            "nontargeted": len(self.nontargeted),
        }


def _benign_synthesizer(seed: int) -> SpeechSynthesizer:
    return SpeechSynthesizer(lexicon=get_shared_lexicon(), seed=seed)


def build_benign_dataset(n_samples: int, seed: int = DEFAULT_SEED) -> list[LabeledAudio]:
    """Benign audio: sentences drawn from the LibriSpeech-like corpus."""
    rng = np.random.default_rng(seed)
    synthesizer = _benign_synthesizer(seed)
    corpus = librispeech_like_corpus()
    samples = []
    for sentence in corpus.sample(n_samples, rng):
        waveform = synthesizer.synthesize(sentence, rng=rng)
        samples.append(LabeledAudio(waveform=waveform, label=0))
    return samples


def build_whitebox_dataset(n_samples: int, seed: int = DEFAULT_SEED,
                           max_attempts_per_ae: int = 3) -> list[LabeledAudio]:
    """White-box AEs crafted against DS0, each verified to fool DS0."""
    rng = np.random.default_rng(seed + 1)
    synthesizer = _benign_synthesizer(seed + 1)
    target_asr = build_asr("DS0")
    attack = WhiteBoxCarliniAttack(target_asr)
    hosts = librispeech_like_corpus()
    commands = attack_command_corpus()
    samples: list[LabeledAudio] = []
    while len(samples) < n_samples:
        command = commands.sample_one(rng)
        result = None
        for _ in range(max_attempts_per_ae):
            host_text = hosts.sample_one(rng)
            host = synthesizer.synthesize(host_text, rng=rng)
            try:
                result = attack.run(host, command)
            except HostTooShortError:
                result = None
                continue
            if result.success:
                break
        if result is not None and result.success:
            samples.append(LabeledAudio(waveform=result.adversarial, label=1))
        else:
            # Keep the dataset moving even if a command proves too hard.
            continue
    return samples


def build_blackbox_dataset(n_samples: int, seed: int = DEFAULT_SEED,
                           max_attempts_per_ae: int = 3) -> list[LabeledAudio]:
    """Black-box AEs (two-word payloads) crafted against DS0."""
    rng = np.random.default_rng(seed + 2)
    synthesizer = _benign_synthesizer(seed + 2)
    target_asr = build_asr("DS0")
    hosts = commonvoice_like_corpus()
    commands = attack_command_corpus(two_word_only=True)
    samples: list[LabeledAudio] = []
    attempt_seed = seed
    while len(samples) < n_samples:
        command = commands.sample_one(rng)
        result = None
        for _ in range(max_attempts_per_ae):
            attempt_seed += 1
            attack = BlackBoxGeneticAttack(target_asr, seed=attempt_seed)
            host_text = hosts.sample_one(rng)
            host = synthesizer.synthesize(host_text, rng=rng)
            try:
                result = attack.run(host, command)
            except HostTooShortError:
                result = None
                continue
            if result.success:
                break
        if result is not None and result.success:
            samples.append(LabeledAudio(waveform=result.adversarial, label=1))
        else:
            continue
    return samples


def build_nontargeted_dataset(n_samples: int, seed: int = DEFAULT_SEED,
                              snr_db: float = -6.0) -> list[LabeledAudio]:
    """Non-targeted AEs: CommonVoice-like audio with −6 dB noise."""
    rng = np.random.default_rng(seed + 3)
    synthesizer = _benign_synthesizer(seed + 3)
    target_asr = build_asr("DS0")
    corpus = commonvoice_like_corpus()
    samples = []
    for sentence in corpus.sample(n_samples, rng):
        host = synthesizer.synthesize(sentence, rng=rng)
        noisy = make_nontargeted_example(host, rng, snr_db=snr_db,
                                         target_asr=target_asr)
        samples.append(LabeledAudio(waveform=noisy, label=1))
    return samples


def build_bundle(scale: ReproScale, seed: int = DEFAULT_SEED) -> DatasetBundle:
    """Build every dataset of Table II at the requested scale."""
    return DatasetBundle(
        benign=build_benign_dataset(scale.n_benign, seed),
        whitebox=build_whitebox_dataset(scale.n_whitebox, seed),
        blackbox=build_blackbox_dataset(scale.n_blackbox, seed),
        nontargeted=build_nontargeted_dataset(scale.n_nontargeted, seed),
    )


_BUNDLE_CACHE: dict[tuple[str, int], DatasetBundle] = {}


def load_standard_bundle(scale: ReproScale | str | None = None,
                         seed: int = DEFAULT_SEED) -> DatasetBundle:
    """Build (or fetch the in-process cached) dataset bundle for a scale."""
    if scale is None or isinstance(scale, str):
        scale = get_scale(scale)
    key = (scale.name, seed)
    if key not in _BUNDLE_CACHE:
        _BUNDLE_CACHE[key] = build_bundle(scale, seed)
    return _BUNDLE_CACHE[key]
