"""Tests for the acoustic model and the phoneme/word decoders."""

import numpy as np
import pytest

from repro.asr.acoustic import TemplateAcousticModel
from repro.asr.decoder import (
    WordDecoder,
    collapse_frame_labels,
    greedy_frame_labels,
    smoothed_frame_labels,
    split_at_silence,
    strip_silence,
    viterbi_frame_labels,
)
from repro.asr.registry import get_shared_language_model, get_shared_lexicon
from repro.dsp.features import MfccFeatureExtractor
from repro.text.phonemes import PHONEMES, PHONEME_TO_INDEX, SILENCE


@pytest.fixture(scope="module")
def acoustic_model(synthesizer_module):
    model = TemplateAcousticModel(MfccFeatureExtractor(), seed=5, template_noise=0.01)
    return model.fit(synthesizer_module)


@pytest.fixture(scope="module")
def synthesizer_module():
    from repro.audio.synthesis import SpeechSynthesizer

    return SpeechSynthesizer(seed=9, lexicon=get_shared_lexicon())


def test_unfitted_model_raises():
    model = TemplateAcousticModel(MfccFeatureExtractor(), seed=1)
    with pytest.raises(RuntimeError):
        model.logits(np.zeros((2, 13)))


def test_posteriors_are_distributions(acoustic_model, synthesizer_module):
    audio = synthesizer_module.synthesize("open the door")
    features = acoustic_model.feature_extractor.transform(audio.samples)
    posteriors = acoustic_model.posteriors(features)
    assert posteriors.shape == (features.shape[0], len(PHONEMES))
    assert np.allclose(posteriors.sum(axis=1), 1.0)
    assert np.all(posteriors >= 0)


def test_classify_vowel_exemplar(acoustic_model, synthesizer_module):
    exemplar = synthesizer_module.phoneme_exemplar("IY", duration=0.15)
    features = acoustic_model.feature_extractor.transform(exemplar)
    middle = features[len(features) // 2][None, :]
    labels = acoustic_model.classify_frames(middle)
    # The middle frame of a clean vowel exemplar should be that vowel (or at
    # worst a close front vowel).
    assert labels[0] in {"IY", "IH", "Y", "EY"}


def test_logits_gradient_matches_finite_difference(acoustic_model):
    rng = np.random.default_rng(2)
    features = rng.normal(size=(3, acoustic_model.feature_extractor.feature_dim))
    grad_logits = rng.normal(size=(3, len(PHONEMES)))
    analytic = acoustic_model.logits_gradient(features, grad_logits)
    eps = 1e-6
    for f, k in [(0, 0), (1, 5), (2, 8)]:
        plus = features.copy(); plus[f, k] += eps
        minus = features.copy(); minus[f, k] -= eps
        numeric = ((acoustic_model.logits(plus) * grad_logits).sum()
                   - (acoustic_model.logits(minus) * grad_logits).sum()) / (2 * eps)
        assert np.isclose(analytic[f, k], numeric, rtol=1e-4, atol=1e-6)


def test_target_margin_loss_zero_when_target_wins(acoustic_model):
    # Features equal to a template win that phoneme by a wide margin.
    index = PHONEME_TO_INDEX["AA"]
    features = acoustic_model.templates[index][None, :]
    loss, grad = acoustic_model.target_margin_loss(features, np.array([index]),
                                                   margin=0.1)
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_target_margin_loss_positive_for_wrong_target(acoustic_model):
    features = acoustic_model.templates[PHONEME_TO_INDEX["AA"]][None, :]
    loss, grad = acoustic_model.target_margin_loss(
        features, np.array([PHONEME_TO_INDEX["S"]]), margin=0.5)
    assert loss > 0.0
    assert np.any(grad != 0.0)


def test_greedy_and_smoothed_decoders():
    log_posteriors = np.log(np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1],
                                      [0.1, 0.8, 0.1]]))
    padded = np.full((3, len(PHONEMES)), -20.0)
    padded[:, :3] = log_posteriors
    labels = greedy_frame_labels(padded)
    assert labels[0] == PHONEMES[0] and labels[2] == PHONEMES[1]
    smoothed = smoothed_frame_labels(padded, window=1)
    assert len(smoothed) == 3


def test_viterbi_prefers_stable_paths():
    noisy = np.full((6, len(PHONEMES)), -10.0)
    noisy[:, 0] = -1.0
    noisy[3, 1] = -0.5      # single-frame blip
    labels = viterbi_frame_labels(noisy)
    assert labels.count(PHONEMES[0]) >= 5


def test_viterbi_subsampling_expands_back():
    posteriors = np.full((9, len(PHONEMES)), -5.0)
    labels = viterbi_frame_labels(posteriors, frame_subsampling_factor=3)
    assert len(labels) == 9


def test_collapse_and_silence_helpers():
    labels = ["SIL", "SIL", "AA", "AA", "AA", "B", "SIL", "SIL", "K", "K"]
    collapsed = collapse_frame_labels(labels, min_run=2)
    assert collapsed == ["SIL", "AA", "SIL", "K"]
    assert strip_silence(collapsed) == ["AA", "K"]
    assert split_at_silence(["AA", "SIL", "B", "K"]) == [["AA"], ["B", "K"]]
    with pytest.raises(ValueError):
        collapse_frame_labels(labels, min_run=0)


def test_word_decoder_exact_and_noisy_segments():
    decoder = WordDecoder(get_shared_lexicon(), get_shared_language_model())
    lexicon = get_shared_lexicon()
    phonemes = [SILENCE, *lexicon.pronounce("open"), SILENCE,
                *lexicon.pronounce("door"), SILENCE]
    text, words = decoder.decode(phonemes)
    assert text == "open door"
    assert words == ["open", "door"]

    # One wrong phoneme should still decode to the right word.
    noisy = [SILENCE, "D", "AO", "L", SILENCE]
    text, _ = decoder.decode(noisy)
    assert text == "door"


def test_word_decoder_empty_input():
    decoder = WordDecoder(get_shared_lexicon(), get_shared_language_model())
    assert decoder.decode([SILENCE, SILENCE]) == ("", [])


def test_training_exemplars_render_once_per_process(monkeypatch):
    from repro.asr import acoustic
    from repro.asr.registry import build_fresh_asr
    from repro.audio.synthesis import SpeechSynthesizer

    monkeypatch.setattr(acoustic, "_EXEMPLARS", {})
    render = SpeechSynthesizer._render_phoneme
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(args[0])
        return render(self, *args, **kwargs)

    monkeypatch.setattr(SpeechSynthesizer, "_render_phoneme", spy)
    for name in ("DS0", "DS1", "GCS", "AT"):
        build_fresh_asr(name)
    # 40 phonemes x 3 speakers, shared by the four models (not 480).
    assert len(calls) == len(PHONEMES) * 3 == 120
    assert len(acoustic._EXEMPLARS) == 120
    assert not any(exemplar.flags.writeable
                   for exemplar in acoustic._EXEMPLARS.values())
