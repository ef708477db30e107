"""Tests for the ASR simulators and the registry."""

import numpy as np
import pytest

from repro.asr.base import Transcription
from repro.asr.registry import build_asr, default_asr_suite, default_suite_names
from repro.text.metrics import word_error_rate


def test_registry_names_and_caching():
    assert default_suite_names() == ("DS0", "DS1", "GCS", "AT")
    assert build_asr("DS0") is build_asr("DS0")
    with pytest.raises(KeyError):
        build_asr("SIRI")


def test_default_suite_composition(asr_suite):
    assert set(asr_suite) == {"DS0", "DS1", "GCS", "AT"}
    suite = default_asr_suite()
    assert suite["DS0"].short_name == "DS0"
    assert suite["GCS"].is_cloud and suite["AT"].is_cloud
    assert not suite["DS0"].is_cloud


def test_kaldi_variants():
    kaldi = build_asr("KAL")
    variant = build_asr("KAL-fs3")
    assert kaldi.frame_subsampling_factor == 1
    assert variant.frame_subsampling_factor == 3
    assert kaldi is not variant


def test_transcription_result_type(ds0, benign_waveform):
    result = ds0.transcribe(benign_waveform)
    assert isinstance(result, Transcription)
    assert result.asr_name == ds0.name
    assert result.elapsed_seconds > 0
    assert len(result.frame_labels) > 0
    assert isinstance(result.text, str)


def test_transcribe_rejects_non_waveform(ds0):
    with pytest.raises(TypeError):
        ds0.transcribe(np.zeros(100))


def test_all_asrs_transcribe_benign_speech_reasonably(asr_suite, synthesizer):
    sentences = [
        "the children played near the big stone bridge",
        "please call me later tonight",
        "the farmer carried the heavy basket to the market",
    ]
    for name, asr in asr_suite.items():
        errors = []
        for sentence in sentences:
            audio = synthesizer.synthesize(sentence)
            errors.append(word_error_rate(sentence, asr.transcribe(audio).text))
        # The simulators are deliberately heterogeneous; GCS is the least
        # accurate auxiliary (as in the paper, where it has the worst FPR).
        budget = 0.7 if name == "GCS" else 0.6
        assert np.mean(errors) < budget, f"{name} benign WER too high: {errors}"


def test_target_model_is_most_accurate_on_its_training_style(ds0, synthesizer):
    sentence = "the light of the lamp fell on the table"
    audio = synthesizer.synthesize(sentence)
    assert word_error_rate(sentence, ds0.transcribe(audio).text) <= 0.5


def test_asrs_differ_in_frame_geometry(asr_suite):
    geometries = {(asr.feature_extractor.frame_length, asr.feature_extractor.hop_length,
                   asr.feature_extractor.feature_dim)
                  for asr in asr_suite.values()}
    assert len(geometries) >= 3


def test_asrs_differ_in_projections(asr_suite):
    ds0 = asr_suite["DS0"].acoustic_model
    ds1 = asr_suite["DS1"].acoustic_model
    assert ds0.weights.shape == ds1.weights.shape
    assert not np.allclose(ds0.weights, ds1.weights)


def test_silence_transcribes_to_empty_or_short(ds0):
    from repro.audio.waveform import Waveform

    silence = Waveform(samples=np.zeros(16000))
    text = ds0.transcribe(silence).text
    assert len(text.split()) <= 2
