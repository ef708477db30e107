"""Tests for the attack implementations.

The end-to-end attack tests are the slowest tests in the suite (a few
seconds each); they each craft a single AE.
"""

import numpy as np
import pytest

from repro.attacks.alignment import (
    HostTooShortError,
    target_alignment_from_host,
    target_frame_alignment,
)
from repro.attacks.blackbox import BlackBoxGeneticAttack
from repro.attacks.nontargeted import make_nontargeted_example
from repro.attacks.whitebox import WhiteBoxCarliniAttack
from repro.audio.metrics import similarity_percent
from repro.text.metrics import word_error_rate
from repro.text.phonemes import PHONEMES, PHONEME_TO_INDEX, SILENCE


def test_target_frame_alignment_covers_all_frames(lexicon):
    alignment = target_frame_alignment("open the door", 120, lexicon)
    assert alignment.shape == (120,)
    assert np.all((0 <= alignment) & (alignment < len(PHONEMES)))
    phonemes_used = {PHONEMES[i] for i in alignment}
    assert "OW" in phonemes_used or "AO" in phonemes_used


def test_target_frame_alignment_too_short_raises(lexicon):
    with pytest.raises(ValueError):
        target_frame_alignment("open the front door now please", 10, lexicon)
    with pytest.raises(ValueError):
        target_frame_alignment("open", 0, lexicon)


def test_alignment_from_host_keeps_edges_silent(lexicon):
    host_labels = ([SILENCE] * 10 + ["AA"] * 30 + [SILENCE] * 5 + ["B"] * 30
                   + [SILENCE] * 10)
    alignment = target_alignment_from_host("open door", host_labels, lexicon)
    silence_index = PHONEME_TO_INDEX[SILENCE]
    assert np.all(alignment[:10] == silence_index)
    assert np.all(alignment[-10:] == silence_index)
    assert (alignment != silence_index).sum() > 40


def test_alignment_from_host_requires_speech(lexicon):
    with pytest.raises(ValueError):
        target_alignment_from_host("open", [SILENCE] * 50, lexicon)


def test_host_too_short_raises_the_typed_error(lexicon):
    with pytest.raises(HostTooShortError):
        target_frame_alignment("open the front door now please", 10, lexicon)
    with pytest.raises(HostTooShortError):
        target_frame_alignment("open", 0, lexicon)
    with pytest.raises(HostTooShortError):
        target_alignment_from_host(
            "open the front door", [SILENCE] + ["AA"] * 6 + [SILENCE], lexicon)
    # A host without speech is not "too short": builders must not skip it
    # silently under the same error.
    with pytest.raises(ValueError) as excinfo:
        target_alignment_from_host("open", [SILENCE] * 50, lexicon)
    assert not isinstance(excinfo.value, HostTooShortError)
    assert issubclass(HostTooShortError, ValueError)


def test_whitebox_builder_moves_past_a_host_too_short(monkeypatch, ds0):
    # Seed 1000's first host is too short for its command; the builder
    # must count that as a failed attempt and try the next host.
    from repro.datasets import builder

    skipped = []

    class RecordingAttack(WhiteBoxCarliniAttack):
        def run(self, host, target_text):
            try:
                return super().run(host, target_text)
            except HostTooShortError as exc:
                skipped.append(exc)
                raise

    monkeypatch.setattr(builder, "WhiteBoxCarliniAttack", RecordingAttack)
    samples = builder.build_whitebox_dataset(1, seed=1000)
    assert skipped, "seed 1000 no longer hits a host too short"
    [sample] = samples
    assert sample.label == 1
    command = sample.waveform.metadata["target_text"]
    assert ds0.transcribe(sample.waveform).text == command


def test_blackbox_builder_moves_past_a_host_too_short(monkeypatch):
    from types import SimpleNamespace

    from repro.datasets import builder

    hosts = []

    class ShortFirstHostAttack:
        def __init__(self, target_asr, seed):
            pass

        def run(self, host, target_text):
            hosts.append(host)
            if len(hosts) == 1:
                raise HostTooShortError("host audio too short")
            return SimpleNamespace(success=True, adversarial=host)

    monkeypatch.setattr(builder, "BlackBoxGeneticAttack", ShortFirstHostAttack)
    [sample] = builder.build_blackbox_dataset(1, seed=3)
    assert len(hosts) == 2
    assert sample.waveform is hosts[1]


def test_whitebox_requires_mfcc_frontend():
    from repro.asr.registry import build_asr

    with pytest.raises(TypeError):
        WhiteBoxCarliniAttack(build_asr("AT"))


def test_whitebox_attack_fools_target_but_not_auxiliaries(ds0, asr_suite, synthesizer):
    host = synthesizer.synthesize("the captain studied the map for a long time")
    command = "open the garage door"
    result = WhiteBoxCarliniAttack(ds0).run(host, command)
    assert result.success, f"attack failed: DS0 heard {result.transcription!r}"
    assert result.transcription == command
    assert result.similarity > 50.0
    # The AE must not transfer to any auxiliary model.
    for name in ("DS1", "GCS", "AT"):
        text = asr_suite[name].transcribe(result.adversarial).text
        assert word_error_rate(command, text) > 0.0, f"AE transferred to {name}"


def test_whitebox_result_metadata(ds0, synthesizer):
    host = synthesizer.synthesize("snow covered the roof of the little cabin")
    result = WhiteBoxCarliniAttack(ds0).run(host, "turn off the lights")
    assert result.adversarial.label == "whitebox-ae"
    assert result.adversarial.metadata["target_text"] == "turn off the lights"
    assert result.adversarial.metadata["host_text"] == host.text
    assert similarity_percent(host, result.adversarial) == pytest.approx(
        result.similarity)


def test_blackbox_attack_limits_payload_length(ds0, synthesizer):
    host = synthesizer.synthesize("the coffee is still warm")
    attack = BlackBoxGeneticAttack(ds0, seed=1)
    with pytest.raises(ValueError):
        attack.run(host, "open the front door now")


def test_blackbox_attack_runs_and_reports(ds0, synthesizer):
    host = synthesizer.synthesize("dinner will be ready soon")
    attack = BlackBoxGeneticAttack(ds0, seed=5)
    result = attack.run(host, "open door")
    assert result.adversarial.label == "blackbox-ae"
    assert 0 <= result.similarity <= 100
    assert isinstance(result.success, bool)
    # When the attack reports success, the target transcription matches.
    if result.success:
        assert result.transcription == "open door"


def test_nontargeted_example_degrades_wer(ds0, synthesizer, rng):
    host = synthesizer.synthesize("the museum is free on sundays")
    noisy = make_nontargeted_example(host, rng, target_asr=ds0)
    assert noisy.label == "nontargeted-ae"
    wer = word_error_rate(host.text, ds0.transcribe(noisy).text)
    assert wer >= 0.5
