"""The Waveform's read-only samples and its memoised content fingerprint.

Every content-cache key (transcriptions, front-end features) derives
from :attr:`Waveform.fingerprint`.  These tests spy on
its one hashing call site to pin "hash each clip once", and check the
immutability that keeps a memoised fingerprint from going stale.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.audio import waveform as waveform_module
from repro.audio.waveform import Waveform
from repro.caching import audio_fingerprint
from repro.core.detector import MVPEarsDetector
from repro.dsp.engine import FeatureEngine
from repro.dsp.feature_cache import FeatureCache
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.engine import TranscriptionEngine

SR = 16_000


@pytest.fixture
def hashes(monkeypatch) -> list[int]:
    """Records the length of every clip ``audio_fingerprint`` hashes."""
    calls: list[int] = []

    def spy(samples, sample_rate):
        calls.append(len(samples))
        return audio_fingerprint(samples, sample_rate)

    monkeypatch.setattr(waveform_module, "audio_fingerprint", spy)
    return calls


@pytest.fixture(scope="module")
def speech(synthesizer):
    return synthesizer.synthesize("open the front door").samples


def _fresh(samples: np.ndarray) -> Waveform:
    """A new Waveform (no memo yet) over a private copy of ``samples``."""
    return Waveform(np.array(samples), SR)


def _detector(asr_suite, workers: int) -> MVPEarsDetector:
    detector = MVPEarsDetector(
        asr_suite["DS0"], [asr_suite["DS1"], asr_suite["GCS"]],
        workers=workers, cache=TranscriptionCache(),
        feature_engine=FeatureEngine(cache=FeatureCache()))
    rng = np.random.default_rng(7)
    features = np.vstack([rng.uniform(0.85, 1.0, (40, 2)),
                          rng.uniform(0.0, 0.4, (40, 2))])
    labels = np.repeat([0, 1], 40)
    return detector.fit_features(features, labels)


# ------------------------------------------------------------ hash once
@pytest.mark.parametrize("workers", [0, 2])
def test_detect_hashes_a_new_clip_once_and_a_replay_never(
        asr_suite, speech, hashes, workers):
    detector = _detector(asr_suite, workers)
    try:
        wave = _fresh(speech)
        cold = detector.detect(wave)
        # Three suite members, two caches: one hash between them.
        assert hashes == [len(speech)]
        warm = detector.detect(wave)
        assert hashes == [len(speech)]
    finally:
        detector.close()
    assert warm.is_adversarial == cold.is_adversarial
    assert np.array_equal(warm.scores, cold.scores)


def test_batch_through_a_sample_arena_hashes_each_distinct_clip_once(
        asr_suite, speech, hashes):
    """A pooled batch with a repeated clip hashes each distinct clip once."""
    engine = TranscriptionEngine(
        asr_suite["DS0"], [asr_suite["DS1"]], workers=2,
        cache=TranscriptionCache(),
        feature_engine=FeatureEngine(cache=FeatureCache()))
    a, b = _fresh(speech), _fresh(speech[: len(speech) // 2])
    with engine:
        suites = engine.transcribe_batch([a, b, a])
    assert sorted(hashes) == sorted([len(a), len(b)])
    assert suites[0].target.text == suites[2].target.text


def test_rehoming_keeps_the_fingerprint(speech, hashes):
    """The fingerprint is memoised; a derived clip is new content."""
    wave = _fresh(speech)
    fingerprint = wave.fingerprint
    assert wave.fingerprint == fingerprint
    assert len(hashes) == 1
    # New samples are new content: hashed afresh.
    assert wave.clipped(0.1).fingerprint != fingerprint
    assert len(hashes) == 2


def test_fingerprint_is_the_pinned_content_hash(speech):
    wave = Waveform(speech, SR)
    assert wave.fingerprint == audio_fingerprint(speech, SR)
    assert Waveform(speech, 8_000).fingerprint != wave.fingerprint


# ----------------------------------------------------------- immutability
def test_samples_are_read_only():
    wave = Waveform(np.zeros(16), SR)
    assert wave.samples.flags.writeable is False
    with pytest.raises(ValueError):
        wave.samples[0] = 1.0


def test_writing_the_input_array_does_not_reach_the_waveform():
    given = np.random.default_rng(0).uniform(-1, 1, 400)
    original = given.copy()
    wave = Waveform(given, SR)
    fingerprint = wave.fingerprint
    given[:] = 0.0
    assert given.flags.writeable               # the caller's array is theirs
    assert np.array_equal(wave.samples, original)
    assert wave.fingerprint == fingerprint == audio_fingerprint(original, SR)
    # Before the first fingerprint, too: the copy was taken at ingest.
    late = Waveform(given, SR)
    given[:] = 1.0
    assert late.fingerprint == audio_fingerprint(np.zeros(400), SR)


def test_a_read_only_input_is_wrapped_without_a_copy():
    given = np.random.default_rng(1).uniform(-1, 1, 400)
    given.flags.writeable = False
    wave = Waveform(given, SR)
    assert wave.samples is given
    assert np.shares_memory(wave.samples, given)


def test_a_converted_input_is_frozen_without_a_second_copy():
    for given in ([0.0, 0.5, -0.5], np.arange(3, dtype=np.float32)):
        wave = Waveform(given, SR)
        assert wave.samples.flags.writeable is False
        assert wave.samples.flags.owndata


def test_writing_through_a_view_of_the_input_does_not_reach_the_waveform():
    base = np.zeros(800)
    wave = Waveform(base[:400], SR)
    base[:] = 1.0
    assert not wave.samples.any()


def test_pickling_keeps_samples_read_only_and_the_fingerprint():
    wave = Waveform(np.random.default_rng(2).uniform(-1, 1, 400), SR)
    fingerprint = wave.fingerprint
    restored = pickle.loads(pickle.dumps(wave))
    assert restored.samples.flags.writeable is False
    assert restored.fingerprint == fingerprint
    assert np.array_equal(restored.samples, wave.samples)
