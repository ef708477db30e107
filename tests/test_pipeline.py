"""Tests for the parallel transcription engine and batched detection pipeline."""

import numpy as np
import pytest

from repro.asr.base import ASRSystem, Transcription
from repro.audio.waveform import Waveform
from repro.core.detector import MVPEarsDetector
from repro.core.features import score_vectors
from repro.caching import audio_fingerprint
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.detection import DetectionPipeline
from repro.pipeline.engine import TranscriptionEngine, resolve_worker_count


class CountingASR(ASRSystem):
    """Deterministic stub ASR that counts real decodes."""

    def __init__(self, short_name="CNT", text="hello world"):
        self.name = f"Counting {short_name}"
        self.short_name = short_name
        self.text = text
        self.calls = 0

    def _transcribe_samples(self, samples, sample_rate):
        self.calls += 1
        return Transcription(text=self.text)


@pytest.fixture(scope="module")
def clips(synthesizer):
    sentences = (
        "the storm passed over the hills before sunset",
        "open the front door",
        "the captain studied the map for a long time",
    )
    return [synthesizer.synthesize(text) for text in sentences]


def _train(detector, rng):
    n_aux = detector.n_features
    features = np.vstack([rng.uniform(0.85, 1.0, (40, n_aux)),
                          rng.uniform(0.0, 0.4, (40, n_aux))])
    labels = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
    return detector.fit_features(features, labels)


# ----------------------------------------------------------------- engine


def test_parallel_matches_sequential_transcriptions(ds0, asr_suite, clips):
    auxiliaries = [asr_suite["DS1"], asr_suite["GCS"]]
    sequential = TranscriptionEngine(ds0, auxiliaries, workers=0, cache=False)
    parallel = TranscriptionEngine(ds0, auxiliaries, workers=3, cache=False)
    with parallel:
        for clip in clips:
            a = sequential.transcribe(clip)
            b = parallel.transcribe(clip)
            assert a.target.text == b.target.text
            assert a.auxiliary_texts == b.auxiliary_texts


def test_parallel_matches_sequential_verdicts(ds0, asr_suite, clips, rng):
    auxiliaries = [asr_suite["DS1"], asr_suite["GCS"]]
    seq = _train(MVPEarsDetector(ds0, auxiliaries, workers=0, cache=False), rng)
    par = _train(MVPEarsDetector(ds0, auxiliaries, workers=3, cache=False), rng)
    for clip in clips:
        a, b = seq.detect(clip), par.detect(clip)
        assert a.is_adversarial == b.is_adversarial
        assert np.allclose(a.scores, b.scores)
        assert a.target_transcription == b.target_transcription


def test_workers_zero_uses_no_pool(ds0, asr_suite, clips):
    engine = TranscriptionEngine(ds0, [asr_suite["DS1"]], workers=0, cache=False)
    suite = engine.transcribe(clips[0])
    assert engine._pool is None
    assert suite.target.text
    assert set(suite.auxiliaries) == {"DS1"}
    assert suite.wall_seconds > 0
    assert engine.transcribe_batch([]) == []


def test_engine_validates_workers(ds0, asr_suite):
    with pytest.raises(ValueError):
        TranscriptionEngine(ds0, [asr_suite["DS1"]], workers=-1)


def test_resolve_worker_count(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "6")
    assert resolve_worker_count() == 6
    assert resolve_worker_count(n_tasks=2) == 2
    monkeypatch.delenv("REPRO_WORKERS")
    assert resolve_worker_count() >= 1


def test_batch_matches_per_clip(ds0, asr_suite, clips):
    engine = TranscriptionEngine(ds0, [asr_suite["DS1"]], workers=2, cache=False)
    batch = engine.transcribe_batch(clips)
    assert len(batch) == len(clips)
    for clip, suite in zip(clips, batch):
        single = engine.transcribe(clip)
        assert suite.target.text == single.target.text
        assert suite.auxiliary_texts == single.auxiliary_texts


# ------------------------------------------------------------------ cache


def test_fingerprint_depends_on_content_only(clips):
    same = clips[0].with_label("adversarial")
    first, other = clips[0], clips[1]
    assert (audio_fingerprint(first.samples, first.sample_rate)
            == audio_fingerprint(same.samples, same.sample_rate))
    assert (audio_fingerprint(first.samples, first.sample_rate)
            != audio_fingerprint(other.samples, other.sample_rate))


def test_engine_cache_hit_on_repeat(ds0, asr_suite, clips):
    cache = TranscriptionCache()
    engine = TranscriptionEngine(ds0, [asr_suite["DS1"], asr_suite["GCS"]],
                                 workers=2, cache=cache)
    first = engine.transcribe(clips[0])
    assert (first.cache_hits, first.cache_misses) == (0, 3)
    second = engine.transcribe(clips[0])
    assert (second.cache_hits, second.cache_misses) == (3, 0)
    assert second.target.text == first.target.text
    assert cache.stats.hits == 3 and cache.stats.misses == 3
    assert cache.stats.hit_rate == 0.5


def test_repeated_detection_hits_cache(ds0, asr_suite, clips, rng):
    cache = TranscriptionCache()
    detector = _train(MVPEarsDetector(ds0, [asr_suite["DS1"]], workers=2,
                                      cache=cache), rng)
    detector.detect(clips[0])
    misses_after_first = cache.stats.misses
    detector.detect(clips[0])
    assert cache.stats.misses == misses_after_first
    assert cache.stats.hits >= 2  # target + auxiliary both served from cache


def test_duplicate_clips_in_batch_decode_once(clips):
    asr = CountingASR()
    engine = TranscriptionEngine(asr, [], workers=2, cache=TranscriptionCache())
    suites = engine.transcribe_batch([clips[0], clips[0], clips[0]])
    assert asr.calls == 1  # single-flight: concurrent duplicates coalesce
    assert all(suite.target.text == "hello world" for suite in suites)


def test_cache_key_distinguishes_same_short_name():
    a = CountingASR(short_name="X", text="from a")
    a.name = "variant a"
    b = CountingASR(short_name="X", text="from b")
    b.name = "variant b"
    cache = TranscriptionCache()
    engine_a = TranscriptionEngine(a, [], workers=0, cache=cache)
    engine_b = TranscriptionEngine(b, [], workers=0, cache=cache)
    clip = Waveform(np.linspace(-0.1, 0.1, 400))
    assert engine_a.transcribe(clip).target.text == "from a"
    assert engine_b.transcribe(clip).target.text == "from b"
    assert b.calls == 1  # not served a's cached transcription


def test_cache_lru_eviction():
    cache = TranscriptionCache(capacity=2)
    for key in ("a", "b", "c"):
        cache.put(key, Transcription(text=key))
    assert len(cache) == 2
    assert cache.get("a") is None
    assert cache.get("c").text == "c"


def test_cache_disk_round_trip(tmp_path, clips):
    asr = CountingASR()
    path = str(tmp_path / "transcriptions.json")
    engine = TranscriptionEngine(asr, [], workers=0,
                                 cache=TranscriptionCache(path=path))
    engine.transcribe(clips[0])
    assert asr.calls == 1
    engine.save_cache()

    # A new process would construct a fresh cache from the same file and
    # never touch the decoder again.
    reloaded = TranscriptionEngine(asr, [], workers=0,
                                   cache=TranscriptionCache(path=path))
    suite = reloaded.transcribe(clips[0])
    assert asr.calls == 1
    assert suite.target.text == "hello world"
    assert suite.cache_hits == 1


# --------------------------------------------------------------- pipeline


def test_pipeline_timing_keys_and_predictions(ds0, asr_suite, clips, rng):
    detector = _train(MVPEarsDetector(ds0, [asr_suite["DS1"], asr_suite["GCS"]],
                                      workers=2, cache=False), rng)
    pipeline = DetectionPipeline(detector)
    batch = pipeline.detect_batch(clips)
    assert set(batch.stage_seconds) == {"recognition", "similarity",
                                        "classification", "total"}
    assert len(batch) == len(clips)
    assert batch.features.shape == (len(clips), 2)
    for result in batch.results:
        assert set(result.timing) >= {"recognition", "recognition_overhead",
                                      "similarity", "classification"}
    # Batched verdicts agree with per-clip detection.
    for clip, result in zip(clips, batch.results):
        assert result.is_adversarial == detector.detect(clip).is_adversarial
    assert batch.n_adversarial == int(np.sum(batch.predictions == 1))
    means = batch.mean_stage_seconds()
    assert means["total"] == pytest.approx(batch.stage_seconds["total"] / len(clips))


def test_pipeline_empty_batch(ds0, asr_suite, rng):
    detector = _train(MVPEarsDetector(ds0, [asr_suite["DS1"]], workers=0,
                                      cache=False), rng)
    batch = DetectionPipeline(detector).detect_batch([])
    assert len(batch) == 0
    assert batch.stage_seconds["total"] == 0.0


def test_score_vectors_through_engine_matches_manual(ds0, asr_suite, clips):
    auxiliaries = [asr_suite["DS1"], asr_suite["GCS"]]
    engine = TranscriptionEngine(ds0, auxiliaries, workers=2, cache=False)
    via_engine = score_vectors(clips, ds0, auxiliaries, engine=engine)
    sequential = score_vectors(clips, ds0, auxiliaries, workers=0)
    assert np.allclose(via_engine, sequential)
    assert via_engine.shape == (len(clips), 2)
