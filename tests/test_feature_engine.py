"""Tests for the feature engine, the feature cache, and their wiring.

Covers the cache itself (LRU order, eviction accounting, the ``.npz``
disk round-trip), cross-suite-member sharing (two front ends with equal
configuration tags hit one entry), the spec / CLI / env configuration
surface (``pipeline.features``), and the headline guarantee: a detector
with the feature engine on produces *identical* verdicts and scores to
one with it off, on all four execution paths — sequential detection,
the batched pipeline, streaming, and the transform ensemble.
"""

import json

import numpy as np
import pytest

from repro.asr.base import Transcription
from repro.audio.waveform import Waveform
from repro.cli import main
from repro.core.detector import MVPEarsDetector
from repro.defenses.ensemble import TransformEnsembleDetector
from repro.defenses.transforms import parse_transforms
from repro.dsp.engine import (
    FeatureEngine,
    get_shared_feature_cache,
    resolve_feature_cache,
)
from repro.caching import audio_fingerprint
from repro.dsp.feature_cache import FeatureCache
from repro.dsp.features import LogMelFeatureExtractor, MfccFeatureExtractor
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.detection import DetectionPipeline
from repro.serving.chunker import StreamConfig
from repro.serving.streaming import StreamingDetector
from repro.similarity.score_cache import PairScoreCache
from repro.specs import DetectorSpec, FeaturesSpec, InvalidSpecError

SR = 16_000


def _clip(seed: int, length: int = 1200) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=length)


# -------------------------------------------------------------- cache basics
def test_cache_key_includes_tag_and_content():
    samples = _clip(0)
    key = FeatureCache.key_for("mfcc:test", samples, SR)
    assert key == f"mfcc:test:{audio_fingerprint(samples, SR)}"
    assert key != FeatureCache.key_for("lpc:test", samples, SR)
    assert key != FeatureCache.key_for("mfcc:test", samples, 8_000)
    assert key == FeatureCache.clip_key("mfcc:test", Waveform(samples, SR))


# One value per cache kind: the LRU and its accounting are shared code.
_CACHE_VALUES = {
    FeatureCache: lambda i: np.full((2, 2), float(i)),
    PairScoreCache: lambda i: i / 4.0,
    TranscriptionCache: lambda i: Transcription(text=f"text {i}"),
}


@pytest.mark.parametrize("cache_type", list(_CACHE_VALUES),
                         ids=lambda cache_type: cache_type.__name__)
def test_cache_hit_miss_and_lru_eviction(cache_type):
    value = _CACHE_VALUES[cache_type]
    cache = cache_type(capacity=2)
    assert cache.get("a") is None                      # miss
    cache.put("a", value(1))
    cache.put("b", value(0))
    assert cache.get("a") is not None                  # "a" now most recent
    cache.put("c", value(2))                           # evicts LRU "b"
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.evictions == 1
    assert cache.stats.lookups == 2
    assert cache.stats.hit_rate == 0.5


def test_cache_entries_are_frozen_copies():
    cache = FeatureCache()
    original = np.ones((2, 3))
    cache.put("k", original)
    original[:] = 7.0                                  # caller keeps mutating
    stored = cache.get("k")
    assert np.array_equal(stored, np.ones((2, 3)))
    with pytest.raises(ValueError):
        stored[0, 0] = 9.0                             # read-only entry


def test_cache_clear_resets_stats():
    cache = FeatureCache()
    cache.put("k", np.ones(3))
    cache.get("k")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.lookups == 0
    assert cache.stats.hit_rate == 0.0


def test_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        FeatureCache(capacity=0)


# ---------------------------------------------------------- disk round-trip
def test_cache_disk_round_trip(tmp_path):
    path = str(tmp_path / "features.npz")
    cache = FeatureCache(path=path)
    matrices = {f"key_{i}": np.random.default_rng(i).standard_normal((4, 3))
                for i in range(3)}
    for key, value in matrices.items():
        cache.put(key, value)
    assert cache.save() == path

    reloaded = FeatureCache(path=path)                 # eager load
    assert len(reloaded) == 3
    for key, value in matrices.items():
        assert np.array_equal(reloaded.get(key), value)

    merged = FeatureCache()
    assert merged.load(path) == 3
    assert np.array_equal(merged.get("key_0"), matrices["key_0"])


def test_cache_save_without_path_raises():
    with pytest.raises(ValueError):
        FeatureCache().save()


# ------------------------------------------------------------ policy surface
def test_resolve_feature_cache_policies(tmp_path):
    assert resolve_feature_cache("shared") is get_shared_feature_cache()
    assert resolve_feature_cache(True) is get_shared_feature_cache()
    assert resolve_feature_cache("off") is None
    assert resolve_feature_cache(False) is None
    assert resolve_feature_cache(None) is None
    private = resolve_feature_cache("private")
    assert isinstance(private, FeatureCache)
    assert private is not get_shared_feature_cache()
    path = str(tmp_path / "store.npz")
    on_disk = resolve_feature_cache(path)
    assert on_disk.path == path
    instance = FeatureCache()
    assert resolve_feature_cache(instance) is instance
    with pytest.raises(ValueError):
        resolve_feature_cache("bogus-policy")


# ------------------------------------------------------------ feature engine
def test_engine_caches_and_shares_across_equal_tags():
    cache = FeatureCache()
    engine = FeatureEngine(cache=cache)
    audio = Waveform(_clip(1), SR)
    first = MfccFeatureExtractor()
    twin = MfccFeatureExtractor()                       # same configuration
    assert first.cache_tag == twin.cache_tag
    computed = engine.features(first, audio)
    assert cache.stats.misses == 1
    shared = engine.features(twin, audio)               # cross-member share
    assert cache.stats.hits == 1
    assert np.array_equal(computed, shared)
    assert np.array_equal(computed, first.transform(audio.samples))


def test_engine_distinct_tags_do_not_collide():
    cache = FeatureCache()
    engine = FeatureEngine(cache=cache)
    audio = Waveform(_clip(2), SR)
    mfcc = engine.features(MfccFeatureExtractor(), audio)
    logmel = engine.features(LogMelFeatureExtractor(), audio)
    assert cache.stats.misses == 2
    assert mfcc.shape != logmel.shape


def test_engine_skips_untagged_extractors():
    class Anonymous(MfccFeatureExtractor):
        @property
        def cache_tag(self):
            return None

    cache = FeatureCache()
    engine = FeatureEngine(cache=cache)
    engine.features(Anonymous(), Waveform(_clip(3), SR))
    assert len(cache) == 0
    assert cache.stats.lookups == 0


def test_engine_without_cache_reports_zero_stats():
    engine = FeatureEngine(cache=None)
    engine.features(MfccFeatureExtractor(), Waveform(_clip(4), SR))
    assert engine.stats.lookups == 0


def test_prewarm_dedupes_and_feeds_later_lookups():
    cache = FeatureCache()
    engine = FeatureEngine(cache=cache)
    extractor = MfccFeatureExtractor()
    a, b = Waveform(_clip(5), SR), Waveform(_clip(6, length=900), SR)
    computed = engine.prewarm(extractor, [a, b, a])
    assert computed == 2                                # duplicate a deduped
    before_hits = cache.stats.hits
    assert np.array_equal(engine.features(extractor, a),
                          extractor.transform(a.samples))
    assert np.array_equal(engine.features(extractor, b),
                          extractor.transform(b.samples))
    assert cache.stats.hits == before_hits + 2
    assert engine.prewarm(extractor, [a, b]) == 0       # already warm


# ------------------------------------------------------------- spec surface
def test_features_spec_round_trip_and_defaults():
    spec = DetectorSpec()
    assert spec.pipeline.features == FeaturesSpec(backend="fast",
                                                  cache="shared")
    assert DetectorSpec.from_dict(spec.to_dict()) == spec
    custom = DetectorSpec.from_dict(
        {"pipeline": {"features": {"backend": "off", "cache": "off"}}})
    assert custom.pipeline.features.backend == "off"
    assert custom.pipeline.features.cache == "off"


def test_features_spec_validation():
    bad = DetectorSpec.from_dict(
        {"pipeline": {"features": {"backend": "warp", "cache": "sideways"}}})
    problems = bad.problems()
    assert any("features.backend" in problem for problem in problems)
    assert any("features.cache" in problem for problem in problems)
    with pytest.raises(InvalidSpecError):
        bad.validate()
    with pytest.raises(InvalidSpecError):
        DetectorSpec.from_dict({"pipeline": {"features": {"nope": 1}}})


def test_features_spec_path_policy_is_valid():
    spec = DetectorSpec.from_dict(
        {"pipeline": {"features": {"cache": "/tmp/features.npz"}}})
    assert spec.problems() == []


def test_feature_flags_reach_the_spec(capsys):
    assert main(["config", "show", "--feature-backend", "off",
                 "--feature-cache", "private"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pipeline"]["features"] == {"backend": "off",
                                               "cache": "private"}
    # The per-clip "reference" path is a test oracle, not an option.
    with pytest.raises(SystemExit):
        main(["config", "show", "--feature-backend", "reference"])
    capsys.readouterr()


def test_feature_env_overlays(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FEATURE_BACKEND", "off")
    monkeypatch.setenv("REPRO_FEATURE_CACHE", "off")
    assert main(["config", "show"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pipeline"]["features"] == {"backend": "off",
                                               "cache": "off"}


def test_build_feature_engine_off_returns_none():
    from repro.build import build_feature_engine

    assert build_feature_engine(FeaturesSpec(backend="off")) is None
    engine = build_feature_engine(FeaturesSpec(backend="fast",
                                               cache="private"))
    assert isinstance(engine, FeatureEngine)


# ----------------------------------------------------- four-path detector parity
def _train(detector, rng):
    n_aux = detector.n_features
    features = np.vstack([rng.uniform(0.85, 1.0, (40, n_aux)),
                          rng.uniform(0.0, 0.4, (40, n_aux))])
    labels = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
    return detector.fit_features(features, labels)


@pytest.fixture(scope="module")
def parity_clips(synthesizer):
    sentences = ("open the front door",
                 "the storm passed over the hills before sunset")
    return [synthesizer.synthesize(text) for text in sentences]


@pytest.fixture(scope="module")
def detector_pair(ds0, asr_suite, rng):
    """The same trained detector with the feature engine off and on."""
    def build(feature_engine):
        return _train(
            MVPEarsDetector(ds0, [asr_suite["DS1"], asr_suite["GCS"]],
                            workers=0, cache=False,
                            feature_engine=feature_engine),
            np.random.default_rng(7))
    return (build(None),
            build(FeatureEngine(cache=FeatureCache())))


def _assert_same_result(plain, fast):
    assert plain.is_adversarial == fast.is_adversarial
    assert np.array_equal(plain.scores, fast.scores)
    assert plain.target_transcription == fast.target_transcription
    assert plain.auxiliary_transcriptions == fast.auxiliary_transcriptions


def test_sequential_detection_parity(detector_pair, parity_clips):
    plain, fast = detector_pair
    for clip in parity_clips:
        _assert_same_result(plain.detect(clip), fast.detect(clip))


def test_batched_pipeline_parity(detector_pair, parity_clips):
    plain, fast = detector_pair
    batch_plain = DetectionPipeline(plain).detect_batch(parity_clips)
    batch_fast = DetectionPipeline(fast).detect_batch(parity_clips)
    assert np.array_equal(batch_plain.features, batch_fast.features)
    assert np.array_equal(batch_plain.predictions, batch_fast.predictions)
    # The fast pipeline actually exercised the feature cache (decoding
    # hits entries the batch prewarm — or an earlier test — filled in).
    assert batch_fast.feature_cache_hits > 0
    assert batch_plain.feature_cache_misses == 0
    assert batch_plain.feature_cache_hits == 0


def test_streamed_detection_parity(detector_pair):
    plain, fast = detector_pair
    stream = Waveform(np.concatenate([_clip(8, SR), _clip(9, SR)]),
                      sample_rate=SR)
    config = StreamConfig(window_seconds=1.0, hop_seconds=0.5)
    result_plain = StreamingDetector(plain, config=config).detect_stream(stream)
    result_fast = StreamingDetector(fast, config=config).detect_stream(stream)
    assert len(result_plain.windows) == len(result_fast.windows)
    for window_plain, window_fast in zip(result_plain.windows,
                                         result_fast.windows):
        assert window_plain.is_adversarial == window_fast.is_adversarial
        assert np.array_equal(window_plain.scores, window_fast.scores)
    assert result_plain.is_adversarial == result_fast.is_adversarial


def test_transform_ensemble_parity(ds0, parity_clips):
    transforms = parse_transforms("quantize:6,resample:8000")
    rng_seed = 7

    def build(feature_engine):
        return _train(
            TransformEnsembleDetector(ds0, transforms=transforms,
                                      workers=0, cache=False,
                                      feature_engine=feature_engine),
            np.random.default_rng(rng_seed))

    plain = build(None)
    cache = FeatureCache()
    fast = build(FeatureEngine(cache=cache))
    for clip in parity_clips:
        _assert_same_result(plain.detect(clip), fast.detect(clip))
    # Transformed views must decode their own (transformed) samples, so
    # only the raw target decodes go through the feature engine.
    assert cache.stats.misses == len(parity_clips)
