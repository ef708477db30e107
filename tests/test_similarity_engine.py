"""Tests for the batch scoring engine: kernels, engine, pair cache.

The engine's contract is scores *bit-identical* to the scalar oracle in
``tests/oracles/scoring.py`` — every assertion on values here is ``==``
on floats, not ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.scoring import ReferenceScoringBackend, ScalarSimilarityEngine
from repro.similarity.engine import (
    ScoreBatchReport,
    SimilarityEngine,
    get_shared_score_cache,
    resolve_score_cache,
)
from repro.similarity.kernels import (
    VECTORIZE_MIN_TOKENS,
    cosine_from_counts,
    edit_distance_fast,
    jaccard_from_sets,
    jaro_similarity_fast,
    jaro_winkler_similarity_fast,
    levenshtein_ratio_fast,
    token_counts,
)
from repro.similarity.score_cache import PairScoreCache
from repro.similarity.scorer import (
    SIMILARITY_METHODS,
    SimilarityScorer,
    get_scorer,
)
from repro.similarity.string_metrics import (
    cosine_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_ratio,
)
from repro.text.metrics import edit_distance
from repro.text.normalize import tokenize

# Unrestricted unicode exercises the kernels on inputs far beyond what
# the ASRs emit; the word-ish alphabet produces realistic token overlap.
_any_text = st.text(max_size=40)
_wordish = st.text(alphabet="abcdefgh ", max_size=40)

_ALL_METHODS = (*SIMILARITY_METHODS, "Levenshtein", "PE_Levenshtein")


# ------------------------------------------------------------ kernel parity
@given(_any_text, _any_text)
def test_edit_distance_fast_bit_identical(a, b):
    assert edit_distance_fast(a, b) == edit_distance(a, b)


@given(_any_text, _any_text)
def test_jaro_kernels_bit_identical(a, b):
    assert jaro_similarity_fast(a, b) == jaro_similarity(a, b)
    assert jaro_winkler_similarity_fast(a, b) == jaro_winkler_similarity(a, b)


@given(_any_text, _any_text)
def test_levenshtein_ratio_fast_bit_identical(a, b):
    assert levenshtein_ratio_fast(a, b) == levenshtein_ratio(a, b)


@given(_wordish, _wordish)
def test_token_kernels_bit_identical(a, b):
    counts_a, norm_a = token_counts(tokenize(a))
    counts_b, norm_b = token_counts(tokenize(b))
    assert cosine_from_counts(counts_a, norm_a,
                              counts_b, norm_b) == cosine_similarity(a, b)
    assert jaccard_from_sets(frozenset(counts_a),
                             frozenset(counts_b)) == jaccard_similarity(a, b)


def test_cosine_vectorized_branch_bit_identical():
    # Token sets large enough to take the numpy path.
    rng = np.random.default_rng(5)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocabulary = [letters[i % 26] + letters[(i // 26) % 26] + letters[i % 13]
                  for i in range(3 * VECTORIZE_MIN_TOKENS)]
    a = " ".join(rng.choice(vocabulary, size=6 * VECTORIZE_MIN_TOKENS))
    b = " ".join(rng.choice(vocabulary, size=6 * VECTORIZE_MIN_TOKENS))
    counts_a, norm_a = token_counts(tokenize(a))
    counts_b, norm_b = token_counts(tokenize(b))
    assert min(len(counts_a), len(counts_b)) >= VECTORIZE_MIN_TOKENS
    assert cosine_from_counts(counts_a, norm_a,
                              counts_b, norm_b) == cosine_similarity(a, b)


def test_jaro_winkler_fast_validates_prefix_scale():
    with pytest.raises(ValueError):
        jaro_winkler_similarity_fast("a", "a", prefix_scale=0.5)


# ------------------------------------------------------------ oracle parity
@settings(max_examples=40)
@given(_wordish, _wordish)
def test_fast_backend_bit_identical_all_methods(a, b):
    reference = ReferenceScoringBackend()
    for method in _ALL_METHODS:
        scorer = get_scorer(method)
        fast = SimilarityEngine(scorer=scorer, cache=False)
        assert (fast.score_pairs([(a, b)])[0]
                == reference.score_pairs(scorer, [(a, b)])[0]
                == scorer.score(a, b))


@settings(max_examples=20)
@given(st.lists(st.tuples(_any_text, _any_text), max_size=12))
def test_fast_backend_batch_matches_reference(pairs):
    scorer = get_scorer()
    fast = SimilarityEngine(scorer=scorer, cache=False).score_pairs(pairs)
    reference = ReferenceScoringBackend().score_pairs(scorer, pairs)
    assert fast.dtype == np.float64 and fast.shape == (len(pairs),)
    assert np.array_equal(fast, reference)


def test_metric_without_a_kernel_falls_back_to_scorer_score():
    class Constant(SimilarityScorer):
        def score(self, text_a, text_b):
            return 0.25

    engine = SimilarityEngine(scorer=Constant("Constant", "Constant", False),
                              cache=False)
    values = engine.score_pairs([("open", "door"), ("a", "b")])
    assert values.dtype == np.float64
    assert values.tolist() == [0.25, 0.25]


# ------------------------------------------------------------- score cache
def test_pair_score_cache_hit_miss_and_lru_eviction():
    cache = PairScoreCache(capacity=2)
    key = PairScoreCache.key_for
    assert cache.get(key("t", "a", "b")) is None
    cache.put(key("t", "a", "b"), 0.25)
    cache.put(key("t", "a", "c"), 0.5)
    assert cache.get(key("t", "a", "b")) == 0.25          # refreshes LRU order
    cache.put(key("t", "a", "d"), 0.75)                   # evicts ("a","c")
    assert cache.get(key("t", "a", "c")) is None
    assert cache.get(key("t", "a", "b")) == 0.25
    assert len(cache) == 2
    assert cache.stats.hits == 2 and cache.stats.misses == 2
    assert cache.stats.evictions == 1
    assert cache.stats.hit_rate == 0.5
    cache.clear()
    assert len(cache) == 0 and cache.stats.lookups == 0
    with pytest.raises(ValueError):
        PairScoreCache(capacity=0)


def test_pair_score_cache_keys_are_content_and_direction_aware():
    key = PairScoreCache.key_for
    assert key("t", "a", "b") != key("t", "b", "a")
    assert key("t", "a", "b") != key("u", "a", "b")
    assert key("t", "ab", "c") != key("t", "a", "bc")


def test_pair_score_cache_disk_round_trip(tmp_path):
    path = str(tmp_path / "scores.json")
    cache = PairScoreCache(capacity=8, path=path)
    key = PairScoreCache.key_for("tag", "hello there", "hello their")
    cache.put(key, 0.875)
    assert cache.save() == path

    reloaded = PairScoreCache(capacity=8, path=path)
    assert len(reloaded) == 1
    assert reloaded.get(key) == 0.875

    merged = PairScoreCache(capacity=8)
    assert merged.load(path) == 1
    assert merged.get(key) == 0.875
    with pytest.raises(ValueError):
        PairScoreCache().save()


# ------------------------------------------------------------------- engine
def test_engine_score_apis_agree_and_are_float64():
    engine = SimilarityEngine(cache=PairScoreCache())
    target = "open the front door"
    auxiliaries = ["open the front door", "open a front tour", ""]
    vector = engine.score_texts(target, auxiliaries)
    assert vector.dtype == np.float64 and vector.shape == (3,)
    pairs = engine.score_pairs([(target, text) for text in auxiliaries])
    assert np.array_equal(vector, pairs)
    for text, value in zip(auxiliaries, vector):
        assert engine.score_pair(target, text) == value
    assert engine.score_pairs([]).shape == (0,)


def test_engine_cache_reporting_and_sharing():
    cache = PairScoreCache()
    first = SimilarityEngine(cache=cache)
    second = SimilarityEngine(cache=cache)
    pairs = [("open the door", "open the door"),
             ("open the door", "shut the window")]
    _, report = first.score_pairs_report(pairs)
    assert report == ScoreBatchReport(cache_hits=0, cache_misses=2)
    _, report = second.score_pairs_report(pairs)          # shared cache hits
    assert report == ScoreBatchReport(cache_hits=2, cache_misses=0)
    assert report.hit_rate == 1.0
    # Cache off: every pair is a miss and nothing is stored.
    bare = SimilarityEngine(cache=False)
    _, report = bare.score_pairs_report(pairs)
    assert report.cache_misses == 2 and bare.stats.lookups == 0
    with pytest.raises(RuntimeError):
        bare.save_cache()


def test_duplicate_misses_are_computed_once_per_call(monkeypatch):
    calls = []
    engine = SimilarityEngine(cache=PairScoreCache())
    compute = engine._compute

    def counting(pairs):
        calls.append(len(pairs))
        return compute(pairs)

    monkeypatch.setattr(engine, "_compute", counting)
    pair = ("open the door", "open the tour")
    values, report = engine.score_pairs_report([pair, pair, pair])
    assert calls == [1]                       # deduplicated before computing
    assert report.cache_misses == 3 and report.cache_hits == 0
    assert values[0] == values[1] == values[2] == get_scorer().score(*pair)
    _, report = engine.score_pairs_report([pair])
    assert report.cache_hits == 1


def test_engine_accepts_scorer_names_and_instances():
    assert SimilarityEngine().scorer.name == "PE_JaroWinkler"
    assert SimilarityEngine(scorer="Cosine").scorer is get_scorer("Cosine")
    assert SimilarityEngine(scorer=get_scorer("Jaccard")).scorer.name == "Jaccard"
    with pytest.raises(KeyError):
        SimilarityEngine(scorer="nope")


def test_resolve_score_cache(tmp_path):
    assert resolve_score_cache(True) is True
    assert resolve_score_cache(False) is False
    assert resolve_score_cache(None) is False
    assert resolve_score_cache("off") is False
    assert resolve_score_cache("shared") is True
    private = resolve_score_cache("private")
    assert isinstance(private, PairScoreCache) and private.path is None
    path = str(tmp_path / "store.json")
    on_disk = resolve_score_cache(path)
    assert isinstance(on_disk, PairScoreCache) and on_disk.path == path
    existing = PairScoreCache()
    assert resolve_score_cache(existing) is existing
    with pytest.raises(KeyError):
        resolve_score_cache("sharde")        # typo, not a path


def test_shared_score_cache_is_process_wide():
    engine = SimilarityEngine()
    assert engine.cache is get_shared_score_cache()
    assert SimilarityEngine().cache is engine.cache


def test_scorer_cache_tag_distinguishes_configuration():
    assert get_scorer("Cosine").cache_tag != get_scorer("PE_Cosine").cache_tag
    assert get_scorer("Cosine").cache_tag != get_scorer("Jaccard").cache_tag


# ------------------------------------------------------ features layer glue
def test_scores_from_transcriptions_dtype_is_float64():
    from repro.core.features import scores_from_transcriptions

    vector = scores_from_transcriptions("open the door",
                                        ["open the door", "shut it"])
    assert vector.dtype == np.float64
    assert vector[0] == 1.0
    empty = scores_from_transcriptions("open the door", [])
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_suite_scoring_matches_scalar_path():
    """score_suites over engine suites == the seed per-pair scalar path."""
    from repro.asr.registry import build_asr, get_shared_lexicon
    from repro.audio.synthesis import SpeechSynthesizer
    from repro.pipeline.engine import TranscriptionEngine
    from repro.text.corpus import attack_command_corpus

    rng = np.random.default_rng(3)
    synthesizer = SpeechSynthesizer(lexicon=get_shared_lexicon(), seed=3)
    phrases = attack_command_corpus().sample(3, rng)
    audios = [synthesizer.synthesize(phrase) for phrase in phrases]
    target = build_asr("DS0")
    auxiliaries = [build_asr("DS1"), build_asr("GCS")]
    with TranscriptionEngine(target, auxiliaries, workers=0) as engine:
        suites = engine.transcribe_batch(audios)

    scorer = get_scorer()
    expected = np.array([
        [scorer.score(suite.target.text, suite.auxiliaries[aux.short_name].text)
         for aux in auxiliaries]
        for suite in suites], dtype=np.float64)
    for engine_type in (SimilarityEngine, ScalarSimilarityEngine):
        scoring = engine_type(cache=PairScoreCache())
        matrix = scoring.score_suites(suites, auxiliaries)
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, expected)


def test_features_for_recompute_honours_the_scoring_engine():
    """The dataset recompute path uses the caller's engine (its scorer
    and cache policy), not a fresh default one."""
    from repro.datasets.scores import ScoredDataset

    dataset = ScoredDataset(
        labels=np.array([0, 1]),
        kinds=["benign", "whitebox-ae"],
        target_texts=["open the door", "open the door"],
        auxiliary_texts={"DS1": ["open the door", "no one there"],
                         "GCS": ["open a door", "nobody here"],
                         "AT": ["open the door", "none of it"]},
        method="PE_JaroWinkler",
        scores=np.zeros((2, 3)))
    private = PairScoreCache()
    engine = SimilarityEngine(scorer="Cosine", cache=private)
    shared_lookups_before = get_shared_score_cache().stats.lookups
    features, labels = dataset.features_for(("DS1", "GCS"), method="Cosine",
                                            scoring=engine)
    assert features.shape == (2, 2) and labels.shape == (2,)
    assert private.stats.misses == 4                     # went through `engine`
    assert get_shared_score_cache().stats.lookups == shared_lookups_before
    scorer = get_scorer("Cosine")
    assert features[0, 0] == scorer.score("open the door", "open the door")
    assert features[1, 1] == scorer.score("open the door", "nobody here")


# ---------------------------------------------- oracle parity, end to end
def test_backend_parity_across_detection_paths():
    """The engine and the scalar oracle produce bit-identical score
    vectors on the sequential, batched, streamed and transform-ensemble
    paths."""
    from repro import (
        DetectionPipeline,
        MVPEarsDetector,
        StreamConfig,
        StreamingDetector,
        TransformEnsembleDetector,
        parse_transforms,
    )
    from repro.asr.registry import build_asr, get_shared_lexicon
    from repro.audio.synthesis import SpeechSynthesizer
    from repro.pipeline.cache import TranscriptionCache

    synthesizer = SpeechSynthesizer(lexicon=get_shared_lexicon(), seed=9)
    clips = [synthesizer.synthesize(text)
             for text in ("open the front door", "turn off all the lights",
                          "play some quiet music")]
    stream_audio = clips[0].with_samples(
        np.concatenate([clip.samples for clip in clips]))
    shared_transcriptions = TranscriptionCache()

    def fitted(engine_type, transform_ensemble):
        scoring = engine_type(cache=PairScoreCache())
        if transform_ensemble:
            detector = TransformEnsembleDetector(
                build_asr("DS0"),
                transforms=parse_transforms("quantize:8,lowpass:3000"),
                workers=0, cache=shared_transcriptions, scoring=scoring)
        else:
            detector = MVPEarsDetector(
                build_asr("DS0"), [build_asr("DS1"), build_asr("GCS")],
                workers=0, cache=shared_transcriptions, scoring=scoring)
        n = detector.n_features
        features = np.vstack([np.full((4, n), 0.95), np.full((4, n), 0.05)])
        return detector.fit_features(features, np.array([0] * 4 + [1] * 4))

    for transform_ensemble in (False, True):
        fast = fitted(SimilarityEngine, transform_ensemble)
        reference = fitted(ScalarSimilarityEngine, transform_ensemble)

        sequential_fast = [fast.detect(clip).scores for clip in clips]
        sequential_reference = [reference.detect(clip).scores
                                for clip in clips]
        assert np.array_equal(np.array(sequential_fast),
                              np.array(sequential_reference))

        batch_fast = DetectionPipeline(fast).detect_batch(clips)
        batch_reference = DetectionPipeline(reference).detect_batch(clips)
        assert np.array_equal(batch_fast.features, batch_reference.features)
        assert np.array_equal(batch_fast.features,
                              np.array(sequential_reference))

        config = StreamConfig(window_seconds=1.0, hop_seconds=0.5)
        stream_fast = StreamingDetector(fast, config=config) \
            .detect_stream(stream_audio)
        stream_reference = StreamingDetector(reference, config=config) \
            .detect_stream(stream_audio)
        assert len(stream_fast) == len(stream_reference) > 0
        assert np.array_equal(
            np.array([window.scores for window in stream_fast.windows]),
            np.array([window.scores for window in stream_reference.windows]))
