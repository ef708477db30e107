"""Benchmark E-SIM: the similarity scoring engine's speed gate.

Times the ``reference`` scalar backend against the ``fast`` encode-once
backend on a synthetic transcription corpus, over the two workload
shapes the library serves, and asserts the engine's two perf contracts:

* **batch** — distinct transcription pairs scored once each (the
  ``detect_batch`` shape), both backends cache-less: the fast backend
  is no slower than the reference backend.
* **stream** — every pair recurs ``OVERLAP`` times, interleaved the way
  overlapping stream windows re-hear the same audio: a warm
  :class:`~repro.similarity.score_cache.PairScoreCache` delivers at
  least 5x reference throughput, served entirely from the cache.

Parity is asserted exactly: a speedup with different scores is a defect.
"""

import time

import numpy as np

from repro.similarity.engine import SimilarityEngine, get_scoring_backend
from repro.similarity.score_cache import PairScoreCache
from repro.similarity.scorer import DEFAULT_METHOD, get_scorer
from repro.text.corpus import librispeech_like_corpus

N_PAIRS = 300
OVERLAP = 4
REPEATS = 3


def _transcription_pairs(n_pairs: int, seed: int = 0) -> list[tuple[str, str]]:
    """Distinct (target, auxiliary) pairs: corpus sentences against
    perturbed copies (verbatim, dropped word, swapped words, substituted
    word, mangled character), spanning the early-exit and full-DP
    cases alike."""
    rng = np.random.default_rng(seed)
    sentences = librispeech_like_corpus().sample(max(16, n_pairs // 4), rng)
    vocabulary = sorted({word for sentence in sentences
                         for word in sentence.split()})

    def perturb(sentence: str) -> str:
        words = sentence.split()
        kind = rng.integers(5)
        if kind == 0 or len(words) < 2:
            return sentence
        if kind == 1:
            del words[rng.integers(len(words))]
        elif kind == 2:
            i = int(rng.integers(len(words) - 1))
            words[i], words[i + 1] = words[i + 1], words[i]
        elif kind == 3:
            words[rng.integers(len(words))] = \
                vocabulary[rng.integers(len(vocabulary))]
        else:
            i = int(rng.integers(len(words)))
            word = list(words[i])
            word[rng.integers(len(word))] = "abcdefghijklmnopqrstuvwxyz"[
                rng.integers(26)]
            words[i] = "".join(word)
        return " ".join(words)

    pairs, seen = [], set()
    while len(pairs) < n_pairs:
        target = sentences[int(rng.integers(len(sentences)))]
        pair = (target, perturb(target))
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def _interleave_stream(pairs, overlap: int):
    """Each pair ``overlap`` times, staggered the way window ``i`` shares
    pairs with its ``overlap - 1`` neighbours."""
    stream = []
    for start in range(overlap):
        stream.extend(pairs[start::overlap] * overlap)
    return stream[:len(pairs) * overlap]


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_similarity_engine_benchmark():
    scorer = get_scorer(DEFAULT_METHOD)
    reference = get_scoring_backend("reference")
    fast = get_scoring_backend("fast")
    pairs = _transcription_pairs(N_PAIRS)
    stream = _interleave_stream(pairs, OVERLAP)

    parity = float(np.max(np.abs(reference.score_pairs(scorer, pairs)
                                 - fast.score_pairs(scorer, pairs)),
                          initial=0.0))
    assert parity == 0.0

    batch_reference = _best_of(REPEATS,
                               lambda: reference.score_pairs(scorer, pairs))
    batch_fast = _best_of(REPEATS, lambda: fast.score_pairs(scorer, pairs))

    stream_reference = _best_of(REPEATS,
                                lambda: reference.score_pairs(scorer, stream))
    cache = PairScoreCache(capacity=max(65536, len(pairs) * 2))
    warm_engine = SimilarityEngine(scorer=scorer, backend=fast, cache=cache)
    warm_engine.score_pairs(pairs)
    cache.stats.hits = cache.stats.misses = 0
    stream_fast = _best_of(REPEATS, lambda: warm_engine.score_pairs(stream))

    batch_speedup = batch_reference / batch_fast
    stream_speedup = stream_reference / stream_fast
    print(f"\nbatch {batch_speedup:.2f}x, stream (warm cache) "
          f"{stream_speedup:.2f}x vs reference")
    assert batch_speedup >= 1.0
    assert stream_speedup >= 5.0
    assert cache.stats.hit_rate == 1.0
