"""Benchmark E-PIPE: the end-to-end recognition pipeline's speed gate.

Times the seed library's per-clip recognition path against the
vectorized one on a synthetic clip batch, over the default ASR suite:

* **reference** — freshly built suite instances whose decoders search
  the lexicon with the seed per-word loop (``tests/oracles/decoder.py``),
  sequential fan-out (``workers=0``), no caches and no feature engine:
  the path the seed library ran.
* **cold** — freshly built suite instances on the runtime path:
  vectorized decoder search, batched front end and acoustic scoring,
  and a private :class:`~repro.dsp.feature_cache.FeatureCache` that
  starts empty.
* **warm** — the same fast engine run again, so every front-end matrix
  comes out of the feature cache (best of ``REPEATS``).

and asserts the vectorized front end's two perf contracts: the fast
path is no slower than the reference path, cold or warm, and the warm
pass is actually served by the feature cache.  Parity is asserted
exactly: the fast path must produce *bit-identical* transcriptions
(text, phonemes and frame labels), so a speedup that changes any
verdict is a defect, not a win.
"""

import time

import numpy as np

from oracles.decoder import use_scalar_search
from repro.asr.registry import (
    build_fresh_asr,
    default_suite_names,
    get_shared_lexicon,
)
from repro.audio.synthesis import SpeechSynthesizer
from repro.config import SAMPLE_RATE
from repro.dsp.engine import FeatureEngine
from repro.dsp.feature_cache import FeatureCache
from repro.pipeline.engine import TranscriptionEngine
from repro.text.corpus import librispeech_like_corpus

N_CLIPS = 6
REPEATS = 3


def _clips(n_clips: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    sentences = librispeech_like_corpus().sample(n_clips, rng)
    synthesizer = SpeechSynthesizer(sample_rate=SAMPLE_RATE,
                                    lexicon=get_shared_lexicon(),
                                    seed=seed + 7)
    return [synthesizer.synthesize(sentence) for sentence in sentences]


def _fresh_engine(names, scalar_search: bool = False,
                  **kwargs) -> TranscriptionEngine:
    """An engine over fresh, uncached suite instances; ``scalar_search``
    swaps each decoder's lexicon search for the oracle's."""
    suite = [build_fresh_asr(name) for name in names]
    if scalar_search:
        for asr in suite:
            use_scalar_search(asr.word_decoder)
    return TranscriptionEngine(suite[0], suite[1:], workers=0, cache=False,
                               **kwargs)


def _mismatches(reference_suites, fast_suites) -> int:
    count = 0
    for ref, fast in zip(reference_suites, fast_suites):
        for a, b in zip([ref.target, *ref.auxiliaries.values()],
                        [fast.target, *fast.auxiliaries.values()]):
            if (a.text != b.text or a.phonemes != b.phonemes
                    or a.frame_labels != b.frame_labels):
                count += 1
    return count


def test_pipeline_benchmark():
    names = default_suite_names()
    clips = _clips(N_CLIPS)

    reference_engine = _fresh_engine(names, scalar_search=True)
    start = time.perf_counter()
    reference_results = [reference_engine.transcribe(clip) for clip in clips]
    reference_seconds = time.perf_counter() - start

    feature_cache = FeatureCache(capacity=max(64, 4 * N_CLIPS * len(names)))
    fast_engine = _fresh_engine(
        names, feature_engine=FeatureEngine(cache=feature_cache))
    start = time.perf_counter()
    cold_results = fast_engine.transcribe_batch(clips)
    cold_seconds = time.perf_counter() - start
    mismatches = _mismatches(reference_results, cold_results)

    warm_seconds = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        warm_results = fast_engine.transcribe_batch(clips)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    mismatches += _mismatches(reference_results, warm_results)

    cold_speedup = reference_seconds / cold_seconds
    warm_speedup = reference_seconds / warm_seconds
    print(f"\ncold {cold_speedup:.2f}x, warm (feature cache) "
          f"{warm_speedup:.2f}x vs reference")
    assert mismatches == 0
    assert cold_speedup >= 1.0
    assert warm_speedup >= 1.0
    assert feature_cache.stats.hit_rate > 0.0
