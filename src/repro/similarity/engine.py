"""The batch-first similarity scoring engine.

The paper's detection cost is recognition plus one similarity score per
auxiliary (Section V's overhead study).  PR 1 gave recognition a
batch-first execution layer (worker-pool fan-out + content-hash cache);
this module gives the scoring stage the same treatment:
:class:`SimilarityEngine` puts batch APIs (``score_pairs``,
``score_texts``, ``score_suites``) in front of encode-once scoring —
normalise + optional phonetic encoding once per distinct text, then the
metric kernels in :mod:`repro.similarity.kernels` — with pair scores
memoised in a
:class:`~repro.similarity.score_cache.PairScoreCache` (shared
process-wide by default, mirroring the transcription cache).  Scores are
bit-identical to the scalar :meth:`SimilarityScorer.score` path, which
``tests/oracles/`` keeps as the parity reference.

Every scoring call site in the library — detector, batched pipeline,
streaming windows, micro-batched serving, transform ensembles, the
related-work baselines, the experiment tables — routes through an engine,
so overlapping streaming windows and verbatim-agreeing ensemble members
stop recomputing identical pairs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.caching import CacheStats
from repro.similarity.kernels import (
    cosine_from_counts,
    jaccard_from_sets,
    jaro_winkler_similarity_fast,
    levenshtein_ratio_fast,
    token_counts,
)
from repro.similarity.phonetic import phonetic_encode
from repro.similarity.score_cache import PairScoreCache, text_fingerprint
from repro.similarity.scorer import SimilarityScorer, get_scorer
from repro.text.normalize import normalize_text, tokenize

#: Environment variable naming an on-disk JSON store for the shared cache.
SCORE_CACHE_ENV = "REPRO_SCORE_CACHE"

#: Metrics whose kernels consume token statistics rather than characters.
_TOKEN_METRICS = frozenset({"Cosine", "Jaccard"})


# ------------------------------------------------------------------- kernels
@dataclass(frozen=True)
class _EncodedText:
    """One text after the encode phase, ready for the metric kernels.

    ``chars`` is exactly the string the scalar metric would see
    (normalised, optionally phonetic-encoded); the token fields are
    derived from it with the same ``tokenize`` the scalar token metrics
    call internally, so kernel inputs are identical by construction.
    """

    chars: str
    counts: dict[str, int] | None = None
    norm: float = 0.0
    token_set: frozenset[str] | None = None


def _encode(scorer: SimilarityScorer, text: str) -> _EncodedText:
    chars = normalize_text(text)
    if scorer.use_phonetic_encoding:
        chars = phonetic_encode(chars)
    if scorer.metric_name not in _TOKEN_METRICS:
        return _EncodedText(chars=chars)
    tokens = tokenize(chars)
    counts, norm = token_counts(tokens)
    return _EncodedText(chars=chars, counts=counts, norm=norm,
                        token_set=frozenset(counts))


def _cosine_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return cosine_from_counts(a.counts, a.norm, b.counts, b.norm)


def _jaccard_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return jaccard_from_sets(a.token_set, b.token_set)


def _jaro_winkler_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return jaro_winkler_similarity_fast(a.chars, b.chars)


def _levenshtein_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return levenshtein_ratio_fast(a.chars, b.chars)


_KERNELS: dict[str, Callable] = {
    "Cosine": _cosine_kernel,
    "Jaccard": _jaccard_kernel,
    "JaroWinkler": _jaro_winkler_kernel,
    "Levenshtein": _levenshtein_kernel,
}


# ------------------------------------------------------------- shared cache
@lru_cache(maxsize=1)
def get_shared_score_cache() -> PairScoreCache:
    """The process-wide pair-score cache shared by default engines.

    One content-hash store across every engine means the streaming
    detector, the batched pipeline and any ad-hoc scoring all reuse each
    other's pair scores.  Set ``REPRO_SCORE_CACHE`` to a file path to
    persist the shared cache across processes (call
    :meth:`SimilarityEngine.save_cache` to write it out).
    """
    return PairScoreCache(capacity=65536,
                          path=os.environ.get(SCORE_CACHE_ENV))


def resolve_score_cache(spec) -> PairScoreCache | bool:
    """Coerce a cache spec into a :class:`SimilarityEngine` cache argument.

    The policy surface (``"shared"``/``"private"``/``"off"``/JSON path,
    a bool, or a :class:`PairScoreCache` instance) is shared with
    :func:`repro.pipeline.engine.resolve_transcription_cache` — see
    :func:`repro.caching.resolve_cache_policy`.  This is what the CLI's
    ``--score-cache`` flag and :class:`~repro.specs.ScoringSpec`'s
    ``cache`` field feed through.
    """
    from repro.caching import resolve_cache_policy
    return resolve_cache_policy(spec, PairScoreCache, "score-cache policy")


# -------------------------------------------------------------------- engine
@dataclass(frozen=True)
class ScoreBatchReport:
    """Cache accounting for one engine batch call (thread-local counts)."""

    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of pair lookups served from the cache (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.cache_hits / self.lookups


class SimilarityEngine:
    """Batch similarity scoring in front of a pair-score cache.

    Args:
        scorer: a :class:`SimilarityScorer`, a registry name, or ``None``
            for the paper's default (``PE_JaroWinkler``).
        cache: ``True`` (default) shares the process-wide cache from
            :func:`get_shared_score_cache`; ``False``/``None`` disables
            caching; a :class:`PairScoreCache` instance is used as given.
    """

    def __init__(self, scorer: SimilarityScorer | str | None = None,
                 cache: PairScoreCache | bool | None = True):
        if scorer is None:
            scorer = get_scorer()
        elif isinstance(scorer, str):
            scorer = get_scorer(scorer)
        self.scorer = scorer
        if isinstance(cache, PairScoreCache):
            self.cache: PairScoreCache | None = cache
        elif cache:
            self.cache = get_shared_score_cache()
        else:
            self.cache = None

    # -------------------------------------------------------------- plumbing
    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the engine's cache (zeros if disabled)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    def save_cache(self, path: str | None = None) -> str:
        """Persist the cache to disk (see :meth:`PairScoreCache.save`)."""
        if self.cache is None:
            raise RuntimeError("engine has no cache to save")
        return self.cache.save(path)

    # --------------------------------------------------------------- scoring
    def score_pair(self, text_a: str, text_b: str) -> float:
        """Similarity of one transcription pair, in ``[0, 1]``."""
        return float(self.score_pairs([(text_a, text_b)])[0])

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Scores of a batch of text pairs, shape ``(len(pairs),)``."""
        return self.score_pairs_report(pairs)[0]

    def score_pairs_report(
            self, pairs: Sequence[tuple[str, str]],
    ) -> tuple[np.ndarray, ScoreBatchReport]:
        """Like :meth:`score_pairs`, plus this call's cache accounting.

        The report counts are accumulated locally during the call, so
        they stay correct when several threads share one engine (the
        cache's own global counters interleave under concurrency).
        """
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, dtype=np.float64), ScoreBatchReport()
        if self.cache is None:
            return (self._compute(pairs),
                    ScoreBatchReport(cache_misses=len(pairs)))
        tag = self.scorer.cache_tag
        out = np.empty(len(pairs), dtype=np.float64)
        # Fingerprints are memoised per distinct text (a suite batch hashes
        # each target text once, not once per auxiliary), and missed pairs
        # are deduplicated before they are computed; the key format is
        # PairScoreCache.key_for's.
        fingerprints: dict[str, str] = {}
        pending: dict[str, list[int]] = {}
        miss_pairs: list[tuple[str, str]] = []
        hits = 0
        misses = 0
        for index, (text_a, text_b) in enumerate(pairs):
            fp_a = fingerprints.get(text_a)
            if fp_a is None:
                fp_a = fingerprints[text_a] = text_fingerprint(text_a)
            fp_b = fingerprints.get(text_b)
            if fp_b is None:
                fp_b = fingerprints[text_b] = text_fingerprint(text_b)
            key = f"{tag}:{fp_a}:{fp_b}"
            value = self.cache.get(key)
            if value is None:
                misses += 1
                indices = pending.get(key)
                if indices is None:
                    pending[key] = [index]
                    miss_pairs.append((text_a, text_b))
                else:
                    indices.append(index)
            else:
                out[index] = value
                hits += 1
        if miss_pairs:
            values = self._compute(miss_pairs)
            for (key, indices), value in zip(pending.items(), values):
                out[indices] = value
                self.cache.put(key, float(value))
        return out, ScoreBatchReport(cache_hits=hits, cache_misses=misses)

    def _compute(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Scores of ``pairs``, bypassing the cache.

        Every distinct text is encoded exactly once (the scalar path
        re-normalises and re-phonetic-encodes the target transcription
        once per auxiliary) and every distinct pair is scored exactly
        once.  The metric kernels are the early-exit / banded / pruned
        implementations in :mod:`repro.similarity.kernels`, each pinned
        bit-identical to its scalar metric.
        """
        scorer = self.scorer
        kernel = _KERNELS.get(scorer.metric_name)
        if kernel is None:
            # Unknown metric (a user-registered scorer): use its scalar path
            # rather than guess at kernel semantics.
            return np.array([scorer.score(text_a, text_b)
                             for text_a, text_b in pairs], dtype=np.float64)
        encoded: dict[str, _EncodedText] = {}
        memo: dict[tuple[str, str], float] = {}
        out = np.empty(len(pairs), dtype=np.float64)
        for index, (text_a, text_b) in enumerate(pairs):
            value = memo.get((text_a, text_b))
            if value is None:
                enc_a = encoded.get(text_a)
                if enc_a is None:
                    enc_a = encoded[text_a] = _encode(scorer, text_a)
                enc_b = encoded.get(text_b)
                if enc_b is None:
                    enc_b = encoded[text_b] = _encode(scorer, text_b)
                # The same clamp the scalar scorer applies.
                value = float(min(1.0, max(0.0, kernel(enc_a, enc_b))))
                memo[(text_a, text_b)] = value
            out[index] = value
        return out

    def score_texts(self, target_text: str,
                    auxiliary_texts: Sequence[str]) -> np.ndarray:
        """Feature vector: target text against each auxiliary text."""
        return self.score_pairs([(target_text, text)
                                 for text in auxiliary_texts])

    def score_suites(self, suites, auxiliary_asrs) -> np.ndarray:
        """Feature matrix for a batch of suite transcriptions.

        Args:
            suites: :class:`~repro.pipeline.engine.SuiteTranscription`
                objects (anything with ``.target.text`` and an
                ``.auxiliaries`` mapping of short name → transcription).
            auxiliary_asrs: auxiliary ASRs fixing the column order.

        Returns:
            Array of shape ``(len(suites), len(auxiliary_asrs))``,
            dtype float64.
        """
        return self.score_suites_report(suites, auxiliary_asrs)[0]

    def score_suites_report(
            self, suites, auxiliary_asrs,
    ) -> tuple[np.ndarray, ScoreBatchReport]:
        """Like :meth:`score_suites`, plus this call's cache accounting."""
        suites = list(suites)
        n_aux = len(auxiliary_asrs)
        if not suites:
            return (np.empty((0, n_aux), dtype=np.float64),
                    ScoreBatchReport())
        names = [asr.short_name for asr in auxiliary_asrs]
        pairs = [(suite.target.text, suite.auxiliaries[name].text)
                 for suite in suites for name in names]
        flat, report = self.score_pairs_report(pairs)
        return flat.reshape(len(suites), n_aux), report


def default_engine(scorer: SimilarityScorer | str | None = None) -> SimilarityEngine:
    """An engine with the shared pair-score cache.

    Engines are cheap value-like objects (the shared cache is a
    process-wide singleton), so call sites that are not
    handed an explicit engine construct one on the fly.
    """
    return SimilarityEngine(scorer=scorer)
