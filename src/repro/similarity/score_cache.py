"""Content-addressed caching of pair similarity scores.

Scoring a transcription pair is pure — the score is a function of the two
texts and the scorer configuration alone — yet the same pairs are scored
again and again: overlapping streaming windows re-hear the same audio,
transform-ensemble auxiliaries often agree verbatim with the target, and
every Table III system shares auxiliary columns with the others.  The
transcription layer already caches by audio content hash
(:class:`~repro.pipeline.cache.TranscriptionCache`); this module gives
the scoring layer the same treatment.

The cache key is the scorer's configuration tag (name, metric, phonetic
flag — see :attr:`~repro.similarity.scorer.SimilarityScorer.cache_tag`)
plus a content hash of each text, so two calls scoring identical strings
share one entry regardless of where the strings came from.  Storage is a
:class:`~repro.caching.ContentCache` with the transcription cache's
stores (:func:`~repro.caching.json_store`).
"""

from __future__ import annotations

import hashlib

from repro.caching import ContentCache


def text_fingerprint(text: str) -> str:
    """Content hash identifying one transcription text."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class PairScoreCache(ContentCache):
    """LRU cache of pair scores (``float``) keyed by scorer + text content.

    A ``.jsonl`` path is an append-only journal shared by concurrent
    processes; any other path is a JSON snapshot.
    """

    default_capacity = 65536
    _prepare = _decode = staticmethod(float)

    @staticmethod
    def key_for(scorer_tag: str, text_a: str, text_b: str) -> str:
        """Cache key of one (scorer, text pair) combination.

        ``scorer_tag`` is a scorer configuration tag (see
        :attr:`~repro.similarity.scorer.SimilarityScorer.cache_tag`);
        the texts are hashed individually, so the key is direction-aware
        (``(a, b)`` and ``(b, a)`` are distinct entries — every metric in
        the library is symmetric, but the cache does not assume it).
        """
        return (f"{scorer_tag}:{text_fingerprint(text_a)}"
                f":{text_fingerprint(text_b)}")
