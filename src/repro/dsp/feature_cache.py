"""Content-addressed caching of front-end feature matrices.

Computing a front end is pure — the feature matrix is a function of the
raw samples, the sample rate and the extractor configuration alone — yet
the same (clip, configuration) pairs recur constantly: overlapping
streaming windows re-hear the same audio, transform-ensemble suites run
several auxiliaries with the *target's* front end, repeated experiment
tables re-read the same dataset bundle, and any two suite members with
equal front-end configurations duplicate the work outright.  The
transcription layer caches by audio content hash
(:class:`~repro.pipeline.cache.TranscriptionCache`), the scoring layer by
text content (:class:`~repro.similarity.score_cache.PairScoreCache`);
this module gives the feature layer the same treatment.

The cache key is the extractor's configuration tag
(:attr:`~repro.dsp.features.FeatureExtractor.cache_tag`) plus the clip's
content hash (:attr:`~repro.audio.waveform.Waveform.fingerprint`: the
raw samples and the sample rate), so two clips with identical audio
share one entry regardless of where the audio came from.  Storage
is a :class:`~repro.caching.ContentCache`, optionally on disk
(:func:`~repro.caching.array_store`).  Cached matrices are stored
read-only so a consumer cannot corrupt entries that later lookups will
share.
"""

from __future__ import annotations

import numpy as np

from repro.audio.waveform import Waveform
from repro.caching import ContentCache, array_store


def _frozen(value: np.ndarray) -> np.ndarray:
    value.flags.writeable = False
    return value


class FeatureCache(ContentCache):
    """LRU cache of feature matrices keyed by front-end config + content.

    An ``.npz`` path is a snapshot file; any other path is a
    content-addressed directory shared by concurrent processes (the
    serving workers' store), read lazily on memory misses.
    """

    default_capacity = 2048
    _open_store = staticmethod(array_store)

    @staticmethod
    def _prepare(features) -> np.ndarray:
        """A frozen copy: later mutation by the caller cannot reach it."""
        return _frozen(np.array(features, dtype=np.float64, copy=True))

    @staticmethod
    def _decode(payload) -> np.ndarray:
        return _frozen(np.asarray(payload, dtype=np.float64))

    @staticmethod
    def clip_key(extractor_tag: str, audio: Waveform) -> str:
        """Cache key of one (front-end configuration, clip) combination.

        ``extractor_tag`` is a front-end configuration tag (see
        :attr:`~repro.dsp.features.FeatureExtractor.cache_tag`); two
        extractors with equal tags share entries by design — that is the
        cross-suite-member sharing win.  The clip part is the
        waveform's memoised fingerprint, so no lookup hashes again.
        """
        return f"{extractor_tag}:{audio.fingerprint}"

    @staticmethod
    def key_for(extractor_tag: str, samples: np.ndarray,
                sample_rate: int) -> str:
        """:meth:`clip_key` of a bare sample array at ``sample_rate``."""
        return FeatureCache.clip_key(extractor_tag,
                                     Waveform(samples, sample_rate))
