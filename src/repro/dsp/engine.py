"""The front-end feature engine: compute once, share across the suite.

Every suite member starts recognition with the same kind of work — frame
the clip, window it, run the front end — and members with identical
front-end configurations (transform-ensemble auxiliaries hear through
the *target's* front end; ``KAL``/``KAL-fs<N>`` variants share one MFCC
geometry) duplicate that work clip after clip.  The
:class:`FeatureEngine` makes front-end features a cached, batched
resource: it computes each (clip, front-end configuration) pair at most
once, shares the matrix across suite members through a content-hash
:class:`~repro.dsp.feature_cache.FeatureCache`, and pre-warms whole
pipeline batches through the vectorized
:meth:`~repro.dsp.features.FeatureExtractor.transform_batch` path.

Single clips go through
:meth:`~repro.dsp.features.FeatureExtractor.transform`; batches stack
analysis frames across clips and run the row-independent stages once.  Both are ``==``-identical to the seed library's per-clip
loop, which ``tests/oracles/`` keeps as the parity reference (pinned by
``tests/test_dsp_vectorized.py`` and the golden-fixture test).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.audio.waveform import Waveform
from repro.caching import CacheStats
from repro.dsp.feature_cache import FeatureCache
from repro.dsp.features import FeatureExtractor


@lru_cache(maxsize=1)
def get_shared_feature_cache() -> FeatureCache:
    """The process-wide shared :class:`FeatureCache` (created on first use)."""
    return FeatureCache(capacity=2048)


def resolve_feature_cache(cache) -> FeatureCache | None:
    """Normalise a feature-cache argument to an instance or ``None``.

    ``True``/``"shared"`` select the process-wide shared cache,
    ``False``/``None``/``"off"`` disable caching, ``"private"`` builds a
    fresh in-memory cache, a path-like string (ending in ``.npz``) an
    on-disk store, and an instance passes through — the same policy
    surface as the transcription and pair-score caches (see
    :func:`repro.caching.resolve_cache_policy`).
    """
    from repro.caching import resolve_cache_policy
    resolved = resolve_cache_policy(cache, FeatureCache,
                                    "feature-cache policy",
                                    suffixes=(".npz",))
    if resolved is True:
        return get_shared_feature_cache()
    if resolved is False:
        return None
    return resolved


class FeatureEngine:
    """Computes front-end features once per (clip, front-end configuration).

    Args:
        cache: feature cache policy — a
            :class:`~repro.dsp.feature_cache.FeatureCache` instance,
            ``True`` for the process-wide shared cache (default), or
            ``False``/``None`` to disable caching.

    Extractors whose :attr:`~repro.dsp.features.FeatureExtractor.cache_tag`
    is ``None`` (unnamed custom front ends) are computed directly and
    never cached, so a tag collision can not serve wrong features.
    """

    def __init__(self, cache: FeatureCache | bool | None = True):
        self.cache = resolve_feature_cache(cache)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the underlying cache (zeros when off)."""
        if self.cache is None:
            return CacheStats()
        return self.cache.stats

    def features(self, extractor: FeatureExtractor,
                 audio: Waveform) -> np.ndarray:
        """Feature matrix of one clip, served from the cache when possible."""
        tag = extractor.cache_tag
        if self.cache is None or tag is None:
            return extractor.transform(audio.samples)
        key = FeatureCache.clip_key(tag, audio)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        value = extractor.transform(audio.samples)
        self.cache.put(key, value)
        return value

    def prewarm(self, extractor: FeatureExtractor,
                clips: list[Waveform]) -> int:
        """Fill the cache for a batch of clips.

        Missing clips are computed through the *batched* path (one
        stacked front-end pass); clips already cached are skipped.
        Returns the number of clips computed.
        """
        tag = extractor.cache_tag
        if self.cache is None or tag is None:
            return 0
        missing: dict[str, np.ndarray] = {}
        for audio in clips:
            key = FeatureCache.clip_key(tag, audio)
            if key not in missing and self.cache.get(key) is None:
                missing[key] = audio.samples
        if missing:
            values = extractor.transform_batch(list(missing.values()))
            for key, value in zip(missing, values):
                self.cache.put(key, value)
        return len(missing)
