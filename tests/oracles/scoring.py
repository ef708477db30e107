"""Seed similarity scoring: the parity reference of the scoring engine."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.similarity.engine import SimilarityEngine
from repro.similarity.scorer import SimilarityScorer


class ReferenceScoringBackend:
    """The original scalar path: one ``scorer.score`` call per pair.

    Kept as the ground truth the encode-once engine is pinned against,
    and as the baseline of the similarity speed gate
    (``benchmarks/test_similarity_bench.py``).
    """

    name = "reference"

    def score_pairs(self, scorer: SimilarityScorer,
                    pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        return np.array([scorer.score(text_a, text_b)
                         for text_a, text_b in pairs], dtype=np.float64)


class ScalarSimilarityEngine(SimilarityEngine):
    """A :class:`SimilarityEngine` whose cache misses are scored by
    :class:`ReferenceScoringBackend`, for end-to-end parity tests.

    Caching, deduplication and key format are the engine's own; only the
    computation of missed pairs is the scalar oracle's.
    """

    def _compute(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        return ReferenceScoringBackend().score_pairs(self.scorer, pairs)
