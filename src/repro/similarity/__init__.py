"""Transcription similarity calculation.

Implements the similarity-calculation component of the MVP-EARS pipeline:
phonetic encodings (Soundex, Metaphone) and string similarity measures
(Jaccard, cosine, Jaro, Jaro-Winkler, Levenshtein ratio), plus the six
combined scorers compared in Table III of the paper.

Batch scoring lives in :mod:`repro.similarity.engine`: a
:class:`SimilarityEngine` scores each distinct text pair once over the
encode-once kernels in :mod:`repro.similarity.kernels` (bit-identical to
the scalar :meth:`SimilarityScorer.score` path, which ``tests/oracles/``
keeps as the parity reference) and memoises pair scores in a
:class:`PairScoreCache` (see ``docs/SCORING.md``).
"""

from repro.similarity.phonetic import soundex, metaphone, phonetic_encode
from repro.similarity.string_metrics import (
    cosine_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_ratio,
)
from repro.similarity.scorer import (
    SIMILARITY_METHODS,
    SimilarityScorer,
    get_scorer,
)
from repro.similarity.score_cache import PairScoreCache
from repro.similarity.engine import (
    ScoreBatchReport,
    SimilarityEngine,
    default_engine,
    get_shared_score_cache,
    resolve_score_cache,
)

__all__ = [
    "soundex",
    "metaphone",
    "phonetic_encode",
    "cosine_similarity",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_ratio",
    "SIMILARITY_METHODS",
    "SimilarityScorer",
    "get_scorer",
    "PairScoreCache",
    "ScoreBatchReport",
    "SimilarityEngine",
    "default_engine",
    "get_shared_score_cache",
    "resolve_score_cache",
]
