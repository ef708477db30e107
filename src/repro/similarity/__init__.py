"""Transcription similarity calculation.

Implements the similarity-calculation component of the MVP-EARS pipeline:
phonetic encodings (Soundex, Metaphone) and string similarity measures
(Jaccard, cosine, Jaro, Jaro-Winkler, Levenshtein ratio), plus the six
combined scorers compared in Table III of the paper.

Batch scoring lives in :mod:`repro.similarity.engine`: a pluggable
:class:`ScoringBackend` registry (the scalar ``"reference"`` path and the
encode-once ``"fast"`` path over the kernels in
:mod:`repro.similarity.kernels`, bit-identical by construction and by
test) behind a :class:`SimilarityEngine` whose pair scores are memoised
in a :class:`PairScoreCache` (see ``docs/SCORING.md``).
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
    DEFAULT_SCORING_BACKEND,
    FastScoringBackend,
    ReferenceScoringBackend,
    ScoreBatchReport,
    ScoringBackend,
    SimilarityEngine,
    default_engine,
    get_scoring_backend,
    get_shared_score_cache,
    register_scoring_backend,
    resolve_score_cache,
    scoring_backend_names,
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
    "DEFAULT_SCORING_BACKEND",
    "FastScoringBackend",
    "ReferenceScoringBackend",
    "ScoreBatchReport",
    "ScoringBackend",
    "SimilarityEngine",
    "default_engine",
    "get_scoring_backend",
    "get_shared_score_cache",
    "register_scoring_backend",
    "resolve_score_cache",
    "scoring_backend_names",
]
