"""MVP-EARS detection core — the paper's primary contribution.

The detection system runs a target ASR and one or more auxiliary ASRs on
every input audio, converts each transcription to a phonetic encoding,
computes per-auxiliary similarity scores against the target transcription,
and feeds the score vector into a binary classifier.  The package also
contains the threshold detector used for unseen-attack experiments, the
synthesis of hypothetical multiple-ASR-effective (MAE) AEs in score space,
and the proactive ("comprehensive") training procedure of Section V-H.
"""

from repro.core.detector import DetectionResult, MVPEarsDetector
from repro.core.threshold import ThresholdDetector
from repro.core.features import score_vector, score_vectors
from repro.core.mae import (
    MAE_TYPES,
    MaeAeType,
    ScorePools,
    collect_score_pools,
    synthesize_mae_features,
)
from repro.core.proactive import ComprehensiveDetector

__all__ = [
    "DetectionResult",
    "MVPEarsDetector",
    "ThresholdDetector",
    "score_vector",
    "score_vectors",
    "MAE_TYPES",
    "MaeAeType",
    "ScorePools",
    "collect_score_pools",
    "synthesize_mae_features",
    "ComprehensiveDetector",
]
