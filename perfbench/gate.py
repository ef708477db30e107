"""The correctness gate: no numbers are reported unless outputs match.

A detection is reduced to a digest of everything a caller sees: the
verdict, the exact score vector, and the transcriptions.  The workloads
compare digests of the measured path against an independent one and
raise :class:`GateError` on any mismatch; the runner then exits
non-zero without printing a result.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


class GateError(RuntimeError):
    """Outputs of the measured path differ from the reference."""


def _digest(verdict, scores, target: str, auxiliaries) -> str:
    payload = json.dumps([bool(verdict), target, list(auxiliaries)])
    digest = hashlib.sha1(payload.encode())
    digest.update(np.asarray(scores, dtype=np.float64).tobytes())
    return digest.hexdigest()


def detection_digest(result) -> str:
    """Digest of a :class:`~repro.core.detector.DetectionResult`."""
    return _digest(result.is_adversarial, result.scores,
                   result.target_transcription,
                   result.auxiliary_transcriptions.items())


def served_digest(verdict, scores, target: str) -> str:
    """Digest of the fields a served ``ok`` result carries.

    A :class:`~repro.serving.service.ServeResult` has no auxiliary
    transcriptions, so both sides of the serve comparison use this form.
    """
    return _digest(verdict, scores, target, ())


def require_equal(what: str, expected: list[str], actual: list[str]) -> None:
    """Raise :class:`GateError` unless the two digest lists are equal."""
    if len(expected) != len(actual):
        raise GateError(f"{what}: {len(actual)} results for "
                        f"{len(expected)} references")
    bad = [i for i, (e, a) in enumerate(zip(expected, actual)) if e != a]
    if bad:
        raise GateError(f"{what}: {len(bad)} of {len(expected)} results "
                        f"differ (first at index {bad[0]})")
