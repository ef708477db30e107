"""Fast similarity kernels, pinned bit-identical to the reference metrics.

The reference metrics in :mod:`repro.similarity.string_metrics` are
scalar pure-Python loops: Jaro scans an ``O(len × window)`` grid, the
edit distance fills the full DP matrix, and cosine/Jaccard rebuild
``Counter`` objects for both strings on every call.  The kernels here
compute the *same values* — every float is produced by the same final
arithmetic expression on the same integers, so results are bit-identical
(property-tested in ``tests/test_similarity_engine.py``) — but skip the
work the reference does redundantly:

* :func:`edit_distance_fast` — common prefix/suffix stripping, then a
  banded DP (Ukkonen band doubling) that only touches cells within the
  current distance bound; near-identical strings cost ``O(n)``.
* :func:`jaro_similarity_fast` — a per-character position index replaces
  the reference's window scan, so each character of ``a`` does one
  dictionary probe instead of up to ``window`` comparisons.  The greedy
  first-unmatched-in-window choice is preserved exactly.
* :func:`cosine_from_counts` / :func:`jaccard_from_sets` — operate on
  pre-computed token count dicts / token sets (built once per distinct
  text by the scoring engine, not once per pair), with a numpy path for
  long token lists.  All intermediate sums are exact integers, so the
  final division matches the reference bit for bit.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

#: Token-set size above which the set/dict kernels switch to numpy.
#: Transcriptions rarely cross this; long documents do.
VECTORIZE_MIN_TOKENS = 64


# ------------------------------------------------------------ edit distance
def _banded_distance(a: str, b: str, band: int) -> int | None:
    """Edit distance restricted to ``|i - j| <= band``.

    Returns the exact distance when it is ``<= band``, else ``None``
    (the band was too narrow and must widen).
    """
    len_a, len_b = len(a), len(b)
    infinity = len_a + len_b + 1
    previous = [j if j <= band else infinity for j in range(len_b + 1)]
    for i in range(1, len_a + 1):
        lo = max(1, i - band)
        hi = min(len_b, i + band)
        current = [infinity] * (len_b + 1)
        if i <= band:
            current[0] = i
        char_a = a[i - 1]
        for j in range(lo, hi + 1):
            substitution = previous[j - 1] + (0 if char_a == b[j - 1] else 1)
            current[j] = min(previous[j] + 1, current[j - 1] + 1, substitution)
        previous = current
    distance = previous[len_b]
    return distance if distance <= band else None


def edit_distance_fast(a: str, b: str) -> int:
    """Levenshtein distance, identical to
    :func:`repro.text.metrics.edit_distance` on strings.

    Early-exits on equality, strips the common prefix and suffix, then
    runs a banded DP whose band doubles until it covers the true
    distance — an optimal path with distance ``d`` never leaves the
    ``|i - j| <= d`` diagonal band, so the first band that contains the
    returned value is exact.
    """
    if a == b:
        return 0
    # Strip the common prefix and suffix: edits never touch them.
    start, limit = 0, min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    band = max(1, len(b) - len(a))
    while True:
        distance = _banded_distance(a, b, band)
        if distance is not None:
            return distance
        band *= 2


def levenshtein_ratio_fast(a: str, b: str) -> float:
    """``1 - distance / max(len)``, bit-identical to
    :func:`repro.similarity.string_metrics.levenshtein_ratio`."""
    if not a and not b:
        return 1.0
    return 1.0 - edit_distance_fast(a, b) / max(len(a), len(b))


# --------------------------------------------------------------------- Jaro
def jaro_similarity_fast(a: str, b: str) -> float:
    """Jaro similarity, bit-identical to
    :func:`repro.similarity.string_metrics.jaro_similarity`.

    Matching is greedy first-unmatched-position-in-window, exactly as
    the reference's inner scan; the position index just finds that
    position in ``O(1)`` amortised.  Discarding positions below the
    window start is safe because the start is non-decreasing in ``i``.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(max(len_a, len_b) // 2 - 1, 0)

    positions: dict[str, deque[int]] = {}
    for j, char in enumerate(b):
        positions.setdefault(char, deque()).append(j)

    matched_a_chars: list[str] = []
    matched_b_positions: list[int] = []
    for i, char in enumerate(a):
        queue = positions.get(char)
        if not queue:
            continue
        start = i - window
        end = i + window + 1
        while queue and queue[0] < start:
            queue.popleft()
        if queue and queue[0] < end:
            matched_b_positions.append(queue.popleft())
            matched_a_chars.append(char)
    matches = len(matched_a_chars)
    if matches == 0:
        return 0.0

    # The reference counts transpositions by walking matched positions of
    # b in ascending order; replicate by sorting the matched positions.
    matched_b_chars = [b[j] for j in sorted(matched_b_positions)]
    transpositions = sum(char_a != char_b for char_a, char_b
                         in zip(matched_a_chars, matched_b_chars)) // 2
    return (matches / len_a + matches / len_b
            + (matches - transpositions) / matches) / 3.0


def jaro_winkler_similarity_fast(a: str, b: str, prefix_scale: float = 0.1,
                                 max_prefix: int = 4) -> float:
    """Jaro-Winkler via :func:`jaro_similarity_fast`; bit-identical to
    :func:`repro.similarity.string_metrics.jaro_winkler_similarity`."""
    if not 0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be in [0, 0.25]")
    jaro = jaro_similarity_fast(a, b)
    prefix = 0
    for char_a, char_b in zip(a[:max_prefix], b[:max_prefix]):
        if char_a != char_b:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


# ------------------------------------------------------------- token metrics
def token_counts(tokens: list[str]) -> tuple[dict[str, int], float]:
    """Per-token counts and the Euclidean norm of the count vector.

    The norm is ``math.sqrt`` of an exact integer, matching the
    reference's ``math.sqrt(sum(v * v for v in counts.values()))``.
    """
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    norm_sq = 0
    for value in counts.values():
        norm_sq += value * value
    return counts, math.sqrt(norm_sq)


def cosine_from_counts(counts_a: dict[str, int], norm_a: float,
                       counts_b: dict[str, int], norm_b: float) -> float:
    """Cosine over pre-computed count dicts, bit-identical to
    :func:`repro.similarity.string_metrics.cosine_similarity`.

    The dot product is an exact integer whatever the iteration order, so
    the single final division reproduces the reference float exactly.
    """
    if not counts_a and not counts_b:
        return 1.0
    if not counts_a or not counts_b:
        return 0.0
    if norm_a == 0 or norm_b == 0:
        return 0.0
    if min(len(counts_a), len(counts_b)) >= VECTORIZE_MIN_TOKENS:
        common = counts_a.keys() & counts_b.keys()
        if not common:
            return 0 / (norm_a * norm_b)
        dot = int(np.array([counts_a[w] for w in common], dtype=np.int64)
                  @ np.array([counts_b[w] for w in common], dtype=np.int64))
        return dot / (norm_a * norm_b)
    if len(counts_a) > len(counts_b):
        counts_a, counts_b = counts_b, counts_a
    dot = 0
    for token, count in counts_a.items():
        other = counts_b.get(token)
        if other is not None:
            dot += count * other
    return dot / (norm_a * norm_b)


def jaccard_from_sets(set_a: frozenset[str], set_b: frozenset[str]) -> float:
    """Jaccard over pre-computed token sets, bit-identical to
    :func:`repro.similarity.string_metrics.jaccard_similarity`.

    Intersection and union sizes are exact integers, so the single final
    division reproduces the reference float exactly.  (The win over the
    reference is that the sets are built once per distinct text by the
    scoring engine, not once per pair.)
    """
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)
