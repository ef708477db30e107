"""Phoneme-sequence decoding and word generation.

Implements the "phoneme assembling" and "language generation" stages of the
ASR pipeline (Figure 2 of the paper):

* frame-label decoders (greedy CTC-style collapse, temporally smoothed
  argmax, and a Viterbi decoder with self-loop transitions),
* a :class:`WordDecoder` that segments the collapsed phoneme sequence at
  silences and maps each segment to the closest vocabulary word using the
  pronunciation lexicon and a bigram language model.
"""

from __future__ import annotations

import numpy as np

from repro.text.language_model import BigramLanguageModel
from repro.text.lexicon import Lexicon
from repro.text.metrics import levenshtein_codes_batch
from repro.text.phonemes import PHONEMES, SILENCE, Phoneme

# ----------------------------------------------------------- frame decoders


def greedy_frame_labels(log_posteriors: np.ndarray) -> list[Phoneme]:
    """Most likely phoneme per frame (CTC-style greedy path)."""
    log_posteriors = np.asarray(log_posteriors)
    if log_posteriors.ndim != 2 or log_posteriors.shape[1] != len(PHONEMES):
        raise ValueError("log_posteriors must have shape (n_frames, n_phonemes)")
    return [PHONEMES[i] for i in log_posteriors.argmax(axis=1)]


def smoothed_frame_labels(log_posteriors: np.ndarray, window: int = 2) -> list[Phoneme]:
    """Argmax after temporal smoothing of the posteriors.

    Stands in for the recurrent context of an LSTM acoustic model: each
    frame's score is averaged with its neighbours before the decision.

    Vectorized sliding-window smoothing; bit-identical to the seed
    library's per-column ``np.convolve`` loop kept in ``tests/oracles/``
    (the einsum contraction over the window axis sums in the same order
    as ``np.convolve``).
    """
    log_posteriors = np.asarray(log_posteriors)
    if window < 1:
        raise ValueError("window must be at least 1")
    n_frames = log_posteriors.shape[0]
    if n_frames == 0:
        return []
    kernel = np.ones(2 * window + 1)
    kernel /= kernel.sum()
    padded = np.pad(log_posteriors, ((window, window), (0, 0)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, 2 * window + 1, axis=0)          # (n_frames, n_phonemes, 2w+1)
    smoothed = np.einsum("nkw,w->nk", windows, kernel)
    return [PHONEMES[i] for i in smoothed.argmax(axis=1)]


def viterbi_frame_labels(log_posteriors: np.ndarray, self_loop_logprob: float = -0.1,
                         switch_logprob: float = -2.5,
                         frame_subsampling_factor: int = 1) -> list[Phoneme]:
    """HMM-style decoding with a uniform transition model (Kaldi flavour).

    Args:
        log_posteriors: frame log posteriors.
        self_loop_logprob: log probability of staying in the same phoneme.
        switch_logprob: log probability of switching to any other phoneme.
        frame_subsampling_factor: decode only every ``k``-th frame, mirroring
            Kaldi's ``--frame-subsampling-factor`` option that Section III of
            the paper perturbs to create a model variant.
    """
    log_posteriors = np.asarray(log_posteriors)
    if frame_subsampling_factor < 1:
        raise ValueError("frame_subsampling_factor must be >= 1")
    log_posteriors = log_posteriors[::frame_subsampling_factor]
    n_frames, n_states = log_posteriors.shape
    if n_frames == 0:
        return []
    scores = log_posteriors[0].copy()
    backpointers = np.zeros((n_frames, n_states), dtype=int)
    for t in range(1, n_frames):
        switch_best = scores.max() + switch_logprob
        switch_arg = int(scores.argmax())
        stay = scores + self_loop_logprob
        use_stay = stay >= switch_best
        new_scores = np.where(use_stay, stay, switch_best) + log_posteriors[t]
        backpointers[t] = np.where(use_stay, np.arange(n_states), switch_arg)
        scores = new_scores
    path = [int(scores.argmax())]
    for t in range(n_frames - 1, 0, -1):
        path.append(int(backpointers[t, path[-1]]))
    path.reverse()
    labels = [PHONEMES[i] for i in path]
    # Re-expand so callers always see one label per original frame.
    if frame_subsampling_factor > 1:
        expanded: list[Phoneme] = []
        for label in labels:
            expanded.extend([label] * frame_subsampling_factor)
        labels = expanded
    return labels


def collapse_frame_labels(frame_labels: list[Phoneme],
                          min_run: int = 1) -> list[Phoneme]:
    """Collapse consecutive repeats (CTC collapse), dropping short runs.

    Args:
        frame_labels: per-frame phoneme labels.
        min_run: minimum number of consecutive frames required for a phoneme
            to be emitted (runs shorter than this are treated as noise).
    """
    if min_run < 1:
        raise ValueError("min_run must be >= 1")
    collapsed: list[Phoneme] = []
    run_label: Phoneme | None = None
    run_length = 0
    for label in [*frame_labels, None]:
        if label == run_label:
            run_length += 1
            continue
        if run_label is not None and run_length >= min_run:
            if not collapsed or collapsed[-1] != run_label:
                collapsed.append(run_label)
        run_label = label
        run_length = 1
    return collapsed


def strip_silence(phonemes: list[Phoneme]) -> list[Phoneme]:
    """Remove silence markers from a phoneme sequence."""
    return [p for p in phonemes if p != SILENCE]


def split_at_silence(phonemes: list[Phoneme]) -> list[list[Phoneme]]:
    """Split a collapsed phoneme sequence into word segments at silences."""
    segments: list[list[Phoneme]] = []
    current: list[Phoneme] = []
    for phoneme in phonemes:
        if phoneme == SILENCE:
            if current:
                segments.append(current)
                current = []
        else:
            current.append(phoneme)
    if current:
        segments.append(current)
    return segments


# ------------------------------------------------------------- word decoder


class WordDecoder:
    """Maps phoneme segments to vocabulary words.

    For each silence-delimited segment the decoder searches the lexicon for
    the pronunciation with the smallest edit distance, using the language
    model to break near-ties.  Segments that match no word well are decoded
    by trying a two-word split; segments that still match nothing are
    dropped (mirroring how a real decoder would emit nothing for
    unintelligible audio).

    The lexicon search — the hot loop of the whole recognition stack —
    computes every candidate's edit distance in one vectorized integer
    DP (:func:`~repro.text.metrics.levenshtein_codes_batch`) and reuses
    per-``previous`` language-model score vectors.  It produces the same
    words and the same (integer + float64) costs as the seed library's
    per-word loop kept in ``tests/oracles/``: the selection replays that
    loop's exact pruning and tie-breaking order.
    """

    #: Per-phoneme cost above which a segment is considered unintelligible.
    MAX_COST_PER_PHONEME = 0.67

    def __init__(self, lexicon: Lexicon, language_model: BigramLanguageModel,
                 lm_weight: float = 0.2):
        self.lexicon = lexicon
        self.language_model = language_model
        self.lm_weight = lm_weight
        self._entries: list[tuple[str, tuple[Phoneme, ...]]] = []
        self._by_length: dict[int, list[int]] = {}
        self._segment_cache: dict[tuple, tuple[str, float]] = {}
        self._distance_cache: dict[tuple, np.ndarray] = {}
        self._lm_vectors: dict[str | None, np.ndarray] = {}
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        self._entries = sorted(self.lexicon.items())
        self._by_length = {}
        for idx, (_, pron) in enumerate(self._entries):
            self._by_length.setdefault(len(pron), []).append(idx)
        self._words = [word for word, _ in self._entries]
        # Pre-encode the pronunciations once: the search then only
        # has to encode each new segment (codes are non-negative, so the
        # -1 padding never matches a hypothesis token).
        self._codes: dict[Phoneme, int] = {}
        prons = [pron for _, pron in self._entries]
        max_len = max((len(pron) for pron in prons), default=0)
        self._pron_lengths = np.array([len(pron) for pron in prons],
                                      dtype=np.int64)
        self._pron_matrix = np.full((len(prons), max(1, max_len)), -1,
                                    dtype=np.int32)
        for idx, pron in enumerate(prons):
            for j, token in enumerate(pron):
                self._pron_matrix[idx, j] = self._code(token)
        self._unigram_scores: np.ndarray | None = None
        self._segment_cache.clear()
        self._distance_cache.clear()
        self._lm_vectors.clear()

    def _code(self, token: Phoneme) -> int:
        code = self._codes.get(token)
        if code is None:
            code = self._codes[token] = len(self._codes)
        return code

    # ------------------------------------------------------------- decoding
    def decode(self, phonemes: list[Phoneme]) -> tuple[str, list[str]]:
        """Decode a collapsed phoneme sequence (with silences) into text.

        Returns:
            ``(sentence, words)`` where ``sentence`` is the joined text.
        """
        segments = split_at_silence(phonemes)
        words: list[str] = []
        previous: str | None = None
        for segment in segments:
            decoded = self._decode_segment(tuple(segment), previous)
            words.extend(decoded)
            if decoded:
                previous = decoded[-1]
        return " ".join(words), words

    def _decode_segment(self, segment: tuple[Phoneme, ...],
                        previous: str | None) -> list[str]:
        if not segment:
            return []
        word, cost = self._best_word(segment, previous)
        per_phoneme = cost / max(1, len(segment))
        if per_phoneme <= self.MAX_COST_PER_PHONEME:
            return [word]
        # Try splitting into two words (handles a missed inter-word silence).
        if len(segment) >= 4:
            best: tuple[float, list[str]] | None = None
            for split in range(2, len(segment) - 1):
                left_word, left_cost = self._best_word(segment[:split], previous)
                right_word, right_cost = self._best_word(segment[split:], left_word)
                total = left_cost + right_cost
                if best is None or total < best[0]:
                    best = (total, [left_word, right_word])
            if best is not None and best[0] / len(segment) <= self.MAX_COST_PER_PHONEME:
                return best[1]
        if per_phoneme <= 1.0:
            # Poor match, but close enough to emit the best guess.
            return [word]
        return []

    def _best_word(self, segment: tuple[Phoneme, ...],
                   previous: str | None) -> tuple[str, float]:
        cache_key = (segment, previous if self.lm_weight > 0 else None)
        if cache_key in self._segment_cache:
            return self._segment_cache[cache_key]
        result = self._search_lexicon(segment, previous)
        self._segment_cache[cache_key] = result
        return result

    def _segment_distances(self, segment: tuple[Phoneme, ...]) -> np.ndarray:
        """Edit distances from every lexicon pronunciation to ``segment``.

        One vectorized DP over the whole lexicon, cached per segment (a
        segment's distances are independent of ``previous``, so this
        also shares work across language-model contexts).
        """
        cached = self._distance_cache.get(segment)
        if cached is None:
            hyp = np.array([self._code(token) for token in segment],
                           dtype=np.int32)
            cached = levenshtein_codes_batch(self._pron_matrix,
                                             self._pron_lengths, hyp)
            self._distance_cache[segment] = cached
        return cached

    def _lm_vector(self, previous: str | None) -> np.ndarray:
        """Language-model scores of every lexicon word after ``previous``."""
        cached = self._lm_vectors.get(previous)
        if cached is None:
            if self._unigram_scores is None:
                self._unigram_scores = \
                    self.language_model.unigram_logprob_vector(self._words)
            cached = self.language_model.word_scores(previous, self._words,
                                                     self._unigram_scores)
            self._lm_vectors[previous] = cached
        return cached

    def _search_lexicon(self, segment: tuple[Phoneme, ...],
                        previous: str | None) -> tuple[str, float]:
        """Vectorized lexicon search; replays the scalar selection exactly.

        The distances come from one batched integer DP and the LM bonus
        from a cached per-context vector; the candidate scan below keeps
        the seed per-word loop's iteration order, pruning rule and strict
        ``<`` tie-break, so word and cost are bit-identical to it.
        """
        seg_len = len(segment)
        distances = self._segment_distances(segment)
        lm_scores = None
        best_word = ""
        best_score = float("inf")
        for length in range(max(1, seg_len - 2), seg_len + 3):
            for idx in self._by_length.get(length, ()):
                distance = distances[idx]
                if distance - 1 > best_score:
                    continue
                if lm_scores is None:
                    lm_scores = self._lm_vector(previous)
                score = distance - self.lm_weight * lm_scores[idx]
                if score < best_score:
                    best_score = score
                    best_word = self._entries[idx][0]
        if not best_word and len(self._entries):
            # Unconstrained fallback: the scalar strict-< scan selects the
            # first minimum in entry order, which is exactly np.argmin.
            idx = int(np.argmin(distances))
            best_word = self._entries[idx][0]
            best_score = float(distances[idx])
        result = (best_word, float(best_score if best_score != float("inf") else seg_len))
        return result
