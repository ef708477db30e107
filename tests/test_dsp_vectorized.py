"""Bit-identity parity harness for the vectorized DSP / decode kernels.

Every vectorized kernel in the recognition stack is pinned to the seed
library's per-clip / per-item implementation kept in ``tests/oracles/``,
and the contract is ``==`` (``np.array_equal``), never ``allclose``: the
batched path must replay the oracle's floating-point operations exactly.
These are property tests (hypothesis drives shapes, rates, dtypes and
contents, including empty and single-frame edge cases) covering:

* ``mel_filterbank`` vs ``oracles.dsp.mel_filterbank_reference``
* ``overlap_add`` vs ``oracles.dsp.overlap_add_reference``
* ``smoothed_frame_labels`` vs
  ``oracles.decoder.smoothed_frame_labels_reference``
* ``FeatureExtractor.transform_batch`` vs per-clip ``transform`` for all
  front-end families (MFCC, log-mel, mel-cepstrum, LPCC, LPC envelope)
* ``TemplateAcousticModel.log_posteriors_batch`` vs ``log_posteriors``
* ``batched_edit_distances`` / ``levenshtein_codes_batch`` vs
  ``edit_distance``
* ``BigramLanguageModel.word_scores`` vs per-word ``word_score``
* ``WordDecoder`` lexicon search vs ``oracles.decoder.best_word_scalar``

plus the float64 dtype-stability guarantee of the front ends, and the
BLAS thread pin: ``import repro`` runs every loaded OpenBLAS on one
thread, and the front ends, the acoustic model and the white-box MFCC
backward pass give ``==`` results at one BLAS thread and at two.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.decoder import smoothed_frame_labels_reference, use_scalar_search
from oracles.dsp import mel_filterbank_reference, overlap_add_reference
from repro import _blas
from repro.asr.decoder import WordDecoder, smoothed_frame_labels
from repro.asr.registry import get_shared_language_model, get_shared_lexicon
from repro.dsp.features import (
    LogMelFeatureExtractor,
    LpcFeatureExtractor,
    MfccFeatureExtractor,
)
from repro.dsp.framing import overlap_add
from repro.dsp.mel import mel_filterbank
from repro.text.metrics import (
    batched_edit_distances,
    edit_distance,
    levenshtein_codes_batch,
)
from repro.text.phonemes import PHONEMES, SILENCE


def _extractors():
    """One extractor per front-end family (small geometries for speed)."""
    return [
        MfccFeatureExtractor(),
        LogMelFeatureExtractor(frame_length=256, hop_length=128, n_fft=256,
                               n_mels=20),
        LogMelFeatureExtractor(frame_length=256, hop_length=128, n_fft=256,
                               n_mels=20, n_ceps=12),
        LpcFeatureExtractor(frame_length=240, hop_length=120, order=10,
                            style="cepstrum"),
        LpcFeatureExtractor(frame_length=240, hop_length=120, order=10,
                            n_bands=16, style="envelope"),
    ]


def _extractor_id(extractor) -> str:
    family, variant = extractor.cache_tag.split(":")[:2]
    return family + ":" + variant


def _clip(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=length)


# ------------------------------------------------------------ mel filterbank
@given(n_filters=st.integers(min_value=2, max_value=40),
       n_fft=st.sampled_from([128, 256, 512]),
       sample_rate=st.sampled_from([8_000, 16_000, 22_050]))
def test_mel_filterbank_matches_reference(n_filters, n_fft, sample_rate):
    fast = mel_filterbank(n_filters, n_fft, sample_rate)
    reference = mel_filterbank_reference(n_filters, n_fft, sample_rate)
    assert fast.dtype == np.float64
    assert np.array_equal(fast, reference)


# --------------------------------------------------------------- overlap-add
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       count=st.integers(min_value=0, max_value=12),
       frame_length=st.integers(min_value=1, max_value=64),
       hop=st.integers(min_value=1, max_value=64))
def test_overlap_add_matches_reference(seed, count, frame_length, hop):
    frames = np.random.default_rng(seed).standard_normal((count, frame_length))
    fast = overlap_add(frames, hop)
    reference = overlap_add_reference(frames, hop)
    assert np.array_equal(fast, reference)


def test_overlap_add_empty_and_single_frame():
    assert overlap_add(np.zeros((0, 8)), 4).shape == (0,)
    frames = np.arange(8, dtype=float).reshape(1, 8)
    assert np.array_equal(overlap_add(frames, 3),
                          overlap_add_reference(frames, 3))


# ------------------------------------------------------- smoothed frame labels
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_frames=st.integers(min_value=0, max_value=40),
       window=st.integers(min_value=1, max_value=4))
def test_smoothed_frame_labels_match_reference(seed, n_frames, window):
    log_posteriors = np.log(np.random.default_rng(seed).dirichlet(
        np.ones(len(PHONEMES)), size=n_frames)) if n_frames else \
        np.zeros((0, len(PHONEMES)))
    fast = smoothed_frame_labels(log_posteriors, window=window)
    reference = smoothed_frame_labels_reference(log_posteriors, window=window)
    assert fast == reference


# ---------------------------------------------------------- front-end batches
@pytest.mark.parametrize("extractor", _extractors(), ids=_extractor_id)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       lengths=st.lists(st.sampled_from([0, 1, 37, 240, 256, 400, 1000, 2048]),
                        min_size=0, max_size=4))
@settings(max_examples=20, deadline=None)
def test_transform_batch_matches_per_clip(extractor, seed, lengths):
    rng = np.random.default_rng(seed)
    batch = [_clip(rng, length) for length in lengths]
    fast = extractor.transform_batch(batch)
    reference = [extractor.transform(samples) for samples in batch]
    assert len(fast) == len(reference)
    for fast_clip, reference_clip in zip(fast, reference):
        assert fast_clip.shape == reference_clip.shape
        assert np.array_equal(fast_clip, reference_clip)


@pytest.mark.parametrize("extractor", _extractors(), ids=_extractor_id)
def test_front_ends_are_float64_and_dtype_stable(extractor):
    """float32 / int16 inputs yield the same float64 features as float64."""
    rng = np.random.default_rng(11)
    samples = _clip(rng, 1200)
    baseline = extractor.transform(samples)
    assert baseline.dtype == np.float64
    for dtype in (np.float32, np.float64):
        cast = samples.astype(dtype)
        features = extractor.transform(cast)
        assert features.dtype == np.float64
        assert np.array_equal(
            features, extractor.transform(cast.astype(np.float64)))
    ints = (samples * 32767).astype(np.int16)
    assert extractor.transform(ints).dtype == np.float64


# --------------------------------------------------------- acoustic batching
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       lengths=st.lists(st.sampled_from([0, 1, 200, 700, 1600]),
                        min_size=0, max_size=4))
@settings(max_examples=15, deadline=None)
def test_log_posteriors_batch_matches_per_clip(ds0, seed, lengths):
    rng = np.random.default_rng(seed)
    model = ds0.acoustic_model
    features = [ds0.feature_extractor.transform(_clip(rng, length))
                for length in lengths]
    fast = model.log_posteriors_batch(features)
    reference = [model.log_posteriors(clip) for clip in features]
    assert len(fast) == len(reference)
    for fast_clip, reference_clip in zip(fast, reference):
        assert np.array_equal(fast_clip, reference_clip)


# ------------------------------------------------------ batched edit distance
_phoneme_seqs = st.lists(st.sampled_from(["AA", "B", "K", "S", "IY", "T"]),
                         max_size=7).map(tuple)


@given(references=st.lists(_phoneme_seqs, max_size=12),
       hypothesis_seq=_phoneme_seqs)
def test_batched_edit_distances_match_scalar(references, hypothesis_seq):
    batched = batched_edit_distances(references, list(hypothesis_seq))
    assert batched.dtype == np.int64
    assert len(batched) == len(references)
    for reference, value in zip(references, batched):
        assert value == edit_distance(list(reference), list(hypothesis_seq))


def test_levenshtein_codes_batch_matches_scalar():
    rng = np.random.default_rng(3)
    codes = {}

    def encode(seq):
        return [codes.setdefault(token, len(codes)) for token in seq]

    alphabet = ["AA", "B", "K", "S", "IY", "T", "M", "N"]
    references = [tuple(rng.choice(alphabet, size=rng.integers(0, 9)))
                  for _ in range(50)]
    max_len = max((len(r) for r in references), default=0)
    matrix = np.full((len(references), max(1, max_len)), -1, dtype=np.int32)
    lengths = np.zeros(len(references), dtype=np.int64)
    for row, reference in enumerate(references):
        encoded = encode(reference)
        matrix[row, :len(encoded)] = encoded
        lengths[row] = len(encoded)
    for hyp_len in (0, 1, 3, 7):
        hypothesis_seq = list(rng.choice(alphabet, size=hyp_len))
        batched = levenshtein_codes_batch(
            matrix, lengths, np.array(encode(hypothesis_seq), dtype=np.int32))
        for reference, value in zip(references, batched):
            assert value == edit_distance(list(reference), hypothesis_seq)


# ------------------------------------------------------- language model scores
@given(prev=st.sampled_from([None, "the", "open", "door", "zzz-unseen", "<s>"]))
@settings(deadline=None)
def test_word_scores_match_scalar(prev):
    language_model = get_shared_language_model()
    words = get_shared_lexicon().words[:200]
    vector = language_model.word_scores(prev, words)
    assert vector.dtype == np.float64
    scalar = np.array([language_model.word_score(prev, word)
                       for word in words])
    assert np.array_equal(vector, scalar)


def test_unigram_logprob_vector_matches_scalar():
    language_model = get_shared_language_model()
    words = get_shared_lexicon().words[:200]
    vector = language_model.unigram_logprob_vector(words)
    scalar = np.array([language_model.unigram_logprob(word)
                       for word in words])
    assert np.array_equal(vector, scalar)


# -------------------------------------------------------- word decoder search
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_tokens=st.integers(min_value=0, max_value=14))
@settings(max_examples=25, deadline=None)
def test_word_decoder_fast_search_matches_scalar(seed, n_tokens):
    rng = np.random.default_rng(seed)
    alphabet = [p for p in PHONEMES if p != SILENCE]
    tokens = []
    for _ in range(n_tokens):
        # Interleave silences so multi-segment decodes are exercised.
        if rng.random() < 0.2:
            tokens.append(SILENCE)
        tokens.append(str(rng.choice(alphabet)))
    fast = WordDecoder(get_shared_lexicon(), get_shared_language_model())
    scalar = use_scalar_search(
        WordDecoder(get_shared_lexicon(), get_shared_language_model()))
    assert fast.decode(list(tokens)) == scalar.decode(list(tokens))


# ---------------------------------------------------------------- BLAS threads
_FIVE_SECONDS = 5 * 16_000


def _at_blas_threads(n_threads: int, compute):
    """``compute()`` with every loaded OpenBLAS at ``n_threads`` threads
    (restored to the package's one thread afterwards)."""
    _blas.set_num_threads(n_threads)
    try:
        return compute()
    finally:
        _blas.set_num_threads(1)


@pytest.fixture
def openblas():
    if not _blas.num_threads():
        pytest.skip("no OpenBLAS loaded in this process")


def test_import_runs_every_loaded_openblas_on_one_thread(openblas):
    counts = _blas.num_threads()
    assert counts == [1] * len(counts)


@pytest.mark.parametrize("extractor", _extractors(), ids=_extractor_id)
def test_front_ends_do_not_depend_on_blas_threads(openblas, extractor):
    rng = np.random.default_rng(5)
    batch = [_clip(rng, _FIVE_SECONDS), _clip(rng, _FIVE_SECONDS // 2)]

    def compute():
        return ([extractor.transform(samples) for samples in batch]
                + extractor.transform_batch(batch))

    for two, one in zip(_at_blas_threads(2, compute),
                        _at_blas_threads(1, compute)):
        assert np.array_equal(two, one)


def test_log_posteriors_do_not_depend_on_blas_threads(openblas, ds0):
    rng = np.random.default_rng(6)
    features = ds0.feature_extractor.transform(_clip(rng, _FIVE_SECONDS))
    model = ds0.acoustic_model
    assert np.array_equal(
        _at_blas_threads(2, lambda: model.log_posteriors(features)),
        _at_blas_threads(1, lambda: model.log_posteriors(features)))


def test_mfcc_backward_does_not_depend_on_blas_threads(openblas, ds0):
    rng = np.random.default_rng(7)
    mfcc = ds0.feature_extractor.mfcc_extractor
    frames = mfcc.frames(_clip(rng, _FIVE_SECONDS))

    def compute():
        tape = mfcc.forward_with_tape(frames)
        grad = np.random.default_rng(8).standard_normal(tape.mfcc.shape)
        return tape.mfcc, tape.backward(grad)

    for two, one in zip(_at_blas_threads(2, compute),
                        _at_blas_threads(1, compute)):
        assert np.array_equal(two, one)
