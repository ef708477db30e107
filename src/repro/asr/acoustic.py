"""Template-based acoustic models with per-ASR learned projections.

Each simulated ASR owns a :class:`TemplateAcousticModel`: for every phoneme
it stores a template vector in the system's own feature space, obtained by
running clean phoneme exemplars through the system's front end.  A
model-specific anisotropic weighting (the "learned projection") determines
which feature dimensions the model attends to, and model-specific template
noise stands in for differences in training data and optimisation.

Frame scoring is a weighted nearest-template softmax::

    logit[p] = -sum_k w_k * (f_k - T[p, k])^2 / temperature
    posterior = softmax(logit)

The projection weights ``w`` differ per ASR.  This is the crucial diversity
mechanism: a white-box attack minimising the perturbation needed to cross
the *target* model's decision boundary concentrates its energy in the
dimensions that model weighs heavily, which are (with high probability) not
the dimensions another model weighs heavily — so the attack does not
transfer, exactly the behaviour Section III of the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.audio.synthesis import SpeakerProfile, SpeechSynthesizer
from repro.dsp.features import FeatureExtractor
from repro.text.phonemes import PHONEMES, PHONEME_TO_INDEX, Phoneme

#: Clean training exemplars, keyed by ``(sample_rate, phoneme, speaker)``.
#: ``phoneme_exemplar`` renders with a fixed RNG and no jitter, so every
#: model that fits on the same speakers would render the same arrays;
#: each is rendered once per process and stored read-only.
_EXEMPLARS: dict[tuple[int, Phoneme, SpeakerProfile], np.ndarray] = {}


def _training_exemplar(synthesizer: SpeechSynthesizer, phoneme: Phoneme,
                       speaker: SpeakerProfile) -> np.ndarray:
    key = (synthesizer.sample_rate, phoneme, speaker)
    exemplar = _EXEMPLARS.get(key)
    if exemplar is None:
        exemplar = synthesizer.phoneme_exemplar(phoneme, duration=0.12,
                                                speaker=speaker)
        exemplar.setflags(write=False)
        _EXEMPLARS[key] = exemplar
    return exemplar


class TemplateAcousticModel:
    """Weighted nearest-template phoneme classifier."""

    def __init__(self, feature_extractor: FeatureExtractor, seed: int,
                 template_noise: float = 0.0, temperature: float = 4.0,
                 weight_range: tuple[float, float] = (0.3, 1.7)):
        """Create an (unfitted) acoustic model.

        Args:
            feature_extractor: the ASR's front end.
            seed: seed controlling the learned projection and template noise;
                two models with different seeds behave like independently
                trained systems.
            template_noise: standard deviation of the noise added to the
                templates (relative to per-dimension feature scale).  Larger
                values give a less accurate model (used for Kaldi).
            temperature: softmax temperature of the frame classifier.
            weight_range: range of the per-dimension projection weights.
        """
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.feature_extractor = feature_extractor
        self.seed = seed
        self.template_noise = template_noise
        self.temperature = temperature
        self.weight_range = weight_range
        self.templates: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self._fitted = False

    # ---------------------------------------------------------------- fitting
    def fit(self, synthesizer: SpeechSynthesizer,
            speakers: list[SpeakerProfile] | None = None) -> "TemplateAcousticModel":
        """Build phoneme templates from clean synthetic exemplars."""
        rng = np.random.default_rng(self.seed)
        if speakers is None:
            speakers = [
                SpeakerProfile(pitch_hz=110.0),
                SpeakerProfile(pitch_hz=150.0, formant_scale=0.97),
                SpeakerProfile(pitch_hz=200.0, formant_scale=1.05),
            ]
        dim = self.feature_extractor.feature_dim
        templates = np.zeros((len(PHONEMES), dim))
        for phoneme in PHONEMES:
            vectors = []
            for speaker in speakers:
                exemplar = _training_exemplar(synthesizer, phoneme, speaker)
                features = self.feature_extractor.transform(exemplar)
                if features.shape[0] == 0:
                    continue
                middle = features[features.shape[0] // 3: max(1, 2 * features.shape[0] // 3 + 1)]
                vectors.append(middle.mean(axis=0))
            if not vectors:
                raise RuntimeError(f"could not build template for phoneme {phoneme}")
            templates[PHONEME_TO_INDEX[phoneme]] = np.mean(vectors, axis=0)

        feature_scale = np.maximum(templates.std(axis=0), 1e-3)
        if self.template_noise > 0:
            templates = templates + (self.template_noise * feature_scale
                                     * rng.standard_normal(templates.shape))
        low, high = self.weight_range
        weights = rng.uniform(low, high, size=dim)
        # Normalise so the average weighted scale is comparable across ASRs.
        weights = weights / weights.mean()
        self.templates = templates
        self.weights = weights / (feature_scale ** 2)
        self._fitted = True
        return self

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("acoustic model has not been fitted")

    # ---------------------------------------------------------------- scoring
    @property
    def n_phonemes(self) -> int:
        return len(PHONEMES)

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Frame logits of shape ``(n_frames, n_phonemes)``."""
        self._require_fit()
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.templates.shape[1]:
            raise ValueError("feature matrix has the wrong shape")
        diff = features[:, None, :] - self.templates[None, :, :]
        dist = np.einsum("fpk,k->fp", diff ** 2, self.weights)
        return -dist / self.temperature

    def log_posteriors(self, features: np.ndarray) -> np.ndarray:
        """Log-softmax of the frame logits."""
        logits = self.logits(features)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return shifted - log_norm

    def log_posteriors_batch(self,
                             features_list: list[np.ndarray]) -> list[np.ndarray]:
        """Log posteriors for many clips' feature matrices in one pass.

        Stacks the clips' frames and scores them together: every stage
        (the einsum distance contraction, the per-row max-shift and the
        per-row log-sum-exp) is row-independent, so the split results are
        bit-identical to per-clip :meth:`log_posteriors` calls — pinned
        by ``tests/test_dsp_vectorized.py``.
        """
        self._require_fit()
        if not features_list:
            return []
        counts = [np.asarray(f).shape[0] for f in features_list]
        stacked = np.concatenate(
            [np.asarray(f, dtype=np.float64) for f in features_list], axis=0)
        scored = self.log_posteriors(stacked)
        out, start = [], 0
        for count in counts:
            out.append(scored[start:start + count])
            start += count
        return out

    def posteriors(self, features: np.ndarray) -> np.ndarray:
        """Softmax posteriors per frame."""
        return np.exp(self.log_posteriors(features))

    def classify_frames(self, features: np.ndarray) -> list[Phoneme]:
        """Most likely phoneme per frame."""
        logits = self.logits(features)
        return [PHONEMES[i] for i in logits.argmax(axis=1)]

    # ------------------------------------------------------ attack interface
    def logits_gradient(self, features: np.ndarray,
                        grad_logits: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient on the logits to the feature matrix.

        ``logit[f, p] = -sum_k w_k (x[f,k] - T[p,k])^2 / temperature`` hence
        ``d logit[f, p] / d x[f, k] = -2 w_k (x[f,k] - T[p,k]) / temperature``.
        """
        self._require_fit()
        features = np.asarray(features, dtype=np.float64)
        grad_logits = np.asarray(grad_logits, dtype=np.float64)
        diff = features[:, None, :] - self.templates[None, :, :]
        scaled = -2.0 * self.weights[None, None, :] * diff / self.temperature
        return np.einsum("fp,fpk->fk", grad_logits, scaled)

    def target_margin_loss(self, features: np.ndarray, target_indices: np.ndarray,
                           margin: float = 1.0) -> tuple[float, np.ndarray]:
        """Hinge loss encouraging the target phoneme to win each frame.

        For each frame, the loss is ``max(0, margin + best_other - target)``
        over the logits.  Returns the total loss and its gradient with
        respect to the feature matrix.  The hinge form matters: the attack
        stops as soon as the target model's decision flips (plus a small
        margin) rather than pushing features all the way onto the target
        phoneme's template, which is what keeps white-box AEs from
        transferring to other models.
        """
        self._require_fit()
        target_indices = np.asarray(target_indices, dtype=int)
        logits = self.logits(features)
        n_frames = logits.shape[0]
        if target_indices.shape[0] != n_frames:
            raise ValueError("one target phoneme index per frame is required")
        frame_idx = np.arange(n_frames)
        target_logits = logits[frame_idx, target_indices]
        masked = logits.copy()
        masked[frame_idx, target_indices] = -np.inf
        best_other_idx = masked.argmax(axis=1)
        best_other = masked[frame_idx, best_other_idx]
        violation = margin + best_other - target_logits
        active = violation > 0

        loss = float(np.sum(violation[active])) if active.any() else 0.0
        grad_logits = np.zeros_like(logits)
        grad_logits[frame_idx[active], target_indices[active]] = -1.0
        grad_logits[frame_idx[active], best_other_idx[active]] = 1.0
        grad_features = self.logits_gradient(features, grad_logits)
        return loss, grad_features
