"""The open ASR registry: construction, caching and plugins.

The multiversion suite is *not* fixed: any callable that produces an
:class:`~repro.asr.base.ASRSystem` can be registered under a short name
with :func:`register_asr`, after which it participates in suites,
:class:`~repro.specs.SuiteSpec` configs and the CLI exactly like the
built-in simulators.  The paper's four evaluation systems (``DS0``,
``DS1``, ``GCS``, ``AT``) are simply the entries registered at import
time with ``default_suite=True``; :func:`default_asr_suite` and the
auxiliary order used by the scored datasets are derived from those
registrations, not from a hardcoded list.

Building an ASR simulator involves synthesising phoneme exemplars and
fitting acoustic templates, so the registry caches one instance per
name and shares a single lexicon, language model and training
synthesiser across the whole suite (mirroring how the paper uses fixed,
off-the-shelf models).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.asr.amazon import AmazonTranscribe
from repro.asr.base import ASRSystem
from repro.asr.deepspeech import DeepSpeechV010, DeepSpeechV011
from repro.asr.google import GoogleCloudSpeech
from repro.asr.kaldi import Kaldi
from repro.audio.synthesis import SpeechSynthesizer
from repro.config import SAMPLE_RATE
from repro.errors import UnknownComponentError
from repro.text.corpus import (
    attack_command_corpus,
    combined_vocabulary,
    commonvoice_like_corpus,
    librispeech_like_corpus,
)
from repro.text.language_model import BigramLanguageModel
from repro.text.lexicon import Lexicon


@lru_cache(maxsize=1)
def get_shared_lexicon() -> Lexicon:
    """Pronunciation lexicon covering every built-in corpus."""
    return Lexicon(combined_vocabulary())


@lru_cache(maxsize=1)
def get_shared_language_model() -> BigramLanguageModel:
    """Bigram language model trained on the benign and attack corpora."""
    model = BigramLanguageModel()
    model.fit(librispeech_like_corpus())
    model.fit(commonvoice_like_corpus())
    model.fit(attack_command_corpus())
    model.fit(attack_command_corpus(two_word_only=True))
    return model


@lru_cache(maxsize=1)
def get_training_synthesizer() -> SpeechSynthesizer:
    """Synthesiser used to build acoustic templates (fixed seed)."""
    return SpeechSynthesizer(sample_rate=SAMPLE_RATE,
                             lexicon=get_shared_lexicon(), seed=7)


def shared_asr_kwargs() -> dict:
    """The shared resources handed to every built-in ASR constructor.

    Exposed so plugin factories can opt into the same lexicon, language
    model and training synthesiser as the built-ins::

        register_asr("MY", lambda: MyASR(**shared_asr_kwargs()))
    """
    return dict(lexicon=get_shared_lexicon(),
                language_model=get_shared_language_model(),
                synthesizer=get_training_synthesizer(),
                sample_rate=SAMPLE_RATE)


# ------------------------------------------------------------------ registry
_FACTORIES: dict[str, Callable[[], ASRSystem]] = {}
_DEFAULT_SUITE: list[str] = []
_INSTANCES: dict[str, ASRSystem] = {}


def register_asr(name: str, factory: Callable[[], ASRSystem],
                 default_suite: bool = False) -> None:
    """Register an ASR factory under ``name`` (overwrites allowed).

    Args:
        name: short name the system is addressed by in suites, specs and
            on the CLI (e.g. ``"DS0"``, ``"whisper-tiny"``).
        factory: zero-argument callable returning a fresh
            :class:`~repro.asr.base.ASRSystem`; called at most once —
            the instance is cached process-wide.  Use
            :func:`shared_asr_kwargs` to share the built-ins' lexicon /
            language model / synthesiser.
        default_suite: include the name in :func:`default_suite_names`
            (the paper's target-first suite order).  Leave ``False`` for
            plugins: registering a system makes it *available*, it does
            not silently change what the default system builds.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"ASR name must be a non-empty string, got {name!r}")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)          # a re-registration replaces the cache
    if default_suite and name not in _DEFAULT_SUITE:
        _DEFAULT_SUITE.append(name)


def unregister_asr(name: str) -> None:
    """Remove a registered ASR (no-op if absent).  Mainly for tests.

    Unregistering a name that shadows a built-in restores the built-in
    factory instead of leaving a hole in the paper's suite; built-ins
    keep their default-suite position throughout.
    """
    if name in _BUILTINS:
        _FACTORIES[name] = _BUILTINS[name]
        _INSTANCES.pop(name, None)
        return
    _FACTORIES.pop(name, None)
    _INSTANCES.pop(name, None)
    if name in _DEFAULT_SUITE:
        _DEFAULT_SUITE.remove(name)


def available_asr_names() -> tuple[str, ...]:
    """Sorted names of every registered ASR system (built-ins + plugins).

    Parameterised Kaldi variants (``KAL-fs<N>``) resolve through
    :func:`build_asr` as well but are unbounded, so they are not listed.
    """
    return tuple(sorted(_FACTORIES))


def default_suite_names() -> tuple[str, ...]:
    """The paper's suite in target-first order (``DS0``, then auxiliaries).

    Derived from the registrations flagged ``default_suite=True``, in
    registration order — the single source the scored-dataset auxiliary
    order and :func:`default_asr_suite` are computed from.
    """
    return tuple(_DEFAULT_SUITE)


def _dynamic_factory(short_name: str) -> Callable[[], ASRSystem] | None:
    """Factory for the parameterised name families.

    Two families resolve dynamically: ``KAL-fs<N>`` (Kaldi with frame
    subsampling factor ``N``) and ``sim-<NN>`` (member ``NN`` of the
    generated simulated family, see :mod:`repro.backends.family`).
    """
    if not isinstance(short_name, str):
        return None
    if short_name.startswith("KAL-fs"):
        suffix = short_name.removeprefix("KAL-fs")
        if suffix.isdigit():
            factor = int(suffix)
            return lambda: Kaldi(frame_subsampling_factor=factor,
                                 **shared_asr_kwargs())
    if short_name.startswith("sim-"):
        suffix = short_name.removeprefix("sim-")
        if suffix.isdigit():
            index = int(suffix)

            def build_member() -> ASRSystem:
                # Imported lazily: repro.backends imports this module.
                from repro.backends.family import (
                    build_family_member,
                    family_member_config,
                )
                return build_family_member(family_member_config(index))

            return build_member
    return None


def asr_name_resolvable(short_name) -> bool:
    """Whether :func:`build_asr` would resolve ``short_name``.

    The single source of truth for spec validation: a registered name
    (built-in or plugin) or a member of a parameterised family.
    """
    return short_name in _FACTORIES or _dynamic_factory(short_name) is not None


def build_asr(short_name: str) -> ASRSystem:
    """Build (or fetch the cached) ASR simulator for ``short_name``.

    Resolves built-ins (``DS0``, ``DS1``, ``GCS``, ``AT``, ``KAL``),
    systems added via :func:`register_asr`, and the parameterised Kaldi
    family ``KAL-fs<N>`` (frame subsampling factor ``N``).  One instance
    is cached per name.
    """
    instance = _INSTANCES.get(short_name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(short_name) or _dynamic_factory(short_name)
    if factory is None:
        raise UnknownComponentError("ASR system", short_name,
                                    available_asr_names())
    instance = _INSTANCES[short_name] = factory()
    return instance


def build_fresh_asr(short_name: str) -> ASRSystem:
    """Build a new, uncached instance of ``short_name``.

    Unlike :func:`build_asr`, the process-wide instance cache is neither
    consulted nor populated.  Used where shared mutable state (decoder
    segment caches, attached feature engines) must not leak between
    configurations — e.g. the per-clip reference path the pipeline speed
    gate (``benchmarks/test_pipeline_bench.py``) times.
    """
    factory = _FACTORIES.get(short_name) or _dynamic_factory(short_name)
    if factory is None:
        raise UnknownComponentError("ASR system", short_name,
                                    available_asr_names())
    return factory()


def default_asr_suite() -> dict[str, ASRSystem]:
    """The target model and the paper's auxiliary models, by short name.

    Derived from the registry's default-suite flags; registering extra
    plugins does not change it.
    """
    return {name: build_asr(name) for name in default_suite_names()}


# The paper's evaluation systems.  DS0 is the target; DS1/GCS/AT are the
# auxiliary suite of the headline DS0+{DS1, GCS, AT} system.
register_asr("DS0", lambda: DeepSpeechV010(**shared_asr_kwargs()),
             default_suite=True)
register_asr("DS1", lambda: DeepSpeechV011(**shared_asr_kwargs()),
             default_suite=True)
register_asr("GCS", lambda: GoogleCloudSpeech(**shared_asr_kwargs()),
             default_suite=True)
register_asr("AT", lambda: AmazonTranscribe(**shared_asr_kwargs()),
             default_suite=True)
register_asr("KAL", lambda: Kaldi(**shared_asr_kwargs()))

#: Snapshot of the built-in factories: what :func:`unregister_asr`
#: restores when a shadowing plugin is removed (built-ins never leave
#: the registry or their default-suite position).
_BUILTINS: dict[str, Callable[[], ASRSystem]] = dict(_FACTORIES)
