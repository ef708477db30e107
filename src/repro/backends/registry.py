"""Backend registry: optional adapters joining the open ASR registry.

:func:`register_backend` records a backend's metadata (required modules,
install hint, description) and registers a guarded factory into the
existing :func:`repro.asr.registry.register_asr` plugin registry.  The
guard is the whole point: the *name* always resolves — suites, specs and
the CLI treat a registered backend like any other ASR — but *building*
it when its optional dependencies are absent raises
:class:`~repro.errors.BackendUnavailableError` with the install hint
instead of the generic unknown-name message.

This module is also the suite-attribution surface: :func:`asr_fingerprint`
gives every resolvable ASR name a stable version digest (backend model
fingerprints, family member config digests, built-in name digests) and
:func:`describe_suite` / :func:`suite_warnings` turn a
:class:`~repro.specs.SuiteSpec` into the composition records embedded in
experiment manifests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.asr.base import ASRSystem
from repro.asr.registry import asr_name_resolvable, register_asr, unregister_asr
from repro.backends.base import DEFAULT_INSTALL_HINT, module_missing
from repro.errors import BackendUnavailableError


@dataclass(frozen=True)
class BackendEntry:
    """One registered backend: how to build it and what it needs."""

    name: str
    loader: Callable[[], ASRSystem]
    requires: tuple[str, ...] = ()
    install_hint: str = DEFAULT_INSTALL_HINT
    description: str = ""

    def missing(self) -> tuple[str, ...]:
        """The required modules that cannot be imported right now."""
        return tuple(module for module in self.requires
                     if module_missing(module))

    def available(self) -> bool:
        return not self.missing()

    def fingerprint(self) -> str:
        """Model-version digest; ``"unavailable"`` when deps are missing."""
        probe = getattr(self.loader, "fingerprint", None)
        if callable(probe):
            return probe()
        if not self.available():
            return "unavailable"
        return _name_digest(f"backend|{self.name}")


_BACKENDS: dict[str, BackendEntry] = {}


def register_backend(name: str, loader: Callable[[], ASRSystem],
                     requires: Iterable[str] = (),
                     install_hint: str = DEFAULT_INSTALL_HINT,
                     description: str = "") -> BackendEntry:
    """Register an optional-dependency backend under ``name``.

    Args:
        name: short name the backend is addressed by (suites, specs,
            CLI), e.g. ``"wav2vec2-torch"``.
        loader: zero-argument callable returning the adapter instance.
            Passing a :class:`~repro.backends.base.BackendAdapter`
            subclass works (classes are callables) and additionally
            lets the registry reuse its ``fingerprint()`` probe.
        requires: importable module names the backend needs; when any is
            missing, building the name raises
            :class:`~repro.errors.BackendUnavailableError` carrying
            ``install_hint``, while the name itself still validates.
        install_hint: the command that makes the backend work.
        description: one line for ``repro backends`` listings.
    """
    entry = BackendEntry(name=name, loader=loader,
                         requires=tuple(requires),
                         install_hint=install_hint,
                         description=description)
    _BACKENDS[name] = entry

    def factory() -> ASRSystem:
        missing = entry.missing()
        if missing:
            raise BackendUnavailableError("ASR system", name, missing,
                                          entry.install_hint)
        return entry.loader()

    register_asr(name, factory)
    return entry


def unregister_backend(name: str) -> None:
    """Remove a backend and its ASR registration (no-op if absent)."""
    if _BACKENDS.pop(name, None) is not None:
        unregister_asr(name)


def backend_names() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_BACKENDS))


def backend_entry(name: str) -> BackendEntry | None:
    """The :class:`BackendEntry` registered under ``name``, if any."""
    return _BACKENDS.get(name)


def backend_status(name: str) -> dict:
    """Availability report of one backend, as a JSON-friendly dict."""
    entry = _BACKENDS[name]
    missing = entry.missing()
    return {
        "name": entry.name,
        "available": not missing,
        "missing": list(missing),
        "requires": list(entry.requires),
        "install_hint": entry.install_hint,
        "fingerprint": entry.fingerprint(),
        "description": entry.description,
    }


def _name_digest(payload: str) -> str:
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def asr_fingerprint(name: str) -> str:
    """Version digest of any resolvable ASR name.

    Registered backends report their model fingerprint, ``sim-<NN>``
    family members the digest of their generated configuration, and the
    deterministic built-in simulators a stable digest of their name
    (their "version" is the library itself).  Unresolvable names report
    ``"unknown"`` rather than raising — the fingerprint surface is used
    in reporting paths that must not fail.
    """
    entry = _BACKENDS.get(name)
    if entry is not None:
        return entry.fingerprint()
    from repro.backends.family import family_fingerprint, is_family_name
    if is_family_name(name):
        return family_fingerprint(name)
    if asr_name_resolvable(name):
        return _name_digest(f"builtin|{name}")
    return "unknown"


def _suite_member_names(suite) -> list[str]:
    return [suite.target.name] + [aux.name for aux in suite.auxiliaries]


def describe_suite(suite) -> dict:
    """Composition + fingerprints of a :class:`~repro.specs.SuiteSpec`.

    The record embedded in experiment-run manifests so accuracy and
    overhead numbers are attributable to the exact suite that produced
    them.
    """
    names = _suite_member_names(suite)
    return {
        "target": suite.target.name,
        "auxiliaries": [aux.name for aux in suite.auxiliaries],
        "fingerprints": {name: asr_fingerprint(name)
                         for name in dict.fromkeys(names)},
    }


def suite_warnings(suite) -> list[str]:
    """Human-readable warnings for suite members that will not build.

    A member naming a registered-but-unavailable backend yields a
    warning with its missing modules and install hint; config validation
    prints these without failing (the config is correct, the
    environment is incomplete).
    """
    warnings = []
    for name in dict.fromkeys(_suite_member_names(suite)):
        entry = _BACKENDS.get(name)
        if entry is None:
            continue
        missing = entry.missing()
        if missing:
            warnings.append(
                f"backend {name!r} is registered but unavailable "
                f"(missing: {', '.join(missing)}); install with: "
                f"{entry.install_hint}")
    return warnings
