"""Shared fixtures for the test suite.

Expensive objects (ASR simulators, the tiny scored dataset) are session
scoped.  The session is hermetic: it runs at the ``tiny`` scale against
a fresh cache directory that holds only the tracked
``.repro_cache/scored_tiny_200_*.json``, so neither a ``REPRO_*``
variable in the caller's shell nor warm state in the working copy's
cache can change what the tests see.  Tests that check scale or
environment resolution set their own values with ``monkeypatch``.
"""

from __future__ import annotations

import glob
import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.asr.registry import build_asr, get_shared_lexicon
from repro.audio.synthesis import SpeechSynthesizer
from repro.config import TINY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACKED_SCORED = os.path.join(ROOT, ".repro_cache", "scored_tiny_200_*.json")

_session_cache: str | None = None


def _pin_hermetic_env() -> str:
    """Drop every ``REPRO_*`` variable, pin ``REPRO_SCALE=tiny`` and
    point ``REPRO_CACHE_DIR`` at a fresh directory seeded with the
    tracked scored dataset; returns that directory."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    cache = tempfile.mkdtemp(prefix="repro-tests-cache-")
    for path in glob.glob(TRACKED_SCORED):
        shutil.copy2(path, cache)
    os.environ["REPRO_SCALE"] = "tiny"
    os.environ["REPRO_CACHE_DIR"] = cache
    return cache


@pytest.fixture(scope="session")
def lexicon():
    return get_shared_lexicon()


@pytest.fixture(scope="session")
def synthesizer(lexicon):
    return SpeechSynthesizer(lexicon=lexicon, seed=123)


@pytest.fixture(scope="session")
def ds0():
    return build_asr("DS0")


@pytest.fixture(scope="session")
def ds1():
    return build_asr("DS1")


@pytest.fixture(scope="session")
def asr_suite():
    return {name: build_asr(name) for name in ("DS0", "DS1", "GCS", "AT")}


@pytest.fixture(scope="session")
def benign_waveform(synthesizer):
    return synthesizer.synthesize("the storm passed over the hills before sunset")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def samples():
    """A deterministic short audio sample array in [-1, 1]."""
    t = np.linspace(0.0, 0.25, 4000, endpoint=False)
    return (0.6 * np.sin(2 * np.pi * 220.0 * t)
            + 0.3 * np.sin(2 * np.pi * 557.0 * t)).astype(np.float64)


@pytest.fixture(scope="session")
def tiny_dataset():
    """The tiny scored dataset (generated once, cached on disk)."""
    from repro.datasets.scores import load_scored_dataset

    return load_scored_dataset(TINY)


@pytest.fixture(scope="session")
def tiny_bundle():
    """The tiny audio dataset bundle."""
    from repro.datasets.builder import load_standard_bundle

    return load_standard_bundle(TINY)


# --------------------------------------------------- pytest-timeout fallback
# The serving/concurrency tests must fail, not wedge the whole run, when
# a queue deadlocks or a worker hangs.  pyproject pins a 120 s per-test
# deadline for pytest-timeout; when that plugin is not installed (this
# project cannot assume it), the hooks below provide a SIGALRM-based
# fallback honouring the same `@pytest.mark.timeout(N)` marker and
# `timeout` ini option (the root conftest.py registers that key).

def _timeout_plugin_active(config) -> bool:
    return config.pluginmanager.hasplugin("timeout")


def pytest_configure(config):
    global _session_cache
    _session_cache = _pin_hermetic_env()
    config.addinivalue_line(
        "markers", "timeout(seconds): per-test deadline (enforced by "
                   "pytest-timeout, or by the conftest SIGALRM fallback)")


def pytest_unconfigure(config):
    if _session_cache is not None:
        shutil.rmtree(_session_cache, ignore_errors=True)


def _deadline_seconds(item) -> float | None:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    value = item.config.getini("timeout")
    try:
        return float(value) if value else None
    except (TypeError, ValueError):
        return None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    import signal
    import threading

    seconds = (None if _timeout_plugin_active(item.config)
               else _deadline_seconds(item))
    if (seconds is None or seconds <= 0
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"test exceeded the {seconds:g} s deadline "
                    f"(conftest SIGALRM fallback)", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
