"""In-memory span recorder installed around the library's public layer calls.

The benchmark times each layer from outside: :class:`Tracer` replaces a
fixed list of public methods (see :data:`LAYER_CALLS`) with wrappers that
record one span per call, and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

A span is ``(id, parent, name, start, end)``.  The parent of a span
opened on a thread with no open span of its own is the innermost span
open on the main thread: the detection client keeps a single clip in
flight, so the engine's pool threads always work for the main thread's
current ``engine.transcribe`` call.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

from repro.asr import simulated
from repro.asr.acoustic import TemplateAcousticModel
from repro.asr.decoder import WordDecoder
from repro.attacks.blackbox import BlackBoxGeneticAttack
from repro.attacks.whitebox import WhiteBoxCarliniAttack
from repro.core.detector import MVPEarsDetector
from repro.dsp.engine import FeatureEngine
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.engine import TranscriptionEngine
from repro.similarity.engine import SimilarityEngine

#: (owner, attribute, span name) of every wrapped call.  ``owner`` is a
#: class or, for the frame-label decoders, the module that looks them up.
LAYER_CALLS = (
    (MVPEarsDetector, "detect", "core.detector"),
    (MVPEarsDetector, "predict_features", "ml.classify"),
    (TranscriptionEngine, "transcribe", "pipeline.engine"),
    (TranscriptionEngine, "transcribe_batch", "pipeline.engine"),
    (TranscriptionCache, "key_for", "pipeline.cache.key"),
    (TranscriptionCache, "get", "pipeline.cache.get"),
    (TranscriptionCache, "put", "pipeline.cache.put"),
    (FeatureEngine, "features", "dsp.front_end"),
    (FeatureEngine, "prewarm", "dsp.front_end"),
    (TemplateAcousticModel, "log_posteriors", "asr.acoustic"),
    (TemplateAcousticModel, "log_posteriors_batch", "asr.acoustic"),
    (TemplateAcousticModel, "target_margin_loss", "asr.acoustic.margin"),
    (WordDecoder, "decode", "asr.decoder.decode"),
    (simulated, "greedy_frame_labels", "asr.decoder.frame_labels"),
    (simulated, "smoothed_frame_labels", "asr.decoder.frame_labels"),
    (simulated, "viterbi_frame_labels", "asr.decoder.frame_labels"),
    (SimilarityEngine, "score_pairs_report", "similarity"),
    (WhiteBoxCarliniAttack, "run", "attacks.whitebox"),
    (BlackBoxGeneticAttack, "run", "attacks.blackbox"),
)


class Span:
    """One timed call; ``attrs`` holds counts taken from its result."""

    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs = None

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end,
                **({"attrs": self.attrs} if self.attrs else {})}


def _describe_result(name: str, result) -> dict | None:
    """Counts a span records from its call's return value."""
    if name == "pipeline.cache.get":
        return {"hit": result is not None}
    if name == "similarity":
        report = result[1]
        return {"hits": report.cache_hits, "lookups": report.lookups}
    if name.startswith("attacks."):
        return {"success": bool(result.success),
                "iterations": int(result.iterations)}
    return None


class Tracer:
    """Records spans around :data:`LAYER_CALLS` while installed.

    ``classifier_type`` is the fitted classifier's class; its ``predict``
    is wrapped as ``ml.classify`` because ``detect`` calls it directly.
    """

    def __init__(self, classifier_type=None):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.main_thread()
        self._saved: list[tuple[object, str, object, bool]] = []
        self._calls = list(LAYER_CALLS)
        if classifier_type is not None:
            self._calls.append((classifier_type, "predict", "ml.classify"))

    # ------------------------------------------------------------- patching
    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                main = tracer._main_stack
                parent = main[-1].id if main else None
            span = Span(next(tracer._ids), parent, name, time.perf_counter())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span.attrs = _describe_result(name, result)
            return result

        return traced

    def install(self) -> "Tracer":
        for owner, attr, name in self._calls:
            if isinstance(owner, type):
                # Class attributes are read raw so a staticmethod stays one.
                home = next(k for k in owner.__mro__ if attr in k.__dict__)
                raw, own = home.__dict__[attr], home is owner
            else:
                raw, own = getattr(owner, attr), True
            self._saved.append((owner, attr, raw, own))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__,
                                                             name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))
        return self

    def uninstall(self) -> None:
        for owner, attr, raw, own in reversed(self._saved):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------- analysis
    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanSummary:
    """Per-layer totals over a list of finished spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        by_id = {span.id: span for span in spans}
        children = defaultdict(list)
        for span in spans:
            if span.parent in by_id:
                children[span.parent].append((span.start, span.end))
        self.self_seconds = defaultdict(float)
        self.total_seconds = defaultdict(float)
        #: calls not nested inside a span of the same layer.
        self.calls = defaultdict(int)
        for span in spans:
            duration = span.end - span.start
            self.self_seconds[span.name] += duration - _covered(
                children.get(span.id, []), span.start, span.end)
            parent = by_id.get(span.parent)
            if parent is None or parent.name != span.name:
                self.total_seconds[span.name] += duration
                self.calls[span.name] += 1
        self._by_id = by_id

    def attr_sum(self, name: str, key: str) -> int:
        """Sum of one recorded count over the ``name`` spans."""
        return sum(span.attrs[key] for span in self.spans
                   if span.name == name and span.attrs and key in span.attrs)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Outermost ``name`` calls made inside an ``ancestor`` span."""
        count = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = self._by_id.get(span.parent)
            if parent is not None and parent.name == name:
                continue
            while parent is not None and parent.name != ancestor:
                parent = self._by_id.get(parent.parent)
            count += parent is not None
        return count


class TimeUp(Exception):
    """Raised at an attack's next query once its craft phase is over."""


class AttackProbe:
    """Counts the attacks' target-model queries and ends a craft phase.

    Every acoustic-model scoring call an attack makes (``log_posteriors``
    or ``target_margin_loss``) is one query; ``cpu_at`` keeps the process
    CPU time at each one, so the CPU between consecutive queries is the
    attack's cost per query.  Once ``stop()`` is true the next query
    raises :class:`TimeUp`, which ends the builder call in progress.
    """

    _QUERY_CALLS = ("log_posteriors", "target_margin_loss")

    def __init__(self, stop):
        self.cpu_at: list[float] = []
        self._stop = stop
        self._saved = []

    @property
    def queries(self) -> int:
        return len(self.cpu_at)

    def _query(self, func):
        probe = self

        def query(*args, **kwargs):
            if probe._stop():
                raise TimeUp()
            probe.cpu_at.append(time.process_time())
            return func(*args, **kwargs)

        return query

    def __enter__(self) -> "AttackProbe":
        for name in self._QUERY_CALLS:
            raw = TemplateAcousticModel.__dict__[name]
            self._saved.append((name, raw))
            setattr(TemplateAcousticModel, name, self._query(raw))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, raw in reversed(self._saved):
            setattr(TemplateAcousticModel, name, raw)
        self._saved.clear()
