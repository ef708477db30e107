"""Set-up of the system under test, timed from before ``import repro``.

Run as a script, this is one set-up probe: a fresh process that builds
the system once, prints ``{"setup_s": ...}`` and exits.  The runner
starts a few probes per run and reports the median set-up time.
"""

from __future__ import annotations

import json
import sys
import time

#: The service the serve-open workload drives: two forked workers
#: behind the shared-memory audio transport.
SERVE_WORKERS = 2
TENANT = "bench"


class System:
    """The built system a workload drives."""

    def __init__(self, detector, service=None):
        self.detector = detector
        #: a started DetectionService over ``detector`` (serve-open only).
        self.service = service
        self._reference = None

    def reference_detector(self):
        """The paper-faithful detector, built on first use."""
        if self._reference is None:
            self._reference = build_reference_detector()
        return self._reference

    def stop_service(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def close(self) -> None:
        try:
            self.stop_service()
            self.detector.close()
            if self._reference is not None:
                self._reference.close()
        finally:
            stop_helper_processes()


def stop_helper_processes() -> None:
    """Stop every process ``multiprocessing`` started here and wait for it.

    That is any worker still alive, then the resource tracker the
    shared-memory transport starts: it would otherwise outlive this
    process until it noticed its pipe had closed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Closing the tracker's pipe ends it; ``_stop`` then reaps it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def build_system(serve: bool = False) -> tuple[System, float]:
    """Import, build the default suite and fit it on the ``tiny`` scores;
    with ``serve``, also fork the worker pool.  Returns the system and
    the seconds that took."""
    start = time.perf_counter()
    import repro
    from repro.specs import DetectorSpec

    detector = repro.build(DetectorSpec.default(scale="tiny"))
    service = None
    if serve:
        service = repro.DetectionService({TENANT: detector},
                                         workers=SERVE_WORKERS,
                                         transport="shm").start()
    return System(detector, service), time.perf_counter() - start


def build_reference_detector():
    """The default suite on the paper-faithful path: sequential, no
    transcription, feature or pair-score cache, per-member front ends."""
    from dataclasses import replace

    import repro
    from repro.specs import DetectorSpec, FeaturesSpec

    spec = DetectorSpec.default(scale="tiny", workers=0, cache="off",
                                score_cache="off")
    spec = replace(spec, pipeline=replace(
        spec.pipeline, features=FeaturesSpec(backend="off", cache="off")))
    return repro.build(spec)


if __name__ == "__main__":
    probe, probe_seconds = build_system(serve="--serve" in sys.argv)
    probe.close()
    print(json.dumps({"setup_s": probe_seconds}))
