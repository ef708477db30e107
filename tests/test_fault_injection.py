"""Fault-injection tests for the detection service.

Each test injects one failure mode — a pipeline that raises, a worker
that dies mid-batch, a detection that hangs past its deadline, a real
ASR stage that throws — and asserts the service converts it into the
matching *typed* result (500/504/429) while staying alive: respawned
workers, retried bystanders, no hung futures, no raw exceptions.
"""

from __future__ import annotations

import logging
import multiprocessing.connection
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.detector import MVPEarsDetector
from repro.pipeline.detection import DetectionPipeline
from repro.serving import service as service_module
from repro.serving.service import DetectionService

from serving_fakes import (
    FaultyASR,
    FaultyPipeline,
    make_clip,
    own_arena_segments,
)


@pytest.fixture(autouse=True)
def no_leaked_arena_segments():
    """Every fault path must leave this process's /dev/shm segments
    cleaned up after stop().

    Crashed workers, hung workers, poisoned batches — whatever a test
    injected, the service's arena segment must be unlinked once the
    service stops.  (Asserted on entry too, so a leak is pinned on the
    test that caused it, not the next one.)
    """
    assert own_arena_segments() == []
    yield
    assert own_arena_segments() == [], \
        f"test leaked /dev/shm segments: {own_arena_segments()}"


def _service(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_depth", 64)
    kwargs.setdefault("request_timeout_seconds", 30.0)
    kwargs.setdefault("max_batch_size", 4)
    return DetectionService({"t": FaultyPipeline()}, **kwargs)


# -------------------------------------------------------------- exceptions


@pytest.mark.timeout(60)
def test_pipeline_exception_becomes_typed_500():
    with _service() as service:
        result = service.submit("t", make_clip({"raise": True})) \
            .result(timeout=30)
    assert result.status == "error"
    assert result.code == 500
    assert "RuntimeError" in result.detail
    assert result.is_adversarial is None and result.scores is None


@pytest.mark.timeout(60)
def _poisoned_four():
    return [make_clip(), make_clip({"raise": True}), make_clip(), make_clip()]


@pytest.mark.timeout(60)
def test_failed_batch_falls_back_per_request_and_is_counted():
    with _service(max_batch_size=8) as service:
        assert service.submit("t", make_clip()).result(timeout=30).ok
        # Hold the idle worker on a slow clip so the next four are
        # drained together as one tenant batch.
        blocker = service.submit("t", make_clip({"hang": 1.0}))
        time.sleep(0.3)
        futures = [service.submit("t", clip) for clip in _poisoned_four()]
        results = [future.result(timeout=30) for future in futures]
        assert blocker.result(timeout=30).ok
    assert [r.status for r in results] == ["ok", "error", "ok", "ok"]
    assert service.stats.batch_fallbacks == 4
    assert service.stats.errors == 1


def test_failed_batch_logs_a_warning_and_flags_results(caplog):
    sent = []
    batch = [(key, "t", clip) for key, clip in enumerate(_poisoned_four())]
    with caplog.at_level(logging.WARNING, logger=service_module.__name__):
        service_module._run_batch(0, {"t": FaultyPipeline()}, batch,
                                  SimpleNamespace(send=sent.append),
                                  shared_caches=False)
    assert "tenant 't' batch of 4" in caplog.text
    assert "RuntimeError: injected pipeline fault" in caplog.text
    assert [payload["ok"] for _, _, payload in sent] == [True, False,
                                                          True, True]
    assert all(payload["batch_fallback"] for _, _, payload in sent)


@pytest.mark.timeout(60)
def test_exception_does_not_cost_a_worker():
    with _service() as service:
        bad = service.submit("t", make_clip({"raise": True})).result(timeout=30)
        good = service.submit("t", make_clip()).result(timeout=30)
    assert bad.status == "error"
    assert good.ok
    assert service.stats.respawns == 0, \
        "an exception must be caught in the worker, not kill it"


@pytest.mark.timeout(120)
def test_real_asr_fault_surfaces_as_typed_error(ds0, asr_suite, rng,
                                                synthesizer):
    detector = MVPEarsDetector(
        ds0, [FaultyASR(asr_suite["DS1"]), asr_suite["GCS"]],
        workers=0, cache=False)
    n_aux = detector.n_features
    features = np.vstack([rng.uniform(0.85, 1.0, (20, n_aux)),
                          rng.uniform(0.0, 0.4, (20, n_aux))])
    labels = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    detector.fit_features(features, labels)
    clean = synthesizer.synthesize("open the front door")
    poisoned = clean.with_samples(clean.samples, poison_asr=True)
    with DetectionService({"d": DetectionPipeline(detector)}, workers=1,
                          queue_depth=8,
                          request_timeout_seconds=60.0) as service:
        bad = service.submit("d", poisoned).result(timeout=60)
        good = service.submit("d", clean).result(timeout=60)
    assert bad.status == "error" and "injected ASR fault" in bad.detail
    assert good.ok


# ----------------------------------------------------------------- crashes


@pytest.mark.timeout(60)
def test_crash_is_retried_once_then_typed_500():
    with _service() as service:
        result = service.submit("t", make_clip({"crash": True})) \
            .result(timeout=30)
    assert result.status == "error"
    assert result.code == 500
    assert result.retried, "a crash victim must be retried once"
    assert "died twice" in result.detail
    assert service.stats.retries == 1
    assert service.stats.respawns >= 2


@pytest.mark.timeout(60)
def test_crash_respawns_worker_and_service_continues():
    with _service() as service:
        service.submit("t", make_clip({"crash": True})).result(timeout=30)
        after = service.submit("t", make_clip()).result(timeout=30)
    assert after.ok, "the pool must recover after a worker death"
    assert service.stats.respawns >= 1


@pytest.mark.timeout(60)
def test_crash_bystanders_are_retried_and_succeed():
    with _service() as service:
        poison = service.submit("t", make_clip({"crash": True}))
        bystander = service.submit("t", make_clip())
        poison_result = poison.result(timeout=30)
        bystander_result = bystander.result(timeout=30)
    assert poison_result.status == "error"
    assert bystander_result.ok
    assert bystander_result.retried, \
        "the bystander died with the worker and must have been retried"


@pytest.mark.timeout(120)
def test_worker_dying_mid_batch_loses_no_request():
    with _service(workers=2, max_batch_size=4) as service:
        futures = [service.submit("t",
                                  make_clip({"crash": True})
                                  if i == 5 else make_clip(),
                                  request_id=f"b{i}")
                   for i in range(12)]
        results = [f.result(timeout=60) for f in futures]
    assert len(results) == 12
    assert results[5].status == "error"
    others = [r for i, r in enumerate(results) if i != 5]
    assert all(r.ok for r in others), \
        [(r.request_id, r.status, r.detail) for r in others if not r.ok]


@pytest.mark.timeout(60)
def test_retried_flag_reported_on_success():
    with _service() as service:
        poison = service.submit("t", make_clip({"crash": True}))
        survivor = service.submit("t", make_clip())
        poison.result(timeout=30)
        result = survivor.result(timeout=30)
    assert result.ok and result.retried


# ------------------------------------------------------------------- hangs


@pytest.mark.timeout(60)
def test_hang_past_deadline_times_out_504():
    with _service(request_timeout_seconds=0.5) as service:
        result = service.submit("t", make_clip({"hang": 30.0})) \
            .result(timeout=30)
    assert result.status == "timeout"
    assert result.code == 504
    assert "worker" in result.detail


@pytest.mark.timeout(60)
def test_hung_worker_is_terminated_and_respawned():
    with _service(request_timeout_seconds=0.5) as service:
        service.submit("t", make_clip({"hang": 30.0})).result(timeout=30)
        after = service.submit("t", make_clip()).result(timeout=30)
    assert after.ok, "a fresh worker must replace the hung one"
    assert service.stats.respawns >= 1
    assert service.stats.timeouts >= 1


@pytest.mark.timeout(60)
def test_hang_bystanders_with_live_deadlines_are_retried():
    import time

    with _service(request_timeout_seconds=1.0, max_batch_size=4) as service:
        hang = service.submit("t", make_clip({"hang": 30.0}))
        # Submit the bystanders late enough that their own deadlines are
        # still live when the hung worker is terminated: they must be
        # retried on the fresh worker, not timed out alongside the hang.
        time.sleep(0.6)
        bystanders = [service.submit("t", make_clip()) for _ in range(3)]
        hang_result = hang.result(timeout=30)
        bystander_results = [f.result(timeout=30) for f in bystanders]
    assert hang_result.status == "timeout"
    assert all(r.ok for r in bystander_results), \
        [r.detail for r in bystander_results if not r.ok]


@pytest.mark.timeout(60)
def test_hang_batchmates_past_deadline_time_out_too():
    with _service(request_timeout_seconds=1.0, max_batch_size=4) as service:
        futures = [service.submit("t", make_clip({"hang": 30.0}))] \
            + [service.submit("t", make_clip()) for _ in range(3)]
        results = [f.result(timeout=30) for f in futures]
    # All four were submitted together and share the expired deadline:
    # the service must not retry work whose deadline has already passed.
    assert all(r.status == "timeout" and r.code == 504 for r in results)


@pytest.mark.timeout(60)
def test_deadline_in_queue_expires_as_504():
    with _service(request_timeout_seconds=0.5, max_batch_size=1) as service:
        blocker = service.submit("t", make_clip({"hang": 30.0}))
        queued = service.submit("t", make_clip())
        queued_result = queued.result(timeout=30)
        blocker_result = blocker.result(timeout=30)
    assert blocker_result.status == "timeout"
    assert queued_result.status == "timeout"
    assert "queue" in queued_result.detail or "worker" in queued_result.detail


@pytest.mark.timeout(60)
def test_no_deadline_means_slow_requests_complete():
    with _service(request_timeout_seconds=None) as service:
        result = service.submit("t", make_clip({"hang": 1.0})) \
            .result(timeout=30)
    assert result.ok
    assert result.total_seconds >= 1.0
    assert service.stats.timeouts == 0


# --------------------------------------------------------------- shedding


@pytest.mark.timeout(60)
def test_backlog_sheds_typed_429():
    with _service(queue_depth=2, max_batch_size=1,
                  request_timeout_seconds=None) as service:
        blocker = service.submit("t", make_clip({"hang": 1.0}))
        burst = [service.submit("t", make_clip()) for _ in range(6)]
        results = [f.result(timeout=30) for f in burst]
        assert blocker.result(timeout=30).ok
    shed = [r for r in results if r.status == "rejected"]
    assert shed
    assert all(r.code == 429 for r in shed)
    # Shedding is immediate: a shed result never waited on a worker.
    assert all(r.worker_id == -1 for r in shed)


@pytest.mark.timeout(60)
def test_every_fault_mode_resolves_no_future_hangs():
    faults = [{"raise": True}, {"crash": True}, {"hang": 30.0}, {}]
    with _service(request_timeout_seconds=1.0) as service:
        futures = [service.submit("t", make_clip(meta)) for meta in faults]
        results = [f.result(timeout=45) for f in futures]
    statuses = {r.status for r in results}
    assert statuses <= {"ok", "error", "timeout", "rejected"}
    assert all(r.code in (200, 429, 500, 504) for r in results)


# ------------------------------------------------------ shared-cache refresh


def _broken_refresh(pipelines):
    raise OSError("injected torn journal")


@pytest.mark.timeout(60)
def test_failed_cache_refresh_is_counted_and_the_batch_still_served(
        monkeypatch, tmp_path):
    # Patched before the fork, so the workers inherit the broken
    # refresh; the fake pipelines have no caches to rewire.
    monkeypatch.setattr(service_module, "_refresh_shared_caches",
                        _broken_refresh)
    monkeypatch.setattr(service_module, "attach_shared_caches",
                        lambda pipelines, cache_dir: None)
    with _service(cache_dir=str(tmp_path)) as service:
        results = [service.submit("t", make_clip()).result(timeout=30)
                   for _ in range(3)]
    assert all(r.ok for r in results), [r.detail for r in results]
    assert service.stats.cache_refresh_failures == 3
    assert service.stats.errors == 0


def test_failed_cache_refresh_logs_a_warning_and_flags_results(
        monkeypatch, caplog):
    monkeypatch.setattr(service_module, "_refresh_shared_caches",
                        _broken_refresh)

    sent = []
    with caplog.at_level(logging.WARNING, logger=service_module.__name__):
        service_module._run_batch(0, {"t": FaultyPipeline()},
                                  [(1, "t", make_clip())],
                                  SimpleNamespace(send=sent.append),
                                  shared_caches=True)
    assert "OSError: injected torn journal" in caplog.text
    [(worker_id, key, payload)] = sent
    assert (worker_id, key) == (0, 1)
    assert payload["ok"] and payload["cache_refresh_failed"]


# ------------------------------------------------------------ collector


@pytest.mark.timeout(60)
def test_collector_failure_resolves_outstanding_requests_as_500(
        monkeypatch, caplog):
    real_wait = multiprocessing.connection.wait
    armed = threading.Event()

    def wait(object_list, timeout=None):
        if armed.is_set() and threading.current_thread().name == "serve-collect":
            raise OSError("injected wait fault")
        return real_wait(object_list, timeout)

    with caplog.at_level(logging.ERROR, logger=service_module.__name__):
        with _service() as service:
            assert service.submit("t", make_clip()).result(timeout=30).ok
            monkeypatch.setattr(multiprocessing.connection, "wait", wait)
            stuck = service.submit("t", make_clip({"hang": 3.0}))
            time.sleep(0.3)
            armed.set()
            service._wake_w.send_bytes(b"r")    # end the collector's wait
            result = stuck.result(timeout=10)
            assert service.stats.collector_failures == 1
    assert result.status == "error" and result.code == 500
    assert result.detail == ("result collector failed: OSError: "
                             "injected wait fault")
    assert "result collector failed: OSError: injected wait fault" \
        in caplog.text
    # stop() finds nothing left to resolve and does not count again.
    assert service.stats.collector_failures == 1
    assert service.stats.errors == 1


@pytest.mark.timeout(60)
def test_requests_after_a_collector_failure_resolve_at_once_as_500(
        monkeypatch):
    real_wait = multiprocessing.connection.wait

    def wait(object_list, timeout=None):
        if threading.current_thread().name == "serve-collect":
            raise OSError("injected wait fault")
        return real_wait(object_list, timeout)

    monkeypatch.setattr(multiprocessing.connection, "wait", wait)
    with _service(request_timeout_seconds=None) as service:
        deadline = time.monotonic() + 10
        while (service.stats.collector_failures == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert service.stats.collector_failures == 1
        result = service.submit("t", make_clip()).result(timeout=1.0)
        # The dispatcher has stopped too: nothing reached a worker.
        service._dispatcher.join(timeout=1.0)
        assert not service._dispatcher.is_alive()
        assert all(not flight for flight in service._inflight.values())
    assert result.status == "error" and result.code == 500
    assert result.detail == ("result collector failed: OSError: "
                             "injected wait fault")
    assert result.worker_id == -1
