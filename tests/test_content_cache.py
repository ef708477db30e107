"""The shared content-cache code: merge rule and pinned on-disk formats.

The transcription, pair-score and feature caches are thin subclasses of
:class:`repro.caching.ContentCache`.  These tests pin what the three
promise about their stores:

* one merge rule for every load path — a journal record without a key,
  or with a payload the value codec rejects, is skipped, and the records
  after it still merge;
* the on-disk layouts — a store written by hand in the documented layout
  loads, and saving it back writes the same layout.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.asr.base import Transcription
from repro.dsp.feature_cache import FeatureCache
from repro.pipeline.cache import TranscriptionCache
from repro.similarity.score_cache import PairScoreCache

_PAYLOAD = {"text": "open the door", "phonemes": ["o", "p"],
            "frame_labels": ["o", "o", "p"], "asr_name": "DS0",
            "elapsed_seconds": 0.5, "extra": {"beam": 4}}

#: (cache type, a value, its journal payload) for the JSON-valued caches.
_JSON_KINDS = {
    "TranscriptionCache": (TranscriptionCache,
                           lambda text: Transcription(text=text),
                           lambda text: {**_PAYLOAD, "text": text}),
    "PairScoreCache": (PairScoreCache, lambda text: float(len(text)),
                       lambda text: float(len(text))),
}


def _plain(value):
    """A cached value in comparable form (transcriptions by their text)."""
    return value.text if isinstance(value, Transcription) else value


def _append_lines(path, *records) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


# ------------------------------------------------------------ merge rule
@pytest.mark.parametrize("kind", list(_JSON_KINDS))
def test_refresh_skips_a_record_without_a_key(tmp_path, kind):
    cache_type, value, payload = _JSON_KINDS[kind]
    path = str(tmp_path / "shared.jsonl")
    reader = cache_type(path=path)
    _append_lines(path, {"k": "a", "v": payload("aa")}, {"v": payload("b")},
                  {"k": "c", "v": payload("cccc")})

    assert reader.refresh() == 2
    assert _plain(reader.get("c")) == _plain(value("cccc"))
    assert _plain(reader.get("a")) == _plain(value("aa"))
    assert reader.refresh() == 0


@pytest.mark.parametrize("kind", list(_JSON_KINDS))
def test_opening_a_journal_with_malformed_records_skips_them(tmp_path, kind):
    cache_type, value, payload = _JSON_KINDS[kind]
    path = str(tmp_path / "shared.jsonl")
    _append_lines(path, {"k": "a", "v": payload("aa")}, {"v": payload("b")},
                  {"k": 7, "v": payload("b")}, {"k": "bad", "v": "x"},
                  {"k": "c", "v": payload("cccc")})

    cache = cache_type(path=path)
    assert len(cache) == 2
    assert _plain(cache.get("c")) == _plain(value("cccc"))
    assert "bad" not in cache


@pytest.mark.parametrize("suffix", [".json", ".jsonl"])
def test_transcription_load_skips_undecodable_payloads(tmp_path, suffix):
    path = str(tmp_path / f"store{suffix}")
    good, bad = _PAYLOAD, {"phonemes": ["o"]}           # no "text"
    if suffix == ".json":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"good": good, "bad": bad, "worse": "text"}, handle)
    else:
        _append_lines(path, {"k": "good", "v": good}, {"k": "bad", "v": bad},
                      {"k": "worse", "v": "text"})

    cache = TranscriptionCache()
    assert cache.load(path) == 1
    assert cache.get("good").text == "open the door"
    assert "bad" not in cache and "worse" not in cache
    assert len(TranscriptionCache(path=path)) == 1


# ------------------------------------------------------- on-disk formats
def test_json_snapshot_format_round_trips(tmp_path):
    path = str(tmp_path / "transcriptions.json")
    written = {"key-a": _PAYLOAD, "key-b": {**_PAYLOAD, "text": "stop"}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(written, handle)

    cache = TranscriptionCache(path=path)
    assert cache.get("key-a").text == "open the door"
    assert cache.get("key-a").extra == {"beam": 4}
    cache.save()
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == written


def test_journal_format_round_trips(tmp_path):
    path = str(tmp_path / "scores.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"k":"a","v":0.25}\n{"k":"b","v":0.5}\n')

    cache = PairScoreCache(path=path)
    assert cache.get("a") == 0.25 and cache.get("b") == 0.5
    cache.put("c", 0.75)                                # write-through
    with open(path, encoding="utf-8") as handle:
        assert handle.read().splitlines()[-1] == '{"k":"c","v":0.75}'
    cache.put("a", 0.25)
    cache.save()                                        # compaction
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == ('{"k":"b","v":0.5}\n{"k":"c","v":0.75}\n'
                                 '{"k":"a","v":0.25}\n')


def test_npz_snapshot_format_round_trips(tmp_path):
    path = str(tmp_path / "features.npz")
    first, second = np.arange(6.0).reshape(2, 3), np.full((1, 4), 0.5)
    np.savez(path, __keys__=np.array(["mfcc:a", "lpc:b"]),
             arr_0=first, arr_1=second)

    cache = FeatureCache(path=path)
    assert np.array_equal(cache.get("mfcc:a"), first)
    copy = str(tmp_path / "copy.npz")
    cache.save(copy)
    with np.load(copy, allow_pickle=False) as payload:
        assert sorted(payload.files) == ["__keys__", "arr_0", "arr_1"]
        keys = [str(key) for key in payload["__keys__"]]
        assert sorted(keys) == ["lpc:b", "mfcc:a"]
        arrays = {key: payload[f"arr_{i}"] for i, key in enumerate(keys)}
    assert np.array_equal(arrays["mfcc:a"], first)
    assert np.array_equal(arrays["lpc:b"], second)


def _entry_path(directory: str, key: str) -> str:
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
    return os.path.join(directory, f"{digest}.npz")


def test_directory_format_round_trips(tmp_path):
    directory = str(tmp_path / "features")
    os.makedirs(directory)
    matrix = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    np.savez(_entry_path(directory, "mfcc:a"),
             __key__=np.array("mfcc:a"), value=matrix)

    cache = FeatureCache(path=directory)
    assert len(cache) == 0                              # read lazily
    assert np.array_equal(cache.get("mfcc:a"), matrix)
    assert cache.stats.hits == 1
    cache.put("lpc:b", 2 * matrix)
    cache.save()
    assert sorted(os.listdir(directory)) == sorted(
        os.path.basename(_entry_path(directory, key))
        for key in ("mfcc:a", "lpc:b"))
    with np.load(_entry_path(directory, "lpc:b"),
                 allow_pickle=False) as payload:
        assert sorted(payload.files) == ["__key__", "value"]
        assert str(payload["__key__"]) == "lpc:b"
        assert np.array_equal(payload["value"], 2 * matrix)


def test_every_cache_kind_refreshes():
    for cache_type in (TranscriptionCache, PairScoreCache, FeatureCache):
        assert cache_type().refresh() == 0
