"""Tests for the ``repro`` command line (``python -m repro``)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.audio.waveform import Waveform
from repro.audio.wavio import write_wav
from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def wav_paths(tmp_path_factory, synthesizer):
    directory = tmp_path_factory.mktemp("clips")
    paths = []
    for i, text in enumerate(("turn off all the lights",
                              "the weather is nice today")):
        path = str(directory / f"clip{i}.wav")
        write_wav(path, synthesizer.synthesize(text))
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory, synthesizer):
    clips = [synthesizer.synthesize(text)
             for text in ("open the front door",
                          "the storm passed over the hills before sunset")]
    samples = np.concatenate([clip.samples for clip in clips])
    path = str(tmp_path_factory.mktemp("stream") / "stream.wav")
    write_wav(path, Waveform(samples))
    return path


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "screen" in capsys.readouterr().out


def test_parser_covers_documented_commands():
    parser = build_parser()
    commands = set(parser._subparsers._group_actions[0].choices)
    assert {"screen", "stream", "serve", "run", "sweep", "backends",
            "config"} <= commands
    # Performance is measured by perfbench/, not by the command line.
    assert not any(command.startswith("bench") for command in commands)


def test_screen_command(wav_paths, capsys):
    code = main(["screen", *wav_paths, "--scale", "tiny"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    for path in wav_paths:
        assert path in out
    assert "screened 2 clips" in out


def test_screen_json_output(wav_paths, capsys):
    code = main(["screen", wav_paths[0], "--scale", "tiny", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert len(payload["results"]) == 1
    result = payload["results"][0]
    assert result["file"] == wav_paths[0]
    assert isinstance(result["is_adversarial"], bool)
    assert isinstance(result["target_transcription"], str)
    assert (code == 1) == any(r["is_adversarial"] for r in payload["results"])


def test_stream_command_json(stream_path, capsys):
    code = main(["stream", stream_path, "--scale", "tiny",
                 "--window", "1.0", "--hop", "1.0", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert payload["windows"]
    starts = [w["start"] for w in payload["windows"]]
    assert starts == sorted(starts)
    assert (code == 1) == payload["is_adversarial"]


def test_screen_transform_defense(wav_paths, capsys):
    code = main(["screen", wav_paths[0], "--scale", "tiny",
                 "--defense", "transform",
                 "--transforms", "quantize:6,lowpass:2500", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert len(payload["results"][0]["scores"]) == 2


def test_transforms_require_transform_defense(wav_paths, capsys):
    assert main(["screen", wav_paths[0], "--scale", "tiny",
                 "--transforms", "quantize:6"]) == 2
    assert "--defense" in capsys.readouterr().err


def test_bad_transform_spec_is_a_user_error(wav_paths, capsys):
    assert main(["screen", wav_paths[0], "--scale", "tiny",
                 "--defense", "transform", "--transforms", "reverb:3"]) == 2
    assert "unknown transform" in capsys.readouterr().err


def test_missing_wav_is_a_user_error(capsys):
    assert main(["screen", "/nonexistent/clip.wav"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_scorer_is_a_user_error(wav_paths, capsys):
    assert main(["screen", wav_paths[0], "--scale", "tiny",
                 "--scorer", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_mistyped_score_cache_policy_is_a_user_error(wav_paths, capsys):
    assert main(["screen", wav_paths[0], "--scale", "tiny",
                 "--score-cache", "sharde"]) == 2
    assert "sharde" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory):
    from repro.specs import DetectorSpec

    path = tmp_path_factory.mktemp("configs") / "tiny.json"
    return DetectorSpec.default(scale="tiny").save(str(path))


def test_config_show_prints_effective_spec(capsys):
    assert main(["config", "show", "--scale", "small",
                 "--scorer", "PE_Jaccard"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["training"]["scale"] == "small"
    assert payload["scoring"] == {"scorer": "PE_Jaccard", "cache": "shared"}
    with pytest.raises(SystemExit):          # one scoring path: no flag
        main(["config", "show", "--scoring-backend", "fast"])
    capsys.readouterr()
    assert payload["suite"]["auxiliaries"] == ["DS1", "GCS", "AT"]


def test_config_validate_accepts_good_rejects_bad(tmp_path, tiny_config_path,
                                                  capsys):
    assert main(["config", "validate", tiny_config_path]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text('{"scoring": {"scorer": "nope"}}')
    assert main(["config", "validate", tiny_config_path, str(bad)]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "nope" in captured.out


def test_config_validate_checked_in_examples(capsys):
    import glob

    configs = sorted(glob.glob(os.path.join(REPO_ROOT, "examples",
                                            "configs", "*.json")))
    assert len(configs) >= 3
    assert main(["config", "validate", *configs]) == 0


def test_screen_with_config_matches_flags(wav_paths, tiny_config_path, capsys):
    code_config = main(["screen", wav_paths[0], "--config", tiny_config_path,
                        "--json"])
    from_config = json.loads(capsys.readouterr().out)["results"][0]
    code_flags = main(["screen", wav_paths[0], "--scale", "tiny", "--json"])
    from_flags = json.loads(capsys.readouterr().out)["results"][0]
    assert code_config == code_flags
    assert from_config["scores"] == from_flags["scores"]
    assert from_config["is_adversarial"] == from_flags["is_adversarial"]


def test_config_flags_overlay_file(tiny_config_path, capsys):
    assert main(["config", "show", "--config", tiny_config_path,
                 "--classifier", "KNN", "--defense", "transform",
                 "--transforms", "quantize:6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classifier"]["name"] == "KNN"          # flag overlay
    assert payload["suite"]["auxiliaries"] == [
        {"name": "DS0", "transform": "quantize:6"}]        # suite reshaped
    assert payload["training"]["scale"] == "tiny"          # file value kept


def test_defense_flag_keeps_config_target(tmp_path, capsys):
    from repro.specs import DetectorSpec

    path = str(tmp_path / "kal.json")
    DetectorSpec.from_dict({
        "suite": {"target": "KAL", "auxiliaries": ["DS1"]},
        "training": {"scale": "tiny", "source": "bundle"}}).save(path)
    assert main(["config", "show", "--config", path,
                 "--defense", "transform", "--transforms", "quantize:6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"]["target"] == "KAL"
    assert payload["suite"]["auxiliaries"] == [
        {"name": "KAL", "transform": "quantize:6"}]


def test_config_env_overlays_file(tiny_config_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CLASSIFIER", "RandomForest")
    assert main(["config", "show", "--config", tiny_config_path]) == 0
    assert json.loads(capsys.readouterr().out)["classifier"]["name"] == \
        "RandomForest"


def test_env_overlays_flag_defaults_without_config(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CLASSIFIER", "KNN")
    assert main(["config", "show"]) == 0
    assert json.loads(capsys.readouterr().out)["classifier"]["name"] == "KNN"
    # An explicit flag still beats the environment.
    assert main(["config", "show", "--classifier", "RandomForest"]) == 0
    assert json.loads(capsys.readouterr().out)["classifier"]["name"] == \
        "RandomForest"


def test_transforms_flag_reparameterises_transform_config(capsys):
    config = os.path.join(REPO_ROOT, "examples", "configs",
                          "transform-ensemble.json")
    assert main(["config", "show", "--config", config,
                 "--transforms", "quantize:6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"]["auxiliaries"] == [
        {"name": "DS0", "transform": "quantize:6"}]


def test_suite_reshape_inherits_config_pieces(tmp_path, capsys):
    from repro.specs import DetectorSpec

    path = str(tmp_path / "combined.json")
    DetectorSpec.from_dict({
        "suite": {"target": "DS0",
                  "auxiliaries": ["KAL",
                                  {"name": "DS0", "transform": "quantize:6"}]},
        "training": {"scale": "tiny", "source": "bundle"}}).save(path)
    # --auxiliaries replaces only the plain members; the config's custom
    # transform ensemble survives.
    assert main(["config", "show", "--config", path,
                 "--auxiliaries", "DS1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"]["auxiliaries"] == [
        "DS1", {"name": "DS0", "transform": "quantize:6"}]
    # --defense combined alone keeps both custom pieces.
    assert main(["config", "show", "--config", path,
                 "--defense", "combined"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"]["auxiliaries"] == [
        "KAL", {"name": "DS0", "transform": "quantize:6"}]


def test_target_flag_accepts_parameterised_kaldi(capsys):
    assert main(["config", "show", "--target", "KAL-fs3",
                 "--auxiliaries", "DS1"]) == 0
    assert json.loads(capsys.readouterr().out)["suite"]["target"] == "KAL-fs3"


def test_mistyped_target_is_a_user_error(wav_paths, capsys):
    assert main(["screen", wav_paths[0], "--target", "SIRI"]) == 2
    assert "SIRI" in capsys.readouterr().err


def test_config_show_rejects_invalid_flag_combination(capsys):
    # The printed spec is advertised as ready to save, so a bad name
    # must fail at show time, not when the saved config is reused.
    assert main(["config", "show", "--target", "SIRI"]) == 2
    assert "SIRI" in capsys.readouterr().err


def test_auxiliaries_conflict_with_pure_transform_defense(capsys):
    assert main(["config", "show", "--defense", "transform",
                 "--auxiliaries", "DS1,GCS"]) == 2
    assert "--defense combined" in capsys.readouterr().err


def test_missing_config_file_is_a_user_error(wav_paths, capsys):
    assert main(["screen", wav_paths[0],
                 "--config", "/nonexistent.json"]) == 2
    assert "nonexistent" in capsys.readouterr().err


def test_invalid_config_file_is_a_user_error(tmp_path, wav_paths, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"suite": {"target": "SIRI"}}')
    assert main(["screen", wav_paths[0], "--config", str(bad)]) == 2
    assert "SIRI" in capsys.readouterr().err


def test_python_dash_m_repro_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True, timeout=120, env=env, cwd=REPO_ROOT)
    assert completed.returncode == 0
    assert "screen" in completed.stdout
