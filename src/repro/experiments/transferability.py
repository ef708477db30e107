"""Section III: the transferability study.

Two empirical findings are reproduced:

1. White-box AEs crafted against DS0 essentially never transfer to the
   auxiliary ASRs (the success matrix is all-zero off the target column).
2. The two-iteration recursive attack (CommanderSong style) does not yield
   transferable AEs: the second iteration's success destroys the first's.

The section's third finding, that a Kaldi variant with
``frame_subsampling_factor`` 3 (``KAL-fs3``) already breaks transfer of
AEs crafted against the original configuration, has no runner here.
"""

from __future__ import annotations

import numpy as np

from repro.asr.registry import build_asr, get_shared_lexicon
from repro.attacks.recursive import RecursiveTransferAttack
from repro.attacks.whitebox import WhiteBoxCarliniAttack
from repro.audio.synthesis import SpeechSynthesizer
from repro.datasets.builder import DatasetBundle
from repro.datasets.scores import AUXILIARY_ORDER
from repro.experiments.registry import register
from repro.experiments.runner import Experiment, ExperimentTable, WorkUnit
from repro.text.corpus import attack_command_corpus, librispeech_like_corpus
from repro.text.metrics import word_error_rate


def _transfer_row(bundle: DatasetBundle, name: str, max_aes: int) -> dict:
    """One ASR's transfer rate over the white-box AEs."""
    asr = build_asr(name)
    aes = bundle.whitebox[:max_aes]
    successes = 0
    for sample in aes:
        command = sample.waveform.metadata.get("target_text", "")
        transcription = asr.transcribe(sample.waveform).text
        if command and word_error_rate(command, transcription) == 0.0:
            successes += 1
    return {"asr": name,
            "transfer_rate": successes / max(1, len(aes)),
            "n_aes": len(aes),
            "role": "target" if name == "DS0" else "auxiliary"}


def run_transferability_study(bundle: DatasetBundle, max_aes: int = 16,
                              seed: int = 31) -> ExperimentTable:
    """AE transfer rates across the ASR suite (white-box AEs vs DS0)."""
    table = ExperimentTable(
        "Transferability", "Fraction of DS0-targeted AEs that fool each ASR")
    for name in ("DS0",) + tuple(AUXILIARY_ORDER):
        table.rows.append(_transfer_row(bundle, name, max_aes))
    return table


@register
class TransferabilityExperiment(Experiment):
    """Transfer-rate study sharded per ASR — 4 units."""

    name = "transferability"
    title = "Transferability"
    description = "Fraction of DS0-targeted AEs that fool each ASR"
    defaults = {"max_aes": 16}

    def prepare(self) -> None:
        self.bundle()

    def shards(self, spec) -> list[WorkUnit]:
        return [WorkUnit(key=name, params={"asr": name})
                for name in ("DS0",) + tuple(AUXILIARY_ORDER)]

    def run_shard(self, unit: WorkUnit) -> list[dict]:
        return [_transfer_row(self.bundle(), str(unit.params["asr"]),
                              int(self.param("max_aes")))]


def run_recursive_attack_probe(seed: int = 37,
                               n_probes: int = 5) -> ExperimentTable:
    """Two-iteration recursive attacks: does chaining attacks give transfer?

    ``n_probes`` independent host/command draws are attacked; the detail
    rows illustrate the first probe, and the final ``transferable?`` row
    reports whether a *majority* of probes produced a doubly-effective
    AE.  A single draw occasionally transfers by chance (the second
    iteration does not always destroy the first's perturbation), which
    is exactly why the paper's claim is about the typical case.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    rng = np.random.default_rng(seed)
    synthesizer = SpeechSynthesizer(lexicon=get_shared_lexicon(), seed=seed)
    ds0 = build_asr("DS0")
    ds1 = build_asr("DS1")
    attack = RecursiveTransferAttack(WhiteBoxCarliniAttack(ds1),
                                     WhiteBoxCarliniAttack(ds0))
    table = ExperimentTable(
        "Recursive attack", "Two-iteration recursive attack (CommanderSong style)")
    transfers = 0
    for probe in range(n_probes):
        host_text = librispeech_like_corpus().sample_one(rng)
        command = attack_command_corpus().sample_one(rng)
        host = synthesizer.synthesize(host_text)
        result = attack.run(host, command, probe_asrs={"DS0": ds0, "DS1": ds1})
        transfers += bool(result.transferable)
        if probe == 0:
            table.add_row(stage="first iteration (targets DS1)",
                          success=result.first.success,
                          transcription=result.first.transcription)
            table.add_row(stage="second iteration (targets DS0)",
                          success=result.second.success,
                          transcription=result.second.transcription)
            for name, fooled in result.fools.items():
                table.add_row(stage=f"final AE on {name}", success=fooled,
                              transcription=result.transcriptions[name])
    table.add_row(stage="transferable?", success=transfers > n_probes // 2,
                  transcription=f"{transfers}/{n_probes} probes transferred")
    return table
