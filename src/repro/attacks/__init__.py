"""Audio adversarial example generation.

Implements the attack side of the paper's evaluation:

* :class:`WhiteBoxCarliniAttack` — gradient-based targeted attack against a
  single ASR, in the style of Carlini & Wagner (2018), including the
  back-propagation through the MFCC front end.
* :class:`BlackBoxGeneticAttack` — query-only targeted attack in the style
  of Taori et al. (2018), combining a genetic algorithm with gradient
  estimation; produces larger perturbations and short payloads.
* :func:`make_nontargeted_example` — noise-based non-targeted AEs used in
  Section V-J of the paper.
* :class:`RecursiveTransferAttack` — the CommanderSong-style two-iteration
  attack the paper uses in Section III to probe (and refute) AE
  transferability.
"""

from repro.attacks.base import AttackResult, TargetedAttack
from repro.attacks.alignment import HostTooShortError, target_frame_alignment
from repro.attacks.whitebox import WhiteBoxCarliniAttack
from repro.attacks.blackbox import BlackBoxGeneticAttack
from repro.attacks.nontargeted import make_nontargeted_example
from repro.attacks.recursive import RecursiveTransferAttack

__all__ = [
    "AttackResult",
    "TargetedAttack",
    "HostTooShortError",
    "target_frame_alignment",
    "WhiteBoxCarliniAttack",
    "BlackBoxGeneticAttack",
    "make_nontargeted_example",
    "RecursiveTransferAttack",
]
