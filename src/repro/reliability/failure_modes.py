"""DRAM failure-mode mix from field data (Section 4's discussion).

The paper calibrates its single-bit model against Sridharan & Liberty's
field study: "49.7% of failures in the field (both hard and soft errors)
were single-bit errors.  Another 2.5% of failures were multi-bit failures
in the same word, and 12.7% were multi-bit failures in the same row."
Neither conventional SECDED nor COP corrects same-word multi-bit or
whole-row failures; single-column and other modes "will generally corrupt
only one bit per block".

This module injects that mix through the controller stack so the
modelling argument can be checked mechanically.  The claim it checks
holds over the Sridharan mix as modelled here: COP (on the blocks it
stores compressed) and an ECC DIMM both survive the single-bit and
single-column modes, and neither survives a same-word multi-bit burst or
a row failure (six bits scattered per block; an ECC DIMM survives only
the rare event that puts one flip in each (72,64) word).  That is why the
paper's single-bit model is a fair basis for comparing them.

The claim does not extend to every multi-bit pattern.  Two flips in
*different* 128-bit words of a compressed COP block read back silent:
both words fail their syndrome check, the valid-code-word count drops
below COP's 3-of-4 threshold, and the block is misread as raw.  An ECC
DIMM corrects the same two flips, one per (72,64) word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.compression.base import BLOCK_BYTES
from repro.core.controller import ProtectedMemory
from repro.reliability.injection import classify_readback

__all__ = ["FailureMode", "SRIDHARAN_MIX", "FailureModeCampaign", "ModeOutcomes"]


@dataclass(frozen=True)
class FailureMode:
    """One field-failure category and how it manifests on a block."""

    name: str
    weight: float  # share of field failures (Sridharan & Liberty)
    bits_per_block: int  # upset bits landing in one 64-byte block
    same_word: bool  # confined to one code word?


#: The study's categories, normalised over the ones that touch data
#: blocks (we keep the paper's reading: "other failure types will
#: generally corrupt only one bit per block").
SRIDHARAN_MIX = (
    FailureMode("single-bit", 0.497, bits_per_block=1, same_word=True),
    FailureMode("same-word multi-bit", 0.025, bits_per_block=3, same_word=True),
    FailureMode("same-row multi-bit", 0.127, bits_per_block=6, same_word=False),
    FailureMode("single-column/other", 0.351, bits_per_block=1, same_word=True),
)


@dataclass
class ModeOutcomes:
    trials: int = 0
    survived: int = 0
    detected: int = 0
    silent: int = 0

    @property
    def survival_rate(self) -> float:
        return self.survived / self.trials if self.trials else 0.0


class FailureModeCampaign:
    """Injects the field mix into one protected memory."""

    def __init__(
        self,
        memory: ProtectedMemory,
        golden: dict[int, bytes],
        modes: Iterable[FailureMode] = SRIDHARAN_MIX,
        seed: int = 0,
    ) -> None:
        self.memory = memory
        self.golden = dict(golden)
        self.modes = tuple(modes)
        self.rng = random.Random(f"modes|{seed}")
        self.outcomes: dict[str, ModeOutcomes] = {
            mode.name: ModeOutcomes() for mode in self.modes
        }

    def _positions(self, mode: FailureMode) -> list[int]:
        """Bit positions one event of this mode corrupts in a block."""
        if mode.same_word:
            # Confine the flips to one aligned 128-bit decoder word.
            word = self.rng.randrange(4)
            base = 128 * word
            return self.rng.sample(range(base, base + 128), mode.bits_per_block)
        # Row-type failures scatter across the whole block.
        return self.rng.sample(range(8 * BLOCK_BYTES), mode.bits_per_block)

    def run_trial(self, mode: FailureMode) -> str:
        addr = self.rng.choice(list(self.golden))
        pristine = self.memory.contents[addr]
        for bit in self._positions(mode):
            self.memory.flip_bit(addr, bit)
        result = self.memory.read(addr)
        outcome = classify_readback(
            result.data, self.golden[addr], result.corrected, result.uncorrectable
        )
        if outcome in ("corrected", "masked"):
            outcome = "survived"
        record = self.outcomes[mode.name]
        record.trials += 1
        setattr(record, outcome, getattr(record, outcome) + 1)
        self.memory.contents[addr] = pristine
        return outcome

    def run(self, trials: int) -> dict[str, ModeOutcomes]:
        """Sample ``trials`` events from the weighted mode mix."""
        weights = [mode.weight for mode in self.modes]
        for _ in range(trials):
            (mode,) = self.rng.choices(self.modes, weights=weights)
            self.run_trial(mode)
        return self.outcomes

    def overall_survival(self) -> float:
        trials = sum(o.trials for o in self.outcomes.values())
        if not trials:
            return 0.0
        return sum(o.survived for o in self.outcomes.values()) / trials
