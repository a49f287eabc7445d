"""Tests for the field failure-mode campaign (Sridharan mix)."""

import pytest

from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.reliability.failure_modes import (
    SRIDHARAN_MIX,
    FailureMode,
    FailureModeCampaign,
)
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES


def build(mode, blocks=120):
    source = BlockSource(PROFILES["gcc"], seed=21)
    memory = ProtectedMemory(mode)
    golden = {}
    addr = 0
    while len(golden) < blocks:
        data = source.block(addr)
        if memory.write(addr, data).accepted:
            golden[addr] = data
        addr += 4096
    return memory, golden


class TestMix:
    def test_study_numbers(self):
        by_name = {mode.name: mode for mode in SRIDHARAN_MIX}
        assert by_name["single-bit"].weight == pytest.approx(0.497)
        assert by_name["same-word multi-bit"].weight == pytest.approx(0.025)
        assert by_name["same-row multi-bit"].weight == pytest.approx(0.127)
        assert sum(m.weight for m in SRIDHARAN_MIX) == pytest.approx(1.0)


class TestCampaign:
    def test_outcomes_accumulate_per_mode(self):
        memory, golden = build(ProtectionMode.ECC_DIMM)
        campaign = FailureModeCampaign(memory, golden, seed=1)
        campaign.run(300)
        assert sum(o.trials for o in campaign.outcomes.values()) == 300
        assert 0.0 <= campaign.overall_survival() <= 1.0

    def test_single_bit_modes_survived_by_protected_schemes(self):
        for mode in (ProtectionMode.ECC_DIMM, ProtectionMode.COP_ER):
            memory, golden = build(mode)
            campaign = FailureModeCampaign(memory, golden, seed=2)
            single = next(m for m in SRIDHARAN_MIX if m.name == "single-bit")
            for _ in range(80):
                campaign.run_trial(single)
            assert campaign.outcomes["single-bit"].survival_rate == 1.0

    def test_same_word_multibit_defeats_secded_and_cop(self):
        """The paper: neither SECDED nor COP corrects same-word multi-bit."""
        for mode in (ProtectionMode.ECC_DIMM, ProtectionMode.COP):
            memory, golden = build(mode)
            campaign = FailureModeCampaign(memory, golden, seed=3)
            multi = next(
                m for m in SRIDHARAN_MIX if m.name == "same-word multi-bit"
            )
            for _ in range(60):
                campaign.run_trial(multi)
            assert campaign.outcomes[multi.name].survival_rate < 0.2

    def test_equivalent_correction_claim(self):
        """Section 4's modelling argument: COP-ER and an ECC DIMM survive
        (and fail) the same failure-mode mix at comparable rates."""
        rates = {}
        for mode in (ProtectionMode.COP_ER, ProtectionMode.ECC_DIMM):
            memory, golden = build(mode)
            campaign = FailureModeCampaign(memory, golden, seed=4)
            campaign.run(400)
            rates[mode] = campaign.overall_survival()
        assert rates[ProtectionMode.COP_ER] == pytest.approx(
            rates[ProtectionMode.ECC_DIMM], abs=0.08
        )

    def test_unprotected_survives_nothing(self):
        memory, golden = build(ProtectionMode.UNPROTECTED)
        campaign = FailureModeCampaign(memory, golden, seed=5)
        campaign.run(100)
        assert campaign.overall_survival() == 0.0

    def test_custom_mode(self):
        memory, golden = build(ProtectionMode.ECC_DIMM, blocks=30)
        burst = FailureMode("burst", 1.0, bits_per_block=2, same_word=True)
        campaign = FailureModeCampaign(memory, golden, modes=[burst], seed=6)
        campaign.run(50)
        assert campaign.outcomes["burst"].trials == 50

    def test_trials_restore_state(self):
        memory, golden = build(ProtectionMode.COP, blocks=40)
        before = dict(memory.contents)
        FailureModeCampaign(memory, golden, seed=7).run(150)
        assert memory.contents == before

    def test_two_flips_in_one_check_byte_are_detected(self):
        """Regression for the classification order: two flips in one
        word's check byte leave the data bits intact, so the readback
        equals golden — but the word is detected-uncorrectable (a machine
        check), so the trial is ``detected``, not ``survived``."""
        memory = ProtectedMemory(ProtectionMode.COP)
        data = bytes(64)
        assert memory.write(0, data).compressed
        # Word 0's check byte: stored bits 120..127.
        pristine = memory.contents[0]
        memory.flip_bit(0, 120)
        memory.flip_bit(0, 121)
        flipped = memory.read(0)
        assert flipped.data == data and flipped.uncorrectable
        memory.contents[0] = pristine

        burst = FailureMode("check-byte", 1.0, bits_per_block=2, same_word=True)
        campaign = FailureModeCampaign(memory, {0: data}, modes=[burst], seed=0)
        campaign._positions = lambda mode: [120, 121]
        assert campaign.run_trial(burst) == "detected"
        outcome = campaign.outcomes["check-byte"]
        assert (outcome.detected, outcome.survived) == (1, 0)
