"""Tests for the out-of-order timing model."""

from __future__ import annotations

import pytest

from repro.config.system import PipelineConfig
from repro.cpu.pipeline import TimingModel


class TestAccounting:
    def test_base_cycles_follow_cpi(self):
        timing = TimingModel(base_cpi=0.5)
        timing.account_instructions(1000)
        assert timing.cycles == 500

    def test_fetch_miss_adds_exposed_latency(self):
        timing = TimingModel(base_cpi=0.75)
        timing.account_fetch_miss(12)
        exposed = 12 * (1.0 - timing.fetch_stall_overlap(12))
        assert timing.breakdown.fetch_stall_cycles == pytest.approx(exposed)

    def test_batch_miss_accounting_matches_loop(self):
        loop = TimingModel(base_cpi=0.75)
        batch = TimingModel(base_cpi=0.75)
        for _ in range(100):
            loop.account_fetch_miss(12)
        batch.account_fetch_misses(12, 100)
        assert batch.breakdown.fetch_stall_cycles == pytest.approx(
            loop.breakdown.fetch_stall_cycles
        )

    def test_total_is_sum_of_components(self):
        timing = TimingModel(base_cpi=1.0)
        timing.account_instructions(100)
        timing.account_fetch_miss(12)
        breakdown = timing.breakdown
        assert timing.cycles == int(round(breakdown.base_cycles + breakdown.fetch_stall_cycles))

    def test_reset_zeroes_counters(self):
        timing = TimingModel()
        timing.account_instructions(100)
        timing.reset()
        assert timing.cycles == 0

    def test_execution_time_seconds(self):
        timing = TimingModel(pipeline=PipelineConfig(frequency_hz=1e9), base_cpi=1.0)
        timing.account_instructions(1_000_000)
        assert timing.execution_time_seconds() == pytest.approx(1e-3)


class TestOverlapModel:
    def test_overlap_between_zero_and_cap(self):
        timing = TimingModel()
        for latency in (1, 12, 96, 1000):
            overlap = timing.fetch_stall_overlap(latency)
            assert 0.0 <= overlap <= 0.6

    def test_memory_latency_less_hidden_than_l2_latency(self):
        timing = TimingModel()
        assert timing.fetch_stall_overlap(108) < timing.fetch_stall_overlap(12)

    def test_larger_rob_hides_more(self):
        small = TimingModel(pipeline=PipelineConfig(reorder_buffer_size=32))
        large = TimingModel(pipeline=PipelineConfig(reorder_buffer_size=128))
        assert large.fetch_stall_overlap(48) >= small.fetch_stall_overlap(48)

    def test_zero_latency_fully_hidden(self):
        assert TimingModel().fetch_stall_overlap(0) == 1.0


class TestValidation:
    def test_rejects_non_positive_cpi(self):
        with pytest.raises(ValueError):
            TimingModel(base_cpi=0.0)

    def test_rejects_negative_instruction_count(self):
        with pytest.raises(ValueError):
            TimingModel().account_instructions(-1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            TimingModel().account_fetch_miss(-1)

    def test_rejects_negative_batch_count(self):
        with pytest.raises(ValueError):
            TimingModel().account_fetch_misses(12, -1)
