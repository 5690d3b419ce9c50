"""Tests for repro.core.chain_stats (ChainProfile and Algo. 3 primitives)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain_stats import ChainProfile, profile_of
from repro.core.errors import InvalidChainError, InvalidParameterError
from repro.core.task import TaskChain
from repro.core.types import INFINITY, CoreType


@pytest.fixture
def profile(simple_chain) -> ChainProfile:
    return ChainProfile(simple_chain)


class TestBasics:
    def test_totals(self, profile):
        assert profile.total_weight(CoreType.BIG) == 24
        assert profile.total_weight(CoreType.LITTLE) == 53

    def test_max_weights(self, profile):
        assert profile.max_weight(CoreType.BIG) == 10
        assert profile.max_weight(CoreType.LITTLE) == 21

    def test_max_sequential_weight(self, profile):
        # Only task index 2 is sequential.
        assert profile.max_sequential_weight(CoreType.BIG) == 3
        assert profile.max_sequential_weight(CoreType.LITTLE) == 8

    def test_max_sequential_weight_zero_when_fully_replicable(self):
        chain = TaskChain.from_weights([1, 2], [2, 4], [True, True])
        p = ChainProfile(chain)
        assert p.max_sequential_weight(CoreType.BIG) == 0.0

    def test_profile_of_idempotent(self, profile):
        assert profile_of(profile) is profile

    def test_profile_of_wraps_chain(self, simple_chain):
        assert isinstance(profile_of(simple_chain), ChainProfile)


class TestIntervalQueries:
    def test_interval_weight_matches_sum(self, profile, simple_chain):
        for s in range(4):
            for e in range(s, 4):
                expected = sum(
                    t.weight_big for t in simple_chain.tasks[s : e + 1]
                )
                assert profile.interval_weight(s, e, CoreType.BIG) == expected

    def test_interval_bounds_checked(self, profile):
        with pytest.raises(InvalidChainError):
            profile.interval_weight(2, 1, CoreType.BIG)
        with pytest.raises(InvalidChainError):
            profile.interval_weight(0, 4, CoreType.BIG)

    def test_is_replicable(self, profile):
        assert profile.is_replicable(0, 1)
        assert not profile.is_replicable(0, 2)
        assert not profile.is_replicable(2, 2)
        assert profile.is_replicable(3, 3)

    def test_next_sequential(self, profile):
        assert list(profile.next_sequential) == [2, 2, 2, 4, 4]

    def test_final_replicable_task(self, profile):
        assert profile.final_replicable_task(0, 0) == 1
        assert profile.final_replicable_task(3, 3) == 3

    def test_final_replicable_task_requires_replicable(self, profile):
        with pytest.raises(InvalidChainError):
            profile.final_replicable_task(0, 2)


class TestStageWeight:
    def test_replicable_stage_divides(self, profile):
        assert profile.stage_weight(0, 1, 2, CoreType.BIG) == 7.0

    def test_sequential_stage_ignores_cores(self, profile):
        assert profile.stage_weight(0, 2, 1, CoreType.BIG) == 17.0
        assert profile.stage_weight(0, 2, 5, CoreType.BIG) == 17.0

    def test_zero_cores_is_infinite(self, profile):
        assert profile.stage_weight(0, 1, 0, CoreType.BIG) == INFINITY

    def test_little_weights_used(self, profile):
        assert profile.stage_weight(0, 0, 1, CoreType.LITTLE) == 9.0


class TestRequiredCores:
    def test_formula(self, profile):
        # w([0,1], B) = 14; ceil(14/5) = 3.
        assert profile.required_cores(0, 1, CoreType.BIG, 5.0) == 3

    def test_minimum_one(self, profile):
        assert profile.required_cores(0, 0, CoreType.BIG, 100.0) == 1

    def test_invalid_period(self, profile):
        with pytest.raises(ValueError):
            profile.required_cores(0, 1, CoreType.BIG, 0.0)
        with pytest.raises(ValueError):
            profile.required_cores(0, 1, CoreType.BIG, math.inf)


class TestMaxPacking:
    def test_packs_under_period(self, profile):
        # Big weights 4, 10, 3, 7; one core, period 14 packs tasks 0-1.
        assert profile.max_packing(0, 1, CoreType.BIG, 14.0) == 1

    def test_sequential_region_reached(self, profile):
        # Period 17 packs 0..2 (sum 17, contains the sequential task).
        assert profile.max_packing(0, 1, CoreType.BIG, 17.0) == 2

    def test_replication_extends_packing(self, profile):
        # Two cores halve the replicable prefix weight: 14/2 = 7 <= 7.
        assert profile.max_packing(0, 2, CoreType.BIG, 7.0) == 1

    def test_forced_single_task(self, profile):
        # Nothing fits in period 1, but the stage still takes task 0.
        assert profile.max_packing(0, 1, CoreType.BIG, 1.0) == 0

    def test_zero_cores_forced(self, profile):
        assert profile.max_packing(0, 0, CoreType.BIG, 100.0) == 0

    def test_whole_chain(self, profile):
        assert profile.max_packing(0, 1, CoreType.BIG, 100.0) == 3

    @given(
        weights=st.lists(st.integers(1, 50), min_size=1, max_size=12),
        seq_mask=st.lists(st.booleans(), min_size=1, max_size=12),
        cores=st.integers(1, 4),
        period=st.floats(1.0, 200.0),
        start=st.integers(0, 11),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, weights, seq_mask, cores, period, start):
        """MaxPacking's binary search equals the paper's linear definition."""
        n = len(weights)
        seq_mask = (seq_mask * n)[:n]
        start = start % n
        chain = TaskChain.from_weights(
            weights, [w * 2 for w in weights], [not s for s in seq_mask]
        )
        p = ChainProfile(chain)
        # Naive: max(start, max{e | w([start,e],cores) <= period}).
        best = start
        for e in range(start, n):
            if p.stage_weight(start, e, cores, CoreType.BIG) <= period:
                best = max(best, e)
        assert p.max_packing(start, cores, CoreType.BIG, period) == best


class TestTypedErrors:
    """Bad arguments to the interval queries raise typed errors."""

    @pytest.mark.parametrize("period", [0.0, -3.0, math.inf, math.nan])
    def test_max_packing_rejects_bad_period(self, profile, period):
        with pytest.raises(InvalidParameterError):
            profile.max_packing(0, 1, CoreType.BIG, period)
        with pytest.raises(InvalidParameterError):
            profile.max_packing(0, 0, CoreType.BIG, period)

    def test_required_cores_rejects_nan_period(self, profile):
        with pytest.raises(InvalidParameterError):
            profile.required_cores(0, 1, CoreType.BIG, math.nan)

    @pytest.mark.parametrize("core_type", [2, 5, -1])
    def test_out_of_range_core_type(self, profile, core_type):
        with pytest.raises(InvalidParameterError):
            profile.interval_weight(0, 2, core_type)
        with pytest.raises(InvalidParameterError):
            profile.stage_weight(0, 2, 1, core_type)
        with pytest.raises(InvalidParameterError):
            profile.required_cores(0, 2, core_type, 10.0)
        with pytest.raises(InvalidParameterError):
            profile.max_packing(0, 1, core_type, 10.0)

    def test_interval_still_checked_first(self, profile):
        with pytest.raises(InvalidChainError):
            profile.interval_weight(0, 4, 5)


class TestVectorHelpers:
    def test_weights_view(self, profile):
        np.testing.assert_array_equal(
            profile.weights(CoreType.BIG), [4, 10, 3, 7]
        )
