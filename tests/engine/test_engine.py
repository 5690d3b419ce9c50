"""Tests for the campaign execution engine (fan-out + determinism)."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.core.registry import PAPER_ORDER
from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    MemoCache,
    default_engine,
    plan_units,
    reset_default_engine,
    resolve_jobs,
    solve_unit,
    units_from_groups,
)
from repro.engine.batch import (
    PendingInstance,
    SpreadProcessPool,
    WorkUnit,
    _spread_worker,
)
from repro.engine.reference import scalar_arrays
from repro.experiments.common import run_campaign
from repro.workloads.synthetic import GeneratorConfig, chain_batch


def _chains(count=6, num_tasks=8, sr=0.5, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


def _assert_same_arrays(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name].periods, b[name].periods)
        np.testing.assert_array_equal(a[name].big_used, b[name].big_used)
        np.testing.assert_array_equal(a[name].little_used, b[name].little_used)


class TestResolveJobs:
    def test_none_is_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_none_follows_the_affinity_mask(self, monkeypatch):
        """A process pinned to fewer cores than the machine has must not
        oversubscribe: the default is the affinity mask, not cpu_count."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        assert resolve_jobs(None) == 3
        assert CampaignEngine().jobs == 3

    def test_none_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_jobs(None) == 5


class TestBatch:
    def test_chunking_covers_everything_in_order(self):
        chains = _chains(5)
        pending = [
            PendingInstance(index=i, chain=c, strategies=("fertac",))
            for i, c in enumerate(chains)
        ]
        # A vanishing unit wall puts each scalar-strategy cell in its own unit.
        groups = plan_units(pending, jobs=1, unit_wall=1e-9)
        units = units_from_groups(groups, Resources(2, 2))
        assert [len(u.pending) for u in units] == [1, 1, 1, 1, 1]
        assert [u.unit_id for u in units] == [0, 1, 2, 3, 4]
        flat = [item.index for u in units for item in u.pending]
        assert flat == [0, 1, 2, 3, 4]

    def test_solve_unit_rows_are_indexed(self):
        chains = _chains(3)
        unit = WorkUnit(
            pending=tuple(
                PendingInstance(index=i, chain=c, strategies=("fertac", "otac_b"))
                for i, c in enumerate(chains)
            ),
            resources=Resources(2, 2),
        )
        outcome = solve_unit(unit)
        assert outcome.obs is None  # observability off: no payload shipped
        assert [index for index, _ in outcome.rows] == [0, 1, 2]
        for _, results in outcome.rows:
            assert set(results) == {"fertac", "otac_b"}
            for result in results.values():
                assert np.isfinite(result.period)


class TestDeterminism:
    """jobs=1 and jobs=N must produce bitwise-identical arrays."""

    @pytest.mark.parametrize("jobs", [pytest.param(2, id="process")])
    def test_parallel_matches_serial_bitwise(self, jobs):
        chains = _chains(6)
        resources = Resources(3, 3)
        serial = CampaignEngine(jobs=1, memo=False)
        parallel = CampaignEngine(jobs=jobs, memo=False, unit_wall=1e-9)
        _assert_same_arrays(
            serial.solve_instances(chains, resources, PAPER_ORDER),
            parallel.solve_instances(chains, resources, PAPER_ORDER),
        )

    def test_chunk_size_does_not_matter(self):
        """Work-unit size (a vanishing unit wall vs the planner's default)
        changes the plan, never the arrays."""
        chains = _chains(5)
        resources = Resources(2, 3)
        a = CampaignEngine(jobs=2, memo=False, unit_wall=1e-9)
        b = CampaignEngine(jobs=2, memo=False)
        _assert_same_arrays(
            a.solve_instances(chains, resources, ("herad", "fertac")),
            b.solve_instances(chains, resources, ("herad", "fertac")),
        )

    def test_memo_replay_is_bitwise_identical(self):
        chains = _chains(4)
        resources = Resources(2, 2)
        engine = CampaignEngine(jobs=1, memo=True)
        first = engine.solve_instances(chains, resources, PAPER_ORDER)
        second = engine.solve_instances(chains, resources, PAPER_ORDER)
        _assert_same_arrays(first, second)
        stats = engine.memo.stats
        assert stats.hits == len(chains) * len(PAPER_ORDER)

    def test_run_campaign_jobs_parity(self):
        kwargs = dict(num_chains=5, num_tasks=8, seed=11)
        resources = Resources(3, 2)
        a = run_campaign(
            resources, 0.5, jobs=1,
            engine=CampaignEngine(memo=False), **kwargs,
        )
        b = run_campaign(
            resources, 0.5, jobs=2,
            engine=CampaignEngine(memo=False), **kwargs,
        )
        for name in a.records:
            np.testing.assert_array_equal(
                a.records[name].periods, b.records[name].periods
            )
            np.testing.assert_array_equal(
                a.records[name].big_used, b.records[name].big_used
            )
            np.testing.assert_array_equal(
                a.records[name].little_used, b.records[name].little_used
            )


class TestMemoIntegration:
    def test_partial_hits_only_solve_the_rest(self):
        chains = _chains(4)
        resources = Resources(2, 2)
        memo = MemoCache()
        engine = CampaignEngine(jobs=1, memo=memo)
        engine.solve_instances(chains, resources, ("fertac",))
        assert memo.stats.size == 4
        engine.solve_instances(chains, resources, ("fertac", "otac_b"))
        stats = memo.stats
        assert stats.hits == 4  # fertac replayed
        assert stats.size == 8  # otac_b added

    def test_different_budgets_do_not_collide(self):
        chains = _chains(3)
        engine = CampaignEngine(jobs=1, memo=True)
        a = engine.solve_instances(chains, Resources(1, 1), ("fertac",))
        b = engine.solve_instances(chains, Resources(4, 4), ("fertac",))
        # More cores can only improve (or preserve) the greedy's period.
        assert (b["fertac"].periods <= a["fertac"].periods + 1e-9).all()

    def test_memo_disabled_always_solves(self):
        chains = _chains(3)
        engine = CampaignEngine(jobs=1, memo=False)
        assert engine.memo is None
        first = engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        second = engine.solve_instances(chains, Resources(2, 2), ("fertac",))
        _assert_same_arrays(first, second)

    def test_shared_cache_across_engines(self):
        chains = _chains(3)
        memo = MemoCache()
        CampaignEngine(jobs=1, memo=memo).solve_instances(
            chains, Resources(2, 2), ("fertac",)
        )
        CampaignEngine(jobs=1, memo=memo).solve_instances(
            chains, Resources(2, 2), ("fertac",)
        )
        assert memo.stats.hits == 3


class TestEngineConfig:
    def test_rejects_unknown_backend(self):
        """The backend switch is retired: ``jobs`` alone picks the tier."""
        with pytest.raises(TypeError):
            CampaignEngine(backend="thread")
        import repro.engine

        assert not hasattr(repro.engine, "BACKENDS")
        assert repro.engine.TIERS == ("process", "serial")

    def test_rejects_bad_chunk_size(self):
        """The fixed-row override is retired; ``unit_wall`` sizes units."""
        with pytest.raises(TypeError):
            CampaignEngine(chunk_size=2)
        with pytest.raises(InvalidParameterError):
            CampaignEngine(unit_wall=0.0)

    def test_default_engine_is_a_singleton_until_reset(self):
        reset_default_engine()
        a = default_engine()
        assert default_engine() is a
        reset_default_engine()
        assert default_engine() is not a

    def test_measure_latency_positive_and_unmemoized(self):
        from repro.core.chain_stats import ChainProfile

        profiles = [ChainProfile(c) for c in _chains(3)]
        engine = CampaignEngine(jobs=1, memo=True)
        latency = engine.measure_latency("fertac", profiles, Resources(2, 2))
        assert latency > 0
        assert engine.memo.stats.size == 0  # measurement never populates

    def test_measure_latency_rejects_empty_profiles(self):
        from repro.core.errors import InvalidParameterError

        engine = CampaignEngine(jobs=1)
        with pytest.raises(InvalidParameterError, match="non-empty"):
            engine.measure_latency("fertac", [], Resources(2, 2))


class TestSpreadProcessPool:
    """Process workers start on successive usable cores (placement only)."""

    def test_workers_take_successive_cores_then_the_full_mask(
        self, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(
            os,
            "sched_setaffinity",
            lambda pid, mask: calls.append(set(mask)),
            raising=False,
        )
        slots = multiprocessing.Value("i", 0)
        for _ in range(4):
            _spread_worker(slots)
        full = {0, 1, 2}
        assert calls == [{0}, full, {1}, full, {2}, full, {0}, full]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity"
    )
    def test_worker_ends_with_the_parent_mask(self):
        with SpreadProcessPool(2) as pool:
            masks = [pool.submit(os.sched_getaffinity, 0) for _ in range(4)]
            assert all(m.result() == os.sched_getaffinity(0) for m in masks)


class TestSentinelPrefill:
    def test_arrays_prefilled_with_sentinels_not_garbage(self):
        """Unsolved cells are NaN/-1, never uninitialized np.empty memory."""
        engine = CampaignEngine(jobs=1, memo=False)
        arrays = engine.solve_instances([], Resources(2, 2), ("fertac",))
        assert arrays["fertac"].periods.shape == (0,)
        # With chains, every cell must be overwritten by a real solve.
        arrays = engine.solve_instances(_chains(3), Resources(2, 2), ("fertac",))
        assert np.isfinite(arrays["fertac"].periods).all()
        assert (arrays["fertac"].big_used >= 0).all()
        assert (arrays["fertac"].little_used >= 0).all()


class TestResilientDeterminism:
    """Resilience enabled + no faults must stay bitwise identical."""

    @pytest.mark.parametrize(
        "jobs", [pytest.param(1, id="serial"), pytest.param(4, id="process")]
    )
    def test_fault_free_resilient_matches_serial_bitwise(self, jobs):
        from repro.engine import ResilienceConfig, RetryPolicy

        chains = _chains(6)
        resources = Resources(3, 3)
        serial = CampaignEngine(jobs=1, memo=False)
        resilient = CampaignEngine(
            jobs=jobs,
            memo=False,
            unit_wall=1e-9,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
                timeout=60.0,
            ),
        )
        _assert_same_arrays(
            serial.solve_instances(chains, resources, PAPER_ORDER),
            resilient.solve_instances(chains, resources, PAPER_ORDER),
        )
        report = resilient.last_report
        assert report is not None
        assert report.retries == 0
        assert report.timeouts == 0
        assert report.degradations == 0
        assert report.quarantined == 0


class TestKernelTier:
    """Every engine unit solves through ``solve_batch``, on both tiers.

    Parity is pinned against the scalar reference map
    ``[info.func(p, r) for p in profiles]`` (no engine in the loop).
    """

    def test_rejects_unknown_kernel(self):
        """The ``kernel`` switch is retired: there is one solve path."""
        with pytest.raises(TypeError):
            CampaignEngine(kernel="batch")
        import repro.engine

        assert not hasattr(repro.engine, "KERNELS")

    @pytest.mark.parametrize(
        "jobs", [pytest.param(1, id="serial-1"), pytest.param(4, id="process-4")]
    )
    def test_batch_kernel_bitwise_parity(self, jobs):
        chains = _chains(6)
        resources = Resources(3, 3)
        engine = CampaignEngine(jobs=jobs, memo=False, unit_wall=1e-9)
        _assert_same_arrays(
            scalar_arrays(chains, resources, PAPER_ORDER),
            engine.solve_instances(chains, resources, PAPER_ORDER),
        )

    def test_batch_kernel_with_certification(self):
        chains = _chains(4)
        engine = CampaignEngine(jobs=1, memo=False)
        arrays = engine.solve_instances(
            chains, Resources(2, 3), PAPER_ORDER, certify=True
        )
        _assert_same_arrays(
            scalar_arrays(chains, Resources(2, 3), PAPER_ORDER), arrays
        )

    def test_fault_plan_forces_python_path(self, tmp_path):
        """Faults fire per cell, so an armed plan routes its targets off
        the batched path."""
        chains = _chains(2)
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", strategy="herad"),),
            state_dir=str(tmp_path),
        )
        unit = WorkUnit(
            pending=tuple(
                PendingInstance(index=i, chain=c, strategies=("herad",))
                for i, c in enumerate(chains)
            ),
            resources=Resources(2, 2),
            faults=plan,
        )
        with pytest.raises(InjectedFault):
            solve_unit(unit)

    def test_batch_kernel_memo_counters_match_python(self):
        """Bulk memo fills count hits/misses exactly like per-instance gets."""
        chains = _chains(5)
        resources = Resources(3, 3)

        def run(jobs=1):
            engine = CampaignEngine(jobs=jobs, memo=MemoCache())
            engine.solve_instances(chains, resources, PAPER_ORDER)
            engine.solve_instances(chains, resources, PAPER_ORDER)
            stats = engine.memo.stats
            return stats.hits, stats.misses, stats.size

        want = (
            len(chains) * len(PAPER_ORDER),
            len(chains) * len(PAPER_ORDER),
            len(chains) * len(PAPER_ORDER),
        )
        assert run() == want
        assert run(jobs=4) == want
