"""Cost-adaptive planner: determinism, wall targeting, batch grouping.

The planner's contract (:mod:`repro.engine.plan`): a *pure* function of
``(pending, jobs, cost snapshot, unit wall, spans)`` whose
groups partition every pending cell exactly once — results can therefore
never depend on the plan, only wall time can (the engine's bitwise parity
across job counts is pinned separately in ``test_scaling.py``).
"""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidParameterError
from repro.engine.batch import PendingInstance
from repro.engine.plan import (
    DEFAULT_UNIT_WALL_S,
    AdaptiveCostModel,
    plan_units,
)
from repro.workloads.synthetic import GeneratorConfig, chain_batch


def _pending(count=12, strategies=("a", "b"), num_tasks=6):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=0.5)
    chains = list(chain_batch(count, config, seed=0))
    return [
        PendingInstance(index=i, chain=chain, strategies=tuple(strategies))
        for i, chain in enumerate(chains)
    ]


def _cells(groups):
    return [
        (item.index, name)
        for group in groups
        for item in group
        for name in item.strategies
    ]


class TestPlanDeterminism:
    def test_same_inputs_same_plan(self):
        pending = _pending()
        snapshot = (("a", 0.004), ("b", 0.001))
        first = plan_units(pending, jobs=4, cost_snapshot=snapshot)
        second = plan_units(pending, jobs=4, cost_snapshot=snapshot)
        assert first == second

    def test_every_cell_planned_exactly_once(self):
        pending = _pending(count=17, strategies=("a", "b", "c"))
        for unit_wall in (DEFAULT_UNIT_WALL_S, 1e-9):
            groups = plan_units(pending, jobs=3, unit_wall=unit_wall)
            cells = _cells(groups)
            assert sorted(cells) == sorted(
                (item.index, name)
                for item in pending
                for name in item.strategies
            )
            assert len(cells) == len(set(cells))

    def test_cost_snapshot_changes_plan_not_cells(self):
        pending = _pending(count=20)
        cheap = plan_units(pending, jobs=2, cost_snapshot=(("a", 1e-5),))
        costly = plan_units(pending, jobs=2, cost_snapshot=(("a", 1.0),))
        assert sorted(_cells(cheap)) == sorted(_cells(costly))


class TestWallTargeting:
    def test_costly_cells_make_smaller_units(self):
        pending = _pending(count=16, strategies=("a",))
        small = plan_units(
            pending, jobs=1, cost_snapshot=(("a", DEFAULT_UNIT_WALL_S),)
        )
        # Each cell alone reaches the wall: one instance per unit.
        assert all(len(group) == 1 for group in small)
        large = plan_units(pending, jobs=1, cost_snapshot=(("a", 1e-9),))
        # Near-free cells: the units-per-worker clamp still splits the
        # campaign for load balance, but units hold many instances.
        assert max(len(group) for group in large) > 1

    def test_small_campaign_still_fans_out(self):
        pending = _pending(count=16, strategies=("a",))
        groups = plan_units(
            pending, jobs=4, cost_snapshot=(("a", 1e-9),)
        )
        assert len(groups) >= 4  # ~units-per-worker clamp, not one blob

    def test_invalid_parameters_rejected(self):
        pending = _pending(count=2)
        with pytest.raises(InvalidParameterError):
            plan_units(pending, jobs=1, unit_wall=0.0)

    def test_empty_pending_empty_plan(self):
        assert plan_units([], jobs=4) == []


class TestBatchGrouping:
    def test_batch_kernel_units_are_single_strategy(self):
        pending = _pending(count=9, strategies=("a", "b"))
        groups = plan_units(pending, jobs=2)
        for group in groups:
            names = {name for item in group for name in item.strategies}
            assert len(names) == 1  # one maximal solve_batch shard per unit
        # First-appearance strategy order: all "a" units precede all "b".
        order = [
            next(iter({n for item in g for n in item.strategies}))
            for g in groups
        ]
        assert order == sorted(order, key=("a", "b").index)

    def test_strategy_units_are_even(self):
        pending = _pending(count=10, strategies=("a",))
        groups = plan_units(pending, jobs=1, cost_snapshot=(("a", 0.03),))
        # 0.3 s of cells at a 0.075 s target: four units of 2-3 cells,
        # never a one-cell tail.
        assert [len(g) for g in groups] == [2, 3, 2, 3]


class TestKernelSpans:
    def test_kernel_strategy_is_cut_only_between_spans(self):
        pending = _pending(count=12, strategies=("a", "b"))
        groups = plan_units(
            pending,
            jobs=4,
            cost_snapshot=(("a", 1.0), ("b", 1.0)),
            spans={"a": 5},
        )
        rows = [
            ([item.index for item in g], g[0].strategies[0]) for g in groups
        ]
        # Costly cells want one unit each; "a" keeps whole spans of 5 (the
        # sub-batches the serial path hands its kernel), "b" has no kernel.
        assert [r for r, name in rows if name == "a"] == [
            [0, 1, 2, 3, 4],
            [5, 6, 7, 8, 9],
            [10, 11],
        ]
        assert [r for r, name in rows if name == "b"] == [
            [i] for i in range(12)
        ]

    def test_cheap_spans_share_a_unit(self):
        pending = _pending(count=12, strategies=("a",))
        groups = plan_units(
            pending, jobs=1, cost_snapshot=(("a", 1e-3),), spans={"a": 2}
        )
        # 12 ms of cells at a 3 ms target: four units of 3 cells would cut
        # a span, so each unit takes whole spans (6 spans into 4 units).
        assert [len(g) for g in groups] == [2, 4, 2, 4]

    def test_spans_change_the_plan_not_the_cells(self):
        pending = _pending(count=17, strategies=("a", "b", "c"))
        plain = plan_units(pending, jobs=3)
        spanned = plan_units(pending, jobs=3, spans={"a": 4, "c": 50})
        assert sorted(_cells(plain)) == sorted(_cells(spanned))


class TestAdaptiveCostModel:
    def test_prior_then_ewma_fold(self):
        model = AdaptiveCostModel()
        prior = model.cell_cost("a")
        assert prior > 0
        model.observe_unit({"a": 4}, seconds=0.4)  # 0.1 s per cell
        first = model.cell_cost("a")
        assert first == pytest.approx(0.1)
        model.observe_unit({"a": 4}, seconds=0.2)  # 0.05 s per cell
        second = model.cell_cost("a")
        assert 0.05 < second < first  # EWMA, not replacement

    def test_apportions_by_current_estimates(self):
        model = AdaptiveCostModel()
        model.observe_unit({"slow": 1}, seconds=0.09)
        model.observe_unit({"fast": 1}, seconds=0.01)
        model.observe_unit({"slow": 1, "fast": 1}, seconds=0.1)
        assert model.cell_cost("slow") > model.cell_cost("fast")

    def test_ignores_degenerate_observations(self):
        model = AdaptiveCostModel()
        model.observe_unit({}, seconds=1.0)
        model.observe_unit({"a": 1}, seconds=0.0)
        model.observe_unit({"a": 0}, seconds=1.0)
        assert model.snapshot() == ()

    def test_snapshot_is_sorted_and_frozen(self):
        model = AdaptiveCostModel()
        model.observe_unit({"b": 1}, seconds=0.2)
        model.observe_unit({"a": 1}, seconds=0.1)
        snapshot = model.snapshot()
        assert [name for name, _ in snapshot] == ["a", "b"]
        assert [cost for _, cost in snapshot] == pytest.approx([0.1, 0.2])
        assert isinstance(snapshot, tuple)
