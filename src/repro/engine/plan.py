"""Cost-adaptive work-unit planning: size chunks by cost, not by row count.

Fixed-row chunking made the process tier pay dispatch overhead per unit
regardless of how much work a unit held — tiny units drown in IPC, huge
units serialize the campaign tail.  The planner instead targets a fixed
*unit wall* (:data:`DEFAULT_UNIT_WALL_S`): every unit is sized so its
estimated solve time lands near the target, using per-strategy cell costs
learned from earlier units.  This is the divisible-load idea of sizing
installments to communication cost, applied to an embarrassingly-parallel
campaign.

Two properties are load-bearing:

* **Determinism** — :func:`plan_units` is a pure function of the pending
  instances, a frozen cost snapshot, and the job count.  The
  engine snapshots its :class:`AdaptiveCostModel` once per campaign, so the
  plan is computed entirely up front; and because result rows are keyed by
  chain index and strategies are pure functions, the assembled arrays are
  bitwise identical for *any* plan — cost feedback can only change wall
  time, never results (``tests/engine/test_plan.py``,
  ``tests/engine/test_scaling.py``).
* **Strategy grouping** — the planner first explodes instances into
  single-strategy cells and splits each strategy's cells into units, so
  each worker's unit is one :func:`repro.core.registry.solve_batch` call
  made of whole kernel spans.  This is what makes ``--jobs N`` compose
  with the vectorized kernels: the old fixed chunker handed workers
  strategy-mixed units that fragmented the vectorized groups.

The model has one feedback signal: the always-on per-unit wall measurement
(:attr:`repro.engine.batch.UnitOutcome.seconds`, read off the sanctioned
:mod:`repro.obs.clock`), folded in by :meth:`AdaptiveCostModel.observe_unit`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..core.errors import InvalidParameterError
from .batch import PendingInstance

__all__ = [
    "DEFAULT_UNIT_WALL_S",
    "AdaptiveCostModel",
    "plan_units",
]

#: Target estimated solve seconds per work unit — comfortably above the
#: ~ms-scale dispatch+IPC cost of one unit, low enough that a straggler
#: unit cannot serialize a campaign tail.
DEFAULT_UNIT_WALL_S: float = 0.1

#: Prior per-cell solve seconds before any feedback (a mid-size chain
#: through a registry strategy lands in the low single-digit milliseconds).
_PRIOR_CELL_COST_S: float = 2e-3

#: EWMA smoothing for cost feedback (recent units dominate, noise damped).
_EWMA_ALPHA: float = 0.3

#: Units-per-worker floor the planner keeps when the campaign is too small
#: to fill wall-sized units — the old fixed chunker's load-balance margin.
_UNITS_PER_WORKER: int = 4


class AdaptiveCostModel:
    """Per-strategy cell-cost estimates, updated by exponential averaging.

    Purely advisory: estimates steer unit sizing and nothing else, so a
    wildly wrong estimate costs wall time, never correctness.  Not
    thread-safe (owned and driven by one engine from its campaign loop).
    """

    def __init__(self) -> None:
        self._cost: dict[str, float] = {}

    def cell_cost(self, strategy: str) -> float:
        """Estimated solve seconds for one ``(chain, strategy)`` cell."""
        return self._cost.get(strategy, _PRIOR_CELL_COST_S)

    def observe_unit(self, cells: Mapping[str, int], seconds: float) -> None:
        """Fold one completed unit's measured wall into the estimates.

        The unit's wall covers all its cells, so it is apportioned to
        strategies proportionally to their *current* estimated share — the
        same trick iterative profilers use to split aggregate samples.
        """
        if seconds <= 0.0 or not cells:
            return
        estimated = {
            name: self.cell_cost(name) * count for name, count in cells.items()
        }
        total = sum(estimated.values())
        if total <= 0.0:
            return
        for name, count in cells.items():
            if count < 1:
                continue
            per_cell = (seconds * estimated[name] / total) / count
            self._fold(name, per_cell)

    def _fold(self, strategy: str, per_cell: float) -> None:
        previous = self._cost.get(strategy)
        if previous is None:
            self._cost[strategy] = per_cell
        else:
            self._cost[strategy] = (
                (1.0 - _EWMA_ALPHA) * previous + _EWMA_ALPHA * per_cell
            )

    def snapshot(self) -> tuple[tuple[str, float], ...]:
        """Frozen, ordered view of the estimates (what a plan is built from)."""
        return tuple(sorted(self._cost.items()))


def _split_even(
    atoms: Sequence[tuple[PendingInstance, ...]], pieces: int
) -> list[tuple[PendingInstance, ...]]:
    """Cut ``atoms`` into ``pieces`` contiguous units of near-equal length."""
    pieces = max(1, min(pieces, len(atoms)))
    bounds = [len(atoms) * k // pieces for k in range(pieces + 1)]
    return [
        tuple(cell for atom in atoms[lo:hi] for cell in atom)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def plan_units(
    pending: Sequence[PendingInstance],
    *,
    jobs: int,
    cost_snapshot: "tuple[tuple[str, float], ...]" = (),
    unit_wall: float = DEFAULT_UNIT_WALL_S,
    spans: "Mapping[str, int] | None" = None,
) -> list[tuple[PendingInstance, ...]]:
    """Split pending instances into work-unit groups, deterministically.

    A pure function: the same ``(pending, jobs, cost_snapshot, unit_wall,
    spans)`` always yields the same plan, and every cell of every instance
    appears in exactly one group.

    Units target ``unit_wall`` estimated seconds, clamped so a small
    campaign still fans out into ~:data:`_UNITS_PER_WORKER` units per
    worker.  Instances are first exploded into single-strategy cells
    grouped by strategy (first-appearance order), so each unit is one
    contiguous ``solve_batch`` shard, and each strategy's cells are split
    evenly into as many units as its estimated cost needs.

    ``spans`` maps a strategy to the number of cells its batch kernel
    solves per call (:func:`repro.core.registry.batch_span`; absent means
    1, a scalar strategy).  Units cut such a strategy only between whole
    spans: a unit's kernel calls are then exactly the calls the serial
    path makes, and no kernel call is split into smaller, slower ones.
    """
    if unit_wall <= 0.0:
        raise InvalidParameterError(
            f"unit_wall must be > 0 seconds, got {unit_wall}"
        )
    cells_by_strategy: dict[str, list[PendingInstance]] = {}
    for item in pending:
        for name in item.strategies:
            cells_by_strategy.setdefault(name, []).append(
                PendingInstance(
                    index=item.index, chain=item.chain, strategies=(name,)
                )
            )
    costs = dict(cost_snapshot)
    spans = spans or {}
    strategy_cost = {
        name: costs.get(name, _PRIOR_CELL_COST_S) * len(cells)
        for name, cells in cells_by_strategy.items()
    }
    workers = max(1, jobs)
    # Clamp the target so small campaigns still spread across workers: at
    # least ~_UNITS_PER_WORKER units per worker unless units would go
    # below one span (a unit always holds >= 1 cell).
    total = sum(strategy_cost.values())
    target = max(min(unit_wall, total / (workers * _UNITS_PER_WORKER)), 1e-9)
    groups: list[tuple[PendingInstance, ...]] = []
    for name, cells in cells_by_strategy.items():
        span = max(1, spans.get(name, 1))
        atoms = [
            tuple(cells[start : start + span])
            for start in range(0, len(cells), span)
        ]
        # The tolerance keeps float noise in the clamp from adding a unit.
        pieces = math.ceil(strategy_cost[name] / target * (1.0 - 1e-9))
        groups.extend(_split_even(atoms, pieces))
    return groups
