"""Chunked work units for the campaign engine.

The unit of distribution is a *chunk* of scheduling instances, not a single
instance: one chain costs milliseconds to schedule, so per-instance dispatch
would drown in executor overhead.  A :class:`WorkUnit` carries a slice of the
campaign — ``(chain index, chain, strategies still to run)`` triples plus the
shared budget — and :func:`solve_unit` resolves it into indexed
:class:`~repro.engine.memo.InstanceResult` rows.

Everything here is picklable with module-level functions only, so the same
code path runs in-process (serial tier) and in worker processes (process
tier).  Results are keyed by chain index, which makes assembly
order-independent: however the executor interleaves chunks, the final arrays
are bitwise identical.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.binary_search import ScheduleOutcome
from ..core.certify import certify_outcome
from ..core.chain_stats import ChainProfile
from ..core.registry import get_info, solve_batch
from ..core.task import TaskChain
from ..core.types import Resources
from ..obs.clock import monotonic
from ..obs.context import ObsConfig, ObsPayload, activate, current
from ..obs.metrics import MetricsLike
from .faults import FaultPlan
from .memo import InstanceResult, MemoKey, make_key

if TYPE_CHECKING:
    from multiprocessing.sharedctypes import Synchronized

__all__ = [
    "PendingInstance",
    "WorkUnit",
    "UnitResult",
    "UnitOutcome",
    "solve_instance",
    "solve_unit",
    "units_from_groups",
    "SpreadProcessPool",
]


@dataclass(frozen=True, slots=True)
class PendingInstance:
    """One chain still needing one or more strategy solves.

    Attributes:
        index: the chain's position in its campaign (result-array row).
        chain: the chain itself (small: tens of tasks).
        strategies: canonical names of the strategies left to run on it.
    """

    index: int
    chain: TaskChain
    strategies: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """A chunk of pending instances sharing one platform budget.

    Attributes:
        pending: the instances in this chunk.
        resources: the shared platform budget.
        certify: audit every solution with the independent certificate
            checker (:mod:`repro.core.certify`) as it is produced.
        faults: deterministic fault plan armed for this chunk (tests and the
            fault-injection smoke; ``None`` in production).
        tier: the execution tier running this chunk (``serial`` /
            ``process``) — lets tier-scoped faults target, say, only worker
            processes so the degradation ladder can be exercised.
        obs: observability switches for this chunk (``None`` = fully off).
            When set, the worker builds a local tracer/metrics context,
            records into it, and ships the resulting payload home in its
            :class:`UnitOutcome` — the only channel observability data has
            out of a worker process.
        dispatched_at: engine-side :func:`repro.obs.clock.monotonic` stamp
            taken when the unit was chunked for a process pool (``None``
            otherwise).  CLOCK_MONOTONIC is system-wide on Linux, so the
            worker can subtract it from its own clock read on entry to
            measure pool-wait (queueing) time.  Never consulted by the
            result path.
        unit_id: the unit's position in the engine's campaign plan; the key
            the engine feeds the unit's measured wall back to its cost model
            by.  ``None`` on units built outside the planner.
    """

    pending: tuple[PendingInstance, ...]
    resources: Resources
    certify: bool = False
    faults: "FaultPlan | None" = None
    tier: str = "serial"
    obs: "ObsConfig | None" = None
    dispatched_at: "float | None" = None
    unit_id: "int | None" = None


#: ``(chain index, {strategy: result})`` rows produced by one unit.
UnitResult = list[tuple[int, dict[str, InstanceResult]]]


@dataclass(frozen=True, slots=True)
class UnitOutcome:
    """Everything one resolved work unit sends back to the engine.

    ``rows`` is the result payload; ``obs`` carries the spans and metric
    snapshot the unit recorded (``None`` when observability was off).
    Results and observations travel together but are consumed on strictly
    separate paths — the engine assembles arrays from ``rows`` only, which
    is what keeps tracing off the result path.

    ``seconds`` is the unit's measured solve wall (sanctioned
    :mod:`repro.obs.clock` read) and ``unit_id`` names the unit it measured
    — the always-on feedback signal of the cost-adaptive planner
    (:mod:`repro.engine.plan`); it steers future chunking only, never
    results.
    """

    rows: UnitResult
    obs: "ObsPayload | None" = None
    unit_id: "int | None" = None
    seconds: "float | None" = None


def solve_instance(
    profile: ChainProfile,
    resources: Resources,
    strategies: Iterable[str],
    certify: bool = False,
    faults: "FaultPlan | None" = None,
    tier: str = "serial",
) -> dict[str, InstanceResult]:
    """Run the given strategies on one profiled chain, cell by cell.

    The per-cell path: fault-targeted instances of a unit
    (:func:`_solve_rows_routed`) and the resilience ladder's serial
    quarantine rung solve through it; every other cell goes through
    :func:`repro.core.registry.solve_batch`, which is bitwise identical to
    the scalar strategy functions called here, so an instance's result
    cannot depend on which path computed it.

    With ``certify=True`` each outcome is audited by the independent
    certificate checker before the result row is recorded (raising
    :class:`~repro.core.errors.CertificationError` on any violation);
    registry-optimal strategies additionally get the optimality-bracket
    certificate.

    An armed fault plan is consulted per ``(instance, strategy)`` cell:
    pre-solve kinds (raise / bug / crash / hang / interrupt) trigger before
    the strategy runs; ``corrupt`` tampers with the finished outcome *before*
    certification, which is exactly how certification proves it catches
    corrupted results.

    When an observability context is ambient (:func:`repro.obs.context.current`),
    each strategy cell is wrapped in a ``solve`` span and its latency feeds a
    per-strategy histogram — recorded around the same code path, never
    altering it.
    """
    results: dict[str, InstanceResult] = {}
    obs = current()
    for name in strategies:
        if obs.active:
            with obs.span("solve", "solve", strategy=name, tier=tier):
                start = monotonic()
                results[name] = _solve_cell(
                    profile, resources, name, certify, faults, tier
                )
                obs.metrics.observe(f"solve.seconds.{name}", monotonic() - start)
                obs.metrics.add("solve.count")
                # Deterministic observation stream: the multiset of solved
                # periods is identical across tiers (bitwise-identical
                # results), so its sketch merges bitwise-identically too.
                obs.metrics.observe(
                    f"solve.period.{name}", results[name].period
                )
        else:
            results[name] = _solve_cell(
                profile, resources, name, certify, faults, tier
            )
    return results


def _solve_cell(
    profile: ChainProfile,
    resources: Resources,
    name: str,
    certify: bool,
    faults: "FaultPlan | None",
    tier: str,
) -> InstanceResult:
    """One ``(chain, strategy)`` cell: fault hook, solve, corrupt, audit."""
    info = get_info(name)
    spec = (
        faults.fire(profile.fingerprint, name, tier)
        if faults is not None
        else None
    )
    if spec is not None and spec.kind != "corrupt":
        spec.trigger()
    outcome = info.func(profile, resources)
    if spec is not None and spec.kind == "corrupt":
        outcome = spec.corrupt(outcome)
    if certify:
        certify_outcome(
            outcome,
            profile,
            resources,
            optimal=info.optimal,
            context=name,
        )
    return _result_of(outcome, resources)


def _result_of(outcome: ScheduleOutcome, resources: Resources) -> InstanceResult:
    """Collapse a schedule outcome into the campaign result scalars."""
    usage = outcome.solution.core_usage(resources.ktype)
    return InstanceResult(
        period=outcome.period,
        big_used=usage.counts[0],
        little_used=usage.counts[1] if usage.ktype > 1 else 0,
        extra_used=usage.counts[2:],
    )


_WORKER_MEMO: "dict[MemoKey, InstanceResult]" = {}
"""Process-local memo shard for process-tier workers.

Keyed exactly like the engine's :class:`~repro.engine.memo.MemoCache`, but
living (and dying) with the worker process: pools are campaign-scoped, so
the shard never leaks results across campaigns, and the serial tier never
touches it (its process is the engine's).  Values are a pure function
of the key — the same guarantee the engine memo rests on — so a hit returns
exactly what a fresh solve would, and the only observable difference is the
``worker.<pid>.memo.*`` attribution counters.
"""


def _replay_shard_hit(name: str, cached: InstanceResult) -> None:
    """Answer one cell from the worker memo shard, replaying its observations.

    A shard hit elides an actual solve, but the cross-tier counter-parity
    guarantee (DESIGN.md §15) says ``solve.count`` and the
    ``solve.period.<strategy>`` observation stream depend only on the
    campaign, never on where or whether each cell was recomputed.  Cached
    values are a pure function of the key, so replaying them here makes the
    merged counters bitwise-independent of how units landed on workers —
    which is what lets the shard stay always on.  ``solve_batch.seconds`` is
    wall clock (inherently run-dependent) and is deliberately not replayed;
    the hit itself is attributed under ``worker.<pid>.memo.hits``.
    """
    metrics = current().metrics
    if metrics.enabled:
        metrics.add("solve.count")
        metrics.observe(f"solve.period.{name}", cached.period)
        metrics.add(f"worker.{os.getpid()}.memo.hits")


def _solve_rows(unit: WorkUnit) -> UnitResult:
    """Resolve a unit cell by cell through :func:`solve_instance`.

    The per-cell path armed fault plans fire on (see
    :func:`_solve_rows_routed`); everything else batches.
    """
    return [
        (
            item.index,
            solve_instance(
                ChainProfile(item.chain),
                unit.resources,
                item.strategies,
                certify=unit.certify,
                faults=unit.faults,
                tier=unit.tier,
            ),
        )
        for item in unit.pending
    ]


def _solve_rows_batch(unit: WorkUnit, use_shard: bool) -> UnitResult:
    """Resolve a unit through :func:`repro.core.registry.solve_batch`.

    The unit's instances are grouped by strategy (first-appearance order,
    so the obs span sequence is deterministic) and each group goes through
    one ``solve_batch`` call — which guarantees bitwise-identical outcomes
    to the scalar strategy functions, including the per-instance fallback
    for instances the vectorized kernels reject.  Certification audits
    every solution with the independent checker as it is produced.

    The worker memo shard composes with batching: cells already in the
    shard are answered (with their deterministic counter replay) before
    grouping, and a ``(fingerprint, budget, strategy)`` key repeated
    *within* the unit joins its group once — the repeats are fanned out
    from the shard after the groups ran.  Each ``solve_batch`` call thus
    sees only distinct, genuinely unsolved cells, and fresh group results
    feed the shard for later units on the same worker.
    """
    profiles = [ChainProfile(item.chain) for item in unit.pending]
    by_strategy: dict[str, list[int]] = {}
    results: list[dict[str, InstanceResult]] = [{} for _ in unit.pending]
    claimed: set[MemoKey] = set()
    repeats: list[tuple[int, str, MemoKey]] = []
    for position, item in enumerate(unit.pending):
        for name in item.strategies:
            if use_shard:
                key = make_key(item.chain, unit.resources, name)
                cached = _WORKER_MEMO.get(key)
                if cached is not None:
                    results[position][name] = cached
                    _replay_shard_hit(name, cached)
                    continue
                if key in claimed:
                    repeats.append((position, name, key))
                    continue
                claimed.add(key)
            by_strategy.setdefault(name, []).append(position)

    obs = current()
    for name, members in by_strategy.items():
        if obs.active:
            with obs.span(
                "solve_batch",
                "solve",
                strategy=name,
                tier=unit.tier,
                instances=len(members),
            ):
                start = monotonic()
                _solve_group(unit, name, members, profiles, results, use_shard)
                obs.metrics.observe(
                    f"solve_batch.seconds.{name}", monotonic() - start
                )
                obs.metrics.add("solve.count", len(members))
        else:
            _solve_group(unit, name, members, profiles, results, use_shard)

    for position, name, key in repeats:
        cached = _WORKER_MEMO[key]
        results[position][name] = cached
        _replay_shard_hit(name, cached)

    return [
        (item.index, results[position])
        for position, item in enumerate(unit.pending)
    ]


def _solve_group(
    unit: WorkUnit,
    name: str,
    members: "list[int]",
    profiles: "list[ChainProfile]",
    results: "list[dict[str, InstanceResult]]",
    use_shard: bool = False,
) -> None:
    """Solve one strategy's group of a batched unit and record its rows."""
    info = get_info(name)
    group = [profiles[position] for position in members]
    outcomes = solve_batch(group, unit.resources, name)
    obs = current()
    prefix = f"worker.{os.getpid()}.memo"
    for position, outcome in zip(members, outcomes):
        if unit.certify:
            certify_outcome(
                outcome,
                profiles[position],
                unit.resources,
                optimal=info.optimal,
                context=name,
            )
        result = _result_of(outcome, unit.resources)
        if obs.metrics.enabled:
            # Same deterministic period stream as the per-cell path, so the
            # sketch is invariant across tiers and fault routing.
            obs.metrics.observe(f"solve.period.{name}", result.period)
        if use_shard:
            key = make_key(unit.pending[position].chain, unit.resources, name)
            _WORKER_MEMO[key] = result
            if obs.metrics.enabled:
                obs.metrics.add(f"{prefix}.misses")
        results[position][name] = result


def _solve_rows_routed(unit: WorkUnit) -> UnitResult:
    """Unit with an armed fault plan: route per instance.

    Every instance the plan *could* target (non-consuming
    :meth:`~repro.engine.faults.FaultPlan.targets` check) goes through the
    per-cell path — the only place faults get their ``fire()``
    consultation — while the rest of the unit keeps the batched path
    (without the worker memo shard, which never runs under a fault plan).
    Routing all-or-nothing here used to silently bypass injection whenever
    a batched unit mixed targeted and untargeted instances; the split keeps
    injection unconditional without giving up batching.
    """
    assert unit.faults is not None
    targeted: list[PendingInstance] = []
    untargeted: list[PendingInstance] = []
    for item in unit.pending:
        hit = unit.faults.targets(item.chain.fingerprint, item.strategies)
        (targeted if hit else untargeted).append(item)
    rows: UnitResult = []
    if targeted:
        rows.extend(_solve_rows(replace(unit, pending=tuple(targeted))))
    if untargeted:
        rows.extend(
            _solve_rows_batch(
                replace(unit, pending=tuple(untargeted), faults=None),
                use_shard=False,
            )
        )
    return rows


def _solve_unit_rows(unit: WorkUnit) -> UnitResult:
    """Route a unit: batched (worker shard on the process tier, never under
    certify) or, with a fault plan armed, split per instance."""
    if unit.faults is not None:
        return _solve_rows_routed(unit)
    use_shard = unit.tier == "process" and not unit.certify
    return _solve_rows_batch(unit, use_shard=use_shard)


def _attribute_worker_costs(
    unit: WorkUnit, rows: UnitResult, arrived: float, metrics: "MetricsLike"
) -> None:
    """Record process-tier cost attribution under the ``worker.*`` namespace.

    Everything here is keyed by the worker's pid and measured on wall
    clocks, so it is inherently tier- and run-dependent: ``worker.*`` is the
    one metric namespace exempt from the cross-tier counter-parity guarantee
    (DESIGN.md §15).  The pickle costs are measured by re-serializing the
    unit and its result rows with the same protocol the pool uses — the
    bytes counted are the bytes the IPC channel actually carried (about
    32 B per solved cell on the way out), the seconds are a faithful re-run
    of the same work.
    """
    pid = os.getpid()
    prefix = f"worker.{pid}"
    metrics.add(f"{prefix}.units")
    if unit.dispatched_at is not None:
        wait = max(0.0, arrived - unit.dispatched_at)
        metrics.add(f"{prefix}.pool_wait.seconds", wait)
        metrics.observe("worker.pool_wait.seconds", wait)
    start = monotonic()
    bytes_in = len(pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL))
    seconds_in = monotonic() - start
    start = monotonic()
    bytes_out = len(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
    seconds_out = monotonic() - start
    metrics.add(f"{prefix}.pickle.bytes_in", bytes_in)
    metrics.add(f"{prefix}.pickle.bytes_out", bytes_out)
    metrics.add(f"{prefix}.pickle.seconds_in", seconds_in)
    metrics.add(f"{prefix}.pickle.seconds_out", seconds_out)
    metrics.observe("worker.pickle.seconds", seconds_in + seconds_out)


def solve_unit(unit: WorkUnit) -> UnitOutcome:
    """Resolve one work unit (the process-pool entry point).

    Profiles each chain once, then solves the unit strategy-grouped
    through :func:`repro.core.registry.solve_batch`.  An armed fault plan
    routes *fault-targeted* instances to the per-cell path unconditionally
    (faults trigger per cell); the remaining instances of the same unit
    still go through ``solve_batch``.  With
    observability enabled on the unit, a fresh local context is built
    and activated for the duration — worker processes have no access to the
    engine's tracer, and the serial tier deliberately uses the same
    ship-a-payload-home protocol so every tier aggregates identically.

    Process-tier units with metrics enabled additionally attribute their
    IPC costs (pool wait, pickle bytes/seconds in and out) to the worker's
    pid before the payload ships home — see :func:`_attribute_worker_costs`.

    Results come home as pickled rows, with the unit's ``unit_id`` and
    measured solve wall riding along as planner feedback.
    """
    arrived = monotonic()
    if unit.obs is None or not unit.obs.enabled:
        rows = _solve_unit_rows(unit)
        return UnitOutcome(
            rows=rows,
            unit_id=unit.unit_id,
            seconds=monotonic() - arrived,
        )
    context = unit.obs.create_context()
    with activate(context):
        with context.span(
            "unit", "engine", tier=unit.tier, instances=len(unit.pending)
        ):
            rows = _solve_unit_rows(unit)
        solved_at = monotonic()
        if unit.tier == "process" and context.metrics.enabled:
            _attribute_worker_costs(unit, rows, arrived, context.metrics)
    return UnitOutcome(
        rows=rows,
        obs=context.payload(),
        unit_id=unit.unit_id,
        seconds=solved_at - arrived,
    )


def units_from_groups(
    groups: Sequence[tuple[PendingInstance, ...]],
    resources: Resources,
    certify: bool = False,
    faults: "FaultPlan | None" = None,
    tier: str = "serial",
    obs: "ObsConfig | None" = None,
) -> list[WorkUnit]:
    """Materialize planner groups (:func:`repro.engine.plan.plan_units`)
    into work units.

    Each unit's ``unit_id`` is its plan position — the handle the engine
    feeds measured unit walls to its cost model by.  Process-tier units
    built with metrics enabled carry a ``dispatched_at`` monotonic stamp so
    workers can attribute the dispatch-to-start (pool queueing) latency of
    each unit.
    """
    dispatched_at = (
        monotonic()
        if tier == "process" and obs is not None and obs.metrics
        else None
    )
    return [
        WorkUnit(
            pending=group,
            resources=resources,
            certify=certify,
            faults=faults,
            tier=tier,
            obs=obs,
            dispatched_at=dispatched_at,
            unit_id=unit_id,
        )
        for unit_id, group in enumerate(groups)
    ]


class SpreadProcessPool(ProcessPoolExecutor):
    """The engine's process pool: workers start spread over usable cores.

    Forked workers start on the parent's core, and some schedulers leave
    them there for a whole sub-second campaign (on a 2-vCPU VM, both
    workers shared one vCPU in 3 of 6 sampled 40-chain calls).  So each
    worker moves once to its own core, then restores its full mask.
    """

    def __init__(self, max_workers: int) -> None:
        super().__init__(
            max_workers=max_workers,
            initializer=_spread_worker,
            initargs=(multiprocessing.Value("i", 0),),
        )


def _spread_worker(slots: "Synchronized[int]") -> None:
    """Pool initializer: move this worker to the next usable core, once."""
    if not hasattr(os, "sched_setaffinity"):
        return
    with slots.get_lock():
        slot = slots.value
        slots.value += 1
    usable = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {usable[slot % len(usable)]})
        os.sched_setaffinity(0, usable)
    except OSError:
        pass  # placement is best effort; the scheduler still runs the worker
