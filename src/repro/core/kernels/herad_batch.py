"""Batch-vectorized HeRAD: one DP sweep schedules a whole work unit.

This is the only HeRAD DP in the package: :func:`repro.core.herad.herad`
calls it with a one-row batch, and the campaign engine hands it whole work
units through :func:`repro.core.registry.solve_batch`.  Each prefix length
``j`` is a handful of whole-plane numpy operations; tables carry a leading
batch axis ``(B, n + 1, b + 1, l + 1)``, candidate tensors are
``(B, starts, region)``, and the lexicographic reduction / neighbor sweep
operate per batch row independently, so a 50-chain unit pays the numpy
dispatch overhead of one chain.

Exactness (replayed against the 1260-cell pre-vectorization
``tests/data/k2_oracle.json`` fixture, differentially tested against
:mod:`repro.core.herad_reference` and between batch sizes in
``tests/core/test_kernels.py``) rests on these arguments:

* **Packed DP key.**  ``CompareCells`` (Algo. 10) is equivalent to taking
  the lexicographic minimum of ``(period, big cores used, little cores
  used)`` with a first-start tie-break (DESIGN.md §5).  That key becomes
  ``(period, acc_b << 48 | acc_l << 16 | start)``: the packing is
  order-isomorphic (each component is non-negative and fits its bit lane —
  guarded at entry), so one float min plus one integer min give the
  winner and its start index exactly.  Tables store the combo with the
  start lane zeroed.
* **Masked invalid starts.**  Sequential stages gain nothing from extra
  cores, so ``u >= 2`` candidates only start at replicable positions.  The
  kernel gathers the batch-*union* of replicable starts and masks the rest
  of each row to an infinite stage weight.  An infinite-period candidate
  always carries a positive accumulator while an untouched cell holds
  ``(inf, 0)``, so the strict lexicographic update can never fire on one —
  masked candidates are exact no-ops, and a row's result does not depend
  on the rest of its batch.
* **Padding.**  Planes ``j > n_i`` of a shorter chain hold finite garbage
  that nothing reads: plane ``j`` consumes only planes ``< j``, and
  extraction for instance ``i`` starts at plane ``n_i``, which was computed
  entirely from real data.

The neighbor sweep (Algo. 9, lines 2-3) is a doubling scan; that it equals
a naive lower-left-quadrant minimum on every budget shape, degenerate ones
included, is tested in ``tests/core/test_herad_sweep.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ...obs.context import counter_add
from ..binary_search import ScheduleOutcome
from ..bounds import period_bounds
from ..chain_stats import ChainProfile
from ..errors import InvalidPlatformError
from ..merge import merge_replicable_stages
from ..solution import Solution
from ..stage import Stage
from ..types import CoreType, Resources
from .pack import ChainPack

__all__ = ["herad_batch"]

_KEY_SENTINEL = np.iinfo(np.int64).max
#: Bit lanes of the packed key: ``acc_b << 48 | acc_l << 16 | start``.
_ACC_B_SHIFT = 48
_ACC_L_SHIFT = 16
_START_MASK = np.int64((1 << 16) - 1)
_ACC_L_MASK = np.int64((1 << 32) - 1)
#: Budget / chain-length bounds under which the packed key is exact.
_MAX_BUDGET = 1 << 15
_MAX_TASKS = 1 << 16


class _BatchTables:
    """The HeRAD solution matrices for a whole batch.

    Axis order is ``(instance, plane, big budget, little budget)``.  The
    ``combo`` plane packs both accumulators, the big and little cores
    used, in its two upper lanes (start lane zero).
    """

    __slots__ = ("period", "combo", "prev_b", "prev_l", "vtype", "start")

    def __init__(self, size: int, n: int, big: int, little: int) -> None:
        shape = (size, n + 1, big + 1, little + 1)
        self.period = np.full(shape, np.inf, dtype=np.float64)
        self.period[:, 0] = 0.0  # P*(0, ., .) = 0
        self.combo = np.zeros(shape, dtype=np.int64)
        self.prev_b = np.zeros(shape, dtype=np.int32)
        self.prev_l = np.zeros(shape, dtype=np.int32)
        self.vtype = np.full(shape, int(CoreType.LITTLE), dtype=np.int8)
        self.start = np.zeros(shape, dtype=np.int32)


def _update_plane(
    cur: dict[str, np.ndarray],
    region: tuple[slice, slice],
    new_period: np.ndarray,
    new_key: np.ndarray,
    fields: dict[str, np.ndarray],
) -> None:
    """Strict lexicographic key-compare update on ``region`` of every row.

    ``new_key`` still carries the winner's start in its low lane; the combo
    stored on update has it stripped, and the start is delivered through its
    own plane.
    """
    sel = (slice(None), *region)
    cur_p = cur["period"][sel]
    cur_c = cur["combo"][sel]
    # Lexicographic DP key: both planes hold values produced by the identical
    # max/divide pipeline, so equal values really are bitwise-equal; isclose
    # here would merge distinct optima.  Comparing the un-stripped key is
    # exact: stored combos are multiples of 2^16 and the start lane is
    # non-negative, so ``new_key < cur_c`` holds iff the stripped combo is
    # *strictly* smaller — the start lane can never flip a tie.
    better = (new_period < cur_p) | (
        (new_period == cur_p)  # lint: ignore[float-equality]
        & (new_key < cur_c)
    )
    if not better.any():
        return
    np.copyto(cur_p, new_period, where=better)
    np.copyto(cur_c, new_key & ~_START_MASK, where=better)
    np.copyto(
        cur["start"][sel], (new_key & _START_MASK).astype(np.int32),
        where=better,
    )
    for name, value in fields.items():
        np.copyto(cur[name][sel], value, where=better)


def _neighbor_sweep(
    cur: dict[str, np.ndarray], big: int, little: int
) -> None:
    """Propagate solutions needing one core fewer (Algo. 9, lines 2-3).

    Each cell must end up holding the lexicographic key minimum over its
    lower-left quadrant (budgets ``(b', l') <= (b, l)``), with the winning
    cell's companion fields carried along.  Two prefix-minimum passes, one
    per budget axis, each a Hillis-Steele doubling scan (``O(log)``
    whole-plane steps), track the flat *source* index of each running
    minimum; the winners' fields are gathered once at the end.  Prefix
    minima compose across the two axes because the lexicographic minimum is
    associative and commutative, and strict comparisons keep the incumbent
    cell on ties.  The batch axis rides along.
    """
    kp = cur["period"].copy()
    kc = cur["combo"].copy()
    size_b = kp.shape[0]
    plane_cells = kp.shape[1] * kp.shape[2]
    own = np.arange(plane_cells, dtype=np.intp).reshape(kp.shape[1:])
    src = np.broadcast_to(own, kp.shape).copy()

    for axis, size in ((2, little), (1, big)):
        step = 1
        while step <= size:
            if axis == 2:
                prev_p = kp[:, :, :-step].copy()
                prev_c = kc[:, :, :-step].copy()
                prev_s = src[:, :, :-step].copy()
                views = (kp[:, :, step:], kc[:, :, step:], src[:, :, step:])
            else:
                prev_p = kp[:, :-step].copy()
                prev_c = kc[:, :-step].copy()
                prev_s = src[:, :-step].copy()
                views = (kp[:, step:], kc[:, step:], src[:, step:])
            cur_p, cur_c, cur_s = views
            # Strict (period, combo) comparison: ties keep the incumbent.
            better = (prev_p < cur_p) | (
                (prev_p == cur_p)  # lint: ignore[float-equality]
                & (prev_c < cur_c)
            )
            if better.any():
                np.copyto(cur_p, prev_p, where=better)
                np.copyto(cur_c, prev_c, where=better)
                np.copyto(cur_s, prev_s, where=better)
            step <<= 1

    changed = src != own
    if not changed.any():
        return
    rows = np.arange(size_b, dtype=np.intp)[:, None, None]
    for plane in cur.values():
        winners = plane.reshape(size_b, plane_cells)[rows, src]
        np.copyto(plane, winners, where=changed)


def _fill_tables(pack: ChainPack, big: int, little: int) -> _BatchTables:
    """Run the DP over all planes for every instance of the batch."""
    n = pack.n
    tables = _BatchTables(pack.size, n, big, little)
    caps = {CoreType.BIG: big, CoreType.LITTLE: little}

    bb_grid = np.arange(big + 1, dtype=np.int32)[:, None]
    ll_grid = np.arange(little + 1, dtype=np.int32)[None, :]

    shape = (pack.size, big + 1, little + 1)
    cur = {
        "period": np.empty(shape, dtype=np.float64),
        "combo": np.empty(shape, dtype=np.int64),
        "prev_b": np.empty(shape, dtype=np.int32),
        "prev_l": np.empty(shape, dtype=np.int32),
        "vtype": np.empty(shape, dtype=np.int8),
        "start": np.empty(shape, dtype=np.int32),
    }

    # Per-(core type, u) geometry, independent of the prefix length ``j``.
    # ``add`` is the packed accumulator increment of a ``u``-core stage of
    # that type; the hot loop allocates nothing but the candidate tensors.
    group: dict[tuple[CoreType, int], tuple] = {}
    for u in range(1, big + 1):
        pred = (slice(0, big + 1 - u), slice(None))
        region = (slice(u, big + 1), slice(None))
        fields = {
            "prev_b": bb_grid[u:] - u,
            "prev_l": ll_grid,
            "vtype": np.int8(int(CoreType.BIG)),
        }
        group[CoreType.BIG, u] = (pred, region, fields, np.int64(u) << _ACC_B_SHIFT)
    for u in range(1, little + 1):
        pred = (slice(None), slice(0, little + 1 - u))
        region = (slice(None), slice(u, little + 1))
        fields = {
            "prev_b": bb_grid,
            "prev_l": ll_grid[:, u:] - u,
            "vtype": np.int8(int(CoreType.LITTLE)),
        }
        group[CoreType.LITTLE, u] = (pred, region, fields, np.int64(u) << _ACC_L_SHIFT)

    for j in range(1, n + 1):
        end = j - 1
        cur["period"].fill(np.inf)
        cur["combo"].fill(0)
        cur["prev_b"].fill(0)
        cur["prev_l"].fill(0)
        cur["vtype"].fill(int(CoreType.LITTLE))
        cur["start"].fill(0)

        # rep[i, s]: interval [s, end] of instance i is replicable (padded
        # rows yield garbage that the inf-mask argument neutralizes).  For
        # u >= 2 only the batch-union of replicable starts is gathered —
        # the complement would be all-masked rows, pure wasted work.
        rep = pack.next_seq[:, :j] > end
        rep_union = np.flatnonzero(rep.any(axis=0)).astype(np.int64)
        all_starts = np.arange(j, dtype=np.int64)[None, :, None, None]
        # Gather the replicable-start predecessor block once per plane; the
        # per-u pred regions below are plain slice views into it.
        if rep_union.size:
            rep_period = tables.period[:, rep_union]
            rep_combo = tables.combo[:, rep_union]

        for core_type in (CoreType.BIG, CoreType.LITTLE):
            cap = caps[core_type]
            if cap == 0:
                continue
            # weights[i, s] = w([tau_s, tau_end], 1, v) of instance i.
            prefix = pack.prefix[int(core_type)]
            weights = prefix[:, j : j + 1] - prefix[:, :j]
            rep_w = weights[:, rep_union]
            rep_mask = rep[:, rep_union]
            rep_starts = rep_union[None, :, None, None]

            for u in range(1, cap + 1):
                pred_grid, region, fields, add = group[core_type, u]
                if u == 1:
                    stage_w = weights
                    pred = (slice(None), slice(0, j), *pred_grid)
                    cand_p = np.maximum(
                        tables.period[pred], stage_w[:, :, None, None]
                    )
                    cand_k = tables.combo[pred] + (all_starts + add)
                else:
                    # Sequential stages gain nothing from extra cores
                    # (Section V optimization): only replicable starts can
                    # host a u-core stage; instances for which a gathered
                    # union start is sequential are masked to inf, which
                    # the strict key update ignores.
                    if rep_union.size == 0:
                        break
                    stage_w = np.where(rep_mask, rep_w / u, np.inf)
                    cand_p = np.maximum(
                        rep_period[:, :, *pred_grid],
                        stage_w[:, :, None, None],
                    )
                    cand_k = rep_combo[:, :, *pred_grid] + (rep_starts + add)

                p_min = cand_p.min(axis=1)
                # Exact DP tie-break: p_min comes from the very array it is
                # compared to, so equal values are bitwise-identical by
                # construction; the packed-key min over the period-tied
                # candidates then resolves ties by (acc_b, acc_l, start).
                mask = cand_p == p_min[:, None]  # lint: ignore[float-equality]
                key_min = np.min(
                    cand_k, axis=1, where=mask, initial=_KEY_SENTINEL
                )
                _update_plane(cur, region, p_min, key_min, fields)

        _neighbor_sweep(cur, big, little)
        for name, plane in cur.items():
            getattr(tables, name)[:, j] = plane

    return tables


def _extract(
    tables: _BatchTables,
    row: int,
    profile: ChainProfile,
    big: int,
    little: int,
) -> Solution:
    """Paper's ``ExtractSolution`` (Algo. 11) on one batch row."""
    end = profile.n - 1
    r_b, r_l = big, little
    stages: list[Stage] = []

    while end >= 0:
        j = end + 1
        if not math.isfinite(tables.period[row, j, r_b, r_l]):
            return Solution.empty()
        start = int(tables.start[row, j, r_b, r_l])
        combo = int(tables.combo[row, j, r_b, r_l])
        used_b = combo >> _ACC_B_SHIFT
        used_l = (combo >> _ACC_L_SHIFT) & int(_ACC_L_MASK)
        p_b = int(tables.prev_b[row, j, r_b, r_l])
        p_l = int(tables.prev_l[row, j, r_b, r_l])
        if start > 0:
            prev_combo = int(tables.combo[row, start, p_b, p_l])
            used_b -= prev_combo >> _ACC_B_SHIFT
            used_l -= (prev_combo >> _ACC_L_SHIFT) & int(_ACC_L_MASK)
        vtype = CoreType(int(tables.vtype[row, j, r_b, r_l]))
        cores = used_b if vtype is CoreType.BIG else used_l
        stages.append(Stage(start, end, cores, vtype))
        end = start - 1
        r_b, r_l = p_b, p_l

    stages.reverse()
    return Solution(stages)


def herad_batch(
    profiles: Sequence[ChainProfile],
    resources: Resources,
    *,
    merge: bool = True,
) -> list[ScheduleOutcome]:
    """Solve a batch of chains optimally with the vectorized HeRAD DP.

    Returns one :class:`~repro.core.binary_search.ScheduleOutcome` per
    profile, in batch order.  A row's outcome does not depend on the rest of
    the batch, so it is bitwise identical to ``herad(profile, resources)``,
    which is this kernel on a one-row batch.

    Args:
        profiles: the profiled chains (any lengths; padded internally).
        resources: the two-type budget ``R = (b, l)`` shared by the batch.
        merge: apply the paper's extra step merging consecutive replicable
            stages mapped to the same core type (period-neutral).

    Raises:
        InvalidPlatformError: on a non-two-type or empty budget, a chain
            profiled without little-core weights, or an instance too large
            for the packed-key bit lanes.  No other HeRAD DP exists to fall
            back to: :func:`repro.core.registry.solve_batch` re-solves such a
            batch per instance only to raise the per-instance error.
    """
    if resources.ktype != 2:
        raise InvalidPlatformError(
            "HeRAD's DP is specialized to two core types; use the k-type "
            f"reference solver for a {resources.ktype}-type budget"
        )
    if resources.total <= 0:
        raise InvalidPlatformError("HeRAD needs at least one core")
    pack = ChainPack(profiles)
    big, little = resources.big, resources.little
    if big >= _MAX_BUDGET or little >= _MAX_BUDGET or pack.n >= _MAX_TASKS:
        raise InvalidPlatformError(
            "instance exceeds HeRAD's packed-key lanes "
            f"(budget < {_MAX_BUDGET} per type, chains < {_MAX_TASKS} tasks)"
        )
    for profile in pack.profiles:
        counter_add("herad.calls")
        counter_add(
            "herad.dp_cells", (profile.n + 1) * (big + 1) * (little + 1)
        )

    tables = _fill_tables(pack, big, little)

    outcomes: list[ScheduleOutcome] = []
    for row, profile in enumerate(pack.profiles):
        solution = _extract(tables, row, profile, big, little)
        if merge and not solution.is_empty:
            solution = merge_replicable_stages(solution, profile)
        outcomes.append(
            ScheduleOutcome(
                solution=solution,
                period=solution.period(profile),
                iterations=0,
                bounds=period_bounds(profile, resources),
                probes=(),
            )
        )
    return outcomes
