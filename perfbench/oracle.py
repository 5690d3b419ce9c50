"""Replay of the committed k=2 oracle through the workloads' public calls.

``tests/data/k2_oracle.json`` holds, for 30 chains x 6 budgets x every
pre-k-type strategy (1,260 cells), the period bits, the per-type core usage
and the rendered schedule.  Before any timing, each workload replays all of
it through the same public call it then times: the campaign engine for
``campaign``/``reproduce``, the strategy registry for ``solve``/``online``.
The file is only read.
"""

from __future__ import annotations

import json

from repro.core.registry import get_strategy
from repro.core.types import Resources
from repro.workloads import generators as g
from repro.workloads.synthetic import GeneratorConfig, chain_batch

from harness import ROOT, Tally

ORACLE = ROOT / "tests" / "data" / "k2_oracle.json"


def _chains():
    """The oracle's chain population (the recipe it was captured with)."""
    chains = []
    for sr in (0.2, 0.5, 0.8):
        cfg = GeneratorConfig(num_tasks=20, stateless_ratio=sr)
        chains.extend(chain_batch(8, cfg, seed=int(sr * 10)))
    chains += [
        g.fully_replicable_chain(12),
        g.fully_sequential_chain(12),
        g.alternating_chain(15),
        g.heavy_tail_chain(10),
        g.inverted_speed_chain(14),
        g.uniform_chain(1),
    ]
    return chains


def _load():
    oracle = json.loads(ORACLE.read_text())
    return oracle, _chains()


def replay_scalar(tally: Tally) -> None:
    """Every oracle cell through ``get_strategy(name)(chain, budget)``."""
    oracle, chains = _load()
    for row in oracle["rows"]:
        where = f"oracle chain {row['chain']} {row['budget']} {row['strategy']}"
        try:
            outcome = get_strategy(row["strategy"])(
                chains[row["chain"]], Resources(*row["budget"])
            )
        except Exception as error:  # a raise is a counted failure
            tally.fail(f"{where}: {type(error).__name__}: {error}")
            continue
        usage = outcome.solution.core_usage()
        got = (outcome.period.hex(), [usage.big, usage.little],
               outcome.solution.render())
        want = (row["period_hex"], row["usage"], row["render"])
        tally.check(got == want, f"{where}: got {got}, want {want}")


def replay_engine(engine, tally: Tally) -> None:
    """Every oracle cell through ``engine.solve_instances``, one call per
    budget, compared on period bits and per-type usage."""
    oracle, chains = _load()
    strategies = sorted({row["strategy"] for row in oracle["rows"]})
    by_budget: dict[tuple, list] = {}
    for row in oracle["rows"]:
        by_budget.setdefault(tuple(row["budget"]), []).append(row)
    for budget, rows in by_budget.items():
        try:
            arrays = engine.solve_instances(chains, Resources(*budget), strategies)
        except Exception as error:  # a raise is a counted failure
            tally.fail(f"oracle {budget}: {type(error).__name__}: {error}",
                       weight=len(rows))
            continue
        for row in rows:
            cols = arrays[row["strategy"]]
            i = row["chain"]
            got = (float(cols.periods[i]).hex(),
                   [int(cols.big_used[i]), int(cols.little_used[i])])
            want = (row["period_hex"], row["usage"])
            tally.check(
                got == want,
                f"oracle chain {i} {budget} {row['strategy']}: "
                f"got {got}, want {want}",
            )
