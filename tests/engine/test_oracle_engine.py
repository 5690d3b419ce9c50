"""The 1260-cell k2 oracle replayed through the campaign engine, certified.

``tests/data/k2_oracle.json`` stores the pre-refactor outputs of 30 chains x
6 budgets x 7 strategies.  Every cell is solved here through a default
:class:`~repro.engine.CampaignEngine` — the same single ``solve_batch`` path
``repro table1`` runs — with certification on, serially and on the
``--jobs 2`` process tier, and compared bitwise: period bits and per-type
core usage.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.types import Resources
from repro.engine import CampaignEngine
from repro.workloads import generators as g
from repro.workloads.synthetic import GeneratorConfig, chain_batch

_FIXTURE = Path(__file__).resolve().parent.parent / "data" / "k2_oracle.json"


def _oracle_chains():
    """The fixture's chain population (same recipe as tests/core)."""
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_replays_bitwise_through_the_engine(jobs):
    oracle = json.loads(_FIXTURE.read_text())
    chains = _oracle_chains()
    strategies = sorted({row["strategy"] for row in oracle["rows"]})
    cells = {
        (row["chain"], tuple(row["budget"]), row["strategy"]): row
        for row in oracle["rows"]
    }
    engine = CampaignEngine(jobs=jobs, memo=False)
    mismatches = []
    for budget in oracle["meta"]["budgets"]:
        arrays = engine.solve_instances(
            chains, Resources(*budget), strategies, certify=True
        )
        for name in strategies:
            record = arrays[name]
            for index in range(len(chains)):
                row = cells[index, tuple(budget), name]
                got = (
                    float(record.periods[index]).hex(),
                    [int(record.big_used[index]), int(record.little_used[index])],
                )
                want = (row["period_hex"], row["usage"])
                if got != want:
                    mismatches.append((index, budget, name, want, got))
    assert len(cells) == 1260
    assert not mismatches, (
        f"{len(mismatches)} oracle cells diverged through the engine; "
        f"first: {mismatches[0]}"
    )
