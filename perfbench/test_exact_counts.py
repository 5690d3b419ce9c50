"""Self-checks of the benchmark itself.

The per-layer counts below must repeat exactly across two traced runs of one
seed, so that later changes can cite them as counts rather than timings.
Each traced run does a fixed, seed-determined amount of work, whatever
``--seconds`` says.  ``engine.units`` is not among them: the unit planner
sizes units from wall-clock cost estimates, so the count follows the
machine's speed.  Run with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from harness import tail_percentile

HERE = Path(__file__).resolve().parent

EXACT = (
    "cli.repro_modules",
    "core.binary_search.calls",
    "core.binary_search.iterations",
    "core.herad.calls",
    "core.packing.compute_stage_calls",
    "engine.memo.hits",
    "engine.memo.misses",
    "sim.resched.keep",
    "sim.resched.warm",
    "sim.resched.full",
    "sim.resched.reuse",
    "sim.resched.shed",
    "sim.resched.cost",
    "sim.invariant.scheduleless",
    "sim.invariant.overcommit",
)


def _traced(workload: str, seed: int = 7) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", ["campaign", "solve", "online", "reproduce"])
def test_counts_repeat_exactly(workload: str) -> None:
    first, second = _traced(workload), _traced(workload)
    differ = {
        name: (first[name]["value"], second[name]["value"])
        for name in EXACT
        if first[name]["value"] != second[name]["value"]
    }
    assert not differ, differ


@pytest.mark.parametrize(
    ("count", "expected"),
    [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_leaves_ten_samples_beyond(count: int, expected) -> None:
    assert tail_percentile(count) == expected
