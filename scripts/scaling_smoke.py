#!/usr/bin/env python
"""Scaling smoke: process tier — parity, speedup.

Two phases, any failure exits non-zero (CI ``scaling-smoke`` job):

1. **Bitwise parity** — a Table I-style campaign solved serially and at
   ``--jobs`` must be identical to the bit (that both equal the scalar
   reference map is pinned by the tier-1 suite).  This runs everywhere,
   including pinned single-core runners: parity is hardware-independent.
2. **Speedup** — only when the runner reports at least 2 usable cores
   (``os.sched_getaffinity``): the process tier must reach
   ``--min-efficiency`` x jobs x serial throughput.  On fewer cores the
   phase is skipped loudly — a single-core speedup number is scheduler
   noise, not evidence.

Usage::

    PYTHONPATH=src python scripts/scaling_smoke.py [--chains 40] [--jobs 4]
        [--min-efficiency 0.8]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.registry import PAPER_ORDER
from repro.core.types import Resources
from repro.engine import CampaignEngine, resolve_jobs
from repro.workloads.synthetic import GeneratorConfig, chain_batch

BUDGET = Resources(10, 10)


def _arrays_match(a, b) -> bool:
    return set(a) == set(b) and all(
        np.array_equal(a[n].periods, b[n].periods)
        and np.array_equal(a[n].big_used, b[n].big_used)
        and np.array_equal(a[n].little_used, b[n].little_used)
        for n in a
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=40)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--min-efficiency", type=float, default=0.8,
                        help="required speedup as a fraction of --jobs "
                        "(only asserted with >= 2 usable cores)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = GeneratorConfig(num_tasks=20, stateless_ratio=0.5)
    chains = list(chain_batch(args.chains, config, seed=args.seed))
    cores = resolve_jobs(None)
    failures = 0
    print(
        f"scaling smoke: {len(chains)} chains x {len(PAPER_ORDER)} "
        f"strategies, jobs={args.jobs}, usable cores={cores}"
    )

    serial_engine = CampaignEngine(jobs=1, memo=False)
    start = time.perf_counter()
    serial = serial_engine.solve_instances(chains, BUDGET, PAPER_ORDER)
    serial_s = time.perf_counter() - start

    process_engine = CampaignEngine(jobs=args.jobs, memo=False)
    start = time.perf_counter()
    parallel = process_engine.solve_instances(chains, BUDGET, PAPER_ORDER)
    parallel_s = time.perf_counter() - start

    if _arrays_match(serial, parallel):
        print(f"  parity: serial vs jobs={args.jobs} bitwise identical")
    else:
        print("  parity: MISMATCH across tiers", file=sys.stderr)
        failures += 1

    if cores >= 2:
        speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
        wanted = args.min_efficiency * min(args.jobs, cores)
        verdict = "ok" if speedup >= wanted else "FAIL"
        print(
            f"  speedup: x{speedup:.2f} at jobs={args.jobs} on {cores} "
            f"cores (need >= x{wanted:.2f}) {verdict}"
        )
        if speedup < wanted:
            failures += 1
    else:
        print(
            f"  speedup: skipped ({cores} usable core(s); scaling "
            "assertions need >= 2)"
        )

    if failures:
        print(f"scaling smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print("scaling smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
