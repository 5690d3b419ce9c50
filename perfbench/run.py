"""Benchmark of the repro scheduling library: one command, four workloads.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``campaign``  cold Table-I-shaped campaigns through one CampaignEngine;
* ``solve``     single-instance solves, one closed-loop caller, no engine;
* ``online``    a bursty trace with core failures through ``repro.sim``;
* ``reproduce`` table1, fig1, fig2, table2, fig6, fig5 (run + render)
  on one shared engine.

With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds, untraced.  With ``--trace 1`` it runs a fixed,
seed-determined amount of work once untraced and once traced, and reports
the per-layer metrics.  Either way, the k=2 oracle is replayed before any
timing and every timed result is checked.  The last line of standard output
is the JSON result; the exit code is 0 when every check passed, 1 when one
failed, and 2 when the benchmark cannot run at all.  On every way out, every
process the run started (engine pool workers, set-up children, the
multiprocessing resource tracker) is stopped and waited for.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
from harness import BenchmarkError, Metric, Tally

WORKLOAD_NAMES = ("campaign", "solve", "online", "reproduce")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _declared() -> dict:
    path = harness.ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {path}: {error}") from None
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(args: argparse.Namespace) -> int:
    declared = _declared()
    harness.import_repro()
    import layers
    import scenarios

    jobs = harness.usable_cores()
    workload = scenarios.WORKLOADS[args.workload](args.seed, jobs)
    tally = Tally()

    setup = harness.SetupTimer()
    setup.measure(args.workload, args.seed, jobs)
    workload.generate()
    workload.build()
    workload.replay_oracle(tally)

    table: list[Metric] = setup.metrics()
    if args.trace:
        untraced = workload.fixed(None, tally)
        from repro.obs.context import ObsConfig, Observability

        obs = Observability(ObsConfig(trace=True, metrics=True))
        traced = workload.fixed(obs, tally)
        spans = obs.spans()
        counters = dict(obs.metrics.counters())
        counters.update(workload.counters)
        values = layers.layer_values(
            spans,
            counters,
            jobs=jobs,
            worker_rss_mb=harness.peak_rss_mb(children=True),
        )
        values.update(setup.layer_values())
        values["obs.trace_overhead"] = traced / untraced
        units = declared["per_layer"]
        table = [
            Metric(name, values[name], unit, 1) for name, unit in units.items()
        ]
    else:
        table += workload.timed(args.seconds, tally)
        table.append(Metric("peak_rss_mb", harness.peak_rss_mb(), "MB", 1))
        values = {m.name: m.value for m in table}
        units = declared["end_to_end"]
    workload.post_checks(tally)
    table.append(Metric("error_rate", tally.error_rate, "ratio", tally.attempted,
                        f"{tally.failed} failed"))

    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"workload {args.workload} did not measure {missing}")
    print("provenance " + json.dumps(harness.provenance(args.seed, jobs)))
    harness.print_table(
        f"workload {args.workload} (trace {args.trace}, jobs {jobs})", table
    )
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    harness.emit(values, units, tally)
    return 0 if tally.failed == 0 else 1


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    harness.adopt_orphans()
    try:
        code = run(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        harness.stop_processes()
    print(f"finished in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
