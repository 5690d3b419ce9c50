"""Per-layer numbers of a traced run, under the names BENCHMARK.json lists.

The traced run records two kinds of spans into one
:class:`repro.obs.context.Observability`: the benchmark's own spans around
each public call (category ``bench``) and the spans and counters the program
already keeps (engine campaigns, work units, cell solves, core counters).
Self time comes from :func:`repro.obs.profile.aggregate_self` and
:func:`repro.obs.profile.self_seconds`.  A layer the workload never reaches
reads 0: that is the prediction, not a missing value.
"""

from __future__ import annotations

from repro.obs.profile import aggregate_self, self_seconds

from harness import percentile

PAPER = ("herad", "2catac", "fertac", "otac_b", "otac_l")
DRIVERS = ("table1", "fig1", "fig2", "table2", "fig6", "fig5")
SIM_ACTIONS = ("keep", "warm", "full", "reuse", "shed")
CORE_COUNTERS = (
    "binary_search.calls",
    "binary_search.iterations",
    "herad.calls",
    "packing.compute_stage_calls",
)


def _durations(spans, name: str, **attrs) -> list[float]:
    out = []
    for span in spans:
        if span.name != name:
            continue
        found = span.attr_dict()
        if all(found.get(k) == v for k, v in attrs.items()):
            out.append(span.duration)
    return out


def _self_by_strategy(spans, name: str) -> dict[str, float]:
    selfs = self_seconds(spans)
    totals: dict[str, float] = {}
    for span in spans:
        if span.name == name:
            strategy = str(span.attr_dict().get("strategy"))
            key = (span.pid, span.span_id)
            totals[strategy] = totals.get(strategy, 0.0) + selfs[key]
    return totals


def _worker_sum(counters: "dict[str, float]", suffix: str) -> float:
    return sum(
        value
        for name, value in counters.items()
        if name.startswith("worker.") and name.endswith(suffix)
    )


def layer_values(
    spans,
    counters: "dict[str, float]",
    *,
    jobs: int,
    worker_rss_mb: float,
) -> dict[str, float]:
    """Every per-layer number that spans and counters can give."""
    frames = {(f.name, f.category): f for f in aggregate_self(spans)}

    def frame(name: str, category: str, attr: str = "self_seconds") -> float:
        stat = frames.get((name, category))
        return float(getattr(stat, attr)) if stat is not None else 0.0

    values: dict[str, float] = {}
    for name in ("fertac", "otac_b", "otac_l"):
        calls = _durations(spans, "bench.solve", strategy=name)
        values[f"core.{name}.p50_ms"] = (
            percentile(calls, 50) * 1e3 if calls else 0.0
        )
    for name in CORE_COUNTERS:
        values[f"core.{name}"] = counters.get(name, 0.0)

    solve_self = _self_by_strategy(spans, "solve")
    batch_self = _self_by_strategy(spans, "solve_batch")
    for name in PAPER:
        values[f"engine.solve.{name}.self_s"] = solve_self.get(name, 0.0)
        values[f"engine.solve_batch.{name}.self_s"] = batch_self.get(name, 0.0)

    values["engine.campaign.self_s"] = frame("campaign", "campaign")
    values["engine.memo_fill.self_s"] = frame("memo.fill", "memo")
    values["engine.unit.self_s"] = frame("unit", "engine")
    values["engine.pool_wait_s"] = _worker_sum(counters, ".pool_wait.seconds")
    values["engine.pickle_s"] = _worker_sum(
        counters, ".pickle.seconds_in"
    ) + _worker_sum(counters, ".pickle.seconds_out")
    values["engine.pickle_bytes_out"] = _worker_sum(counters, ".pickle.bytes_out")
    values["engine.units"] = frame("unit", "engine", "count")
    campaign_wall = frame("campaign", "campaign", "inclusive_seconds")
    unit_busy = frame("unit", "engine", "inclusive_seconds")
    values["engine.parallel_efficiency"] = (
        unit_busy / (campaign_wall * jobs) if campaign_wall else 0.0
    )
    values["engine.worker_peak_rss_mb"] = worker_rss_mb
    hits = counters.get("memo.hits", 0.0)
    misses = counters.get("memo.misses", 0.0)
    values["engine.memo.hits"] = hits
    values["engine.memo.misses"] = misses
    values["engine.memo.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )

    for action in SIM_ACTIONS:
        values[f"sim.resched.{action}"] = counters.get(f"sim.resched.{action}", 0.0)
    warm = values["sim.resched.warm"]
    full = values["sim.resched.full"]
    values["sim.warm_ratio"] = warm / (warm + full) if warm + full else 0.0
    values["sim.resched.cost"] = counters.get("sim.resched.cost", 0.0)
    for name in ("scheduleless", "overcommit"):
        values[f"sim.invariant.{name}"] = counters.get(f"sim.invariant.{name}", 0.0)

    for driver in DRIVERS:
        values[f"experiments.{driver}.run_s"] = float(
            sum(_durations(spans, "bench.run", driver=driver))
        )
    values["analysis.render_s"] = float(sum(_durations(spans, "bench.render")))
    return values

