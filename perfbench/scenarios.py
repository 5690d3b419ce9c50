"""The four workloads: campaign, solve, online and reproduce.

Each workload generates its inputs from the seed, builds what it needs
through public constructors, and then either runs for a time budget
(``timed``, untraced, for the end-to-end numbers) or runs a fixed,
seed-determined amount of work (``fixed``, once untraced and once traced,
for the per-layer numbers and the tracing overhead).  Every result it times
is checked; failures go to the :class:`~harness.Tally`.

Only the generated inputs and ``jobs`` reach the program.  No engine knob
(``kernel``, ``chunk_size``, ``backend``, ``shared_results``,
``worker_memo``, ``unit_wall``) is passed, so those knobs can be removed
without touching this file.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import statistics
import time
from dataclasses import replace

import numpy as np

from repro.analysis.slowdown import slowdown_cdf, slowdown_ratios
from repro.core.certify import audit_solution
from repro.core.registry import PAPER_ORDER, get_strategy
from repro.core.types import Resources
from repro.engine import CampaignEngine
from repro.experiments import fig1, fig2, fig5, fig6, table1, table2, table3
from repro.experiments.common import PAPER_STATELESS_RATIOS
from repro.obs.context import activate
from repro.platform.presets import SIMULATION_BUDGETS
from repro.sim import SimConfig, SimEvent, SimTrace, bursty_trace, simulate
from repro.workloads.synthetic import GeneratorConfig, chain_batch

import oracle
from harness import Metric, Tally, calibrate, latency_metrics, slowdown

#: Seeds of one benchmark seed's inputs live in ``[seed*1000, seed*1000+999]``:
#: offset 0 is warm-up, offset ``r + 1`` is round ``r``.
SEED_BLOCK = 1000


def _seed(seed: int, offset: int) -> int:
    return seed * SEED_BLOCK + offset


def _span(obs, name: str, **attrs):
    """A benchmark-side span when tracing, nothing otherwise."""
    if obs is None:
        return contextlib.nullcontext()
    return obs.span(name, "bench", **attrs)


def _ambient(obs):
    """Make the traced context ambient, so the program's core counters
    (bisection, HeRAD, packing) record outside the engine too."""
    if obs is None:
        return contextlib.nullcontext()
    return activate(obs.context())


def _batches(seconds: float, step, every_core: bool, at_least: int = 1):
    """Run ``step(0)``, ``step(1)``, ... until ``seconds`` have passed and
    at least ``at_least`` steps have run, calibrating before each (on every
    core when the steps run on the engine's worker pool).

    Each step is one whole batch and returns ``(work done, seconds spent)``;
    stopping only between batches keeps every batch's input mix intact.
    Returns the batches and the calibrations.
    """
    done: list[tuple[int, float]] = []
    calibrations: list[float] = []
    start = time.perf_counter()
    while len(done) < at_least or time.perf_counter() - start < seconds:
        calibrations.append(calibrate(every_core))
        done.append(step(len(done)))
    return done, calibrations


def _chains(count: int, sr: float, seed: int) -> list:
    config = GeneratorConfig(num_tasks=20, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


def check_cells(records, resources: Resources, tally: Tally, where: str) -> None:
    """Campaign cell checks: solved, HeRAD optimal, usage within budget.

    ``records`` maps strategy to columns with ``periods``, ``big_used`` and
    ``little_used`` (engine arrays and experiment records both qualify).
    """
    optimal = records["herad"].periods
    for name, cols in records.items():
        for i, period in enumerate(cols.periods):
            big, little = int(cols.big_used[i]), int(cols.little_used[i])
            ok = (
                math.isfinite(period)
                and optimal[i] <= period
                and 0 <= big <= resources.big
                and 0 <= little <= resources.little
            )
            tally.check(
                ok,
                f"{where} chain {i} {name}: period {period} (herad "
                f"{optimal[i]}), usage ({big},{little}) on {resources}",
            )


def _same_cells(a, b, rows: int) -> bool:
    return all(
        a[name].periods[:rows].tobytes() == b[name].periods[:rows].tobytes()
        and np.array_equal(a[name].big_used[:rows], b[name].big_used[:rows])
        and np.array_equal(a[name].little_used[:rows], b[name].little_used[:rows])
        for name in b
    )


def _median_rate(batches: "list[tuple[int, float]]", name: str, work: str) -> Metric:
    """The median over batches (a block, a sequence) of work done
    per second, so that one neighbour's burst or one pathological input
    moves one batch, not the run."""
    rates = [done / seconds for done, seconds in batches]
    return Metric(name, statistics.median(rates), "1/s",
                  sum(done for done, _ in batches),
                  f"{work}, median of {len(rates)} batches")


def _overall_rate(batches: "list[tuple[int, float]]", name: str, work: str) -> Metric:
    """All work done over all seconds spent, for batches whose rates are
    light-tailed: then the mean is a steadier estimate than the median."""
    done = sum(done for done, _ in batches)
    return Metric(name, done / sum(seconds for _, seconds in batches), "1/s",
                  done, f"{work} over {len(batches)} batches")


def _throughput(raw: Metric, calibrations: "list[float]") -> list[Metric]:
    """``throughput_per_s``, the end-to-end rate every workload reports in
    its own unit of work, at reference speed; then the rate as measured and
    the slowdown that relates the two."""
    slow = slowdown(calibrations)
    return [
        replace(raw, name="throughput_per_s", value=raw.value * slow,
                note=raw.note + ", at reference speed"),
        raw,
        Metric("host_slowdown", slow, "ratio", len(calibrations),
               "median calibration / reference"),
    ]


class Workload:
    """Defaults for what a workload does not have."""

    counters: "dict[str, float]" = {}

    def post_checks(self, tally: Tally) -> None:
        pass


class Campaign(Workload):
    """Cold Table-I-shaped campaigns through one engine.

    A round is the paper's nine scenarios (three budgets x three SR) of
    ``CHAINS`` fresh 20-task chains, each scenario one ``solve_instances``
    call over the five paper strategies.  Every round draws new chains, so
    every cell is a memo miss: the solver kernels, the unit planner, process
    dispatch and the shared-memory result planes do all the work.

    ``CHAINS`` is 40, a 1,800-cell round: large enough that the planner's
    unit-wall target, not its units-per-worker floor, sizes the units (the
    CLI's 200 chains per scenario packs the same way, in five times as many
    units), and small enough that one call takes about a second on two
    cores, so a run holds a dozen calls to take the median of.
    """

    name = "campaign"
    CHAINS = 40
    CERTIFIED = 3

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs
        self.engine: "CampaignEngine | None" = None
        self.first_round: list = []
        self.first_arrays: list = []

    def _round(self, r: int) -> list:
        seed = _seed(self.seed, r + 1)
        return [
            (resources, sr, _chains(self.CHAINS, sr, seed))
            for resources in SIMULATION_BUDGETS
            for sr in PAPER_STATELESS_RATIOS
        ]

    def generate(self) -> None:
        self.first_round = self._round(0)

    def _warm(self, engine: CampaignEngine) -> None:
        warm = _chains(2, 0.5, _seed(self.seed, 0))
        engine.solve_instances(warm, Resources(10, 10), PAPER_ORDER)

    def build(self) -> None:
        self.engine = CampaignEngine(jobs=self.jobs)
        self._warm(self.engine)

    def replay_oracle(self, tally: Tally) -> None:
        oracle.replay_engine(CampaignEngine(jobs=self.jobs), tally)

    def _call(self, engine, scenario, tally, obs=None) -> "dict | None":
        """One scenario call, checked; None when it raised."""
        resources, sr, chains = scenario
        where = f"campaign {resources} SR={sr}"
        try:
            with _span(obs, "bench.campaign"):
                arrays = engine.solve_instances(chains, resources, PAPER_ORDER)
        except Exception as error:  # a raise is a counted failure
            tally.fail(f"{where}: {type(error).__name__}: {error}",
                       len(chains) * len(PAPER_ORDER))
            return None
        check_cells(arrays, resources, tally, where)
        return arrays

    def timed(self, seconds: float, tally: Tally) -> "list[Metric]":
        per_round = len(self.first_round)
        current = {0: self.first_round}  # round 0 and the round being run

        def step(i: int) -> tuple[int, float]:
            r, k = divmod(i, per_round)
            if r not in current:
                current.clear()
                current[r] = self._round(r)
            scenario = current[r][k]
            start = time.perf_counter()
            arrays = self._call(self.engine, scenario, tally)
            elapsed = time.perf_counter() - start
            if r == 0:
                self.first_arrays.append(arrays)
            if arrays is None:
                return 0, elapsed
            return len(scenario[2]) * len(PAPER_ORDER), elapsed

        calls, calibrations = _batches(seconds, step, every_core=True,
                                       at_least=per_round)
        walls = [wall for _, wall in calls]
        # Scenario costs differ severalfold, so pool per scenario: a round's
        # cells over the sum of each scenario's median call.
        by_scenario = [statistics.median(walls[k::per_round])
                       for k in range(per_round)]
        cells = sum(done for done, _ in calls[:per_round])
        raw = Metric("cells_per_s", cells / sum(by_scenario), "1/s",
                     sum(done for done, _ in calls),
                     f"cells/s of a round, per-scenario median of {len(calls)} calls")
        return _throughput(raw, calibrations) + latency_metrics(
            "campaign_call", walls, "one scenario")

    def fixed(self, obs, tally: Tally) -> float:
        if obs is None:
            engine = self.engine
        else:
            engine = CampaignEngine(jobs=self.jobs, obs=obs)
            self._warm(engine)
            obs.tracer.clear()
            obs.metrics.clear()
        start = time.perf_counter()
        for scenario in self.first_round:
            arrays = self._call(engine, scenario, tally, obs)
            if obs is None:
                self.first_arrays.append(arrays)
        return time.perf_counter() - start

    def post_checks(self, tally: Tally) -> None:
        """Re-solve a fixed sample of round 0 certified at ``jobs=1``."""
        for (resources, sr, chains), arrays in zip(self.first_round, self.first_arrays):
            if arrays is None:
                continue
            sample = chains[: self.CERTIFIED]
            count = len(sample) * len(PAPER_ORDER)
            where = f"certified {resources} SR={sr}"
            try:
                again = self.engine.solve_instances(
                    sample, resources, PAPER_ORDER, jobs=1, certify=True
                )
            except Exception as error:  # CertificationError included
                tally.fail(f"{where}: {type(error).__name__}: {error}", count)
                continue
            tally.check(_same_cells(again, arrays, len(sample)),
                        f"{where}: differs from the campaign", count)


class Solve(Workload):
    """One closed-loop caller solving single instances with no engine.

    Each instance is one 20-task chain at one paper budget; the caller runs
    ``get_strategy(name)(chain, budget)`` for the five paper strategies in
    turn, then moves on.  A block is three chains per SR, one per budget,
    so every block covers the nine Table I scenarios once.  The HeRAD DP,
    the 2CATAC search and the bisection driver show here, one instance at a
    time.
    """

    name = "solve"
    PER_SR = 3
    FIXED_BLOCKS = 10

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs
        self.first_blocks: list = []
        self.funcs: dict = {}

    def _block(self, b: int) -> list:
        seed = _seed(self.seed, b + 1)
        per_sr = [_chains(self.PER_SR, sr, seed) for sr in PAPER_STATELESS_RATIOS]
        budgets = SIMULATION_BUDGETS
        return [
            (per_sr[k][j], budgets[(j + k) % len(budgets)])
            for j in range(self.PER_SR)
            for k in range(len(per_sr))
        ]

    def generate(self) -> None:
        self.first_blocks = [self._block(b) for b in range(self.FIXED_BLOCKS)]

    def build(self) -> None:
        self.funcs = {name: get_strategy(name) for name in PAPER_ORDER}
        warm = _chains(1, 0.5, _seed(self.seed, 0))[0]
        for func in self.funcs.values():
            func(warm, Resources(10, 10))

    def replay_oracle(self, tally: Tally) -> None:
        oracle.replay_scalar(tally)

    def _run_block(self, block, tally, latencies, obs=None) -> list[float]:
        """Solve a block; returns per-instance seconds."""
        per_instance: list[float] = []
        for index, (chain, resources) in enumerate(block):
            outcomes = {}
            spent = 0.0
            for name, func in self.funcs.items():
                start = time.perf_counter()
                try:
                    with _span(obs, "bench.solve", strategy=name):
                        outcomes[name] = func(chain, resources)
                except Exception as error:  # a raise is a counted failure
                    tally.fail(f"solve {chain.name} {resources} {name}: "
                               f"{type(error).__name__}: {error}")
                    continue
                elapsed = time.perf_counter() - start
                spent += elapsed
                latencies.setdefault(name, []).append(elapsed)
            per_instance.append(spent)
            self._check(chain, resources, outcomes, tally, audit=index == 0)
        return per_instance

    def _check(self, chain, resources, outcomes, tally, audit: bool) -> None:
        """HeRAD is optimal on every instance; the first instance of each
        block is re-audited independently for every strategy."""
        if "herad" not in outcomes:
            return
        optimal = outcomes["herad"].period
        for name, outcome in outcomes.items():
            where = f"solve {chain.name} {resources} {name}"
            tally.check(optimal <= outcome.period,
                        f"{where}: period {outcome.period} < herad {optimal}")
            if not audit:
                continue
            usage = outcome.solution.core_usage(resources.ktype)
            report = audit_solution(
                outcome.solution, chain, resources,
                claimed_period=outcome.period,
                claimed_usage=usage.counts,
                optimal=name == "herad",
            )
            tally.check(report.ok, f"{where}: audit {report.violations}")

    def timed(self, seconds: float, tally: Tally) -> "list[Metric]":
        latencies: dict[str, list[float]] = {}
        per_instance: list[float] = []

        def step(b: int) -> tuple[int, float]:
            block = (self.first_blocks[b] if b < len(self.first_blocks)
                     else self._block(b))
            spent = self._run_block(block, tally, latencies)
            per_instance.extend(spent)
            return len(spent), sum(spent)

        blocks, calibrations = _batches(seconds, step, every_core=False)
        raw = _median_rate(blocks, "instances_per_s", "instances/s")
        table = _throughput(raw, calibrations)
        table += latency_metrics("instance", per_instance, "5 strategies")
        for name in PAPER_ORDER:
            table += latency_metrics(name, latencies.get(name, []))
        return table

    def fixed(self, obs, tally: Tally) -> float:
        start = time.perf_counter()
        with _ambient(obs):
            for block in self.first_blocks:
                self._run_block(block, tally, {}, obs)
        return time.perf_counter() - start


class Online(Workload):
    """Online rescheduling of a bursty trace with core failures.

    A ``bursty_trace`` on an (8B,8L) platform, with core failures and
    recoveries added here as ``SimEvent``s (never fewer than ``MIN_UP``
    cores of a type up, recoveries only of failed cores, so no event is
    clamped), run through ``simulate(trace, SimConfig())``.  One event at
    a time it exercises the keep/warm/full/reuse/shed ladder, warm-start
    refits and cold 2CATAC solves on small instances.  No engine.
    """

    name = "online"
    COUNTS = (8, 8)
    EVENTS = 500
    FIXED_TRACES = 4
    FAILURE_GAP = 20.0
    DOWN_MEAN = 30.0
    MIN_UP = 2
    CERTIFIED_PREFIX = 300

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs
        self.first_traces: "list[SimTrace]" = []
        self.first_records: tuple = ()
        self.counters: dict[str, float] = {}

    def _core_events(self, end: float, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        up = list(self.COUNTS)
        pending: list = []
        events: list = []
        now = 0.0
        while True:
            now += float(rng.exponential(self.FAILURE_GAP))
            if now >= end:
                break
            while pending and pending[0][0] <= now:
                events.append(self._recover(pending, up))
            core_type = int(rng.integers(len(up)))
            cores = int(rng.integers(1, 3))
            back = now + float(rng.exponential(self.DOWN_MEAN))
            if up[core_type] - cores < self.MIN_UP:
                continue
            up[core_type] -= cores
            events.append(SimEvent("core_failure", now, core_type=core_type,
                                   cores=cores))
            heapq.heappush(pending, (back, len(events), core_type, cores))
        while pending:
            events.append(self._recover(pending, up))
        return events

    @staticmethod
    def _recover(pending: list, up: list) -> SimEvent:
        back, _, core_type, cores = heapq.heappop(pending)
        up[core_type] += cores
        return SimEvent("core_recovery", back, core_type=core_type, cores=cores)

    def _trace(self, r: int) -> SimTrace:
        seed = _seed(self.seed, r + 1)
        base = bursty_trace(self.EVENTS, self.COUNTS, seed=seed)
        extra = self._core_events(base.events[-1].time, seed)
        events = sorted(base.events + tuple(extra), key=lambda e: e.time)
        return SimTrace(self.COUNTS, tuple(events), name=f"online-{seed}",
                        metadata=base.metadata + (("core_events", len(extra)),))

    def generate(self) -> None:
        self.first_traces = [self._trace(r) for r in range(self.FIXED_TRACES)]

    def build(self) -> None:
        warm = bursty_trace(50, self.COUNTS, seed=_seed(self.seed, 0))
        simulate(warm, SimConfig())

    def replay_oracle(self, tally: Tally) -> None:
        oracle.replay_scalar(tally)

    def _run(self, trace: SimTrace, tally: Tally, obs=None):
        where = f"online {trace.name}"
        try:
            with _span(obs, "bench.simulate"):
                result = simulate(trace, SimConfig())
        except Exception as error:  # a raise is a counted failure
            tally.fail(f"{where}: {type(error).__name__}: {error}", trace.num_events)
            return None
        missing = trace.num_events - result.num_events
        broken = result.scheduleless_intervals + result.overcommit_events
        tally.add(trace.num_events, min(trace.num_events, missing + broken),
                  f"{where}: {missing} events unprocessed, "
                  f"{result.scheduleless_intervals} scheduleless, "
                  f"{result.overcommit_events} overcommit")
        return result

    def timed(self, seconds: float, tally: Tally) -> "list[Metric]":
        latencies: list[float] = []

        def step(r: int) -> tuple[int, float]:
            trace = (self.first_traces[r] if r < len(self.first_traces)
                     else self._trace(r))
            start = time.perf_counter()
            result = self._run(trace, tally)
            elapsed = time.perf_counter() - start
            if result is None:
                return 0, elapsed
            if r == 0:
                self.first_records = result.records
            latencies.extend(result.resched_seconds)
            return result.num_events, elapsed

        traces, calibrations = _batches(seconds, step, every_core=False)
        # Trace rates vary about 0.18 around their mean and at most 2x, so
        # the overall rate is steadier than the median of the traces' rates.
        raw = _overall_rate(traces, "events_per_s", "events/s")
        return _throughput(raw, calibrations) + latency_metrics("resched", latencies)

    def fixed(self, obs, tally: Tally) -> float:
        counters: dict[str, float] = {"sim.resched.cost": 0.0}
        start = time.perf_counter()
        with _ambient(obs):
            for r, trace in enumerate(self.first_traces):
                result = self._run(trace, tally, obs)
                if result is None:
                    continue
                if r == 0:
                    self.first_records = result.records
                for name, value in result.metrics.counters:
                    counters[name] = counters.get(name, 0.0) + value
                counters["sim.resched.cost"] += sum(
                    stats.total for name, stats in result.metrics.histograms
                    if name == "sim.resched.cost")
        elapsed = time.perf_counter() - start
        if obs is not None:
            self.counters = counters
        return elapsed

    def post_checks(self, tally: Tally) -> None:
        """A certified run of the first events must decide identically."""
        prefix = self.CERTIFIED_PREFIX
        first = self.first_traces[0]
        where = f"online certified prefix {first.name}"
        try:
            certified = simulate(first, SimConfig(certify=True), stop_after=prefix)
        except Exception as error:  # CertificationError included
            tally.fail(f"{where}: {type(error).__name__}: {error}", prefix)
            return
        tally.check(certified.records == self.first_records[:prefix],
                    f"{where}: decisions differ", prefix)


class Reproduce(Workload):
    """A ``repro all``-shaped run of drivers on one shared engine.

    table1, fig1, fig2, table2, fig6 and fig5, each followed by its
    ``render``, with the arguments the CLI passes, at ``CHAINS`` chains and
    the CLI's default frame count.  fig1, fig2 and fig6 mostly replay
    table1's cells from the memo; table2 and fig5 are the only users of the
    streampu pipeline simulator.  fig3 and fig4 are left out: their output
    is itself a wall-clock measurement, which nothing can check.  Each
    repetition gets a new engine, so every repetition starts cold.
    """

    name = "reproduce"
    CHAINS = 6
    FRAMES = 2000

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs
        self.engine: "CampaignEngine | None" = None
        self.table3_ok = False

    def generate(self) -> None:
        """The drivers draw their own chains from the seed they are given."""

    def build(self) -> None:
        self.engine = CampaignEngine(jobs=self.jobs)
        self.table3_ok = table3.run().totals_match

    def replay_oracle(self, tally: Tally) -> None:
        oracle.replay_engine(CampaignEngine(jobs=self.jobs), tally)

    def _sequence(self, rep: int, engine, tally: Tally, obs=None) -> float:
        seed = _seed(self.seed, rep + 1)
        chains, jobs = self.CHAINS, self.jobs
        steps = (
            ("table1", lambda: table1.run(num_chains=chains, seed=seed,
                                          jobs=jobs, engine=engine), table1.render),
            ("fig1", lambda: fig1.run(num_chains=chains, seed=seed,
                                      jobs=jobs, engine=engine), fig1.render),
            ("fig2", lambda: fig2.run(num_chains=chains, seed=seed,
                                      jobs=jobs, engine=engine), fig2.render),
            ("table2", lambda: table2.run(num_frames=self.FRAMES), table2.render),
            ("fig6", lambda: fig6.run(num_chains=min(chains, 200), seed=seed,
                                      jobs=jobs, engine=engine), fig6.render),
            ("fig5", lambda: fig5.run(num_frames=self.FRAMES), fig5.render),
        )
        results = {}
        start = time.perf_counter()
        for name, run, render in steps:
            try:
                with _span(obs, "bench.run", driver=name):
                    results[name] = run()
                with _span(obs, "bench.render", driver=name):
                    text = render(results[name])
            except Exception as error:  # a raise is a counted failure
                tally.fail(f"reproduce {name}: {type(error).__name__}: {error}")
                results.pop(name, None)
                continue
            tally.check(isinstance(text, str) and bool(text.strip()),
                        f"reproduce {name}: empty render")
        elapsed = time.perf_counter() - start
        self._check(results, tally)
        return elapsed

    def _check(self, results, tally: Tally) -> None:
        t1 = results.get("table1")
        if t1 is not None:
            for scenario in t1.scenarios:
                check_cells(scenario.campaign.records, scenario.resources, tally,
                            f"table1 {scenario.resources} SR={scenario.stateless_ratio}")
        f1 = results.get("fig1")
        if t1 is not None and f1 is not None:
            for s1, sf in zip(t1.scenarios, f1.scenarios):
                optimal = s1.campaign.optimal_periods
                for name, rec in s1.campaign.records.items():
                    want = slowdown_cdf(slowdown_ratios(rec.periods, optimal))
                    got = sf.cdfs[name]
                    same = (
                        want.values.tobytes() == got.values.tobytes()
                        and want.cumulative.tobytes() == got.cumulative.tobytes()
                    )
                    tally.check(same, f"fig1 {sf.resources} SR="
                                f"{sf.stateless_ratio} {name}: differs from table1")
        for name in ("table2", "fig5"):
            result = results.get(name)
            rows = result.rows if name == "table2" else (
                result.table2.rows if result is not None else ())
            for row in rows:
                tally.check(math.isfinite(row.real_mbps) and row.real_mbps > 0,
                            f"{name} {row.platform} {row.strategy}: "
                            f"throughput {row.real_mbps}")

    def timed(self, seconds: float, tally: Tally) -> "list[Metric]":
        def step(rep: int) -> tuple[int, float]:
            engine = self.engine if rep == 0 else CampaignEngine(jobs=self.jobs)
            return 1, self._sequence(rep, engine, tally)

        sequences, calibrations = _batches(seconds, step, every_core=True)
        walls = [wall for _, wall in sequences]
        raw = _median_rate(sequences, "sequences_per_s", "sequences/s")
        return _throughput(raw, calibrations) + [
            Metric("wall_s", statistics.median(walls), "s", len(walls), "median")]

    def fixed(self, obs, tally: Tally) -> float:
        engine = self.engine if obs is None else CampaignEngine(jobs=self.jobs, obs=obs)
        with _ambient(obs):
            return self._sequence(0, engine, tally, obs)

    def post_checks(self, tally: Tally) -> None:
        tally.check(self.table3_ok, "table3: dataset totals differ from the paper")


WORKLOADS = {cls.name: cls for cls in (Campaign, Solve, Online, Reproduce)}
