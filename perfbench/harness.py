"""Shared machinery of the benchmark: statistics, set-up timing, provenance,
the failure tally and the printed result.

Nothing in this module touches the scheduling library until
:func:`import_repro` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles a tail may be reported at, highest first.  The tail of a
#: sample is the highest of these that leaves at least ten samples beyond it
#: (p90 for 100-999 samples, p99 for 1,000-9,999, ...).
TAIL_LADDER: tuple[float, ...] = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10

#: Seconds one calibration pass (:func:`calibrate`) takes on the reference
#: machine (2 vCPUs) in its fast phase.  Timed metrics are reported at that
#: speed: a wall time is divided, and a rate multiplied, by the slowdown
#: ``calibration / REFERENCE_CALIBRATION_S`` measured in the same run.
REFERENCE_CALIBRATION_S = 0.012
_CALIBRATION_LOOP = 100_000

#: Child-process set-up: one cold start of a workload in a fresh interpreter,
#: run as ``python -c _SETUP_PROBE <perfbench dir> <workload> <seed> <jobs>``.
#: It prints the ``time.monotonic()`` at which the workload was ready;
#: CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
#: reading taken just before it started the child.
_SETUP_PROBE = (
    "import json, sys, time\n"
    "here, name, seed, jobs = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])\n"
    "sys.path.insert(0, here)\n"
    "import harness\n"
    "t = time.perf_counter()\n"
    "harness.import_repro()\n"
    "import_s = time.perf_counter() - t\n"
    "mods = sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.'))\n"
    "import scenarios\n"
    "workload = scenarios.WORKLOADS[name](seed, jobs)\n"
    "t = time.perf_counter()\n"
    "workload.generate()\n"
    "generate_s = time.perf_counter() - t\n"
    "workload.build()\n"
    "ready = time.monotonic()\n"
    "print(json.dumps({'ready': ready, 'import_s': import_s, 'modules': mods,\n"
    "                  'generate_s': generate_s}))\n"
    "harness.stop_processes()\n"
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def usable_cores() -> int:
    """Cores this process may run on (the affinity mask, not the machine)."""
    return len(os.sched_getaffinity(0))


def import_repro() -> None:
    """Import ``repro.cli`` from this checkout and nowhere else."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401

    origin = Path(sys.modules["repro"].__file__).resolve()
    if SRC not in origin.parents:
        raise BenchmarkError(f"repro imported from {origin}, not from {SRC}")


#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36
#: Seconds :func:`stop_processes` waits for descendants to end.
_STOP_WAIT_S = 30.0


def adopt_orphans() -> None:
    """Become the Linux child subreaper of every process started from here.

    A descendant whose parent ends first (the resource tracker of a set-up
    child, a pool worker of a crashed pool) is then re-parented to this
    process instead of to init, so :func:`stop_processes` can stop it and
    wait for it.  Does nothing where ``prctl`` is unavailable.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> "list[int]":
    """Pids of this process's live or unreaped children, from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, then the parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The multiprocessing resource tracker (started by the engine's shared
    memory) ignores SIGTERM and only ends when its pipe closes, so it is
    stopped through that pipe first, which also lets it unlink any segment
    left behind.  Any other child still there is killed and reaped, and so
    is any orphan re-parented here by :func:`adopt_orphans`, until none is
    left.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except (OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + _STOP_WAIT_S
    while True:
        children = _children()
        if not children:
            return
        for pid in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.waitpid(pid, 0)
        if time.monotonic() > deadline:
            raise BenchmarkError(f"processes {children} would not end")


def cold_setup(workload: str, seed: int, jobs: int) -> dict:
    """Set a workload up once in a fresh interpreter, as a user would.

    Returns the child's report plus ``setup_s``: seconds from just before
    the interpreter was started to the moment the workload was ready for
    its first timed call (``import repro.cli``, the workload's imports,
    input generation, engine construction and warm-up).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", _SETUP_PROBE, str(Path(__file__).parent),
            workload, str(seed), str(jobs)]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up child failed: {done.stderr[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def _calibration_pass() -> float:
    start = time.perf_counter()
    total, seen = 0, {}
    for i in range(_CALIBRATION_LOOP):
        total += i * i
        seen[i & 255] = total
    return time.perf_counter() - start


def calibrate(every_core: bool) -> float:
    """Seconds a fixed pure-Python loop takes now: on the core this process
    is on, or averaged over every core it may use (pinned to each in turn).

    On a shared machine the speed of a core drifts by half or more over
    minutes, in CPU time as much as in wall time.  The loop touches nothing
    of the program, so dividing a time by what the loop took in the same
    run removes that drift and leaves what the program itself changed.
    Calibrate the cores the timed work runs on: every core for the engine's
    worker pool, the current one for a single caller.
    """
    if not every_core:
        return _calibration_pass()
    cpus = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            total += _calibration_pass()
    finally:
        os.sched_setaffinity(0, cpus)
    return total / len(cpus)


def slowdown(calibrations: "list[float]") -> float:
    """How much slower than the reference machine this run ran."""
    return statistics.median(calibrations) / REFERENCE_CALIBRATION_S


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p`` (exact decimal arithmetic,
    so that p99.9 of 10,000 samples is rank 9,990, not 9,991)."""
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def percentile(values: "list[float]", p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(count: int) -> "float | None":
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if count - _rank(p, count) >= TAIL_MIN_BEYOND:
            return p
    return None


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set size in MiB (``ru_maxrss`` is KiB on Linux):
    of this process, or of the largest child it has waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Metric:
    """One printed number: value, unit, how many samples it summarizes."""

    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


def latency_metrics(
    prefix: str, seconds: "list[float]", note: str = ""
) -> list[Metric]:
    """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` of a latency sample."""
    if not seconds:
        return []
    out = [
        Metric(f"{prefix}_p50_ms", percentile(seconds, 50) * 1e3, "ms",
               len(seconds), note)
    ]
    p = tail_percentile(len(seconds))
    if p is not None:
        out.append(
            Metric(f"{prefix}_tail_ms", percentile(seconds, p) * 1e3, "ms",
                   len(seconds), f"p{p:g}")
        )
    return out


def _git_sha() -> "str | None":
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies a non-git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, jobs: int) -> dict:
    """What produced a result: code, command, input seed and machine."""
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "argv": sys.argv,
        "seed": seed,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "jobs": jobs,
    }


class SetupTimer:
    """Median-of-repetitions cold set-up time.

    Every repetition is a cold start in its own fresh interpreter
    (:func:`cold_setup`), so no repetition profits from imports, caches or
    first-call initialisation done by an earlier one.  ``setup_wall_s`` is
    the median, so a single slow repetition (a page-cache miss, a
    neighbour's burst) does not move it; ``setup_s`` is that median at
    reference speed, scaled by the median of calibrations made just before
    each repetition.
    """

    REPEATS = 7

    def __init__(self) -> None:
        self.reports: list[dict] = []
        self.calibrations: list[float] = []

    def measure(self, workload: str, seed: int, jobs: int) -> None:
        for _ in range(self.REPEATS):
            # The child may run on any core, so calibrate them all.
            self.calibrations.append(calibrate(every_core=True))
            self.reports.append(cold_setup(workload, seed, jobs))

    def _median(self, key: str) -> float:
        return statistics.median(r[key] for r in self.reports)

    def metrics(self) -> list[Metric]:
        count = len(self.reports)
        wall = self._median("setup_s")
        return [
            Metric("setup_s", wall / slowdown(self.calibrations), "s", count,
                   "median of cold starts, at reference speed"),
            Metric("setup_wall_s", wall, "s", count,
                   "median of cold starts, as measured"),
        ]

    def layer_values(self) -> dict[str, float]:
        return {
            "cli.import_s": self._median("import_s"),
            "cli.repro_modules": float(self.reports[-1]["modules"]),
            "workloads.generate_s": self._median("generate_s"),
        }


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int, reason: str) -> None:
        """Count operations; ``reason`` is kept when some of them failed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < self.KEEP:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str, weight: int = 1) -> None:
        """Count ``weight`` operations, all failed unless ``ok``."""
        self.add(weight, 0 if ok else weight, reason)

    def fail(self, reason: str, weight: int = 1) -> None:
        """Count ``weight`` operations that failed (e.g. raised)."""
        self.add(weight, weight, reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def print_table(title: str, metrics: "list[Metric]") -> None:
    print(title)
    print(f"  {'metric':<36} {'value':>14} {'unit':<6} {'samples':>8}  note")
    for m in metrics:
        print(
            f"  {m.name:<36} {_format(m.value):>14} {m.unit:<6} "
            f"{m.samples:>8}  {m.note}"
        )


def emit(
    values: "dict[str, float]",
    units: "dict[str, str]",
    tally: Tally,
) -> None:
    """Print the result line: the last line of standard output."""
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
