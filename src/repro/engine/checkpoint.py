"""Journaled checkpoints: crash-safe persistence of campaign results.

A campaign is a pure map from ``(chain fingerprint, budget, strategy)`` keys
to :class:`~repro.engine.memo.InstanceResult` triples, so checkpointing needs
no coordination: an append-only JSONL journal of solved rows is enough to
resume a killed run.  The engine appends one line per solved instance and
fsyncs once per completed work unit; on resume the journal is replayed into
the memo cache, the already-solved instances short-circuit through the
ordinary memo path, and only the remainder is solved — producing arrays
bitwise identical to an uninterrupted run (floats round-trip exactly through
``json``'s shortest-repr encoding).

Crash safety: a process killed mid-write leaves at most one torn final line.
:func:`load_journal` is tolerant — any line that does not parse back into a
complete, *possible* row is skipped and counted, never fatal — and
duplicate keys are fine (last valid row wins; a resumed run may
legitimately re-append rows the first run already journaled).  A row is
possible when it matches its key: one usage entry per core type (at least
two: a one-type budget still records ``little_used = 0``), each within
``[0, count]``, no booleans posing as integers, a finite positive period
(or ``inf`` with nothing used), and a registered strategy.  An impossible
row therefore never replays as a result, nor overrides a good one.

Format: one JSON object per line.  The row schema is a property of the
*result*, not of the tier that solved it, so journals replay across tiers
and engine versions.  Two-type rows keep the original layout (journals
written before the k-type platform layer replay unchanged)::

    {"fp": "3f9a...", "big": 10, "little": 10, "strategy": "fertac",
     "period": 12.375, "big_used": 3, "little_used": 2}

Rows solved on a ``k > 2``-type budget carry the full type signature
instead, so they can never collide with a two-type instance::

    {"fp": "3f9a...", "counts": [10, 10, 4], "strategy": "ktype_ref",
     "period": 12.375, "used": [3, 2, 1]}

:func:`load_journal` accepts both layouts in the same file (a "mixed"
journal, e.g. after a campaign grew a third core type mid-way).
"""

from __future__ import annotations

import json
import logging
import math
import os
from pathlib import Path
from typing import IO

from ..core.registry import STRATEGIES
from ..obs.context import current
from .memo import InstanceResult, MemoCache, MemoKey

__all__ = ["CheckpointJournal", "load_journal"]

_log = logging.getLogger(__name__)


def _encode(key: MemoKey, result: InstanceResult) -> str:
    fingerprint, counts, strategy = key
    row: dict[str, object]
    if len(counts) == 2 and not result.extra_used:
        # Paper-exact two-type rows keep the original journal layout, so
        # pre-k-type journals and freshly written ones stay interchangeable.
        row = {
            "fp": fingerprint,
            "big": counts[0],
            "little": counts[1],
            "strategy": strategy,
            "period": result.period,
            "big_used": result.big_used,
            "little_used": result.little_used,
        }
    else:
        row = {
            "fp": fingerprint,
            "counts": list(counts),
            "strategy": strategy,
            "period": result.period,
            "used": list(result.usage),
        }
    return json.dumps(row, separators=(",", ":"))


def _int_list(value: object) -> "list[int] | None":
    """``value`` as a list of JSON integers, or ``None`` (bools excluded)."""
    if not isinstance(value, list) or not all(
        isinstance(item, int) and not isinstance(item, bool) for item in value
    ):
        return None
    return value


def _possible(counts: "list[int]", used: "list[int]", period: float) -> bool:
    """Whether a usage vector and period can be a result on ``counts``."""
    if not counts:
        return False
    budget = counts + [0] * (2 - len(counts))  # absent types have 0 cores
    if len(used) != len(budget):
        return False
    if not all(0 <= u <= c for u, c in zip(used, budget)):
        return False
    if period == math.inf:
        return not any(used)  # infeasible: nothing scheduled
    return math.isfinite(period) and period > 0


def _decode(line: str) -> "tuple[MemoKey, InstanceResult] | None":
    """Parse one journal line; ``None`` for torn, foreign or impossible rows."""
    try:
        row = json.loads(line)
    except ValueError:
        return None
    if not isinstance(row, dict):
        return None
    fingerprint = row.get("fp")
    strategy = row.get("strategy")
    period = row.get("period")
    if not (
        isinstance(fingerprint, str)
        and isinstance(strategy, str)
        and strategy in STRATEGIES
        and isinstance(period, (int, float))
        and not isinstance(period, bool)
    ):
        return None
    if "counts" in row:  # k-type layout
        counts = _int_list(row.get("counts"))
        used = _int_list(row.get("used"))
    else:
        counts = _int_list([row.get("big"), row.get("little")])
        used = _int_list([row.get("big_used"), row.get("little_used")])
    if counts is None or used is None or not _possible(counts, used, period):
        return None
    key: MemoKey = (fingerprint, tuple(counts), strategy)
    return key, InstanceResult(
        period=float(period),
        big_used=used[0],
        little_used=used[1],
        extra_used=tuple(used[2:]),
    )


def _read(path: "str | Path") -> "tuple[dict[MemoKey, InstanceResult], int]":
    """Decode a journal file: ``(rows, rejected non-blank lines)``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return {}, 0
    rows: dict[MemoKey, InstanceResult] = {}
    rejected = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        decoded = _decode(line)
        if decoded is None:
            rejected += 1
        else:
            rows[decoded[0]] = decoded[1]
    return rows, rejected


def load_journal(path: "str | Path") -> "dict[MemoKey, InstanceResult]":
    """Replay a journal file into a key → result mapping.

    Missing files yield an empty mapping (a fresh ``--resume`` target);
    lines that do not decode into a possible row (a torn tail after a
    crash, stray garbage, an impossible result) are skipped.
    """
    return _read(path)[0]


class CheckpointJournal:
    """Append-only JSONL journal of solved campaign instances.

    The engine calls :meth:`record` per solved instance and :meth:`commit`
    (flush + fsync) per completed work unit, so a hard kill loses at most the
    in-flight unit.  One journal object may serve many campaigns in sequence
    (the CLI reuses one across every scenario of a sweep).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._file: "IO[str] | None" = None
        self._replayed = False
        self.rows_written = 0

    def load(self) -> "dict[MemoKey, InstanceResult]":
        """Parse the journal from disk (tolerant; see :func:`load_journal`)."""
        return load_journal(self.path)

    def replay_into(self, memo: MemoCache) -> int:
        """Load the journal into a memo cache; returns rows replayed.

        Skipped lines are counted under the ambient ``journal.rejected``
        metric (the engine's, during a campaign) and logged.
        """
        rows, rejected = _read(self.path)
        replayed = memo.warm(rows)
        if replayed:
            _log.debug("replayed %d journaled row(s) from %s", replayed, self.path)
        if rejected:
            current().metrics.add("journal.rejected", rejected)
            _log.warning(
                "skipped %d torn, foreign or impossible journal line(s) in %s",
                rejected,
                self.path,
            )
        return replayed

    def replay_into_once(self, memo: MemoCache) -> int:
        """Like :meth:`replay_into`, but at most once per journal object.

        The engine calls this at the top of every campaign; after the first
        replay the journal's new rows are already in the cache, so re-reading
        the file would be wasted work.
        """
        if self._replayed:
            return 0
        self._replayed = True
        return self.replay_into(memo)

    def record(self, key: MemoKey, result: InstanceResult) -> None:
        """Append one solved row (buffered until :meth:`commit`)."""
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(_encode(key, result) + "\n")
        self.rows_written += 1

    def commit(self) -> None:
        """Flush buffered rows and fsync them to disk (crash barrier)."""
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Commit and release the file handle (safe to call repeatedly)."""
        if self._file is None:
            return
        self.commit()
        self._file.close()
        self._file = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
