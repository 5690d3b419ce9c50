"""Tests for journaled checkpoints and --resume (repro.engine.checkpoint)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Resources
from repro.engine import (
    CampaignEngine,
    CheckpointJournal,
    InstanceResult,
    MemoCache,
    load_journal,
)
from repro.workloads.synthetic import GeneratorConfig, chain_batch


def _chains(count=6, num_tasks=8, sr=0.5, seed=0):
    config = GeneratorConfig(num_tasks=num_tasks, stateless_ratio=sr)
    return list(chain_batch(count, config, seed=seed))


def _assert_same_arrays(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name].periods, b[name].periods)
        np.testing.assert_array_equal(a[name].big_used, b[name].big_used)
        np.testing.assert_array_equal(a[name].little_used, b[name].little_used)


_KEY = ("fp0", (10, 4), "fertac")
#: An awkward float: shortest-repr JSON must round-trip it bitwise.
_RESULT = InstanceResult(period=0.1 + 0.2, big_used=3, little_used=1)


class TestJournalFile:
    def test_roundtrip_is_bitwise(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
            journal.commit()
        rows = load_journal(path)
        assert rows[_KEY].period == _RESULT.period  # exact, not approx
        assert rows[_KEY] == _RESULT

    def test_missing_file_is_empty(self, tmp_path):
        assert load_journal(tmp_path / "absent.jsonl") == {}

    def test_torn_tail_is_skipped(self, tmp_path):
        """A crash mid-write leaves a truncated final line — never fatal."""
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        full_line = path.read_text()
        path.write_text(full_line + full_line[: len(full_line) // 2])
        rows = load_journal(path)
        assert rows == {_KEY: _RESULT}

    def test_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        with path.open("a") as handle:
            handle.write("not json at all\n")
            handle.write('{"fp": "x"}\n')  # incomplete row
            handle.write('{"fp": 3, "big": "ten"}\n')  # wrong types
            handle.write('[1, 2, 3]\n')  # not an object
            handle.write("\n")
        assert load_journal(path) == {_KEY: _RESULT}

    def test_duplicate_keys_last_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        newer = InstanceResult(period=9.5, big_used=1, little_used=1)
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
            journal.record(_KEY, newer)
        assert load_journal(path) == {_KEY: newer}

    def test_replay_into_warms_memo(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        memo = MemoCache()
        journal = CheckpointJournal(path)
        assert journal.replay_into(memo) == 1
        assert memo.get(_KEY) == _RESULT

    def test_replay_into_once_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
        journal = CheckpointJournal(path)
        memo = MemoCache()
        assert journal.replay_into_once(memo) == 1
        assert journal.replay_into_once(memo) == 0

    def test_close_is_repeatable(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record(_KEY, _RESULT)
        journal.close()
        journal.close()
        assert journal.rows_written == 1


class TestMixedJournal:
    """A single journal holding both two-type and k-type rows (satellite of
    the k-type platform refactor: the key carries the full type signature)."""

    _K3_KEY = ("fp0", (10, 4, 2), "ktype_ref")
    _K3_RESULT = InstanceResult(
        period=7.25, big_used=2, little_used=1, extra_used=(2,)
    )

    def test_mixed_rows_roundtrip(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
            journal.record(self._K3_KEY, self._K3_RESULT)
        rows = load_journal(path)
        assert rows == {_KEY: _RESULT, self._K3_KEY: self._K3_RESULT}

    def test_two_type_rows_keep_legacy_layout(self, tmp_path):
        """k=2 rows must stay readable by (and written like) pre-k-type
        journals: big/little keys, no counts field."""
        import json

        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(_KEY, _RESULT)
            journal.record(self._K3_KEY, self._K3_RESULT)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert lines[0] == {
            "fp": "fp0",
            "big": 10,
            "little": 4,
            "strategy": "fertac",
            "period": _RESULT.period,
            "big_used": 3,
            "little_used": 1,
        }
        assert lines[1] == {
            "fp": "fp0",
            "counts": [10, 4, 2],
            "strategy": "ktype_ref",
            "period": 7.25,
            "used": [2, 1, 2],
        }

    def test_same_prefix_budgets_do_not_collide(self, tmp_path):
        """A (10, 4) and a (10, 4, 2) instance of the same chain/strategy are
        different platforms and must replay to different memo entries."""
        path = tmp_path / "mixed.jsonl"
        two_key = ("fpX", (10, 4), "fertac")
        three_key = ("fpX", (10, 4, 2), "fertac")
        two = InstanceResult(period=3.0, big_used=1, little_used=1)
        three = InstanceResult(
            period=2.0, big_used=1, little_used=1, extra_used=(1,)
        )
        with CheckpointJournal(path) as journal:
            journal.record(two_key, two)
            journal.record(three_key, three)
        memo = MemoCache()
        assert CheckpointJournal(path).replay_into(memo) == 2
        assert memo.get(two_key) == two
        assert memo.get(three_key) == three

    def test_torn_ktype_tail_is_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(self._K3_KEY, self._K3_RESULT)
        full_line = path.read_text()
        path.write_text(full_line + full_line[: len(full_line) // 2])
        assert load_journal(path) == {self._K3_KEY: self._K3_RESULT}


#: One journal row per impossible result the loader must reject, each a
#: single-field mutation of a valid (10, 10) row.
_GOOD_ROW = {
    "fp": "fpV",
    "big": 10,
    "little": 10,
    "strategy": "fertac",
    "period": 4.5,
    "big_used": 3,
    "little_used": 2,
}
_BAD_ROWS = {
    "negative_period": {"period": -5},
    "zero_period": {"period": 0},
    "nan_period": {"period": float("nan")},
    "infeasible_with_usage": {"period": float("inf")},
    "bool_period": {"period": True},
    "big_used_above_count": {"big_used": 99},
    "negative_little_used": {"little_used": -1},
    "bool_little_used": {"little_used": True},
    "bool_count": {"big": True},
    "unregistered_strategy": {"strategy": "nosuch"},
}


def _row_line(**changes):
    import json

    return json.dumps({**_GOOD_ROW, **changes}) + "\n"


class TestRowValidation:
    """Impossible rows never replay (ROADMAP item 4's four examples and the
    rules behind them), and a rejected line is counted, not fatal."""

    def test_good_row_decodes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(_row_line())
        ((key, result),) = load_journal(path).items()
        assert key == ("fpV", (10, 10), "fertac")
        assert result == InstanceResult(period=4.5, big_used=3, little_used=2)

    @pytest.mark.parametrize("name", sorted(_BAD_ROWS))
    def test_impossible_row_is_rejected(self, tmp_path, name):
        path = tmp_path / "run.jsonl"
        path.write_text(_row_line(**_BAD_ROWS[name]))
        assert load_journal(path) == {}

    def test_infeasible_row_with_zero_usage_is_kept(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            _row_line(period=float("inf"), big_used=0, little_used=0)
        )
        ((_, result),) = load_journal(path).items()
        assert result.period == float("inf")

    @pytest.mark.parametrize(
        "counts,used,kept",
        [
            ([10, 4, 2], [2, 1, 2], True),
            ([10, 4, 2], [2, 1], False),  # one usage entry short of k
            ([10, 4, 2], [2, 1, 2, 0], False),  # one usage entry too many
            ([10, 4, 2], [2, 1, 3], False),  # above the third type's count
            ([10, 4, 2], [2, 1, True], False),
            ([4], [1, 0], True),  # one type: little_used is recorded as 0
            ([4], [1, 1], False),
            ([], [], False),
        ],
    )
    def test_ktype_usage_must_match_the_key(self, tmp_path, counts, used, kept):
        import json

        row = {
            "fp": "fpK",
            "counts": counts,
            "strategy": "ktype_ref",
            "period": 2.5,
            "used": used,
        }
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(row) + "\n")
        assert bool(load_journal(path)) is kept

    def test_bad_row_after_good_row_does_not_override(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            _row_line()
            + "".join(_row_line(**changes) for changes in _BAD_ROWS.values())
        )
        ((_, result),) = load_journal(path).items()
        assert result == InstanceResult(period=4.5, big_used=3, little_used=2)

    def test_rejected_rows_are_counted_on_replay(self, tmp_path):
        from repro.obs import Observability, ObsConfig
        from repro.obs.context import activate

        path = tmp_path / "run.jsonl"
        path.write_text(
            _row_line()
            + _row_line(period=-5)
            + _row_line(strategy="nosuch")
            + "torn{\n"
        )
        obs = Observability(ObsConfig(metrics=True))
        with activate(obs.context()):
            assert CheckpointJournal(path).replay_into(MemoCache()) == 1
        assert obs.metrics.counter("journal.rejected") == 3


class TestEngineJournaling:
    def test_campaign_is_journaled_per_instance(self, tmp_path):
        chains = _chains(5)
        resources = Resources(2, 2)
        path = tmp_path / "run.jsonl"
        engine = CampaignEngine(jobs=1, journal=path)
        engine.solve_instances(chains, resources, ("fertac", "herad"))
        engine.journal.close()
        assert len(load_journal(path)) == 10  # 5 chains x 2 strategies

    def test_resume_replays_bitwise(self, tmp_path):
        chains = _chains(6)
        resources = Resources(2, 2)
        reference = CampaignEngine(
            jobs=1, memo=False
        ).solve_instances(chains, resources, ("fertac",))

        path = tmp_path / "run.jsonl"
        first = CampaignEngine(jobs=1, journal=path)
        _assert_same_arrays(
            first.solve_instances(chains, resources, ("fertac",)), reference
        )
        first.journal.close()

        # A fresh engine (fresh memo) resumes purely from the journal.
        second = CampaignEngine(jobs=1, journal=path)
        _assert_same_arrays(
            second.solve_instances(chains, resources, ("fertac",)), reference
        )
        assert second.memo is not None
        assert second.memo.stats.hits >= len(chains)
        second.journal.close()

    def test_journal_implies_memo(self, tmp_path):
        engine = CampaignEngine(
            jobs=1, memo=False, journal=tmp_path / "run.jsonl"
        )
        assert engine.memo is not None

    def test_certify_bypasses_journal_replay(self, tmp_path):
        """Cached scalars cannot be audited: --certify re-solves everything.

        A journal poisoned with a corrupt row must not leak into a certified
        run's arrays.
        """
        chains = _chains(3)
        resources = Resources(2, 2)
        reference = CampaignEngine(
            jobs=1, memo=False
        ).solve_instances(chains, resources, ("fertac",))

        path = tmp_path / "run.jsonl"
        first = CampaignEngine(jobs=1, journal=path)
        first.solve_instances(chains, resources, ("fertac",))
        first.journal.close()

        # Poison every journaled period.
        poisoned = load_journal(path)
        with CheckpointJournal(path) as journal:
            for key, result in poisoned.items():
                journal.record(
                    key,
                    InstanceResult(
                        period=result.period * 0.5,
                        big_used=result.big_used,
                        little_used=result.little_used,
                    ),
                )

        # Control: without certify the poisoned rows do replay.
        replayed = CampaignEngine(jobs=1, journal=path)
        tampered = replayed.solve_instances(chains, resources, ("fertac",))
        replayed.journal.close()
        assert tampered["fertac"].periods[0] == pytest.approx(
            reference["fertac"].periods[0] * 0.5
        )

        certified = CampaignEngine(jobs=1, journal=path)
        arrays = certified.solve_instances(
            chains, resources, ("fertac",), certify=True
        )
        certified.journal.close()
        _assert_same_arrays(arrays, reference)  # fresh solves, not the poison

    def test_resume_ignores_impossible_rows(self, tmp_path):
        """A bad row written after a good one for the same key cannot
        override it on --resume; the engine counts what it skipped."""
        from repro.core.chain_stats import ChainProfile
        from repro.obs import ObsConfig

        chains = _chains(3)
        resources = Resources(10, 10)
        reference = CampaignEngine(jobs=1, memo=False).solve_instances(
            chains, resources, ("fertac",)
        )
        path = tmp_path / "run.jsonl"
        first = CampaignEngine(jobs=1, journal=path)
        first.solve_instances(chains, resources, ("fertac",))
        first.journal.close()

        fingerprint = ChainProfile(chains[0]).fingerprint
        with path.open("a") as handle:
            for changes in (
                {"period": -5},
                {"big_used": 99},
                {"little_used": True},
                {"strategy": "nosuch"},
            ):
                handle.write(_row_line(fp=fingerprint, **changes))

        resumed = CampaignEngine(
            jobs=1, journal=path, obs=ObsConfig(metrics=True)
        )
        arrays = resumed.solve_instances(chains, resources, ("fertac",))
        resumed.journal.close()
        _assert_same_arrays(arrays, reference)
        assert resumed.memo is not None
        assert resumed.memo.stats.hits == len(chains)  # all replayed
        assert resumed.obs.metrics.counter("journal.rejected") == 4
        assert resumed.obs.metrics.counter("journal.replayed") == len(chains)
