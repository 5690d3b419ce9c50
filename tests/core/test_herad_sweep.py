"""HeRAD's neighbor sweep against a naive lower-left-quadrant minimum.

The neighbor sweep (Algo. 9, lines 2-3) must leave every cell ``(b, l)``
holding the lexicographic ``(period, acc_b, acc_l)`` key minimum over all
budgets ``(b', l') <= (b, l)``, with the winning cell's companion fields.
:mod:`repro.core.kernels.herad_batch` computes it with two doubling scans
over a whole batch; these tests compare that against the definition written
out below, on the degenerate budgets (``big=0``, ``little=0``, one core
total) as well as paper-sized planes, and require bitwise-equal results.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.types import CoreType

# ``repro.core.kernels`` re-exports the ``herad_batch`` *function* under the
# submodule's name, so attribute-style module access would resolve to it.
herad_batch_mod = importlib.import_module("repro.core.kernels.herad_batch")

#: Degenerate budgets first, then small and paper-sized planes.
_BUDGETS = (
    (0, 5),
    (5, 0),
    (0, 0),
    (1, 0),
    (0, 1),
    (1, 1),
    (2, 2),
    (4, 6),
    (10, 10),
)

_PAYLOAD = ("prev_b", "prev_l", "vtype", "start")


def _random_plane(rng, big: int, little: int) -> dict[str, np.ndarray]:
    """A working plane with deliberate period ties and infeasible cells.

    Companion fields (``prev_*`` / ``vtype`` / ``start``) are *derived* from
    the ``(period, acc_b, acc_l)`` key rather than drawn independently: when
    two cells carry bitwise-equal keys, either may win a tie, and the sweep
    only promises a unique result when equal keys imply equal payloads —
    which is exactly what real DP planes guarantee (a key determines the
    winning candidate).
    """
    shape = (big + 1, little + 1)
    # Few distinct period values -> plenty of ties for the key comparison;
    # some cells infeasible (inf) like real early-prefix planes.
    period = rng.choice([1.0, 2.0, 4.0, np.inf], size=shape)
    acc_b = rng.integers(0, big + 1, size=shape).astype(np.int32)
    acc_l = rng.integers(0, little + 1, size=shape).astype(np.int32)
    mix = (
        acc_b.astype(np.int64) * 7
        + acc_l.astype(np.int64) * 13
        + np.where(np.isinf(period), 99.0, period).astype(np.int64) * 31
    )
    return {
        "period": period,
        "acc_b": acc_b,
        "acc_l": acc_l,
        "prev_b": (mix % (big + 2)).astype(np.int32),
        "prev_l": (mix % (little + 2)).astype(np.int32),
        "vtype": np.where(
            mix % 2 == 0, int(CoreType.BIG), int(CoreType.LITTLE)
        ).astype(np.int8),
        "start": (mix % 8).astype(np.int32),
    }


def _naive_sweep(
    plane: dict[str, np.ndarray], big: int, little: int
) -> dict[str, np.ndarray]:
    """The definition: each cell takes its lower-left quadrant's key minimum."""
    out = {name: field.copy() for name, field in plane.items()}
    for b in range(big + 1):
        for l in range(little + 1):
            _, wb, wl = min(
                (
                    (
                        float(plane["period"][bb, ll]),
                        int(plane["acc_b"][bb, ll]),
                        int(plane["acc_l"][bb, ll]),
                    ),
                    bb,
                    ll,
                )
                for bb in range(b + 1)
                for ll in range(l + 1)
            )
            for name, field in plane.items():
                out[name][b, l] = field[wb, wl]
    return out


def _batch_sweep(
    planes: list[dict[str, np.ndarray]], big: int, little: int
) -> list[dict[str, np.ndarray]]:
    """Run the kernel's sweep on ``planes`` stacked into one batch.

    The batch layout packs both accumulators into one ``combo`` key; the
    result is unpacked back into the plain per-row field layout.
    """
    shift_b = herad_batch_mod._ACC_B_SHIFT
    shift_l = herad_batch_mod._ACC_L_SHIFT
    batched = {
        "period": np.stack([p["period"] for p in planes]),
        "combo": np.stack(
            [
                (p["acc_b"].astype(np.int64) << shift_b)
                | (p["acc_l"].astype(np.int64) << shift_l)
                for p in planes
            ]
        ),
        **{name: np.stack([p[name] for p in planes]) for name in _PAYLOAD},
    }
    herad_batch_mod._neighbor_sweep(batched, big, little)

    lane_l = int(herad_batch_mod._ACC_L_MASK)
    rows = []
    for row in range(len(planes)):
        combo = batched["combo"][row]
        rows.append(
            {
                "period": batched["period"][row],
                "acc_b": (combo >> shift_b).astype(np.int32),
                "acc_l": ((combo >> shift_l) & lane_l).astype(np.int32),
                **{name: batched[name][row] for name in _PAYLOAD},
            }
        )
    return rows


def _assert_planes_equal(got, want, context: str) -> None:
    for name, field in want.items():
        assert np.array_equal(got[name], field), f"{context}: {name} diverged"


@pytest.mark.parametrize("budget", _BUDGETS, ids=str)
def test_scalar_and_vectorized_sweeps_identical(budget):
    """A one-row batch sweep equals the naive quadrant minimum."""
    big, little = budget
    rng = np.random.default_rng(big * 100 + little)
    for trial in range(20):
        plane = _random_plane(rng, big, little)
        (got,) = _batch_sweep([plane], big, little)
        _assert_planes_equal(
            got, _naive_sweep(plane, big, little), f"budget {budget}, trial {trial}"
        )


@pytest.mark.parametrize("budget", _BUDGETS, ids=str)
def test_batch_sweep_matches_scalar_sweep(budget):
    """Rows of a multi-row batch are swept independently of each other."""
    big, little = budget
    rng = np.random.default_rng(1000 + big * 100 + little)
    for trial in range(5):
        planes = [_random_plane(rng, big, little) for _ in range(4)]
        for row, got in enumerate(_batch_sweep(planes, big, little)):
            _assert_planes_equal(
                got,
                _naive_sweep(planes[row], big, little),
                f"budget {budget}, trial {trial}, row {row}",
            )
