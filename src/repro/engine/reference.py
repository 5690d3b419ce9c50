"""The scalar reference map the engine's one solve path must reproduce.

Engine units solve through :func:`repro.core.registry.solve_batch`, whose
contract is bitwise equality with the scalar strategy functions called cell
by cell, ``[info.func(p, r) for p in profiles]``.  This builds that map with
no engine in the loop, shaped like the engine's output, for the parity tests
and ``scripts/bench_trajectory.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.chain_stats import ChainProfile
from ..core.registry import get_info
from ..core.task import TaskChain
from ..core.types import Resources
from ..obs.clock import monotonic
from .batch import _result_of
from .executor import StrategyArrays

__all__ = ["scalar_arrays"]


def scalar_arrays(
    chains: Sequence[TaskChain],
    resources: Resources,
    names: Sequence[str],
    seconds: "list[float] | None" = None,
) -> dict[str, StrategyArrays]:
    """Per-strategy :class:`StrategyArrays` from the scalar functions.

    With ``seconds``, the wall of every scalar solve is appended to it.
    """
    arrays: dict[str, StrategyArrays] = {}
    for name in names:
        info = get_info(name)
        results = []
        for chain in chains:
            profile = ChainProfile(chain)
            start = monotonic()
            outcome = info.func(profile, resources)
            if seconds is not None:
                seconds.append(monotonic() - start)
            results.append(_result_of(outcome, resources))
        arrays[info.name] = StrategyArrays(
            periods=np.array([r.period for r in results], dtype=np.float64),
            big_used=np.array([r.big_used for r in results], dtype=np.int64),
            little_used=np.array([r.little_used for r in results], dtype=np.int64),
        )
    return arrays
