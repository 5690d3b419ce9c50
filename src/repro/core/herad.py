"""HeRAD — Heterogeneous Resource Allocation using Dynamic programming.

The paper's optimal strategy (Section V, Algos. 7-11).  It computes, for
every prefix of ``j`` tasks and every core budget ``(b, l)``, the minimum
achievable period ``P*(j, b, l)`` of Eq. (4):

    P*(j, b, l) = min over stage starts i and core counts u of
                  max(P*(i-1, b-u, l), w([tau_i, tau_j], u, B))   (big stage)
                  max(P*(i-1, b, l-u), w([tau_i, tau_j], u, L))   (little stage)

with the secondary objective resolved per cell by the paper's
``CompareCells`` (Algo. 10) rule.

There is one DP: the vectorized kernel
:func:`repro.core.kernels.herad_batch`, which these entry points call with a
one-row batch.  The literal pseudocode transcription lives in
:mod:`repro.core.herad_reference` and stays the differential oracle; both
produce identical periods and core usages (the extracted stage lists may
differ among equivalent ties).

Complexity matches the paper: ``O(n^2 b l (b+l))`` time, ``O(n b l)`` space.
"""

from __future__ import annotations

from .binary_search import ScheduleOutcome
from .chain_stats import ChainProfile, profile_of
from .kernels.herad_batch import herad_batch
from .solution import Solution
from .task import TaskChain
from .types import Resources

__all__ = ["herad", "herad_solution"]


def herad_solution(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    merge: bool = True,
) -> Solution:
    """Compute HeRAD's optimal schedule and return the solution only.

    Args:
        chain: the task chain (or a precomputed profile).
        resources: the platform budget ``R = (b, l)``.
        merge: apply the paper's extra step merging consecutive replicable
            stages mapped to the same core type (period-neutral, shorter
            pipelines).

    Raises:
        InvalidPlatformError: for an empty or non-two-type budget, a chain
            profiled without little-core weights, or an instance too large
            for the kernel's packed DP key.
    """
    return herad(chain, resources, merge=merge).solution


def herad(
    chain: "TaskChain | ChainProfile",
    resources: Resources,
    *,
    merge: bool = True,
) -> ScheduleOutcome:
    """Schedule a chain optimally with HeRAD (Algo. 7).

    Returns a :class:`~repro.core.binary_search.ScheduleOutcome` for
    interface parity with the greedy strategies; HeRAD performs no binary
    search, so ``iterations`` is 0 and ``bounds`` reports the analytic
    period bracket.  Raises as :func:`herad_solution` does.
    """
    return herad_batch([profile_of(chain)], resources, merge=merge)[0]
