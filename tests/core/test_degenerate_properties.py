"""Property suite over degenerate instances (hypothesis).

Tiny chains (n <= 6), budgets with a zero-core type and weights scaled from
1e-6 to 1e6 are where padding, masking and rounding corner cases live.
Every instance here must satisfy:

1. :func:`repro.core.registry.solve_batch` equals the scalar map
   ``[func(p, r) for p in profiles]`` bitwise for the five paper strategies
   (period bits, schedule, probe log, iteration count, bounds), and raises
   the same error type when the scalar map does;
2. HeRAD's period equals the exhaustive optimum of :mod:`repro.core.bruteforce`;
3. ``MaxPacking`` equals its linear-scan definition, also when the period
   puts the packing limit exactly on a prefix-sum value.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_period
from repro.core.chain_stats import ChainProfile
from repro.core.errors import SchedulingError
from repro.core.herad import herad
from repro.core.registry import PAPER_ORDER, get_info, solve_batch
from repro.core.task import TaskChain
from repro.core.types import CoreType, Resources

_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


@st.composite
def degenerate_chains(draw, max_tasks: int = 6):
    """A chain of at most ``max_tasks`` tasks at one weight scale."""
    n = draw(st.integers(1, max_tasks))
    scale = draw(st.sampled_from(_SCALES))
    big = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    slow = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    rep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return TaskChain.from_weights(
        [w * scale for w in big],
        [w * s * scale for w, s in zip(big, slow)],
        rep,
    )


@st.composite
def degenerate_budgets(draw, max_cores: int = 4):
    """A non-empty two-type budget, usually with one type at zero cores."""
    zero = draw(st.sampled_from(("big", "little", None)))
    big = 0 if zero == "big" else draw(st.integers(1, max_cores))
    little = 0 if zero == "little" else draw(st.integers(1, max_cores))
    return Resources(big, little)


def _signature(outcome):
    """Every observable facet of an outcome, with periods as exact bits."""
    return (
        outcome.period.hex(),
        outcome.solution.render(),
        outcome.iterations,
        tuple((target.hex(), feasible) for target, feasible in outcome.probes),
        (outcome.bounds.lower.hex(), outcome.bounds.upper.hex()),
    )


@pytest.mark.parametrize("name", PAPER_ORDER)
@given(
    chains=st.lists(degenerate_chains(), min_size=1, max_size=4),
    resources=degenerate_budgets(),
)
@settings(max_examples=60, deadline=None)
def test_solve_batch_equals_scalar_map(name, chains, resources):
    profiles = [ChainProfile(chain) for chain in chains]
    func = get_info(name).func
    expected = []
    for profile in profiles:
        try:
            expected.append(_signature(func(profile, resources)))
        except SchedulingError as exc:
            # The batch fails as a whole with the first instance's error.
            with pytest.raises(type(exc)):
                solve_batch(profiles, resources, name)
            return
    got = [_signature(o) for o in solve_batch(profiles, resources, name)]
    assert got == expected


@given(chain=degenerate_chains(), resources=degenerate_budgets())
@settings(max_examples=150, deadline=None)
def test_herad_period_equals_bruteforce(chain, resources):
    profile = ChainProfile(chain)
    assert herad(profile, resources).period == brute_force_period(
        profile, resources
    )


def _linear_max_packing(profile, start, cores, core_type, period):
    """``MaxPacking`` by its definition: the largest ``e >= start`` with
    ``w([tau_start, tau_e], cores, v) <= period``, else ``start``."""
    best = start
    for end in range(start, profile.n):
        if profile.stage_weight(start, end, cores, core_type) <= period:
            best = end
    return best


@st.composite
def packing_queries(draw):
    """An integer-weight profile plus a ``MaxPacking`` query on it.

    Integer weights keep every prefix sum exact, and the ``exact`` queries
    take the period from a stage weight with a power-of-two core count, so
    ``prefix[start] + period * cores`` lands exactly on a prefix value.
    """
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    rep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    profile = ChainProfile(
        TaskChain.from_weights(weights, [w * 3 for w in weights], rep)
    )
    start = draw(st.integers(0, n - 1))
    core_type = draw(st.sampled_from((CoreType.BIG, CoreType.LITTLE)))
    if draw(st.booleans()):
        cores = draw(st.sampled_from((1, 2, 4)))
        end = draw(st.integers(start, n - 1))
        period = profile.stage_weight(start, end, cores, core_type)
    else:
        cores = draw(st.integers(0, 5))
        period = draw(st.floats(0.5, 2000.0))
    return profile, start, cores, core_type, period


@given(query=packing_queries())
@settings(max_examples=300, deadline=None)
def test_max_packing_equals_linear_scan(query):
    profile, start, cores, core_type, period = query
    assert profile.max_packing(
        start, cores, core_type, period
    ) == _linear_max_packing(profile, start, cores, core_type, period)
