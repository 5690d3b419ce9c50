"""Batch-vectorized solver kernels (behind ``registry.solve_batch``).

One kernel call solves *many* chains: profiles are packed into padded
ndarray planes (:mod:`.pack`), HeRAD's DP sweeps the whole batch per plane
(:mod:`.herad_batch`), and 2CATAC runs a lockstep batched bisection over a
vectorized state DP (:mod:`.search`, :mod:`.twocatac_batch`).

The kernels are specialized to the paper's two-type platform.  The HeRAD
kernel is the package's only HeRAD DP (:func:`repro.core.herad.herad` is a
one-row call; :mod:`repro.core.herad_reference` is its oracle); the 2CATAC
kernels promise **bitwise-identical** outcomes to the pure-python solver,
which remains their differential oracle.  Both are replayed over the full
``tests/data/k2_oracle.json`` fixture.  Entry is through
:func:`repro.core.registry.solve_batch`, which re-solves per instance with
the strategy's scalar function on any
:class:`~repro.core.errors.InvalidPlatformError` a kernel raises (k != 2
budgets, single-type chain profiles, instances outside the packed-key
lanes).  See DESIGN.md §12 for the packing layout and fallback rules.
"""

from __future__ import annotations

from .herad_batch import herad_batch
from .pack import ChainPack, pack_profiles
from .search import batched_binary_search
from .twocatac_batch import twocatac_batch, twocatac_memo_batch

__all__ = [
    "ChainPack",
    "pack_profiles",
    "batched_binary_search",
    "herad_batch",
    "twocatac_batch",
    "twocatac_memo_batch",
]
