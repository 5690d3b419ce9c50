"""Regression tests: fault injection must fire on the batched solve path.

The batched path used to route a unit to the vectorized kernels whenever
*any* batching was possible, silently bypassing an armed fault plan for the
whole unit.  ``solve_unit`` now splits a faulted unit per instance: every
instance the plan could target goes through the per-cell path (the only
place ``FaultPlan.fire`` is consulted), the rest keep ``solve_batch``, and
the merged rows stay bitwise identical to the scalar strategy functions.
"""

from __future__ import annotations

import pytest

from repro.core.chain_stats import ChainProfile
from repro.core.errors import CertificationError
from repro.core.registry import get_info
from repro.core.types import Resources
from repro.engine import FaultPlan, FaultSpec, InjectedFault, solve_unit
from repro.engine.batch import PendingInstance, WorkUnit, _result_of
from repro.obs.context import ObsConfig
from repro.workloads.synthetic import GeneratorConfig, chain_batch


def _chains(count=4, seed=0):
    config = GeneratorConfig(num_tasks=8, stateless_ratio=0.5)
    return list(chain_batch(count, config, seed=seed))


def _unit(chains, strategies=("fertac",), **kwargs):
    return WorkUnit(
        pending=tuple(
            PendingInstance(index=i, chain=c, strategies=strategies)
            for i, c in enumerate(chains)
        ),
        resources=Resources(2, 2),
        **kwargs,
    )


def _rows_by_index(outcome):
    return dict(outcome.rows)


def _scalar_rows(chains, names, transform=lambda outcome: outcome):
    """``{index: {strategy: result}}`` from the scalar reference map.

    ``transform`` is applied to every outcome first (e.g. a fault spec's
    ``corrupt``), mirroring what the engine does before recording a row.
    """
    resources = Resources(2, 2)
    rows = {index: {} for index in range(len(chains))}
    for name in names:
        for index, chain in enumerate(chains):
            outcome = get_info(name).func(ChainProfile(chain), resources)
            rows[index][name] = _result_of(transform(outcome), resources)
    return rows


class TestTargeting:
    def test_targets_matches_scoped_specs(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", fingerprint="abc", strategy="fertac"),),
            state_dir=str(tmp_path),
        )
        assert plan.targets("abc", ("fertac",))
        assert plan.targets("abc", ("herad", "fertac"))
        assert not plan.targets("xyz", ("fertac",))
        assert not plan.targets("abc", ("herad",))

    def test_timed_specs_never_target_cells(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="core_failure", at=1.0, cores=2),),
            state_dir=str(tmp_path),
        )
        assert not plan.targets("abc", ("fertac",))


class TestBatchKernelInjection:
    def test_corrupt_fires_under_batch_kernel(self, tmp_path):
        """The regression: a targeted instance in a batched unit is hit."""
        chains = _chains(4)
        target = ChainProfile(chains[2]).fingerprint
        clean = _rows_by_index(solve_unit(_unit(chains)))
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5, fingerprint=target),),
            state_dir=str(tmp_path),
        )
        tampered = _rows_by_index(
            solve_unit(_unit(chains, faults=plan))
        )
        assert tampered[2]["fertac"].period == pytest.approx(
            clean[2]["fertac"].period * 0.5
        )

    def test_untargeted_instances_stay_bitwise_identical(self, tmp_path):
        chains = _chains(4)
        target = ChainProfile(chains[2]).fingerprint
        clean = _rows_by_index(solve_unit(_unit(chains)))
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5, fingerprint=target),),
            state_dir=str(tmp_path),
        )
        tampered = _rows_by_index(
            solve_unit(_unit(chains, faults=plan))
        )
        for index in (0, 1, 3):
            assert tampered[index] == clean[index]
        assert clean == _scalar_rows(chains, ("fertac",))

    def test_raise_fires_under_batch_kernel(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise"),), state_dir=str(tmp_path)
        )
        with pytest.raises(InjectedFault):
            solve_unit(_unit(_chains(2), faults=plan))

    def test_certify_catches_batch_corruption(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5),),
            state_dir=str(tmp_path),
        )
        with pytest.raises(CertificationError):
            solve_unit(
                _unit(_chains(2), faults=plan, certify=True)
            )

    def test_wildcard_plan_matches_python_kernel_results(self, tmp_path):
        """With every instance targeted, the routed path must equal the
        scalar reference map with the same corruption applied, bitwise."""
        chains = _chains(5, seed=3)
        spec = FaultSpec(kind="corrupt", factor=0.25)
        plan = FaultPlan(specs=(spec,), state_dir=str(tmp_path))
        strategies = ("fertac", "herad")
        routed = _rows_by_index(
            solve_unit(_unit(chains, strategies, faults=plan))
        )
        assert routed == _scalar_rows(chains, strategies, spec.corrupt)

    def test_mixed_unit_records_both_solve_paths(self, tmp_path):
        """A routed unit runs scalar cells for targeted instances and the
        vectorized kernels for the rest — visible in the obs metrics."""
        chains = _chains(4)
        target = ChainProfile(chains[1]).fingerprint
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt", factor=0.5, fingerprint=target),),
            state_dir=str(tmp_path),
        )
        outcome = solve_unit(
            _unit(
                chains,
                faults=plan,
                obs=ObsConfig(trace=False, metrics=True),
            )
        )
        assert outcome.obs is not None
        counters = dict(outcome.obs.metrics.histograms)
        assert any(name.startswith("solve.seconds.") for name in counters)
        assert any(name.startswith("solve_batch.seconds.") for name in counters)
