"""Tests for the disaggregated-memory subsystem."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cluster.masks import OrderedMask, mask_of
from repro.errors import AllocationError, ConfigurationError
from repro.memdis import (
    ContentionPenalty,
    FixedRatioSplit,
    GlobalPoolAllocator,
    HybridAllocator,
    LinearPenalty,
    LocalFirstSplit,
    MemoryLedger,
    NoPenalty,
    RackLocalAllocator,
    SaturatingPenalty,
    allocator_for,
    local_first_split,
    penalty_from_dict,
)
from repro.units import GiB


class TestSplitPolicies:
    def test_local_first_fits(self):
        split = local_first_split(8 * GiB, 16 * GiB)
        assert split.local == 8 * GiB
        assert split.remote == 0
        assert split.remote_fraction == 0.0

    def test_local_first_overflow(self):
        split = local_first_split(24 * GiB, 16 * GiB)
        assert split.local == 16 * GiB
        assert split.remote == 8 * GiB
        assert split.remote_fraction == pytest.approx(1 / 3)

    def test_local_first_headroom(self):
        split = LocalFirstSplit(headroom=2 * GiB).split(16 * GiB, 16 * GiB)
        assert split.local == 14 * GiB
        assert split.remote == 2 * GiB

    def test_zero_request(self):
        split = local_first_split(0, 16 * GiB)
        assert split.local == 0 and split.remote == 0
        assert split.remote_fraction == 0.0

    def test_zero_capacity_all_remote(self):
        split = local_first_split(4 * GiB, 0)
        assert split.local == 0
        assert split.remote == 4 * GiB
        assert split.remote_fraction == 1.0

    def test_fixed_ratio(self):
        split = FixedRatioSplit(local_ratio=0.25).split(16 * GiB, 64 * GiB)
        assert split.local == 4 * GiB
        assert split.remote == 12 * GiB

    def test_fixed_ratio_capped_by_capacity(self):
        split = FixedRatioSplit(local_ratio=1.0).split(16 * GiB, 8 * GiB)
        assert split.local == 8 * GiB
        assert split.remote == 8 * GiB

    def test_fixed_ratio_validation(self):
        with pytest.raises(ConfigurationError):
            FixedRatioSplit(local_ratio=1.5)
        with pytest.raises(ConfigurationError):
            FixedRatioSplit(local_ratio=0.5, headroom=-1)

    def test_negative_headroom_rejected(self):
        with pytest.raises(ConfigurationError):
            LocalFirstSplit(headroom=-1)

    @given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
    def test_property_split_conserves_total(self, mem, capacity):
        split = local_first_split(mem, capacity)
        assert split.local + split.remote == mem
        assert split.local <= capacity
        assert split.local >= 0 and split.remote >= 0


class TestAllocators:
    def test_factory(self):
        assert isinstance(allocator_for("global"), GlobalPoolAllocator)
        assert isinstance(allocator_for("rack"), RackLocalAllocator)
        assert isinstance(allocator_for("hybrid"), HybridAllocator)
        with pytest.raises(ConfigurationError):
            allocator_for("quantum")

    def test_zero_remote_trivial(self, pooled_cluster):
        for name in ("global", "rack", "hybrid"):
            assert allocator_for(name).plan(pooled_cluster, mask_of([0, 1]), 0) == {}

    def test_global_allocator(self, pooled_cluster):
        plan = GlobalPoolAllocator().plan(pooled_cluster, mask_of([0, 4]), 8 * GiB)
        assert plan == {"global": 16 * GiB}

    def test_global_allocator_exhausted(self, pooled_cluster):
        pooled_cluster.global_pool.allocate(99, 120 * GiB)
        plan = GlobalPoolAllocator().plan(pooled_cluster, mask_of([0, 4]), 8 * GiB)
        assert plan is None

    def test_global_allocator_no_pool(self, tiny_cluster):
        assert GlobalPoolAllocator().plan(tiny_cluster, mask_of([0]), 1) is None

    def test_rack_allocator_splits_by_rack(self, pooled_cluster):
        plan = RackLocalAllocator().plan(pooled_cluster, mask_of([0, 1, 4]), 8 * GiB)
        assert plan == {"rack0": 16 * GiB, "rack1": 8 * GiB}

    def test_rack_allocator_one_rack_short(self, pooled_cluster):
        pooled_cluster.rack(1).pool.allocate(99, 60 * GiB)
        plan = RackLocalAllocator().plan(pooled_cluster, mask_of([0, 4]), 8 * GiB)
        assert plan is None  # rack1 has only 4 GiB free

    def test_hybrid_prefers_rack(self, pooled_cluster):
        plan = HybridAllocator().plan(pooled_cluster, mask_of([0, 1]), 8 * GiB)
        assert plan == {"rack0": 16 * GiB}

    def test_hybrid_overflows_to_global(self, pooled_cluster):
        # rack0 pool = 64 GiB; demand 2 nodes × 40 GiB = 80 GiB.
        plan = HybridAllocator().plan(pooled_cluster, mask_of([0, 1]), 40 * GiB)
        assert plan == {"rack0": 64 * GiB, "global": 16 * GiB}

    def test_hybrid_infeasible_when_both_short(self, pooled_cluster):
        pooled_cluster.global_pool.allocate(99, 127 * GiB)
        plan = HybridAllocator().plan(pooled_cluster, mask_of([0, 1]), 40 * GiB)
        assert plan is None

    def test_free_override_feasibility(self, pooled_cluster):
        """Reservations evaluate against hypothetical future free space."""
        pooled_cluster.global_pool.allocate(99, 128 * GiB)  # pool now full
        alloc = GlobalPoolAllocator()
        assert alloc.plan(pooled_cluster, mask_of([0]), 4 * GiB) is None
        # But at shadow time the 128 GiB will be back:
        plan = alloc.plan(
            pooled_cluster, mask_of([0]), 4 * GiB, free_override={"global": 128 * GiB}
        )
        assert plan == {"global": 4 * GiB}

    def test_rack_grants_follow_placement_order(self, pooled_cluster):
        """Racks enter the plan in the order placement's ids meet them,
        as they did when plans were built from id lists."""
        rack1_first = OrderedMask([mask_of([4, 5]), mask_of([0])])
        for allocator in (RackLocalAllocator(), HybridAllocator()):
            plan = allocator.plan(pooled_cluster, rack1_first, 8 * GiB)
            assert list(plan.items()) == [("rack1", 16 * GiB), ("rack0", 8 * GiB)]
            plan = allocator.plan(pooled_cluster, mask_of([0, 4, 5]), 8 * GiB)
            assert list(plan) == ["rack0", "rack1"]

    def test_plans_do_not_mutate_state(self, pooled_cluster):
        before = pooled_cluster.total_pool_used
        HybridAllocator().plan(pooled_cluster, mask_of([0, 1, 4]), 30 * GiB)
        assert pooled_cluster.total_pool_used == before

    def test_plan_totals_match_demand(self, pooled_cluster):
        for name in ("global", "rack", "hybrid"):
            plan = allocator_for(name).plan(pooled_cluster, mask_of([0, 1, 4, 5]), 4 * GiB)
            assert plan is not None
            assert sum(plan.values()) == 4 * 4 * GiB


class TestPenaltyModels:
    def test_no_penalty(self):
        assert NoPenalty().dilation(0.7) == 0.0

    def test_linear(self):
        model = LinearPenalty(beta=0.4)
        assert model.dilation(0.0) == 0.0
        assert model.dilation(0.5) == pytest.approx(0.2)
        assert model.dilation(1.0) == pytest.approx(0.4)

    def test_saturating_below_linear(self):
        lin = LinearPenalty(beta=0.4)
        sat = SaturatingPenalty(beta=0.4, gamma=1.0)
        for f in (0.1, 0.5, 1.0):
            assert sat.dilation(f) < lin.dilation(f)

    def test_contention_idle_matches_linear(self):
        con = ContentionPenalty(beta=0.3, kappa=2.0, threshold=0.5)
        lin = LinearPenalty(beta=0.3)
        assert con.dilation(0.6, pool_pressure=0.2) == pytest.approx(lin.dilation(0.6))

    def test_contention_surcharge(self):
        con = ContentionPenalty(beta=0.3, kappa=2.0, threshold=0.5)
        base = con.dilation(0.6, pool_pressure=0.0)
        loaded = con.dilation(0.6, pool_pressure=1.0)
        assert loaded == pytest.approx(base * (1 + 2.0 * 0.5))

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearPenalty().dilation(1.5)
        with pytest.raises(ConfigurationError):
            LinearPenalty().dilation(-0.1)

    def test_negative_params_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearPenalty(beta=-1)
        with pytest.raises(ConfigurationError):
            SaturatingPenalty(beta=-1)
        with pytest.raises(ConfigurationError):
            ContentionPenalty(kappa=-1)
        with pytest.raises(ConfigurationError):
            ContentionPenalty(threshold=2.0)

    def test_from_dict(self):
        assert isinstance(penalty_from_dict(None), LinearPenalty)
        assert isinstance(penalty_from_dict("none"), NoPenalty)
        model = penalty_from_dict({"kind": "linear", "beta": 0.7})
        assert isinstance(model, LinearPenalty)
        assert model.beta == 0.7
        with pytest.raises(ConfigurationError):
            penalty_from_dict({"kind": "warp"})

    def test_to_dict_roundtrip(self):
        model = SaturatingPenalty(beta=0.6, gamma=2.0)
        again = penalty_from_dict(model.to_dict())
        assert isinstance(again, SaturatingPenalty)
        assert again.beta == 0.6 and again.gamma == 2.0

    @given(
        st.sampled_from(["linear", "saturating", "contention"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_property_monotone_and_zero_at_zero(self, kind, f1, f2):
        model = penalty_from_dict(kind)
        assert model.dilation(0.0) == 0.0
        lo, hi = sorted((f1, f2))
        assert model.dilation(lo) <= model.dilation(hi) + 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_property_contention_monotone_in_pressure(self, f, pressure):
        model = ContentionPenalty()
        assert model.dilation(f, pressure) >= model.dilation(f, 0.0) - 1e-12


class TestLedger:
    def test_grant_release_cycle(self):
        ledger = MemoryLedger()
        ledger.record_grant(0.0, 1, local_total=100, pool_grants={"global": 50})
        assert ledger.open_jobs == [1]
        assert ledger.outstanding_remote() == 50
        assert ledger.outstanding_local() == 100
        grant = ledger.record_release(10.0, 1)
        assert grant.remote_total == 50
        assert ledger.open_jobs == []
        ledger.verify_conservation()

    def test_double_grant_rejected(self):
        ledger = MemoryLedger()
        ledger.record_grant(0.0, 1, 10, {})
        with pytest.raises(AllocationError):
            ledger.record_grant(1.0, 1, 10, {})

    def test_release_without_grant_rejected(self):
        with pytest.raises(AllocationError):
            MemoryLedger().record_release(0.0, 1)

    def test_release_before_grant_time_rejected(self):
        ledger = MemoryLedger()
        ledger.record_grant(5.0, 1, 10, {})
        with pytest.raises(AllocationError):
            ledger.record_release(4.0, 1)

    def test_conservation_fails_with_open_grant(self):
        ledger = MemoryLedger()
        ledger.record_grant(0.0, 1, 10, {})
        with pytest.raises(AllocationError):
            ledger.verify_conservation()

    def test_occupancy_series(self):
        ledger = MemoryLedger()
        ledger.record_grant(0.0, 1, 0, {"global": 100})
        ledger.record_grant(5.0, 2, 0, {"global": 50})
        ledger.record_release(10.0, 1)
        ledger.record_release(20.0, 2)
        series = ledger.pool_occupancy_series("global")
        assert series == [(0.0, 100), (5.0, 150), (10.0, 50), (20.0, 0)]

    def test_occupancy_series_nets_same_instant(self):
        ledger = MemoryLedger()
        ledger.record_grant(0.0, 1, 0, {"p": 100})
        ledger.record_release(5.0, 1)
        ledger.record_grant(5.0, 2, 0, {"p": 100})
        series = ledger.pool_occupancy_series("p")
        assert series == [(0.0, 100), (5.0, 100)]

    def test_occupancy_ignores_other_pools(self):
        ledger = MemoryLedger()
        ledger.record_grant(0.0, 1, 0, {"rack0": 10})
        assert ledger.pool_occupancy_series("global") == []

    @given(
        st.lists(
            st.tuples(st.integers(1, 10), st.integers(0, 100), st.integers(0, 100)),
            max_size=40,
        )
    )
    def test_property_conservation_random(self, ops):
        ledger = MemoryLedger()
        clock = 0.0
        open_jobs: set[int] = set()
        for job_id, local, remote in ops:
            clock += 1.0
            if job_id in open_jobs:
                ledger.record_release(clock, job_id)
                open_jobs.discard(job_id)
            else:
                ledger.record_grant(
                    clock, job_id, local, {"global": remote} if remote else {}
                )
                open_jobs.add(job_id)
        for job_id in sorted(open_jobs):
            clock += 1.0
            ledger.record_release(clock, job_id)
        ledger.verify_conservation()
