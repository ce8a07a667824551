"""Tests for workload generation: distributions, compositions, gridmix."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import seeds

from repro.cluster import Cluster
from repro.errors import WorkloadError
from repro.sim import GpuType, MpiType, UnconstrainedType
from repro.workloads import (COMPOSITIONS, GR_MIX, GR_SLO, GS_HET, GS_MIX,
                             TABLE1, BoundedLogNormal, GridmixConfig, Rng,
                             UniformFloat, UniformInt, generate_workload,
                             offered_load)


class TestDistributions:
    def test_rng_deterministic(self):
        a = [Rng(7).uniform(0, 1) for _ in range(3)]
        b = [Rng(7).uniform(0, 1) for _ in range(3)]
        # Same seed, fresh generators -> same first draw.
        assert a[0] == b[0]

    def test_bounded_lognormal_respects_bounds(self):
        d = BoundedLogNormal(median=30, sigma=2.0, lo=10, hi=60)
        rng = Rng(1)
        for _ in range(200):
            v = d.sample(rng)
            assert 10 <= v <= 60

    def test_bounded_lognormal_validation(self):
        with pytest.raises(WorkloadError):
            BoundedLogNormal(median=5, sigma=1, lo=10, hi=60)
        with pytest.raises(WorkloadError):
            BoundedLogNormal(median=30, sigma=-1, lo=10, hi=60)

    def test_uniform_int_inclusive(self):
        d = UniformInt(2, 3)
        rng = Rng(3)
        values = {d.sample(rng) for _ in range(100)}
        assert values == {2, 3}

    def test_uniform_int_validation(self):
        with pytest.raises(WorkloadError):
            UniformInt(3, 2)
        with pytest.raises(WorkloadError):
            UniformInt(0, 2)

    def test_uniform_float_validation(self):
        with pytest.raises(WorkloadError):
            UniformFloat(3.0, 2.0)


class TestCompositions:
    def test_table1_rows_match_paper(self):
        rows = {c.name: c.table_row() for c in TABLE1}
        assert rows["GR SLO"]["SLO"] == 100 and rows["GR SLO"]["BE"] == 0
        assert rows["GR MIX"]["SLO"] == 52 and rows["GR MIX"]["BE"] == 48
        assert rows["GS MIX"]["SLO"] == 70 and rows["GS MIX"]["BE"] == 30
        assert rows["GS HET"]["SLO"] == 75 and rows["GS HET"]["BE"] == 25
        assert rows["GS HET"]["GPU"] == 50 and rows["GS HET"]["MPI"] == 50
        assert rows["GR MIX"]["Unconstrained"] == 100

    def test_compositions_registry(self):
        assert set(COMPOSITIONS) == {"GR SLO", "GR MIX", "GS MIX", "GS HET"}

    def test_bad_type_mix_rejected(self):
        from repro.workloads import WorkloadComposition
        from repro.workloads.swim import FB2009_2, YAHOO_1
        with pytest.raises(WorkloadError):
            WorkloadComposition("bad", 0.5, {"gpu": 0.7}, FB2009_2, YAHOO_1)

    def test_negative_type_fraction_rejected(self):
        # Sums to 1, so only the sign check stands between it and a CDF
        # that is not monotone (silently drawing the wrong types).
        from repro.workloads import WorkloadComposition
        from repro.workloads.swim import GS_SYNTHETIC
        with pytest.raises(WorkloadError, match="nonnegative"):
            WorkloadComposition("bad", 0.5, {"gpu": 1.5, "mpi": -0.5},
                                GS_SYNTHETIC, GS_SYNTHETIC)

    def test_unknown_type_name_rejected(self):
        # Used to pass here and die with a bare KeyError once every job
        # had been drawn.
        from repro.workloads import WorkloadComposition
        from repro.workloads.swim import GS_SYNTHETIC
        with pytest.raises(WorkloadError, match="fpga"):
            WorkloadComposition("bad", 0.5, {"gpu": 0.5, "fpga": 0.5},
                                GS_SYNTHETIC, GS_SYNTHETIC)


class TestGridmix:
    @pytest.fixture()
    def cluster(self):
        return Cluster.build(racks=4, nodes_per_rack=8, gpu_racks=2)

    def test_deterministic(self, cluster):
        cfg = GridmixConfig(num_jobs=30, seed=5)
        a = generate_workload(GR_MIX, cluster, cfg)
        b = generate_workload(GR_MIX, cluster, cfg)
        assert [(j.job_id, j.submit_time, j.k, j.base_runtime_s)
                for j in a] == [(j.job_id, j.submit_time, j.k,
                                 j.base_runtime_s) for j in b]

    def test_slo_fraction_respected(self, cluster):
        jobs = generate_workload(GR_MIX, cluster,
                                 GridmixConfig(num_jobs=100, seed=1))
        slo = sum(1 for j in jobs if j.is_slo)
        assert slo == pytest.approx(52, abs=2)

    def test_pure_slo_workload(self, cluster):
        jobs = generate_workload(GR_SLO, cluster,
                                 GridmixConfig(num_jobs=40, seed=2))
        assert all(j.is_slo for j in jobs)

    def test_het_type_mix(self, cluster):
        jobs = generate_workload(GS_HET, cluster,
                                 GridmixConfig(num_jobs=200, seed=3))
        slo_types = [type(j.job_type) for j in jobs if j.is_slo]
        be_types = [type(j.job_type) for j in jobs if not j.is_slo]
        assert all(t is UnconstrainedType for t in be_types)
        gpu_frac = sum(1 for t in slo_types if t is GpuType) / len(slo_types)
        assert 0.3 < gpu_frac < 0.7
        assert any(t is MpiType for t in slo_types)

    def test_mpi_gang_fits_a_rack(self, cluster):
        jobs = generate_workload(GS_HET, cluster,
                                 GridmixConfig(num_jobs=200, seed=4))
        rack_size = 8
        for j in jobs:
            if isinstance(j.job_type, MpiType):
                assert j.k <= rack_size

    def test_estimate_error_propagates(self, cluster):
        jobs = generate_workload(GS_MIX, cluster,
                                 GridmixConfig(num_jobs=10, seed=1,
                                               estimate_error=0.5))
        for j in jobs:
            assert j.estimated_runtime_s == pytest.approx(
                1.5 * j.base_runtime_s)

    def test_deadlines_have_slack(self, cluster):
        jobs = generate_workload(GR_SLO, cluster,
                                 GridmixConfig(num_jobs=50, seed=6))
        for j in jobs:
            assert j.deadline >= j.submit_time + 1.5 * j.base_runtime_s

    def test_offered_load_near_target(self, cluster):
        jobs = generate_workload(GR_MIX, cluster,
                                 GridmixConfig(num_jobs=300, seed=7,
                                               target_utilization=1.0))
        load = offered_load(jobs, cluster)
        assert 0.6 < load < 1.6  # Poisson noise, but the right ballpark

    def test_slowdown_propagates_to_job_types(self, cluster):
        jobs = generate_workload(GS_HET, cluster,
                                 GridmixConfig(num_jobs=60, seed=2,
                                               slowdown=2.5))
        slowdowns = {j.job_type.slowdown for j in jobs
                     if hasattr(j.job_type, "slowdown")}
        assert slowdowns == {2.5}

    def test_burstiness_changes_arrival_pattern(self, cluster):
        smooth = generate_workload(GS_MIX, cluster,
                                   GridmixConfig(num_jobs=80, seed=3,
                                                 burstiness=1.0))
        bursty = generate_workload(GS_MIX, cluster,
                                   GridmixConfig(num_jobs=80, seed=3,
                                                 burstiness=4.0))
        import numpy as np

        def cv(jobs):
            gaps = np.diff([j.submit_time for j in jobs])
            return gaps.std() / gaps.mean()
        assert cv(bursty) > cv(smooth)

    def test_bad_config(self):
        with pytest.raises(WorkloadError):
            GridmixConfig(num_jobs=0)
        with pytest.raises(WorkloadError):
            GridmixConfig(target_utilization=0)
        with pytest.raises(WorkloadError):
            GridmixConfig(estimate_error=-1.0)
        with pytest.raises(WorkloadError):
            GridmixConfig(burstiness=0.0)
        with pytest.raises(WorkloadError):
            GridmixConfig(slowdown=0.5)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, n=st.integers(1, 60))
    def test_generated_jobs_always_valid(self, seed, n):
        cluster = Cluster.build(racks=2, nodes_per_rack=4, gpu_racks=1)
        jobs = generate_workload(GS_HET, cluster,
                                 GridmixConfig(num_jobs=n, seed=seed))
        assert len(jobs) == n
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)
        for j in jobs:
            assert 1 <= j.k <= len(cluster)
            assert j.base_runtime_s > 0
