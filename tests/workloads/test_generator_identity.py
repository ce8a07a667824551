"""``generate_workload`` is pinned: same job tables, linear time.

The digests below were recorded at the commit *before* the generator began
carrying its SLO / elastic counts as running integers (it used to recount
every earlier draft for every job).  The RNG draws and their order are part
of the contract: every benchmark input and every seeded test hangs off them.
``OFF_BENCH`` pins, with digests recorded before the generator stopped going
through numpy's per-call wrappers, the branches the bench parameterisations
do not reach.  Re-record only on purpose: ``PYTHONPATH=src python -m
tests.workloads.test_generator_identity``.

numpy does not promise stable ``Generator`` streams across releases (NEP 19),
so a red digest on a numpy other than ``RECORDED_ON_NUMPY`` may be numpy's
change rather than the generator's; the assertion message names both.
"""

import hashlib
import time

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.workloads import (COMPOSITIONS, GridmixConfig, Rng,
                             generate_workload)
from repro.workloads.distributions import cumulative

#: The numpy release every digest below reproduces on.
RECORDED_ON_NUMPY = "2.4.6"

#: name -> (composition, racks, nodes per rack, GPU racks, jobs, utilization,
#: estimate error): the three ``bench/workloads.py`` parameterisations.
PARAMS = {
    "grmix-3000": ("GR MIX", 8, 32, 0, 3000, 0.8, -0.5),
    "grmix-910": ("GR MIX", 8, 32, 0, 910, 50.0, -0.5),
    "gshet-600": ("GS HET", 4, 20, 2, 600, 0.7, 0.0),
}
SEEDS = (0, 7)
ELASTIC_FRACTIONS = (0.0, 0.3)

RECORDED = {
    "grmix-3000/seed0/elastic0.0":
        "6acd2b4fa3d4c5697871d4e2cd73a98d13e12ca1273ea2723b7a25daa01109d2",
    "grmix-3000/seed0/elastic0.3":
        "d354635e7642d4a5b42a9c9f6f8a49db4a85cb2d17645467a08d13930ea2252c",
    "grmix-3000/seed7/elastic0.0":
        "06e385f9c014feb32a64e95be1faa8b36e55e6bea3c5c65f739b352d7866ffe0",
    "grmix-3000/seed7/elastic0.3":
        "9bcac6335c35be3f3572521e117a982340b8cd83c7a5a2db780c4309b2568d89",
    "grmix-910/seed0/elastic0.0":
        "b239a592ba89618667d72938972aa3ee648666017ccd0aa05eb3fbdbc0d6b32a",
    "grmix-910/seed0/elastic0.3":
        "97294cd4664a780adb543ecd0a4933b022ee049e7f2399de900bf57c3795f502",
    "grmix-910/seed7/elastic0.0":
        "f73fe3fd523b1280874949f8f36b61432865bd058c2dca0d205cc27f0d12f630",
    "grmix-910/seed7/elastic0.3":
        "bd9c9d3cff6741595716330a99e88191046257590390ee44a6e68fb68035c9cd",
    "gshet-600/seed0/elastic0.0":
        "f718a1f4ffbf7678b69c9145f323f3907002c8a58518aa140c54f797bdf14692",
    "gshet-600/seed0/elastic0.3":
        "f14950065d9f69616312efb64a61054e884443a602fa8a75476004cc27576c62",
    "gshet-600/seed7/elastic0.0":
        "1cc8a70c9e9990ed4659b0ef1654c4c3f50aa77918eba0eaf98eea08f7a39578",
    "gshet-600/seed7/elastic0.3":
        "1da4414703ae18156c0372d9572c42b2890ec98f31a5a3d1443b274a67d8a820",
}


#: name -> (composition, racks, nodes per rack, GPU racks, jobs, utilization,
#: estimate error, further ``GridmixConfig`` fields): the draws ``PARAMS``
#: does not reach.
OFF_BENCH = {
    # slo_fraction >= 1.0: every job takes the SLO branch.
    "grslo-600": ("GR SLO", 8, 32, 0, 600, 0.8, 0.0, {}),
    "gsmix-600": ("GS MIX", 4, 20, 2, 600, 0.7, 0.0, {}),
    # Gamma gaps of shape 1/4, not the exponential's shape 1.
    "grmix-bursty": ("GR MIX", 8, 32, 0, 600, 0.8, -0.5,
                     {"burstiness": 2.0}),
    "grmix-elastic1.0": ("GR MIX", 8, 32, 0, 600, 0.8, -0.5,
                         {"elastic_fraction": 1.0}),
    # Racks of 4 under MPI gangs of up to 6: the largest-rack cap binds.
    "gshet-2x4": ("GS HET", 2, 4, 1, 300, 1.0, 0.0, {}),
}

RECORDED_OFF_BENCH = {
    "grslo-600/seed0":
        "64563427f50dc5937651728e57e67f0ba84dc19863153cfe5e0480fd77906237",
    "grslo-600/seed7":
        "0df6bfc5f895f343d96f06d18f153625673d8b7fae0c2e23b80533896b9c4f71",
    "gsmix-600/seed0":
        "22b834aeb5ea3eb51fa370dd2a0121866ce830e9c51afa7dd4558de3e9ca225b",
    "gsmix-600/seed7":
        "62bd50e2d789ee9aee7a70e246b045b0bd7b2a46b1d4397e5894d9ce9a364e83",
    "grmix-bursty/seed0":
        "4e7b6357355f8c164f53403803c110ede901b013cb4a00027192534afbc65803",
    "grmix-bursty/seed7":
        "a24868bb7fe77667eaf828e718ba96057202e0139ee837142f9cf09bfc4e89a1",
    "grmix-elastic1.0/seed0":
        "2cb6693ea7f72dba5582ec51ced4d853a99396c3bc89134d78fa009bb530f5b1",
    "grmix-elastic1.0/seed7":
        "4dadbbc7b22b45cae7408815d613634209438f1d39f225ac7dfdc8869aeb429d",
    "gshet-2x4/seed0":
        "3fcda8a01cba40ea9dd2871f69fd07fab1c2da4511db4e6b03bfd4087915b4ff",
    "gshet-2x4/seed7":
        "7f80d7083e3be78ff1e653bb4e67e7e744ed5e8385558f6399c58d5b1f0ce765",
}


def job_table(name: str, seed: int, elastic_fraction: float,
              num_jobs: int | None = None):
    composition, racks, per_rack, gpu_racks, jobs, util, err = PARAMS[name]
    return _generate(composition, racks, per_rack, gpu_racks, seed,
                     num_jobs=num_jobs or jobs, target_utilization=util,
                     estimate_error=err, elastic_fraction=elastic_fraction)


def off_bench_table(name: str, seed: int):
    composition, racks, per_rack, gpu_racks, jobs, util, err, extra = (
        OFF_BENCH[name])
    return _generate(composition, racks, per_rack, gpu_racks, seed,
                     num_jobs=jobs, target_utilization=util,
                     estimate_error=err, **extra)


def _generate(composition, racks, per_rack, gpu_racks, seed, **config):
    cluster = Cluster.build(racks=racks, nodes_per_rack=per_rack,
                            gpu_racks=gpu_racks)
    return generate_workload(COMPOSITIONS[composition], cluster,
                             GridmixConfig(seed=seed, **config))


def digest(jobs) -> str:
    """SHA-256 over (id, type, k, runtime, submit, deadline, elastic min_k)."""
    h = hashlib.sha256()
    for j in jobs:
        h.update(repr((j.job_id, type(j.job_type).__name__, j.k,
                       j.base_runtime_s, j.submit_time, j.deadline,
                       getattr(j.job_type, "min_k", None))).encode())
    return h.hexdigest()


def assert_pinned(jobs, key: str, recorded: dict) -> None:
    assert digest(jobs) == recorded[key], (
        f"job table {key} moved; the digests reproduce on numpy "
        f"{RECORDED_ON_NUMPY}, this run has numpy {np.__version__}")


CASES = [(name, seed, frac) for name in PARAMS for seed in SEEDS
         for frac in ELASTIC_FRACTIONS]
OFF_BENCH_CASES = [(name, seed) for name in OFF_BENCH for seed in SEEDS]


@pytest.mark.parametrize("name,seed,frac", CASES)
def test_job_table_matches_the_recorded_digest(name, seed, frac):
    assert_pinned(job_table(name, seed, frac),
                  f"{name}/seed{seed}/elastic{frac}", RECORDED)


@pytest.mark.parametrize("name,seed", OFF_BENCH_CASES)
def test_off_bench_job_table_matches_the_recorded_digest(name, seed):
    assert_pinned(off_bench_table(name, seed), f"{name}/seed{seed}",
                  RECORDED_OFF_BENCH)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_mpi_rack_cap_binds_on_racks_of_four(seed):
    # Uncapped, a 2..6 gang is 4 one time in five; capped, three in five.
    ks = [j.k for j in off_bench_table("gshet-2x4", seed)
          if j.job_id.startswith("slo") and
          type(j.job_type).__name__ == "MpiType"]
    assert max(ks) == 4 and ks.count(4) > len(ks) / 2


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (2.2, 3.5), (0, 1),
                                   (-7.5, -0.25), (-3.0, 4.0), (5.0, 5.0),
                                   (-2.5, -2.5), (1e-3, 1e6)])
def test_uniform_is_the_generators_uniform_bit_for_bit(lo, hi):
    n = 100_000
    ours, theirs = Rng(11), np.random.default_rng(11)
    drawn = np.array([ours.uniform(lo, hi) for _ in range(n)])
    expected = np.array([theirs.uniform(lo, hi) for _ in range(n)])
    assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("p", [[1.0], [0.3, 0.7], [0.2, 0.3, 0.5],
                               [0.5, 0.0, 0.5]])
def test_the_cdf_draw_is_the_generators_choice(p):
    n = 100_000
    ours, theirs = Rng(5), np.random.default_rng(5)
    cdf = cumulative(p)
    drawn = [ours.categorical(cdf) for _ in range(n)]
    # ``choice(size=n)`` searches the same table with ``random(size=n)``,
    # which draws what ``n`` scalar calls draw; the scalar calls the
    # generator used to make are checked one by one on the first 1 000.
    assert drawn == theirs.choice(len(p), p=p, size=n).tolist()
    # Each draw took exactly one ``random()``: the streams are still in step.
    assert ours.uniform(0.0, 1.0) == theirs.random()
    scalar = np.random.default_rng(5)
    assert drawn[:1000] == [int(scalar.choice(len(p), p=p))
                            for _ in range(1000)]


def test_generation_is_linear_in_the_job_count():
    # The recounting generator took 4.4 s here (15x the time for 4x the
    # jobs); the running counts take 0.18 s.  1.5 s is out of reach of a
    # slow window on the one and of any speed-up on the other.
    t0 = time.perf_counter()
    jobs = job_table("grmix-3000", 0, 0.3, num_jobs=12_000)
    elapsed = time.perf_counter() - t0
    assert len(jobs) == 12_000
    assert elapsed < 1.5, f"12 000 jobs took {elapsed:.2f} s"


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case[0]}/seed{case[1]}/elastic{case[2]}":\n'
              f'        "{digest(job_table(*case))}",')
    for case in OFF_BENCH_CASES:
        print(f'    "{case[0]}/seed{case[1]}":\n'
              f'        "{digest(off_bench_table(*case))}",')
