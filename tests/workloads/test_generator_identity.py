"""``generate_workload`` is pinned: same job tables, linear time.

The digests below were recorded at the commit *before* the generator began
carrying its SLO / elastic counts as running integers (it used to recount
every earlier draft for every job).  The RNG draws and their order are part
of the contract: every benchmark input and every seeded test hangs off them.
Re-record only on purpose: ``PYTHONPATH=src python -m
tests.workloads.test_generator_identity``.
"""

import hashlib
import time

import pytest

from repro.cluster import Cluster
from repro.workloads import COMPOSITIONS, GridmixConfig, generate_workload

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


def job_table(name: str, seed: int, elastic_fraction: float,
              num_jobs: int | None = None):
    composition, racks, per_rack, gpu_racks, jobs, util, err = PARAMS[name]
    cluster = Cluster.build(racks=racks, nodes_per_rack=per_rack,
                            gpu_racks=gpu_racks)
    return generate_workload(
        COMPOSITIONS[composition], cluster,
        GridmixConfig(num_jobs=num_jobs or jobs, target_utilization=util,
                      estimate_error=err, elastic_fraction=elastic_fraction,
                      seed=seed))


def digest(jobs) -> str:
    """SHA-256 over (id, type, k, runtime, submit, deadline, elastic min_k)."""
    h = hashlib.sha256()
    for j in jobs:
        h.update(repr((j.job_id, type(j.job_type).__name__, j.k,
                       j.base_runtime_s, j.submit_time, j.deadline,
                       getattr(j.job_type, "min_k", None))).encode())
    return h.hexdigest()


CASES = [(name, seed, frac) for name in PARAMS for seed in SEEDS
         for frac in ELASTIC_FRACTIONS]


@pytest.mark.parametrize("name,seed,frac", CASES)
def test_job_table_matches_the_recorded_digest(name, seed, frac):
    assert digest(job_table(name, seed, frac)) == RECORDED[
        f"{name}/seed{seed}/elastic{frac}"]


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
