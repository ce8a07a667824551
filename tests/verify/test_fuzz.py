"""Differential fuzz harness: fixed instances, seed-file replay, smoke run."""

import pytest

from repro.verify.fuzz import (AGREEMENT_TOL, DifferentialFailure,
                               check_instance, replay_file, run_fuzz)
from repro.verify.instance import FuzzInstance, FuzzJob


def spec(**kw):
    defaults = dict(
        racks=2, nodes_per_rack=2, quantum_s=10.0, plan_ahead_quanta=3,
        jobs=(FuzzJob("a", k=2, duration_q=1, value=9.0),
              FuzzJob("b", k=1, duration_q=2, value=4.0, rack=0,
                      fallback=True)),
        busy=((1, 1),))
    defaults.update(kw)
    return FuzzInstance(**defaults)


class TestCheckInstance:
    def test_fixed_instance_all_configurations_agree(self):
        summary = check_instance(spec())
        assert not summary["trivial"]
        assert summary["jobs"] == 2
        # Every pure configuration ran; scipy mirrors when available.
        objectives = summary["objectives"]
        assert {"pure-dense", "pure-sparse",
                "pure-decomposed"} <= set(objectives)
        assert not {"pure-parallel", "pure-cached"} & set(objectives)
        ref = objectives["pure-dense"]
        for name, obj in objectives.items():
            assert obj == pytest.approx(ref, abs=AGREEMENT_TOL), name

    def test_empty_instance_is_trivial(self):
        summary = check_instance(spec(jobs=()))
        assert summary == {"trivial": True}

    def test_unreachable_deadlines_are_trivial(self):
        # Deadline 0 culls every job at generation time -> compiled None.
        jobs = tuple(
            FuzzJob(j.job_id, j.k, j.duration_q, j.value, deadline_q=0)
            for j in spec().jobs)
        assert check_instance(spec(jobs=jobs)) == {"trivial": True}

    def test_differential_failure_is_assertion(self):
        # CI treats harness mismatches as test failures, not errors.
        assert issubclass(DifferentialFailure, AssertionError)


class TestSeedFileRoundTrip:
    def test_json_round_trip_is_identity(self):
        s = spec()
        assert FuzzInstance.from_json(s.to_json()) == s

    def test_replay_file(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(spec().to_json())
        assert replay_file(path) == 0

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "seed.json"
        s = spec()
        path.write_text(s.to_json())
        assert FuzzInstance.load(path) == s


@pytest.mark.fuzz
class TestFuzzSmoke:
    """Bounded end-to-end runs; excluded from tier-1 by the marker."""

    def test_seeded_run_passes(self, tmp_path):
        rc = run_fuzz(seed=0, iterations=5,
                      seed_file=str(tmp_path / "fail.json"))
        assert rc == 0
        assert not (tmp_path / "fail.json").exists()

    def test_time_budget_short_circuits(self, tmp_path):
        rc = run_fuzz(seed=1, iterations=5, time_budget=0.0,
                      seed_file=str(tmp_path / "fail.json"))
        assert rc == 0
