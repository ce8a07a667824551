"""Golden MILP exports: every cycle's CSR export, digest by digest.

The array-native front end (compile / decompose / extract on flat numpy
buffers) must emit *bit-identical* cycle MILPs — same column order, same
within-row coefficient order, same bounds and right-hand sides — as the
object-building compiler it replaced.  ``golden_exports.json`` holds the
``fingerprint_arrays(...).exact`` digest of every cycle's export for three
small seeded runs, recorded with the object-building compiler (the commit
before the refactor); the test replays the runs and compares digest lists.

The runs pin the in-repo ``pure`` backend so the schedules (and therefore
every later cycle's model) do not depend on the installed HiGHS version,
and switch direct booking off for the same reason: a cycle it books may
pick another of several optimal plans than the solver recorded here, and
every later cycle would then compile different inputs.

Scheduler runs only ever compile what the STRL generator emits (``max``
over ``nCk`` / elastic options), so a fourth fixture entry, ``strl-fuzz``,
holds the export digest and the variable/constraint names of seeded random
batches that use every combinator (``min``, ``sum``, ``scale``,
``barrier``, ``LnCk``), busy and drained nodes, preemption candidates and
the per-node partitioning ablation.

The fixture was last re-recorded when the compiler started substituting
``P == k * I`` for single-partition ``nCk`` leaves, which changes every
emitted model.  Its ``pre_substitution`` key keeps the digests of the commit
before that, and the same runs and batches compiled with
:func:`tests.core.expansion.pre_substitution` — every substituted ``P``
column and demand row written back — must still reproduce them: the
substitution is the *only* thing that changed in what the compiler emits.

Re-record (only when a change *means* to alter the emitted models or the
pure solver's tie-breaking; ``pre_substitution`` is carried over) with::

    PYTHONPATH=src python -m tests.core.test_golden_export
"""

import hashlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from repro.cluster import ClusterState
from repro.core import StrlCompiler
from repro.core.compiler import CompiledBatch, PreemptionCandidate
from repro.experiments.runner import ClusterSpec, RunSpec, run_experiment
from repro.pipeline import stages
from repro.solver.model import fingerprint_arrays
from repro.strl import (Barrier, ElasticNCk, LnCk, Max, Min, NCk, Scale,
                        Sum)
from repro.workloads import COMPOSITIONS
from tests.core.expansion import pre_substitution

FIXTURE = Path(__file__).with_name("golden_exports.json")

_BASE = dict(scheduler="TetriSched", backend="pure", quantum_s=10.0,
             cycle_s=10.0, plan_ahead_s=60.0)

RUNS = {
    "gr-mix": RunSpec(composition=COMPOSITIONS["GR MIX"],
                      cluster=ClusterSpec(2, 8), num_jobs=24, seed=3,
                      **_BASE),
    "gs-het": RunSpec(composition=COMPOSITIONS["GS HET"],
                      cluster=ClusterSpec(4, 4, gpu_racks=2), num_jobs=20,
                      seed=5, **_BASE),
    "elastic-preempt": RunSpec(composition=COMPOSITIONS["GS MIX"],
                               cluster=ClusterSpec(2, 6), num_jobs=20,
                               seed=7, elastic_fraction=0.5,
                               elastic_mode=True, enable_preemption=True,
                               target_utilization=1.3, **_BASE),
}


def solver_decides(self):
    """``CompiledBatch.book_directly`` of a batch it does not apply to."""
    return None, None


def cycle_digests(spec: RunSpec) -> list[dict]:
    """Run ``spec``; one record per compiled periodic cycle, in cycle order."""
    records: list[dict] = []
    original = stages.ModelBuild.run

    def recording_run(self, ctx):
        original(self, ctx)
        if ctx.arrival:
            # With booking off an arrival cycle always misses: it launches
            # nothing, so the periodic cycles compile what they always did.
            return
        compiled = ctx.compiled
        records.append({
            "digest": fingerprint_arrays(
                compiled.model.to_sparse_arrays()).exact,
            "preemptible": len(compiled.preemption_columns),
            "resizable": len(compiled.resize_candidates),
        })

    with mock.patch.object(stages.ModelBuild, "run", recording_run), \
            mock.patch.object(CompiledBatch, "book_directly", solver_decides):
        run_experiment(spec)
    return records


def strl_fuzz_digests(cases: int = 120, seed: int = 1234) -> list[list[str]]:
    """[export digest, names digest] of ``cases`` seeded random batches."""
    nodes = [f"n{i}" for i in range(8)]
    universe = frozenset(nodes)
    eq_sets = [frozenset(nodes[:4]), frozenset(nodes[2:7]), universe,
               frozenset(nodes[5:]), frozenset(nodes[1:3])]
    rng = random.Random(seed)

    def leaf():
        eq = rng.choice(eq_sets)
        kind = rng.choice([NCk, NCk, NCk, LnCk])
        return kind(eq, rng.randint(1, len(eq)), rng.randint(0, 4),
                    rng.randint(1, 3), rng.choice([0.0, 1.0, 2.5, 7.0, 3]))

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            shape = rng.random()
            if shape < 0.15:
                eq = rng.choice(eq_sets)
                hi = rng.randint(2, len(eq))
                lo = rng.randint(1, hi)
                widths = hi - lo + 1
                return ElasticNCk(
                    eq, lo, hi, rng.randint(0, 3),
                    tuple(rng.randint(1, 3) for _ in range(widths)),
                    tuple(sorted(rng.choice([0.0, 1.0, 2.0, 4.0])
                                 for _ in range(widths))))
            if shape < 0.5:  # one option replicated over start times
                eq = rng.choice(eq_sets)
                k, dur = rng.randint(1, len(eq)), rng.randint(1, 3)
                return Max(*[NCk(eq, k, s, dur, rng.choice([0.0, 1.0, 5.0]))
                             for s in range(rng.randint(1, 5))])
            return leaf()
        kind = rng.choice([Max, Max, Min, Sum, Scale, Barrier])
        if kind is Scale:
            return Scale(tree(depth - 1), rng.choice([0.0, 1.0, 0.5, 3]))
        if kind is Barrier:
            return Barrier(tree(depth - 1), rng.choice([0.0, 1.0, 2.0, 5]))
        return kind(*[tree(depth - 1) for _ in range(rng.randint(1, 4))])

    digests = []
    for _ in range(cases):
        state = ClusterState(universe)
        busy = rng.sample(nodes, rng.randint(0, 4))
        for i, node in enumerate(busy):
            state.start(f"run{i}", frozenset({node}), 0.0,
                        rng.choice([5.0, 15.0, 31.0]))
        for node in rng.sample(nodes, rng.randint(0, 2)):
            state.drain(node)
        batch = [(f"job{j}", tree(rng.randint(0, 3)))
                 for j in range(rng.randint(1, 4))]
        victims = [PreemptionCandidate(f"run{i}", frozenset({node}),
                                       rng.choice([0.0, 2.0, 5.0]))
                   for i, node in enumerate(busy) if rng.random() < 0.5]
        model = StrlCompiler(
            state, 10.0, now=0.0,
            minimal_partitioning=rng.random() < 0.8).compile(
                batch, preemptible=victims).model
        names = "|".join([v.name for v in model.variables]
                         + [c.name for c in model.constraints])
        digests.append([fingerprint_arrays(model.to_sparse_arrays()).exact,
                        hashlib.sha256(names.encode()).hexdigest()])
    return digests


def test_random_strl_batches_match_golden():
    golden = json.loads(FIXTURE.read_text())["strl-fuzz"]
    for case, (have, want) in enumerate(zip(strl_fuzz_digests(), golden,
                                            strict=True)):
        assert have == want, f"random batch {case} compiled differently"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_cycle_export_matches_golden(name):
    golden = json.loads(FIXTURE.read_text())[name]
    got = cycle_digests(RUNS[name])
    assert len(got) == len(golden)
    for cycle, (have, want) in enumerate(zip(got, golden)):
        assert have == want, f"{name}: cycle {cycle} export diverged"


def test_expanded_batches_match_the_digests_before_substitution():
    golden = json.loads(FIXTURE.read_text())["pre_substitution"]["strl-fuzz"]
    with pre_substitution():
        assert strl_fuzz_digests() == golden


@pytest.mark.parametrize("name", sorted(RUNS))
def test_expanded_runs_match_the_digests_before_substitution(name):
    # Whole trajectories, not just cycle 0: with the old models back the
    # pure backend takes the old decisions, so every later cycle compiles
    # the old inputs — decoded through the same leaf table throughout.
    golden = json.loads(FIXTURE.read_text())["pre_substitution"][name]
    with pre_substitution():
        assert cycle_digests(RUNS[name]) == golden


def test_golden_runs_cover_preemption_and_resize():
    """The elastic run's fixture exercises both supply-credit mechanisms."""
    golden = json.loads(FIXTURE.read_text())["elastic-preempt"]
    assert any(rec["preemptible"] for rec in golden)
    assert any(rec["resizable"] for rec in golden)


if __name__ == "__main__":
    recorded = {name: cycle_digests(spec) for name, spec in RUNS.items()}
    recorded["strl-fuzz"] = strl_fuzz_digests()
    recorded["pre_substitution"] = json.loads(
        FIXTURE.read_text())["pre_substitution"]
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {FIXTURE}")
