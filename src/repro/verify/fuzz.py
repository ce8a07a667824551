"""Differential fuzzing across the solver stack.

One instance, every solver configuration: the legacy dense two-phase
tableau as the reference oracle, then the pure branch-and-bound backend
over the revised simplex in dense, sparse and decomposed form, plus the
scipy/HiGHS backend (dense, sparse, decomposed) when scipy is importable.
For each result the harness runs the MILP certificate checker and the
schedule auditor, then asserts all configurations report the same
objective.  Any disagreement is a bug in exactly one layer — the sparse
export, the component recombination, or the compiler itself — and
hypothesis shrinks the offending instance before it is written to a JSON
seed file that ``python -m repro fuzz --replay`` rebuilds without
hypothesis installed.

The harness is deliberately built from public pieces only:
:func:`~repro.verify.instance.build_instance` uses the production STRL
generator and compiler, and the oracles are
:func:`~repro.verify.certificate.check_certificate` and
:func:`~repro.verify.audit.audit_cycle`.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.solver import (BranchBoundOptions, BranchBoundSolver,
                          ScipyMILPSolver, SolveOptions, scipy_available,
                          solve_decomposed)
from repro.solver.decompose import decompose
from repro.verify.audit import audit_cycle
from repro.verify.certificate import check_certificate
from repro.verify.instance import FuzzInstance, build_instance

#: Relative tolerance for cross-configuration objective agreement.  The
#: harness solves at ``rel_gap=1e-9`` so every configuration proves its
#: optimum; agreement is then limited only by float evaluation order.
AGREEMENT_TOL = 1e-6
_GAP = 1e-9


class DifferentialFailure(AssertionError):
    """Two solver configurations (or a config and an oracle) disagreed."""


def _configurations():
    """Yield ``(name, solve_fn)`` pairs for every available configuration.

    Each ``solve_fn(model)`` returns a :class:`MILPResult`.
    """
    def pure(arrays, lp_engine="revised"):
        solver = BranchBoundSolver(BranchBoundOptions(rel_gap=_GAP,
                                                      arrays=arrays,
                                                      lp_engine=lp_engine))
        return solver.solve

    # The legacy tableau goes first: it is the differential oracle every
    # revised-simplex configuration must agree with.
    yield "pure-tableau", pure("dense", lp_engine="tableau")
    yield "pure-dense", pure("dense")
    yield "pure-sparse", pure("sparse")
    # Force the Markowitz sparse LU even on bases the auto heuristic
    # would hand to the dense LAPACK factor — fuzz instances are small,
    # so without the override this engine would never be exercised.
    yield "pure-sparse-lu", pure("sparse", lp_engine="sparse-lu")

    def pure_decomposed(model):
        return solve_decomposed(
            decompose(model), BranchBoundSolver(BranchBoundOptions(
                rel_gap=_GAP)), SolveOptions())
    yield "pure-decomposed", pure_decomposed

    if scipy_available():
        def scipy_solver(use_sparse):
            solver = ScipyMILPSolver(rel_gap=_GAP, use_sparse=use_sparse)
            return solver.solve
        yield "scipy-dense", scipy_solver(False)
        yield "scipy-sparse", scipy_solver(True)

        def scipy_decomposed(model):
            return solve_decomposed(
                decompose(model), ScipyMILPSolver(rel_gap=_GAP),
                SolveOptions())
        yield "scipy-decomposed", scipy_decomposed


def check_instance(spec: FuzzInstance) -> dict:
    """Run one instance through every configuration and both oracles.

    Returns a summary dict (``{"trivial": True}`` when every job was
    culled); raises :class:`DifferentialFailure` on any disagreement or
    oracle violation.
    """
    state, exprs, compiled = build_instance(spec)
    if compiled is None:
        return {"trivial": True}
    objectives: dict[str, float] = {}
    reference: float | None = None
    for name, solve_fn in _configurations():
        result = solve_fn(compiled.model)
        if not result.status.has_solution:
            raise DifferentialFailure(
                f"{name}: status {result.status.value} on an instance "
                f"where the empty schedule is feasible")
        cert = check_certificate(compiled.model, result)
        if not cert.ok:
            raise DifferentialFailure(
                f"{name}: certificate rejected — "
                + "; ".join(str(v) for v in cert.violations))
        report = audit_cycle(state, compiled, result, exprs,
                             quantum_s=spec.quantum_s)
        if not report.ok:
            raise DifferentialFailure(
                f"{name}: audit rejected — "
                + "; ".join(str(v) for v in report.violations))
        objectives[name] = result.objective
        scale = max(1.0, abs(reference)) if reference is not None else 1.0
        if reference is None:
            reference = result.objective
        elif abs(result.objective - reference) > AGREEMENT_TOL * scale:
            raise DifferentialFailure(
                f"{name} objective {result.objective!r} disagrees with "
                f"pure-tableau oracle {reference!r} "
                f"(all so far: {objectives})")
    return {"trivial": False, "jobs": len(exprs),
            "variables": compiled.model.num_variables,
            "objectives": objectives}


def run_fuzz(seed: int = 0, iterations: int = 25,
             seed_file: str | Path = "fuzz-failure.json",
             time_budget: float | None = None) -> int:
    """Differential-fuzz ``iterations`` generated instances.

    Returns 0 when every instance passes, 1 on failure (after hypothesis
    has shrunk the instance and the minimal spec was written to
    ``seed_file`` for replay).  ``time_budget`` (seconds) makes remaining
    draws pass trivially once exceeded, bounding CI wall-clock without a
    flaky hard kill.
    """
    from hypothesis import HealthCheck, Phase, given
    from hypothesis import seed as hyp_seed
    from hypothesis import settings
    from hypothesis import strategies as st  # noqa: F401  (re-export site)

    from repro.verify.strategies import fuzz_instances

    started = time.monotonic()
    last: dict[str, FuzzInstance] = {}
    stats = {"checked": 0, "trivial": 0, "skipped": 0}

    @hyp_seed(seed)
    @settings(max_examples=iterations, database=None, deadline=None,
              suppress_health_check=list(HealthCheck),
              phases=(Phase.generate, Phase.shrink))
    @given(spec=fuzz_instances())
    def property_(spec: FuzzInstance) -> None:
        if time_budget is not None and (
                time.monotonic() - started > time_budget):
            stats["skipped"] += 1
            return
        # Record before checking: after a failure hypothesis re-runs the
        # *shrunk* minimal example last, so this holds the best repro.
        last["spec"] = spec
        summary = check_instance(spec)
        stats["checked"] += 1
        if summary["trivial"]:
            stats["trivial"] += 1

    try:
        property_()
    except Exception as exc:  # noqa: BLE001 - report any failure mode
        spec = last.get("spec")
        if spec is not None:
            Path(seed_file).write_text(spec.to_json() + "\n")
            where = f"; minimal instance written to {seed_file}"
        else:
            where = ""
        print(f"FUZZ FAILURE (seed={seed}): {exc}{where}")
        return 1
    print(f"fuzz ok: seed={seed} instances={stats['checked']} "
          f"(trivial={stats['trivial']}, "
          f"skipped-for-budget={stats['skipped']})")
    return 0


def replay_file(path: str | Path) -> int:
    """Re-run one dumped instance (no hypothesis needed). 0 on pass."""
    spec = FuzzInstance.load(path)
    try:
        summary = check_instance(spec)
    except DifferentialFailure as exc:
        print(f"REPLAY FAILURE: {exc}")
        return 1
    print(f"replay ok: {summary}")
    return 0


__all__ = ["AGREEMENT_TOL", "DifferentialFailure", "check_instance",
           "replay_file", "run_fuzz"]
