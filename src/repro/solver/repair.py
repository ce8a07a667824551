"""Relaxation-repair MILP backend with an audited optimality gap.

The exact branch-and-bound path proves optimality but pays for it in
nodes; on the plan-ahead scheduling MILPs the LP relaxation is already
nearly integral (CvxCluster reports 100-1000x speedups from solving the
relaxation and repairing fractional allocations on the same problem
shape).  :class:`RepairSolver` takes that bet, with a certificate instead
of a hope:

1. **Root LP** — the relaxation is solved by lazy start-time column
   generation (:mod:`repro.solver.colgen`) when the compiler provided
   column groups, or a plain cold solve otherwise.  Either way the
   objective is a true full-relaxation bound.
2. **Dive repair** — one integer variable is fixed per round: the most
   fractional variable is rounded to its nearest integer and the LP
   re-solves with a dual-simplex warm restart (fixing is bound
   *tightening*, so the inherited basis stays dual-feasible).  An
   infeasible rounding flips to the other side, then falls through to
   the next-most-fractional candidates; only when no candidate rounds
   feasibly does the dive abort and escalate to exact branch and bound.
3. **Audited gap** — the incumbent is re-checked with
   ``model.check_feasible`` and reported with ``bound`` set to the root
   LP bound and ``stats["repair_bound_source"] = "lp"``, which is what
   lets :func:`repro.verify.certificate.certify_gap` recompute the bound
   with an independent engine and certify the claimed gap.
4. **Escalation** — in ``auto`` mode a gap above the configured threshold
   re-solves with the wrapped exact backend *under the caller's original
   options* (same warm start, no repair-derived seeding), so an escalated
   solve reproduces the exact path's objective bit for bit.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.solver.colgen import ColgenRoot, colgen_root
from repro.solver.model import Model
from repro.solver.options import SolveOptions
from repro.solver.result import MILPResult, SolveStatus

_INT_TOL = 1e-6
#: Fractional variables tried per dive round before the dive gives up and
#: escalates; bounds the worst-case LP re-solves at 2x this per round.
_DIVE_CANDIDATES = 8


class RepairSolver:
    """Wrap an exact MILP backend with the relaxation-repair fast path.

    Parameters
    ----------
    exact:
        The escalation target (typically a
        :class:`~repro.solver.branch_bound.BranchBoundSolver` configured
        exactly like the ``solve_mode="exact"`` backend would be).
    mode:
        ``"repair"`` (never escalate on gap; still escalates when the dive
        cannot find a feasible integral point) or ``"auto"`` (escalate when
        the audited gap exceeds ``gap_threshold``).
    gap_threshold:
        Relative audited-gap ceiling for ``auto`` escalation.  The
        condition is strictly ``gap > gap_threshold``, so a negative
        threshold forces escalation deterministically (used by the fuzz
        harness and tests to exercise the exact-reproduction contract).
    rel_gap:
        Gap at or below which the repaired incumbent is reported OPTIMAL.
    seed_per_job:
        Start-time columns seeded per job before pricing begins.
    """

    def __init__(self, exact, mode: str = "repair",
                 gap_threshold: float = 0.05, rel_gap: float = 1e-6,
                 time_limit: float | None = None,
                 seed_per_job: int = 2) -> None:
        self.exact = exact
        self.mode = mode
        self.gap_threshold = gap_threshold
        self.rel_gap = rel_gap
        #: Exposed for :func:`repro.solver.backend.backend_time_limit`.
        self.time_limit = time_limit
        self.seed_per_job = seed_per_job
        #: The warm start only ever reaches the escalation target.
        self.consumes_warm_start = getattr(exact, "consumes_warm_start", True)

    def solve(self, model: Model,
              options: SolveOptions | None = None) -> MILPResult:
        t0 = time.monotonic()
        get = options.get if options is not None else \
            (lambda name, default=None: default)
        groups = get("column_groups") or ()
        mode = get("solve_mode", self.mode) or self.mode
        if mode == "exact":  # explicit per-call opt-out
            return self.exact.solve(model, options=options)
        threshold = get("repair_gap_threshold", self.gap_threshold)
        rel_gap = get("rel_gap", self.rel_gap)

        sa = model.to_standard_arrays()
        int_idx = np.nonzero(sa.integrality)[0]
        root = colgen_root(sa, groups, seed_per_job=self.seed_per_job)
        stats = dict(root.stats)
        stats["repair_escalations"] = 0
        res = root.result
        if res.status is SolveStatus.INFEASIBLE:
            return MILPResult(SolveStatus.INFEASIBLE, None, math.nan,
                              solve_time=time.monotonic() - t0, stats=stats)
        if res.status is not SolveStatus.OPTIMAL:
            # Unbounded relaxation or iteration trouble: let the exact
            # path deal with it rather than report an uncertified answer.
            return self._escalate(model, options, stats, t0)
        lp_min = res.objective
        bound_model = sa.obj_sign * lp_min + sa.obj_constant

        x = self._dive(root, sa, int_idx)
        if x is None or not model.check_feasible(x):
            return self._escalate(model, options, stats, t0)
        obj_min = float(sa.c @ x)
        obj_model = sa.obj_sign * obj_min + sa.obj_constant
        # Minimization orientation: obj_min >= lp_min by LP optimality.
        gap = abs(obj_min - lp_min) / max(1.0, abs(obj_min))
        if mode == "auto" and gap > threshold:
            return self._escalate(model, options, stats, t0,
                                  pre_escalation_gap=gap)
        stats["repair_gap"] = gap
        stats["repair_bound_source"] = "lp"
        stats["lp_iterations"] = root.lp_iterations + int(
            root.stats.get("dive_lp_iterations", 0))
        for key in ("pivots", "dual_pivots", "refactorizations",
                    "warm_restarts", "warm_hits", "cold_fallbacks",
                    "factorizations", "ft_updates", "pricing_candidates"):
            stats[f"lp_{key}"] = root.engine.counters[key]
        stats["lp_fill_ratio"] = root.engine.fill_ratio
        solve_time = time.monotonic() - t0
        status = SolveStatus.OPTIMAL if gap <= rel_gap \
            else SolveStatus.FEASIBLE
        obs.emit("solver.solve", status=status.value, objective=obj_model,
                 gap=gap, nodes=0, time_ms=1000.0 * solve_time)
        return MILPResult(status=status, x=x, objective=obj_model,
                          bound=bound_model, gap=gap, nodes=0,
                          solve_time=solve_time, stats=stats)

    # -- internals -----------------------------------------------------------
    def _dive(self, root: ColgenRoot, sa,
              int_idx: np.ndarray) -> np.ndarray | None:
        """LP-guided dive to an integral point; ``None`` when stuck.

        Inactive colgen columns stay pinned at their lower bounds
        (``root.ub_work``): any point with them at zero is feasible for
        the full model, so pinning cannot manufacture infeasibility —
        it only limits which alternatives the repair may use.
        """
        engine = root.engine
        lb, ub = root.lb.copy(), root.ub_work.copy()
        res = root.result
        x, basis = res.x, res.basis
        dive_iters = 0
        for _ in range(int_idx.size + 1):
            frac = np.abs(x[int_idx] - np.round(x[int_idx]))
            fractional = np.nonzero(frac > _INT_TOL)[0]
            if fractional.size == 0:
                out = np.asarray(x, dtype=float).copy()
                out[int_idx] = np.round(out[int_idx])
                root.stats["dive_lp_iterations"] = dive_iters
                return out
            # Fix exactly one variable per round — only ever the dived
            # one.  Blanket-fixing every already-integral integer looks
            # safe (the LP point witnesses joint feasibility) but under
            # contention it corners later roundings into infeasibility;
            # fixing one variable at a time keeps the rest of the LP free
            # to re-arrange around each decision.  Most-fractional first,
            # falling back to the next candidates when both roundings of
            # the first are infeasible against the fixes made so far.
            order = fractional[np.argsort(-frac[fractional])]
            accepted = None
            for cand in order[:_DIVE_CANDIDATES]:
                j = int(int_idx[cand])
                v = float(x[j])
                nearest = float(np.round(v))
                other = math.floor(v) if nearest > v else math.ceil(v)
                # Look-ahead: solve *both* roundings and keep the one the
                # LP objective prefers.  Nearest-only diving is cheaper
                # but under contention it greedily locks in fractional
                # winners and the incumbent pays for it in gap.
                for target in (nearest, float(other)):
                    if target < lb[j] - _INT_TOL or target > ub[j] + _INT_TOL:
                        continue
                    trial_lb, trial_ub = lb.copy(), ub.copy()
                    trial_lb[j] = trial_ub[j] = target
                    r = engine.solve(trial_lb, trial_ub, start=basis)
                    dive_iters += r.iterations
                    if r.status is SolveStatus.OPTIMAL and (
                            accepted is None
                            or r.objective < accepted[0].objective):
                        accepted = (r, trial_lb, trial_ub)
                if accepted is not None:
                    break
            if accepted is None:
                root.stats["dive_lp_iterations"] = dive_iters
                return None
            r, lb, ub = accepted
            x, basis = r.x, r.basis
        root.stats["dive_lp_iterations"] = dive_iters
        return None

    def _escalate(self, model: Model, options: SolveOptions | None,
                  stats: dict, t0: float,
                  pre_escalation_gap: float | None = None) -> MILPResult:
        """Hand the solve to the exact backend under the original options.

        The repair incumbent is deliberately *not* seeded into the exact
        search: an escalated solve must reproduce the exact path's result
        bit for bit, and an extra incumbent changes pruning order.
        """
        obs.count("solver.repair.escalations")
        result = self.exact.solve(model, options=options)
        merged = dict(result.stats)
        for key, value in stats.items():
            merged[key] = merged.get(key, 0) + value \
                if isinstance(value, (int, float)) else value
        merged["repair_escalations"] = \
            int(stats.get("repair_escalations", 0)) + 1
        if pre_escalation_gap is not None:
            merged["repair_pre_escalation_gap"] = pre_escalation_gap
        result.stats = merged
        result.solve_time = time.monotonic() - t0
        return result


__all__ = ["RepairSolver"]
