"""Fig. 12: scalability — solver/cycle latency vs plan-ahead, and CDFs.

Paper shapes asserted:

* the global policy's cycle latency grows with the plan-ahead window
  (larger MILPs) and the solver dominates it;
* the greedy policy (TetriSched-NG) has lower mean cycle latency than the
  global policy at large plan-ahead windows.
"""

import numpy as np
from conftest import save_and_print

from repro.experiments import fig12
from repro.experiments.figures import PLAN_AHEADS_S


def _mean_cycle_ms(sweep, sched, pa):
    runs = sweep.raw[(sched, pa)]
    xs = [c for r in runs for c in r.latency.cycle_latencies_s]
    return 1000 * float(np.mean(xs)) if xs else 0.0


def _counter_per(sweep, sched, pa, counter, per="cycles"):
    """Solver-work counter from the runs' obs profiles, normalized."""
    runs = sweep.raw[(sched, pa)]
    total = sum(r.profile.counter(counter) for r in runs)
    denom = sum(r.profile.counter(per) for r in runs)
    return total / denom if denom else 0.0


def test_fig12(benchmark, figure_cache):
    result = benchmark.pedantic(
        lambda: figure_cache("fig12", fig12), rounds=1, iterations=1)
    save_and_print("fig12", result.text)
    sweep = result.sweep

    # (a)/(b): global cycle latency grows with plan-ahead.
    global_first = _mean_cycle_ms(sweep, "TetriSched", PLAN_AHEADS_S[0])
    global_last = _mean_cycle_ms(sweep, "TetriSched", PLAN_AHEADS_S[-1])
    assert global_last > global_first, "latency should grow with plan-ahead"

    # Greedy stays cheaper than global at the largest window.
    greedy_last = _mean_cycle_ms(sweep, "TetriSched-NG", PLAN_AHEADS_S[-1])
    assert greedy_last < global_last

    # Solver *work* counters (repro.obs profiles) explain the latency
    # growth machine-independently: larger plan-ahead windows compile
    # strictly larger MILPs for the global policy.
    vars_first = _counter_per(sweep, "TetriSched", PLAN_AHEADS_S[0],
                              "solver.milp_variables")
    vars_last = _counter_per(sweep, "TetriSched", PLAN_AHEADS_S[-1],
                             "solver.milp_variables")
    assert vars_last > vars_first, "MILP size should grow with plan-ahead"

    # The greedy policy solves one (small) MILP per pending job, the global
    # policy at most one (large) MILP per cycle.
    greedy_solves = sum(
        r.profile.counter("solver.solves")
        for r in sweep.raw[("TetriSched-NG", PLAN_AHEADS_S[-1])])
    global_solves = sum(
        r.profile.counter("solver.solves")
        for r in sweep.raw[("TetriSched", PLAN_AHEADS_S[-1])])
    assert greedy_solves >= global_solves > 0

    # (c): CDFs exist and are monotone.
    cdfs = result.extras["cdfs"]
    for sched, (xs, fracs) in cdfs.items():
        assert xs.size > 0
        assert np.all(np.diff(xs) >= 0)
        assert fracs[-1] == 1.0
