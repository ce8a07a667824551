"""Per-table / per-figure reproduction drivers.

Every table and figure in the paper's evaluation (Sec. 6-7) has one function
here that regenerates it at laptop scale and renders the same rows/series
the paper reports.  The benchmark harness (``benchmarks/``) calls these and
asserts the paper's qualitative *shapes* (who wins, where crossovers fall);
EXPERIMENTS.md records paper-vs-measured values.

All drivers accept a ``scale`` knob:

* ``"bench"`` (default) — small but contended; seconds per figure;
* ``"full"`` — larger clusters/workloads and multiple seeds; minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.variants import TABLE2_CONFIGS
from repro.experiments.ascii_chart import chart_sweep_metric
from repro.experiments.report import (format_sweep, format_table,
                                      solver_work_table)
from repro.experiments.runner import (RC80_SCALED, RC256_SCALED, RunSpec,
                                      run_experiment)
from repro.experiments.sweeps import (SweepResult, estimate_error_sweep,
                                      plan_ahead_sweep)
from repro.workloads.compositions import TABLE1, GR_MIX, GR_SLO, GS_HET, GS_MIX


@dataclass
class FigureResult:
    """A reproduced table/figure: data plus its rendered text."""

    figure_id: str
    text: str
    sweep: SweepResult | None = None
    extras: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def _with_chart(text: str, sweep: SweepResult, metric: str,
                chart_title: str) -> str:
    """Append an ASCII chart of the headline metric to a figure's tables."""
    return text + "\n\n" + chart_sweep_metric(sweep, metric, chart_title)


def _base(scale: str, composition, cluster) -> tuple[RunSpec, list[int]]:
    if scale == "full":
        spec = RunSpec(scheduler="TetriSched", composition=composition,
                       cluster=cluster, num_jobs=96,
                       target_utilization=1.3, backend="auto")
        seeds = [0, 1, 2]
    else:
        spec = RunSpec(scheduler="TetriSched", composition=composition,
                       cluster=cluster, num_jobs=48,
                       target_utilization=1.3, backend="auto")
        seeds = [0]
    return spec, seeds


# -- Tables ------------------------------------------------------------------

def table1() -> FigureResult:
    """Table 1: workload compositions used in the results section."""
    headers = ["Workload", "SLO", "BE", "Unconstrained", "GPU", "MPI"]
    rows = [[c.table_row()[h] for h in headers] for c in TABLE1]
    text = "Table 1: workload compositions (%)\n" + format_table(headers, rows)
    return FigureResult("table1", text)


def table2() -> FigureResult:
    """Table 2: TetriSched configurations with individual features disabled."""
    headers = ["Configuration", "heterogeneity", "global", "plan-ahead"]
    rows = []
    for name, factory in TABLE2_CONFIGS.items():
        cfg = factory()
        rows.append([name,
                     "on" if cfg.heterogeneity_aware else "off",
                     "on" if cfg.global_scheduling else "off",
                     "on" if cfg.plan_ahead_s > 0 else "off"])
    text = "Table 2: TetriSched feature ablations\n" + format_table(headers,
                                                                    rows)
    return FigureResult("table2", text)


# -- Estimate-error figures ---------------------------------------------------

_FIG6_METRICS = ("slo_total_pct", "slo_accepted_pct",
                 "slo_no_reservation_pct", "mean_be_latency_s")


def fig6(scale: str = "bench") -> FigureResult:
    """Fig. 6: GR MIX on RC256 — attainment + BE latency vs estimate error."""
    spec, seeds = _base(scale, GR_MIX, RC256_SCALED)
    sweep = estimate_error_sweep(spec, ["Rayon/CS", "TetriSched"],
                                 [-50, -20, 0, 20, 50, 100], seeds)
    text = format_sweep(sweep, _FIG6_METRICS,
                        "Figure 6: Rayon/TetriSched vs Rayon/CS "
                        "(GR MIX, scaled RC256)")
    text = _with_chart(text, sweep, "slo_total_pct", "Fig 6(a) shape: total SLO attainment (%)")
    return FigureResult("fig6", text, sweep)


def fig7(scale: str = "bench") -> FigureResult:
    """Fig. 7: GR SLO (SLO-only) on RC256 — attainment vs estimate error."""
    spec, seeds = _base(scale, GR_SLO, RC256_SCALED)
    sweep = estimate_error_sweep(spec, ["Rayon/CS", "TetriSched"],
                                 [-20, -10, 0, 10, 20], seeds)
    text = format_sweep(
        sweep, ("slo_total_pct", "slo_accepted_pct",
                "slo_no_reservation_pct"),
        "Figure 7: production-derived SLO-only workload (GR SLO, scaled RC256)")
    text = _with_chart(text, sweep, "slo_total_pct", "Fig 7(a) shape: total SLO attainment (%)")
    return FigureResult("fig7", text, sweep)


def fig8(scale: str = "bench") -> FigureResult:
    """Fig. 8: GS MIX on RC80 — attainment + latency vs estimate error."""
    spec, seeds = _base(scale, GS_MIX, RC80_SCALED)
    sweep = estimate_error_sweep(spec, ["Rayon/CS", "TetriSched"],
                                 [-50, -20, 0, 20, 50, 100], seeds)
    text = format_sweep(
        sweep, ("slo_total_pct", "slo_accepted_pct", "mean_be_latency_s"),
        "Figure 8: synthetic unconstrained SLO+BE mix (GS MIX, scaled RC80)")
    text = _with_chart(text, sweep, "slo_total_pct", "Fig 8(a) shape: total SLO attainment (%)")
    return FigureResult("fig8", text, sweep)


def fig9(scale: str = "bench") -> FigureResult:
    """Fig. 9: soft-constraint ablation (TetriSched vs -NH vs Rayon/CS)."""
    spec, seeds = _base(scale, GS_HET, RC80_SCALED)
    sweep = estimate_error_sweep(
        spec, ["Rayon/CS", "TetriSched", "TetriSched-NH"],
        [-50, -20, 0, 20, 50], seeds)
    text = format_sweep(sweep, _FIG6_METRICS,
                        "Figure 9: benefit of soft constraint awareness "
                        "(GS HET, scaled RC80)")
    text = _with_chart(text, sweep, "slo_total_pct", "Fig 9(a) shape: total SLO attainment (%)")
    return FigureResult("fig9", text, sweep)


def fig10(scale: str = "bench") -> FigureResult:
    """Fig. 10: global-scheduling ablation (TetriSched vs -NG vs Rayon/CS)."""
    spec, seeds = _base(scale, GS_HET, RC80_SCALED)
    sweep = estimate_error_sweep(
        spec, ["Rayon/CS", "TetriSched", "TetriSched-NG"],
        [-50, -20, 0, 20, 50], seeds)
    text = format_sweep(sweep, _FIG6_METRICS,
                        "Figure 10: benefit of global scheduling "
                        "(GS HET, scaled RC80)")
    text = _with_chart(text, sweep, "slo_total_pct", "Fig 10(a) shape: total SLO attainment (%)")
    return FigureResult("fig10", text, sweep)


# -- Plan-ahead figures -----------------------------------------------------------

PLAN_AHEADS_S = [0, 44, 96, 120, 144]


def fig11(scale: str = "bench") -> FigureResult:
    """Fig. 11: SLO attainment / latency vs plan-ahead window (0 == -NP)."""
    spec, seeds = _base(scale, GS_HET, RC80_SCALED)
    sweep = plan_ahead_sweep(spec, ["Rayon/CS", "TetriSched", "TetriSched-NG"],
                             PLAN_AHEADS_S, seeds)
    text = format_sweep(sweep, _FIG6_METRICS,
                        "Figure 11: benefit of plan-ahead "
                        "(GS HET, scaled RC80; plan-ahead 0 emulates "
                        "TetriSched-NP / alsched)")
    text = _with_chart(text, sweep, "slo_total_pct", "Fig 11(a) shape: total SLO attainment (%)")
    return FigureResult("fig11", text, sweep)


def fig12(scale: str = "bench") -> FigureResult:
    """Fig. 12: scalability — solver/cycle latency vs plan-ahead + CDFs."""
    spec, seeds = _base(scale, GS_HET, RC80_SCALED)
    schedulers = ["TetriSched", "TetriSched-NG"]
    sweep = plan_ahead_sweep(spec, schedulers, PLAN_AHEADS_S, seeds)

    # Extract solver/cycle latency series from the raw runs.
    solver_rows, cycle_rows = [], []
    cdfs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for sched in schedulers:
        solver_row, cycle_row = [sched], [sched]
        for pa in PLAN_AHEADS_S:
            runs = sweep.raw[(sched, pa)]
            solver = [s for r in runs for s in r.latency.solver_latencies_s]
            cycle = [c for r in runs for c in r.latency.cycle_latencies_s]
            solver_row.append(1000 * float(np.mean(solver)) if solver else 0.0)
            cycle_row.append(1000 * float(np.mean(cycle)) if cycle else 0.0)
        solver_rows.append(solver_row)
        cycle_rows.append(cycle_row)
        # CDF at the largest plan-ahead (Fig. 12(c)).
        runs = sweep.raw[(sched, PLAN_AHEADS_S[-1])]
        all_cycle = np.sort(np.concatenate(
            [np.asarray(r.latency.cycle_latencies_s) for r in runs]))
        fracs = (np.arange(1, all_cycle.size + 1) / all_cycle.size
                 if all_cycle.size else np.array([]))
        cdfs[sched] = (all_cycle, fracs)

    headers = ["Plan-ahead(s)"] + [str(p) for p in PLAN_AHEADS_S]
    blocks = [
        "Figure 12(a): mean solver latency (ms)",
        format_table(headers, solver_rows),
        "",
        "Figure 12(b): mean cycle latency (ms)",
        format_table(headers, cycle_rows),
        "",
        f"Figure 12(c): cycle-latency CDF at plan-ahead={PLAN_AHEADS_S[-1]}s "
        "(p50/p90/p99, ms)",
    ]
    cdf_rows = []
    for sched, (xs, _) in cdfs.items():
        if xs.size:
            cdf_rows.append([sched] + [1000 * float(np.percentile(xs, q))
                                       for q in (50, 90, 99)])
        else:
            cdf_rows.append([sched, 0.0, 0.0, 0.0])
    blocks.append(format_table(["Scheduler", "p50", "p90", "p99"], cdf_rows))

    # (d): solver *work* from the per-run profiles — machine-independent
    # counters explaining the latency curves above (repro.obs).
    blocks += [
        "",
        "Figure 12(d): solver work — MILP variables per cycle",
        solver_work_table(sweep, PLAN_AHEADS_S, "solver.milp_variables"),
        "",
        "Figure 12(e): solver work — B&B nodes per solve",
        solver_work_table(sweep, PLAN_AHEADS_S, "solver.bnb.nodes",
                          per="solver.solves"),
        "",
        "Figure 12(f): independent MILP components per cycle "
        "(decomposed solve; repro extension)",
        solver_work_table(sweep, PLAN_AHEADS_S, "scheduler.components"),
    ]
    text = "\n".join(blocks)
    return FigureResult("fig12", text, sweep, extras={"cdfs": cdfs})


#: Every reproduced experiment, by id.
ALL_FIGURES = {
    "table1": table1,
    "table2": table2,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
}
