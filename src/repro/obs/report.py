"""Text rendering of profiles and registry snapshots.

Keeps its own tiny table formatter (instead of reusing
``repro.experiments.report``) so the obs package stays dependency-free at
the bottom of the import graph — the scheduler and solver import obs, and
the experiments layer imports them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.obs.profile import RunProfile


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        if abs(value) >= 1000 or value == int(value):
            return f"{value:.0f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = lambda cells: " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    sep = "-+-".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


#: Counters surfaced in the headline block, in display order.
_HEADLINE_COUNTERS = (
    ("cycles", "scheduling cycles"),
    ("solver.solves", "MILP solves"),
    ("solver.bnb.nodes", "B&B nodes explored"),
    ("solver.bnb.pruned", "B&B nodes pruned"),
    ("solver.bnb.incumbents", "incumbent improvements"),
    ("solver.lp.iterations", "simplex/LP iterations"),
    ("solver.lp.dual_pivots", "dual-simplex pivots"),
    ("solver.lp.refactorizations", "basis refactorizations"),
    ("solver.lp.warm_restarts", "LP warm restarts"),
    ("solver.lp.warm_hits", "LP warm-restart hits"),
    ("solver.lp.factorizations", "basis factorizations (total)"),
    ("solver.lp.ft_updates", "Forrest-Tomlin updates"),
    ("solver.lp.pricing_candidates", "pricing candidates examined"),
    ("solver.lp.fill_ratio", "worst factor fill ratio"),
    ("solver.presolve.rows_dropped", "presolve rows dropped"),
    ("solver.presolve.bounds_tightened", "presolve bounds tightened"),
    ("scheduler.launched", "jobs launched"),
    ("scheduler.culled", "jobs culled"),
    ("scheduler.cancelled", "jobs cancelled"),
    ("scheduler.warm_start.attempts", "warm-start attempts"),
    ("scheduler.warm_start.hits", "warm-start hits"),
)

#: Counters a line of their own reports (kept out of "Other counters").
_DERIVED_COUNTERS = ("scheduler.solve_cycles", "scheduler.direct_booked",
                     "scheduler.model.compiled", "scheduler.model.assembled",
                     "scheduler.leaf_table.packed")
_ARRIVAL = "scheduler.arrival_cycle."  # one counter per outcome


def render_profile(profile: RunProfile, title: str = "Run profile") -> str:
    """Human-readable summary: headline counters, phases, other counters."""
    blocks = [title, "=" * len(title)]

    rows = [[label, profile.counter(name)]
            for name, label in _HEADLINE_COUNTERS
            if name in profile.counters]
    hit_rate = profile.warm_start_hit_rate
    if not math.isnan(hit_rate):
        rows.append(["warm-start hit rate (%)", 100.0 * hit_rate])
    lp_hit_rate = profile.lp_warm_restart_hit_rate
    if not math.isnan(lp_hit_rate):
        rows.append(["LP warm-restart hit rate (%)", 100.0 * lp_hit_rate])
    if profile.counter("solver.solves"):
        rows.append(["B&B nodes per solve", profile.nodes_per_solve])
    if rows:
        blocks += ["", "Solver / scheduler work",
                   format_table(["counter", "value"], rows)]
    if "scheduler.solve_cycles" in profile.counters:
        blocks += ["", "directly booked "
                   f"{profile.counter('scheduler.direct_booked'):.0f} of "
                   f"{profile.counter('scheduler.solve_cycles'):.0f} cycles "
                   "(no solver invocation: every job got its best option)"]
    if "scheduler.model.compiled" in profile.counters:  # obs was on
        blocks += ["assembled "
                   f"{profile.counter('scheduler.model.assembled'):.0f} of "
                   f"{profile.counter('scheduler.model.compiled'):.0f} cycle "
                   "MILPs (the others were compiled and read by nobody)",
                   "packed "
                   f"{profile.counter('scheduler.leaf_table.packed'):.0f} of "
                   f"{profile.counter('scheduler.model.compiled'):.0f} leaf "
                   "tables (the others were read from the fragments' buffers "
                   "alone)"]
    arrivals = sorted(n for n in profile.counters if n.startswith(_ARRIVAL))
    if arrivals:
        blocks += ["arrival cycles (off-period, solver-free): " + ", ".join(
            f"{n[len(_ARRIVAL):]} {profile.counter(n):.0f}" for n in arrivals)]

    # Basis-factorization / pricing economics of the revised simplex:
    # how far each factorization is stretched by Forrest-Tomlin updates,
    # how much it filled in, and how selective partial pricing was.
    facts = profile.counter("solver.lp.factorizations")
    if facts:
        ft = profile.counter("solver.lp.ft_updates")
        iters = profile.counter("solver.lp.iterations")
        cands = profile.counter("solver.lp.pricing_candidates")
        frows = [
            ["basis factorizations", facts],
            ["Forrest-Tomlin updates", ft],
            ["FT updates per factorization", ft / facts],
            ["worst fill ratio (nnz factor / nnz basis)",
             profile.counter("solver.lp.fill_ratio")],
            ["pricing candidates examined", cands],
        ]
        if iters:
            frows.append(["candidates per simplex iteration", cands / iters])
        blocks += ["", "Basis factorization / pricing",
                   format_table(["metric", "value"], frows)]

    if profile.timers:
        timer_rows = []
        for path in sorted(profile.timers):
            stat = profile.timers[path]
            timer_rows.append([
                path, stat["count"], 1000.0 * stat["total_s"],
                1000.0 * stat["mean_s"], 1000.0 * stat["max_s"]])
        blocks += ["", "Phase timings",
                   format_table(["span", "count", "total ms", "mean ms",
                                 "max ms"], timer_rows)]

    shown = {name for name, _ in _HEADLINE_COUNTERS} | set(_DERIVED_COUNTERS)
    other = sorted(set(profile.counters) - shown - set(arrivals))
    if other:
        blocks += ["", "Other counters",
                   format_table(["counter", "value"],
                                [[n, profile.counters[n]] for n in other])]
    return "\n".join(blocks)


def render_snapshot(snapshot: dict, title: str = "Registry snapshot") -> str:
    """Render a raw :meth:`Registry.snapshot` dict (debug helper)."""
    profile = RunProfile(counters=dict(snapshot.get("counters", {})),
                         timers={k: dict(v)
                                 for k, v in snapshot.get("timers", {}).items()})
    return render_profile(profile, title=title)
