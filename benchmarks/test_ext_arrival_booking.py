"""Extension benchmark: does placing on arrival cost SLOs at load?

The arrival cycle launches a job the moment the booking certificate holds
for the pending batch.  That is exact *for the jobs present*; the risk is the
one DRESS observes for reservations under congestion and Casanova et al.
trade when they leave batch scheduling: a best-effort job started 2 s early
can hold nodes that an SLO job arriving inside that window wanted.  This
bench measures it where it would show, with common random numbers: GR MIX on
the full RC256 (8x32), 800 jobs, runtimes under-estimated by half, at 1.0x
and 1.4x offered load, Poisson and bursty (CV = 3) arrivals.  Every seed's
generated job table runs through both arms — arrival cycles on, and the same
adapter with every off-period call swallowed (the periodic-only scheduler of
the paper) — and each cell reports the paired per-seed difference (on − off)
with its 95 % interval, for SLO attainment and best-effort latency.

A cell whose SLO interval lies wholly below zero fails the bench: it is to
be reported, not re-tuned away.
"""

from conftest import save_and_print

from repro.cluster import Cluster
from repro.core import TetriSchedConfig
from repro.experiments import format_table
from repro.experiments.stats import paired_compare
from repro.sim import Simulation, TetriSchedAdapter
from repro.sim.interface import CycleDecisions, Heartbeat
from repro.workloads import GR_MIX, GridmixConfig, generate_workload

#: (offered load, CV of the inter-arrival gaps)
CELLS = [(1.0, 1.0), (1.4, 1.0), (1.4, 3.0), (1.0, 3.0)]
SEEDS = [0, 1, 2, 3, 4]
JOBS = 800


class PeriodicOnly(TetriSchedAdapter):
    """The adapter as the paper's scheduler: it only acts on its timer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._timer = Heartbeat(self.cycle_s)

    def cycle(self, now):
        if self._timer.off_period(now):
            return CycleDecisions()
        return super().cycle(now)


def run_all():
    cluster = Cluster.build(racks=8, nodes_per_rack=32)
    out = {}
    for load, cv in CELLS:
        for seed in SEEDS:
            jobs = generate_workload(GR_MIX, cluster, GridmixConfig(
                num_jobs=JOBS, target_utilization=load, burstiness=cv,
                estimate_error=-0.5, seed=seed))
            for arm, adapter in (("on", TetriSchedAdapter),
                                 ("off", PeriodicOnly)):
                scheduler = adapter(cluster, TetriSchedConfig.partial(
                    quantum_s=4.0, cycle_s=4.0, plan_ahead_s=96.0,
                    rel_gap=0.02, backend="auto"))
                out[(load, cv, seed, arm)] = Simulation(
                    cluster, scheduler, jobs).run().metrics
    return out


def test_arrival_booking_at_load(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows, per_seed, failing = [], [], []
    for load, cv in CELLS:
        cell = f"{load:.1f}x " + ("Poisson" if cv == 1.0 else f"CV={cv:g}")
        series = {
            (metric, arm): [getattr(results[(load, cv, seed, arm)], metric)
                            for seed in SEEDS]
            for metric in ("slo_total_pct", "mean_be_latency_s")
            for arm in ("on", "off")}
        slo = paired_compare(series[("slo_total_pct", "on")],
                             series[("slo_total_pct", "off")])
        be = paired_compare(series[("mean_be_latency_s", "on")],
                            series[("mean_be_latency_s", "off")])
        worse = slo.mean_diff + slo.ci95_half_width < 0.0
        if worse:
            failing.append(cell)
        rows.append([cell,
                     f"{slo.mean_diff:+.2f} ± {slo.ci95_half_width:.2f}",
                     f"{be.mean_diff:+.2f} ± {be.ci95_half_width:.2f}",
                     "FAILS (SLO interval below zero)" if worse else "ok"])
        per_seed.append([cell] + [
            f"{off_slo:.2f}/{off_be:.1f} -> {on_slo:.2f}/{on_be:.1f}"
            for off_slo, off_be, on_slo, on_be in zip(
                series[("slo_total_pct", "off")],
                series[("mean_be_latency_s", "off")],
                series[("slo_total_pct", "on")],
                series[("mean_be_latency_s", "on")])])

    text = "\n".join([
        "Extension: place on arrival vs periodic-only, paired per seed "
        f"(GR MIX, RC256 8x32, {JOBS} jobs, estimate_error=-0.5, "
        f"seeds {SEEDS[0]}-{SEEDS[-1]}; on - off, mean ± 95 % interval)",
        format_table(["cell", "SLO attainment (points)", "BE latency (s)",
                      "verdict"], rows),
        "",
        "Per seed, periodic-only -> place on arrival (SLO % / BE latency s)",
        format_table(["cell"] + [f"seed {s}" for s in SEEDS], per_seed)])
    save_and_print("ext_arrival_booking", text)

    assert not failing, f"placing on arrival costs SLOs at: {failing}"
    # The point of it: best-effort jobs stop waiting for the timer.
    lower = sum(results[(load, cv, seed, "on")].mean_be_latency_s
                < results[(load, cv, seed, "off")].mean_be_latency_s
                for load, cv in CELLS for seed in SEEDS)
    assert lower >= 0.75 * len(CELLS) * len(SEEDS)
