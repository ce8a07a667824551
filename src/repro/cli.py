"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Regenerate paper tables/figures (all or a subset) into ``results/``.
``run``
    Run one experiment (scheduler x workload x parameters) and print the
    paper's four metrics; optionally dump an execution trace.
``workload``
    Generate a workload and save it as JSON for auditing or replay.
``solve``
    Parse an STRL expression file, compile it against a synthetic cluster
    (Algorithm 1), solve the MILP, and print the chosen placements.
``profile``
    Run one experiment with the observability layer (:mod:`repro.obs`)
    enabled: emits the structured JSONL event stream and prints a summary
    table of per-phase cycle timings, solver work counters (B&B nodes, LP
    iterations, presolve reductions) and the warm-start hit rate.
``serve``
    Run the long-lived asyncio scheduler service (:mod:`repro.service`)
    with its HTTP/JSON API: clients submit/cancel jobs and post cluster
    events while a timer drives scheduling cycles; ``POST /drain``
    stops it gracefully.  ``--smoke`` runs a self-contained end-to-end
    check over real sockets instead (used by CI).
``fuzz``
    Differential fuzzing: generate seeded random cluster/workload
    instances, solve each under every solver configuration (pure dense /
    sparse / decomposed, plus the scipy mirrors when available), and
    assert the :mod:`repro.verify` oracles accept every
    result and all objectives agree.  Failures shrink to a JSON seed
    file replayable with ``--replay``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core.compiler import StrlCompiler
from repro.errors import ReproError
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import (SCHEDULER_NAMES, ClusterSpec, RunSpec,
                                      run_experiment)
from repro.sim.trace import ExecutionTrace
from repro.solver.backend import make_backend
from repro.strl.parser import parse as parse_strl
from repro.workloads.compositions import COMPOSITIONS
from repro.workloads.gridmix import GridmixConfig, generate_workload
from repro.workloads.serialization import save_workload_file


def _cluster_spec(text: str) -> ClusterSpec:
    """Parse ``racks x nodes[, gpu_racks]`` e.g. ``8x8`` or ``4x8:2``."""
    gpu = 0
    if ":" in text:
        text, gpu_text = text.split(":", 1)
        gpu = int(gpu_text)
    try:
        racks, per = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RACKSxNODES[:GPU_RACKS], got {text!r}") from None
    return ClusterSpec(racks=racks, nodes_per_rack=per, gpu_racks=gpu)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TetriSched (EuroSys'16) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate paper tables/figures")
    p_fig.add_argument("ids", nargs="*", default=[],
                       help=f"subset of {sorted(ALL_FIGURES)} (default all)")
    p_fig.add_argument("--full", action="store_true",
                       help="larger workloads + seed averaging")
    p_fig.add_argument("--out", default="results", help="output directory")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--scheduler", default="TetriSched",
                       choices=SCHEDULER_NAMES)
    p_run.add_argument("--workload", default="GR MIX",
                       choices=sorted(COMPOSITIONS))
    p_run.add_argument("--cluster", type=_cluster_spec, default="8x8",
                       help="RACKSxNODES[:GPU_RACKS], e.g. 4x8:2")
    p_run.add_argument("--jobs", type=int, default=48)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--error", type=float, default=0.0,
                       help="estimate error fraction, e.g. -0.5")
    p_run.add_argument("--util", type=float, default=1.3,
                       help="target offered load (fraction of capacity)")
    p_run.add_argument("--plan-ahead", type=float, default=96.0)
    p_run.add_argument("--quantum", type=float, default=10.0)
    p_run.add_argument("--backend", default="auto")
    p_run.add_argument("--trace", default=None,
                       help="write a JSONL execution trace here")

    p_wl = sub.add_parser("workload", help="generate + save a workload")
    p_wl.add_argument("--composition", default="GR MIX",
                      choices=sorted(COMPOSITIONS))
    p_wl.add_argument("--cluster", type=_cluster_spec, default="8x8")
    p_wl.add_argument("--jobs", type=int, default=48)
    p_wl.add_argument("--seed", type=int, default=0)
    p_wl.add_argument("--error", type=float, default=0.0)
    p_wl.add_argument("--util", type=float, default=1.3)
    p_wl.add_argument("--out", required=True, help="output JSON path")

    p_solve = sub.add_parser("solve", help="compile+solve one STRL file")
    p_solve.add_argument("file", help="path to an STRL s-expression file")
    p_solve.add_argument("--cluster", type=_cluster_spec, default="2x2:1")
    p_solve.add_argument("--quantum", type=float, default=10.0)
    p_solve.add_argument("--backend", default="auto")

    p_prof = sub.add_parser(
        "profile", help="run one experiment with observability enabled")
    p_prof.add_argument("--scheduler", default="TetriSched",
                        choices=SCHEDULER_NAMES)
    p_prof.add_argument("--workload", default="GS HET",
                        choices=sorted(COMPOSITIONS))
    p_prof.add_argument("--cluster", type=_cluster_spec, default="2x4:1",
                        help="RACKSxNODES[:GPU_RACKS], e.g. 4x8:2")
    p_prof.add_argument("--jobs", type=int, default=12)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--util", type=float, default=1.3)
    p_prof.add_argument("--plan-ahead", type=float, default=60.0)
    p_prof.add_argument("--quantum", type=float, default=10.0)
    p_prof.add_argument("--backend", default="auto")
    p_prof.add_argument("--out", default="profile.jsonl",
                        help="JSONL event-stream output path")

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived scheduler service with the HTTP/JSON API")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--cluster", type=_cluster_spec, default="2x4:1",
                         help="RACKSxNODES[:GPU_RACKS], e.g. 4x8:2")
    p_serve.add_argument("--quantum", type=float, default=10.0)
    p_serve.add_argument("--plan-ahead", type=float, default=60.0)
    p_serve.add_argument("--cycle", type=float, default=None,
                         help="scheduling-cycle period in wall seconds "
                              "(default: one quantum)")
    p_serve.add_argument("--backend", default="auto")
    p_serve.add_argument("--stats", default=None,
                         help="write final drain stats JSON here")
    p_serve.add_argument("--smoke", action="store_true",
                         help="self-test: drive the running server over "
                              "HTTP (submit, cycle, cancel, drain) and "
                              "exit nonzero on any failure")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the five-way solver stack against the "
             "verification oracles")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="hypothesis seed (same seed, same instances)")
    p_fuzz.add_argument("--iterations", type=int, default=25,
                        help="number of generated instances")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        help="soft wall-clock cap in seconds; remaining "
                             "draws pass trivially once exceeded")
    p_fuzz.add_argument("--replay", default=None, metavar="SEED_FILE",
                        help="re-run one dumped instance instead of fuzzing "
                             "(does not require hypothesis)")
    p_fuzz.add_argument("--out", default="fuzz-failure.json",
                        help="where to write the shrunk failing instance")
    return parser


# -- command implementations ---------------------------------------------------

def _cmd_figures(args) -> int:
    ids = args.ids or list(ALL_FIGURES)
    unknown = [i for i in ids if i not in ALL_FIGURES]
    if unknown:
        print(f"unknown ids: {unknown}", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scale = "full" if args.full else "bench"
    for figure_id in ids:
        fn = ALL_FIGURES[figure_id]
        t0 = time.monotonic()
        result = fn(scale) if figure_id.startswith("fig") else fn()
        (out_dir / f"{figure_id}.txt").write_text(result.text + "\n")
        print(result.text)
        print(f"[{figure_id}: {time.monotonic() - t0:.1f}s]\n")
    return 0


def _cmd_run(args) -> int:
    spec = RunSpec(scheduler=args.scheduler,
                   composition=COMPOSITIONS[args.workload],
                   cluster=args.cluster, num_jobs=args.jobs, seed=args.seed,
                   estimate_error=args.error, target_utilization=args.util,
                   plan_ahead_s=args.plan_ahead, quantum_s=args.quantum,
                   cycle_s=args.quantum, backend=args.backend)
    if args.trace:
        # Re-run the pipeline by hand so we can attach a trace.
        from repro.experiments.runner import build_scheduler
        from repro.reservation.rayon import RayonReservationSystem
        from repro.sim.engine import Simulation
        cluster = spec.cluster.build()
        workload = generate_workload(spec.composition, cluster, GridmixConfig(
            num_jobs=spec.num_jobs, target_utilization=spec.target_utilization,
            estimate_error=spec.estimate_error, seed=spec.seed))
        rayon = RayonReservationSystem(len(cluster), step_s=spec.cycle_s)
        scheduler = build_scheduler(spec, cluster, rayon)
        trace = ExecutionTrace()
        result = Simulation(cluster, scheduler, workload, rayon=rayon,
                            trace=trace).run()
        pathlib.Path(args.trace).write_text(trace.to_jsonl() + "\n")
        print(f"[trace -> {args.trace}]")
        samples = trace.utilization_timeline(len(cluster),
                                             step_s=spec.cycle_s)
        if samples:
            from repro.experiments.ascii_chart import render_series
            xs = [t for t, _ in samples]
            ys = [100.0 * u for _, u in samples]
            print(render_series(
                xs, {"utilization": ys},
                title=f"Cluster utilization (mean "
                      f"{100 * trace.mean_utilization(len(cluster)):.0f}%)",
                y_label="busy nodes (%)"))
    else:
        result = run_experiment(spec)
    print(result)
    m = result.metrics
    print(f"  jobs: {m.jobs_total} total, {m.jobs_slo} SLO "
          f"({m.jobs_accepted} accepted), {m.jobs_best_effort} best-effort")
    print(f"  preferred placements: {m.preferred_placements_pct:.1f}%")
    return 0


def _cmd_workload(args) -> int:
    cluster = args.cluster.build()
    jobs = generate_workload(COMPOSITIONS[args.composition], cluster,
                             GridmixConfig(num_jobs=args.jobs, seed=args.seed,
                                           estimate_error=args.error,
                                           target_utilization=args.util))
    save_workload_file(jobs, args.out)
    slo = sum(1 for j in jobs if j.is_slo)
    print(f"wrote {len(jobs)} jobs ({slo} SLO) to {args.out}")
    return 0


def _cmd_profile(args) -> int:
    from repro import obs
    from repro.experiments.report import format_profile
    from repro.solver.scipy_backend import highs_build
    spec = RunSpec(scheduler=args.scheduler,
                   composition=COMPOSITIONS[args.workload],
                   cluster=args.cluster, num_jobs=args.jobs, seed=args.seed,
                   target_utilization=args.util,
                   plan_ahead_s=args.plan_ahead, quantum_s=args.quantum,
                   cycle_s=args.quantum, backend=args.backend)
    sink = obs.JsonlSink()
    obs.set_enabled(True, sink=sink)
    try:
        result = run_experiment(spec)
    finally:
        obs.set_enabled(False)
    out = pathlib.Path(args.out)
    if out.parent != pathlib.Path():
        out.parent.mkdir(parents=True, exist_ok=True)
    sink.dump(out)
    print(f"[{len(sink)} events -> {out}]")
    highs = highs_build()
    print(f"[HiGHS {highs['version']}, direct hand-over: {highs['direct']}]")
    print(result)
    print()
    print(format_profile(
        result.profile,
        title=f"Profile: {args.scheduler} / {args.workload} "
              f"({spec.cluster.size} nodes, {args.jobs} jobs)"))
    return 0


def _serve_smoke(service, host: str, cycle_s: float) -> int:
    """End-to-end self-test of a live server over real HTTP sockets.

    The server (and its cycle timer) runs on a background event-loop
    thread; this thread plays the external client with blocking urllib
    calls — the same split a real deployment has.
    """
    import asyncio
    import json
    import threading
    import urllib.error
    import urllib.request

    from repro.service import ServiceServer

    started = threading.Event()
    box: dict[str, object] = {}

    def runner() -> None:
        async def main() -> None:
            server = ServiceServer(service, host=host, port=0,
                                   cycle_s=cycle_s)
            await server.start()
            box["port"] = server.port
            started.set()
            await server.wait_drained()
        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced to the client thread
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    if not started.wait(10.0) or "error" in box:
        print(f"smoke FAIL: server did not start ({box.get('error')})",
              file=sys.stderr)
        return 1
    port = box["port"]

    def call(method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(f"http://{host}:{port}{path}",
                                     data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"smoke check failed: {what}")

    def wait_until(job_id: str, reached, within_s: float) -> None:
        until = time.monotonic() + within_s
        while not reached(call("GET", f"/jobs/{job_id}")[1]["state"]):
            check(time.monotonic() < until, f"{job_id} in {within_s}s")
            time.sleep(0.01)

    quantum = service.config.quantum_s
    try:
        check(call("GET", "/healthz")[1] == {"ok": True}, "healthz")
        spec = {"options": [{"k": 1, "duration_s": quantum}],
                "value": 100.0, "deadline": 100000.0}
        for i in range(3):
            status, rec = call("POST", "/jobs", dict(spec, job_id=f"smoke-{i}"))
            check(status == 201 and rec["state"] == "pending",
                  f"submit smoke-{i}")
            if i == 0:  # placed on arrival, not on the next tick
                wait_until("smoke-0", lambda st: st != "pending", cycle_s / 4)
        call("POST", "/jobs", dict(spec, job_id="smoke-cancel"))
        status, rec = call("DELETE", "/jobs/smoke-cancel")
        check(status == 200, "cancel")
        # A cycle holding the lock defers the registry update to its drain.
        wait_until("smoke-cancel", lambda st: st == "cancelled", 10.0)

        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status_payload = call("GET", "/status")[1]
            if status_payload["jobs"].get("completed", 0) >= 3:
                break
            time.sleep(0.2)
        else:
            raise RuntimeError(
                f"smoke timeout: jobs never completed "
                f"(status {status_payload})")
        check(status_payload["cycles_run"] > 0, "cycles ran")

        node = sorted(service.cluster.node_names)[0]
        check(call("POST", "/cluster/events",
                   {"action": "drain", "node": node})[0] == 200, "drain node")
        check(call("POST", "/cluster/events",
                   {"action": "restore", "node": node})[0] == 200,
              "restore node")

        status, final = call("POST", "/drain")
        check(status == 200 and final["clean"] is True, "graceful drain")
        check(final["status"]["cycles_run"] > 0,
              "final stats carry cycle count")
    except (RuntimeError, OSError) as exc:
        print(f"smoke FAIL: {exc}", file=sys.stderr)
        return 1
    thread.join(10.0)
    print(f"smoke ok: jobs {final['status']['jobs']} over "
          f"{final['status']['cycles_run']} cycles, clean drain")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.core.scheduler import TetriSchedConfig
    from repro.service import SchedulerService, serve

    cluster = args.cluster.build()
    cfg = TetriSchedConfig(
        quantum_s=args.quantum, cycle_s=args.cycle or args.quantum,
        plan_ahead_s=args.plan_ahead, backend=args.backend)
    stats = pathlib.Path(args.stats) if args.stats else None
    service = SchedulerService(cluster, cfg, stats_path=stats)
    if args.smoke:
        return _serve_smoke(service, args.host,
                            cycle_s=args.cycle or 0.25)

    async def main() -> None:
        server = await serve(service, host=args.host, port=args.port,
                             cycle_s=args.cycle)
        print(f"[service on http://{args.host}:{server.port} — "
              f"{len(cluster)} nodes; POST /drain to stop]")
        await server.wait_drained()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        final = service.drain()
        print(f"[interrupted: drained {final['jobs']} "
              f"after {final['cycles']} cycles]")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.verify import fuzz
    if args.replay is not None:
        return fuzz.replay_file(args.replay)
    return fuzz.run_fuzz(seed=args.seed, iterations=args.iterations,
                         seed_file=args.out, time_budget=args.time_budget)


def _cmd_solve(args) -> int:
    text = pathlib.Path(args.file).read_text()
    expr = parse_strl(text)
    cluster = args.cluster.build()
    missing = expr.referenced_nodes() - cluster.node_names
    if missing:
        print(f"expression references unknown nodes: {sorted(missing)[:5]} "
              f"(cluster has {sorted(cluster.node_names)[:5]}...)",
              file=sys.stderr)
        return 2
    state = ClusterState(cluster.node_names)
    compiled = StrlCompiler(state, quantum_s=args.quantum).compile(
        [("request", expr)])
    res = make_backend(args.backend).solve(compiled.model)
    print(f"MILP: {compiled.stats}")
    print(f"status: {res.status.value}, objective: {res.objective:.3f}, "
          f"nodes: {res.nodes}, time: {res.solve_time * 1000:.1f}ms")
    if res.status.has_solution:
        for pl in compiled.decode(res.x):
            nodes = []
            for pid, count in sorted(pl.node_counts.items()):
                members = sorted(compiled.partitioning.partitions[pid].nodes)
                nodes.append(f"{count} of {members}")
            print(f"  placement: start={pl.start}q dur={pl.duration}q "
                  f"value={pl.value:g} -> {'; '.join(nodes)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "workload":
            return _cmd_workload(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
