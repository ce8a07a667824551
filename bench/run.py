#!/usr/bin/env python3
"""Run the benchmark.

One measured run, the form the benchmark driver uses::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

sets up, measures one workload, checks its outputs and prints one JSON object
as the last line of standard output: every end-to-end metric with ``--trace
0``, every per-layer metric (from a run with spans recorded and the audit
stage on) with ``--trace 1``.

A set of runs, for reading noise and for ``compare.py``::

    python3 bench/run.py --seed N --out FILE [--workload NAME] [--repeats K]
                         [--vary-seed] [--traced] [--seconds S] [--smoke]

runs every workload K times, each run in a process of its own and the
repeats interleaved round-robin, and writes medians, quartiles and sample
counts to FILE (repeated as the last line of standard output).

Either form exits non-zero when a run's outputs fail their checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cpu_jiffies() -> tuple[int, int]:
    """(all, stolen) CPU time of the machine so far, from ``/proc/stat``.

    Stolen time is what the host took from this virtual machine.  It is
    reported beside the timings, never subtracted from them: a run whose
    steal share is high was measured on a contended box.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(f) for f in fields]
    return sum(ticks[:8]), ticks[7] if len(ticks) > 7 else 0


# -- one measured run ----------------------------------------------------------

def measure_once(args) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, detail)."""
    from bench import OUT_DIR
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS, percentile

    spec = benchmark_spec()
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    setup_s = []
    for _ in range(SETUPS):
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        prepared = workload.setup(args.seed, args.seconds, args.smoke,
                                  audit=bool(args.trace), tracer=tracer)
        setup_s.append(time.perf_counter() - t0)

    outcome = None
    if tracer is not None:
        tracer.install()
    cpu_before = cpu_jiffies()
    t0 = time.perf_counter()
    try:
        outcome = workload.measure(prepared, tracer)
    except Exception:  # the run is reported as failed, not lost
        traceback.print_exc()
    finally:
        measured_s = time.perf_counter() - t0
        cpu_after = cpu_jiffies()
        if tracer is not None:
            tracer.uninstall()
    cpu_all = cpu_after[0] - cpu_before[0]
    steal_pct = (100.0 * (cpu_after[1] - cpu_before[1]) / cpu_all
                 if cpu_all else 0.0)

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "params": workload.params(args.seconds, args.smoke),
              "setup_s": setup_s, "measured_s": measured_s,
              "cpu_steal_pct": steal_pct}
    if outcome is None:
        return ({"correct": False, "attempted": 1, "failed": 1,
                 "metrics": {}}, detail)

    cycle_total_s = sum(outcome.cycle_ms) / 1e3
    values = dict(outcome.e2e)
    values.update({
        "setup_s": statistics.median(setup_s),
        "cycle_p50_ms": percentile(outcome.cycle_ms, 50),
    })
    wanted = spec["end_to_end"]
    if tracer is not None:
        wanted = spec["per_layer"]
        layers = tracer.layer_times()
        calls = {}
        for span in tracer.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        overhead_s = len(tracer.spans) * tracer.span_cost_s()
        values = dict.fromkeys((m["name"] for m in wanted), 0.0)
        values.update(layers)
        values.update(outcome.counts)
        values.update({
            "solver.solve_calls": calls.get("backend.solve", 0),
            "solver.solve_p90_ms": percentile(
                tracer.durations("stage.solve"), 90) * 1e3,
            "solver.solve_share_pct": 100.0 * layers["solver.solve_s"]
            / cycle_total_s,
            "strl.exprs": calls.get("strl.generate_job_strl", 0)
            - outcome.counts["strl.culled"],
            "cluster.state_calls": sum(
                n for name, n in calls.items() if name.startswith("state.")),
            "core.scheduler.cycle_total_s": cycle_total_s,
            "core.scheduler.cycle_p90_ms": percentile(outcome.cycle_ms, 90),
            "core.scheduler.placements_per_s":
            outcome.counts["core.allocation.placements"] / cycle_total_s,
            # The audit stage raises on a violation, which fails the run
            # above: a run that gets as far as reporting metrics has none.
            "verify.violations": 0,
            "bench.cpu_steal_pct": steal_pct,
            "bench.peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "obs.spans": len(tracer.spans),
            "obs.trace_overhead_pct": 100.0 * overhead_s
            / (measured_s - layers["verify.audit_s"]),
        })
        suffix = "-smoke" if args.smoke else ""
        tracer.write_jsonl(OUT_DIR / f"trace-{args.workload}{suffix}.jsonl")

    detail.update(reference=outcome.reference, problems=outcome.problems,
                  cycles=len(outcome.cycle_ms))
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, detail


def single_run(args) -> int:
    # HiGHS writes progress lines straight to file descriptor 1 at RC256
    # scale; keep them (and anything else) away from the result line.
    sys.stdout.flush()
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        result, detail = measure_once(args)
        for name, metric in result["metrics"].items():
            print(f"{name:36s} {metric['value']:14.4f} {metric['unit']}")
        for problem in detail.get("problems", []):
            print(f"CHECK FAILED: {problem}")
        if args.detail:
            Path(args.detail).write_text(json.dumps(detail, default=str))
    finally:
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
        os.close(real_stdout)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# -- a set of runs -------------------------------------------------------------

def environment(args) -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "seed": args.seed, "repeats": args.repeats,
            "vary_seed": args.vary_seed, "seconds": args.seconds,
            "smoke": args.smoke}


def child_run(args, name: str, seed: int, trace: int, scratch: Path
              ) -> tuple[dict, dict]:
    detail_path = scratch / "detail.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--detail", str(detail_path)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: run printed no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), json.loads(detail_path.read_text())


def summarise(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def run_set(args) -> int:
    from bench import OUT_DIR
    from bench.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        # Round-robin, so slow drift of the machine spreads over every
        # workload instead of landing on the one that happened to run then.
        for repeat in range(args.repeats):
            seed = args.seed + (repeat if args.vary_seed else 0)
            for name in names:
                runs[name].append(child_run(args, name, seed, 0,
                                            Path(scratch)))
        if args.traced:
            for name in names:
                traced[name] = child_run(args, name, args.seed, 1,
                                         Path(scratch))[0]

    pinned = json.loads((ROOT / "bench" / "reference.json").read_text())
    against_pinned = (not args.vary_seed and not args.smoke
                      and (pinned["seed"], pinned["seconds"])
                      == (args.seed, args.seconds))
    report = {"env": environment(args), "workloads": {}}
    ok = True
    for name in names:
        results = [r for r, _ in runs[name]]
        details = [d for _, d in runs[name]]
        references = [d.get("reference") for d in details]
        entry = {
            "params": details[0]["params"],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "problems": sorted({p for d in details
                                for p in d.get("problems", [])}),
            "reference": references[0],
            "reference_stable": args.vary_seed or all(
                ref == references[0] for ref in references),
            "metrics": {
                metric: dict(summarise([r["metrics"][metric]["value"]
                                        for r in results]),
                             unit=results[0]["metrics"][metric]["unit"])
                for metric in results[0]["metrics"]},
        }
        if name in traced:
            entry["layers"] = traced[name]["metrics"]
            ok &= traced[name]["correct"]
        ok &= entry["correct"] and entry["reference_stable"]
        report["workloads"][name] = entry

        print(f"\n{name}  (n={len(results)}, failed "
              f"{entry['failed']}/{entry['attempted']})")
        for metric, s in entry["metrics"].items():
            print(f"  {metric:34s} {s['median']:14.4f} {s['unit']:8s} "
                  f"[{s['q1']:.4f} .. {s['q3']:.4f}]  "
                  f"spread {100 * s['spread']:.1f}%")
        for metric, m in entry.get("layers", {}).items():
            print(f"  {metric:34s} {m['value']:14.4f} {m['unit']}")
        if not entry["reference_stable"]:
            print("  CHECK FAILED: deterministic values differ across repeats")
        if against_pinned and entry["reference"] != pinned[
                "workloads"][name]["reference"]:
            # The schedule itself changed: a finding to report, not a failure.
            print(f"  MOVED from bench/reference.json: {entry['reference']}")

    text = json.dumps(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text, flush=True)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write a set of runs to this file")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--vary-seed", action="store_true",
                        help="set mode: repeat i runs seed + i, to read the "
                             "spread across inputs")
    parser.add_argument("--traced", action="store_true",
                        help="set mode: add one traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="2x8 nodes and 24 jobs, for the self-test")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    try:
        from bench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.workload is not None and args.out is None:
        return single_run(args)
    return run_set(args)


if __name__ == "__main__":
    # The script's own directory would let ``bench/trace.py`` shadow the
    # standard library's ``trace``; import the harness as package ``bench``.
    sys.path[0] = str(ROOT)
    sys.exit(main())
