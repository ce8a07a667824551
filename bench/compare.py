#!/usr/bin/env python3
"""Compare two sets of runs written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

prints one row per (workload, end-to-end metric): both medians, the ratio
B/A with A as its base, the bound from ``BENCHMARK.json`` and a verdict:

``same``        B is within the bound of A;
``worse``       B is worse than A by more than the bound;
``better``      B is better than A by more than the bound;
``unresolved``  either set's spread (interquartile range over median) is
                wider than the bound, so the bound cannot be read.

Exits 1 when any row is ``worse``.  Two sets of the same commit must come
out all ``same``; that is the benchmark's own agreement check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(ratio B/A, verdict) for one metric's two summaries."""
    base = a["median"]
    ratio = b["median"] / base if base else float("nan")
    if max(a["spread"], b["spread"]) > bound:
        return ratio, "unresolved"
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if worse_by > bound:
        return ratio, "worse"
    if worse_by < -bound:
        return ratio, "better"
    return ratio, "same"


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in spec["end_to_end"]:
            m_a = entry_a["metrics"].get(metric["name"])
            m_b = entry_b["metrics"].get(metric["name"])
            if m_a is None or m_b is None:
                continue
            ratio, word = verdict(m_a, m_b, metric["better"], metric["bound"])
            rows.append((name, metric["name"], m_a["median"], m_b["median"],
                         metric["unit"], ratio, metric["bound"], word))
        if entry_a.get("reference") != entry_b.get("reference"):
            # Launched count, SLO %, BE latency or summed objective changed:
            # the schedule itself moved, which is a finding, not a failure.
            rows.append((name, "deterministic values", float("nan"),
                         float("nan"), "", float("nan"), 0.0, "moved"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':24s} {'metric':22s} {'A median':>12s} {'B median':>12s}"
          f" {'unit':7s} {'B/A':>7s} {'bound':>6s}  verdict")
    for name, metric, med_a, med_b, unit, ratio, bound, word in rows:
        print(f"{name:24s} {metric:22s} {med_a:12.4f} {med_b:12.4f} {unit:7s}"
              f" {ratio:7.3f} {100 * bound:5.1f}%  {word}")
    for side, data in (("A", a), ("B", b)):
        env = data["env"]
        print(f"{side}: sha {env['git_sha']} seed {env['seed']} "
              f"n={env['repeats']} seconds {env['seconds']} "
              f"nproc {env['nproc']}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
