"""Harness-side tracing: spans around the public callables at each layer boundary.

The program under test is not edited and ``repro.obs`` stays disabled; the
traced run instead swaps each boundary callable (listed in :data:`PATCHES`)
for a wrapper that records a span, and restores the originals afterwards.
A span is ``[name, start, end, parent, cycle]``: ``parent`` indexes the span
that was open on the same thread when this one began (``-1`` for a root) and
``cycle`` is the number of scheduling cycles begun so far, the identifier
that ties a cycle's spans together.  Spans are kept in memory and written
out once, when the run is over.

A layer's time is the *self* time of its spans, a span's duration minus the
part its direct children cover, so the layers of one run add up to the
traced wall-clock and nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, CYCLE = range(5)

#: (module, owner class or None for a module global, attribute, span name).
#: Stage ``run`` methods are the pipeline's own layer boundaries; the names
#: below them are the calls that cross into another module from inside one.
PATCHES = (
    ("repro.reservation.rayon", "RayonReservationSystem", "submit", "reservation.submit"),
    ("repro.reservation.rayon", "RayonReservationSystem", "on_job_complete", "reservation.on_job_complete"),
    ("repro.sim.adapters", "TetriSchedAdapter", "submit", "adapter.submit"),
    ("repro.sim.adapters", "TetriSchedAdapter", "cycle", "adapter.cycle"),
    ("repro.sim.adapters", "TetriSchedAdapter", "job_finished", "adapter.job_finished"),
    ("repro.core.scheduler", "TetriSched", "run_cycle", "scheduler.run_cycle"),
    ("repro.core.scheduler", "TetriSched", "_build_warm_start", "scheduler.warm_start"),
    ("repro.core.scheduler", None, "generate_job_strl", "strl.generate_job_strl"),
    ("repro.pipeline.stages", "StrlGeneration", "run", "stage.generate"),
    ("repro.pipeline.stages", "Compilation", "run", "stage.compile"),
    ("repro.pipeline.stages", "ModelBuild", "run", "stage.model_build"),
    ("repro.pipeline.stages", "Decompose", "run", "stage.decompose"),
    ("repro.pipeline.stages", "Solve", "run", "stage.solve"),
    ("repro.pipeline.stages", "Extract", "run", "stage.extract"),
    ("repro.pipeline.stages", "Audit", "run", "stage.audit"),
    ("repro.pipeline.stages", None, "decompose", "solver.decompose"),
    ("repro.pipeline.stages", None, "solve_decomposed", "solver.solve_decomposed"),
    ("repro.core.compiler", "StrlCompiler", "compile", "compiler.compile"),
    ("repro.core.compiler", "CompiledBatch", "decode", "batch.decode"),
    ("repro.solver.model", "Model", "to_sparse_arrays", "model.to_sparse_arrays"),
    ("repro.solver.scipy_backend", "ScipyMILPSolver", "solve", "backend.solve"),
    ("repro.cluster.state", "ClusterState", "start", "state.start"),
    ("repro.cluster.state", "ClusterState", "finish", "state.finish"),
    ("repro.cluster.state", "ClusterState", "availability_profile", "state.availability_profile"),
    ("repro.service.service", "SchedulerService", "submit_spec", "service.submit_spec"),
    ("repro.service.service", "SchedulerService", "run_one_cycle", "service.run_one_cycle"),
    ("repro.service.http", "ServiceServer", "_handle", "service.http"),
)

#: Spans that begin a scheduling cycle (the shared identifier advances).
_CYCLE_STARTS = {"adapter.cycle", "service.run_one_cycle"}

#: Span name -> the per-layer time metric its self time is charged to.
LAYER_OF = {
    "workloads.generate_workload": "workloads.generate_s",
    "sim.run": "sim.run_self_s",
    "reservation.submit": "reservation.admit_s",
    "reservation.on_job_complete": "reservation.admit_s",
    "adapter.submit": "sim.adapters.submit_s",
    "adapter.cycle": "sim.adapters.cycle_self_s",
    "adapter.job_finished": "sim.adapters.cycle_self_s",
    "scheduler.run_cycle": "core.scheduler.cycle_self_s",
    "scheduler.warm_start": "core.scheduler.warm_start_s",
    "stage.generate": "strl.generate_s",
    "strl.generate_job_strl": "strl.generate_s",
    "stage.compile": "core.compiler.compile_s",
    "compiler.compile": "core.compiler.compile_s",
    "stage.model_build": "solver.model.export_s",
    "model.to_sparse_arrays": "solver.model.export_s",
    "stage.decompose": "solver.decompose.split_s",
    "solver.decompose": "solver.decompose.split_s",
    "stage.solve": "solver.solve_s",
    "solver.solve_decomposed": "solver.solve_s",
    "backend.solve": "solver.solve_s",
    "stage.extract": "core.allocation.extract_s",
    "batch.decode": "core.allocation.extract_s",
    "stage.audit": "verify.audit_s",
    "state.start": "cluster.state_s",
    "state.finish": "cluster.state_s",
    "state.availability_profile": "cluster.state_s",
    "service.submit_spec": "service.submit_s",
    "service.run_one_cycle": "service.cycle_s",
    "service.http": "service.http_s",
}


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cycle = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        #: The in-flight HTTP handler span.  The benchmark's client keeps one
        #: request in flight at a time, so a ``submit_spec`` running on an
        #: executor thread belongs to exactly this handler.
        self._handler = -1
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def begin(self, name: str, parent: int | None = None) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None:
            parent = stack[-1] if stack else -1
        if name in _CYCLE_STARTS:
            self.cycle += 1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               self.cycle])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the harness itself makes."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def reset(self) -> None:
        """Forget everything recorded so far (set-up rehearsals)."""
        self.spans = []
        self.cycle = 0

    # -- patching ------------------------------------------------------------
    def _traced(self, name: str, fn):
        if name == "service.http":
            @functools.wraps(fn)
            async def traced_handler(*args, **kwargs):
                # A coroutine's span cannot sit on the thread's stack: other
                # tasks run between its awaits.  It is always a root.
                idx = self.begin(name, parent=-1)
                self._local.stack.pop()
                self._handler = idx
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._handler = -1
                    self.spans[idx][END] = time.perf_counter()
            return traced_handler

        adopt = name == "service.submit_spec"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, self._handler if adopt else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def install(self) -> None:
        """Swap every boundary callable for its traced wrapper."""
        for module, owner, attr, name in PATCHES:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = getattr(target, attr)  # a rename fails loudly here
            self._originals.append((target, attr, original))
            setattr(target, attr, self._traced(name, original))

    def uninstall(self) -> None:
        while self._originals:
            target, attr, original = self._originals.pop()
            setattr(target, attr, original)

    # -- reading -------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's durations."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer_times(self) -> dict[str, float]:
        """Self time summed per layer metric (every layer present, 0 if idle)."""
        totals = dict.fromkeys(LAYER_OF.values(), 0.0)
        for span, self_s in zip(self.spans, self.self_times()):
            totals[LAYER_OF[span[NAME]]] += self_s
        return totals

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def span_cost_s(self, samples: int = 20000) -> float:
        """Measured cost of recording one span, for the overhead estimate."""
        probe = Tracer()
        wrapped = probe._traced("probe", lambda: None)
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced_s = time.perf_counter() - t0
        bare = (lambda: None)
        t0 = time.perf_counter()
        for _ in range(samples):
            bare()
        return max(0.0, traced_s - (time.perf_counter() - t0)) / samples

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, cycle in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "cycle": cycle}) + "\n")


@contextmanager
def maybe_span(tracer: Tracer | None, name: str):
    """``tracer.span(name)`` when tracing, a no-op otherwise."""
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield
