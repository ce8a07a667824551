"""The public scheduler facade: one way to build and drive a scheduler.

Before this module existed, the simulator adapter, the async service and
the CLI each hand-rolled their own ``TetriSched(...)`` wiring.
:class:`Scheduler` is the single supported entry point now::

    from repro.api import Scheduler
    from repro.cluster import Cluster

    with Scheduler.open(Cluster.build(racks=8, nodes_per_rack=32)) as api:
        api.submit(request)               # a repro.JobRequest
        result = api.run_cycle()          # clock advances by cycle_s
        print(api.stats().objective)

``open`` accepts either a built :class:`~repro.cluster.cluster.Cluster`
or a compact topology spec string (``"8x32"`` = 8 racks of 32 nodes,
``"8x32:2"`` = the first 2 racks GPU-enabled), and a possibly *partial*
:class:`~repro.core.scheduler.TetriSchedConfig` — unset fields inherit
the documented defaults and the merged config is validated up front
(:func:`~repro.core.scheduler.resolve_config`).

``open`` calls the one ``TetriSched(cluster, config)`` constructor; the
facade adds the spec-string parsing, the self-advancing clock and the
close/use-after-close contract on top of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.core.scheduler import (CycleResult, CycleStats, JobRequest,
                                  TetriSched, TetriSchedConfig)
from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.state import ClusterState


def _parse_cluster_spec(spec: str) -> Cluster:
    """``"RxN"`` or ``"RxN:G"`` -> a built cluster (G leading GPU racks)."""
    gpu_racks = 0
    body = spec
    if ":" in spec:
        body, _, gpu = spec.partition(":")
        gpu_racks = int(gpu)
    racks, _, nodes = body.partition("x")
    if not nodes:
        raise SchedulerError(
            f"bad cluster spec {spec!r}: expected 'RACKSxNODES[:GPU_RACKS]'"
            f" like '8x32' or '8x32:2'")
    return Cluster.build(racks=int(racks), nodes_per_rack=int(nodes),
                         gpu_racks=gpu_racks)


class Scheduler:
    """A handle on one scheduler instance — the only supported entry point.

    Build with :meth:`open`; drive with :meth:`submit` /
    :meth:`run_cycle` / :meth:`job_finished`; inspect with :meth:`stats`;
    release with :meth:`close` (or use as a context manager).  The
    wrapped :class:`~repro.core.scheduler.TetriSched` stays reachable as
    :attr:`core` for code that needs scheduler internals (the simulator
    does), so the facade adds a contract, not a wall.
    """

    def __init__(self, core: TetriSched) -> None:
        # Internal: build through Scheduler.open(), which owns cluster
        # parsing and config resolution.
        self._core = core
        self._closed = False
        self._next_now = 0.0

    # -- construction -------------------------------------------------------
    @classmethod
    def open(cls, cluster: Cluster | str,
             config: TetriSchedConfig | None = None) -> "Scheduler":
        """Build a scheduler over ``cluster`` under ``config``.

        ``cluster`` is a built :class:`~repro.cluster.cluster.Cluster` or
        a spec string (``"8x32"``, ``"8x32:2"``); ``config`` may be
        ``None`` (documented defaults), partial
        (:meth:`TetriSchedConfig.partial` — unset fields inherit), or
        fully concrete.  The resolved config is validated before any
        state is built, so incoherent combinations fail here, not
        mid-cycle.
        """
        if isinstance(cluster, str):
            cluster = _parse_cluster_spec(cluster)
        return cls(TetriSched(cluster, config))

    # -- the underlying pieces ----------------------------------------------
    @property
    def core(self) -> TetriSched:
        """The wrapped scheduler (escape hatch for internals)."""
        return self._core

    @property
    def config(self) -> TetriSchedConfig:
        """The resolved, validated configuration in force."""
        return self._core.config

    @property
    def cluster(self) -> Cluster:
        return self._core.cluster

    @property
    def state(self) -> "ClusterState":
        """The scheduler's space-time view of cluster availability."""
        return self._core.state

    # -- job lifecycle -------------------------------------------------------
    def submit(self, request: JobRequest) -> None:
        """Queue a job for the next scheduling cycle."""
        self._check_open()
        self._core.submit(request)

    def cancel(self, job_id: str) -> None:
        """Request cancellation of a queued or running job (thread-safe)."""
        self._check_open()
        self._core.cancel(job_id)

    def job_finished(self, job_id: str, now: float | None = None
                     ) -> frozenset[str]:
        """Report a job's completion; returns the freed node set."""
        self._check_open()
        return self._core.on_job_finished(
            job_id, self._next_now if now is None else now)

    # -- scheduling ----------------------------------------------------------
    def run_cycle(self, now: float | None = None) -> CycleResult:
        """Run one scheduling cycle and return its launch decisions.

        With ``now=None`` the facade keeps its own clock, advancing by
        ``config.cycle_s`` per call (the common simulator-less usage);
        passing explicit times (monotonically non-decreasing) overrides
        it and re-anchors the internal clock.
        """
        self._check_open()
        if now is None:
            now = self._next_now
        result = self._core.run_cycle(now)
        self._next_now = now + self._core.config.cycle_s
        return result

    # -- observability -------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return self._core.pending_count

    def stats(self) -> CycleStats | None:
        """The most recent cycle's stats record (``None`` before any)."""
        history = self._core.cycle_history
        return history[-1] if history else None

    @property
    def cycle_history(self) -> list[CycleStats]:
        """Every cycle's stats, oldest first."""
        return self._core.cycle_history

    # -- teardown ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the handle (idempotent); further scheduling calls raise.

        The scheduler is in-process state, so closing releases nothing at
        the OS level — it marks the handle finished and protects against
        use-after-close bugs in long-lived hosts (the service closes its
        facade on drain).
        """
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise SchedulerError("Scheduler handle is closed")

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"Scheduler({state}, nodes={len(self._core.cluster)}, "
                f"pending={self._core.pending_count})")
