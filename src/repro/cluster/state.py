"""Space-time cluster availability tracking.

TetriSched "makes allocation decisions based on ... its own view of cluster
node availability it maintains" (Sec. 3.3).  :class:`ClusterState` is that
view: which nodes are held by which running job and until when the job is
*expected* to hold them.  Expected release times come from runtime estimates
and may be wrong — the scheduler adjusts them upward when a job overruns
(Sec. 7.1), which is exactly how TetriSched tolerates under-estimation.

:meth:`availability_grid` — every partition's free-node count per quantum,
from one grouped count over the held-quanta vector — is what the compiler
reads for the MILP supply constraints ``sum(P in used(x,t)) <= avail(x, t)``;
:meth:`availability_profile` is the same count for one node group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from repro.cluster.partitions import Partitioning
from repro.errors import ClusterError, SchedulerError

#: Held-quanta value of a drained node: occupied at every horizon.
HELD_FOREVER = np.iinfo(np.int64).max

#: Partitionings :attr:`ClusterState.partitioning` keeps; a run asks for a
#: handful of families (2 to 5 on the benchmark's workloads).
PARTITIONINGS_KEPT = 8


@dataclass
class RunningAllocation:
    """Nodes held by a launched job and its expected release time."""

    job_id: str
    nodes: frozenset[str]
    start_time: float
    expected_end: float


class ClusterState:
    """Tracks running allocations over the node universe.

    Example
    -------
    >>> cs = ClusterState(frozenset({"a", "b", "c"}))
    >>> cs.start("j1", frozenset({"a"}), start_time=0.0, expected_end=25.0)
    >>> sorted(cs.free_nodes())
    ['b', 'c']
    """

    def __init__(self, universe: frozenset[str]) -> None:
        if not universe:
            raise ClusterError("universe must not be empty")
        self.universe = universe
        #: Node names in sorted order; a node's position here is its index
        #: in every per-node array (:meth:`held_quanta`, the plan
        #: accumulator's occupancy grid).
        self.node_order: tuple[str, ...] = tuple(sorted(universe))
        self._node_index = {n: i for i, n in enumerate(self.node_order)}
        self._allocations: dict[str, RunningAllocation] = {}
        self._node_owner: dict[str, str] = {}
        self._drained: set[str] = set()
        #: Per node: its running job's expected release time, ``-inf`` while
        #: free.  Maintained by start / finish / extend_expectation.
        self._release = np.full(len(self.node_order), -np.inf)
        #: Family of equivalence sets -> its minimal partitioning: a function
        #: of universe and family alone (not of busy or drained nodes) that a
        #: steady queue asks for cycle after cycle, so the last few are kept.
        self.partitioning = lru_cache(PARTITIONINGS_KEPT)(
            partial(Partitioning, universe))
        # (now, quantum_s) -> held vector, valid until the next mutation.
        self._held_key: tuple[float, float] | None = None
        self._held: np.ndarray | None = None

    # -- lifecycle ----------------------------------------------------------
    def start(self, job_id: str, nodes: frozenset[str], start_time: float,
              expected_end: float) -> None:
        """Record a launched job occupying ``nodes`` until ``expected_end``."""
        if job_id in self._allocations:
            raise SchedulerError(f"job {job_id!r} already running")
        unknown = nodes - self.universe
        if unknown:
            raise ClusterError(f"unknown nodes: {sorted(unknown)}")
        busy = self._node_owner.keys() & nodes
        if busy:
            owners = {self._node_owner[n] for n in busy}
            raise SchedulerError(
                f"nodes {sorted(busy)} already held by {sorted(owners)}")
        if expected_end <= start_time:
            raise SchedulerError("expected_end must be after start_time")
        self._allocations[job_id] = RunningAllocation(
            job_id, nodes, start_time, expected_end)
        self._node_owner.update(dict.fromkeys(nodes, job_id))
        self._expect(nodes, expected_end)

    def _expect(self, nodes: frozenset[str], release: float) -> None:
        self._release[self.node_indices(nodes)] = release
        self._held_key = None

    def finish(self, job_id: str) -> frozenset[str]:
        """Release a job's nodes; returns the freed node set."""
        alloc = self._allocations.pop(job_id, None)
        if alloc is None:
            raise SchedulerError(f"job {job_id!r} is not running")
        for n in alloc.nodes:
            del self._node_owner[n]
        self._expect(alloc.nodes, -np.inf)
        return alloc.nodes

    def extend_expectation(self, job_id: str, new_expected_end: float) -> None:
        """Bump a running job's expected release time upward.

        Called when a job overruns its estimate (adaptive re-planning,
        Sec. 7.1: "adjusting runtime under-estimates upward when observed to
        be too low").  Downward adjustments are ignored — releases happen via
        :meth:`finish`.
        """
        alloc = self._allocations.get(job_id)
        if alloc is None:
            raise SchedulerError(f"job {job_id!r} is not running")
        if new_expected_end > alloc.expected_end:
            alloc.expected_end = new_expected_end
            self._expect(alloc.nodes, new_expected_end)

    # -- node lifecycle ------------------------------------------------------
    def drain(self, node: str) -> None:
        """Take a node out of service (cluster event: node removal).

        The node universe is fixed — drained nodes stay known (partition
        membership, MILP column layout and existing allocations are
        unaffected) but offer zero supply to future cycles: they drop out
        of :meth:`free_nodes` and hold their availability-profile slot for
        the whole horizon.  A running job keeps a drained node until it
        finishes; the scheduler just never places on it again.
        """
        if node not in self.universe:
            raise ClusterError(f"unknown node {node!r}")
        self._drained.add(node)
        self._held_key = None

    def restore(self, node: str) -> None:
        """Return a drained node to service (cluster event: node add)."""
        if node not in self.universe:
            raise ClusterError(f"unknown node {node!r}")
        self._drained.discard(node)
        self._held_key = None

    @property
    def drained_nodes(self) -> frozenset[str]:
        """Nodes currently out of service."""
        return frozenset(self._drained)

    # -- queries -------------------------------------------------------------
    def is_running(self, job_id: str) -> bool:
        return job_id in self._allocations

    @property
    def running_jobs(self) -> list[RunningAllocation]:
        return list(self._allocations.values())

    def allocation_of(self, job_id: str) -> RunningAllocation:
        try:
            return self._allocations[job_id]
        except KeyError:
            raise SchedulerError(f"job {job_id!r} is not running") from None

    def free_nodes(self) -> frozenset[str]:
        """Nodes not held by any running job (drained nodes excluded)."""
        return self.universe - self._node_owner.keys() - self._drained

    def busy_quanta(self, now: float, quantum_s: float) -> dict[str, int]:
        """Per busy node: how many whole quanta from ``now`` it stays held.

        A node expected to release at ``now + 25`` with a 10 s quantum is
        unavailable for slices 0..2 (3 quanta).  Overdue jobs (expected end
        in the past) still hold their nodes for at least one quantum — the
        scheduler cannot place on top of a job that has not actually exited.
        """
        quanta = self._busy_quanta(now, quantum_s)
        busy = np.flatnonzero(quanta)
        return dict(zip(map(self.node_order.__getitem__, busy.tolist()),
                        quanta[busy].tolist()))

    def _busy_quanta(self, now: float, quantum_s: float) -> np.ndarray:
        """:meth:`busy_quanta` per node in :attr:`node_order`, 0 where free:
        ``max(1, ceil((release - now) / quantum_s - 1e-9))``."""
        quanta = np.maximum(
            np.ceil((self._release - now) / quantum_s - 1e-9), 1.0)
        quanta[np.isneginf(self._release)] = 0.0
        return quanta.astype(np.int64)

    def node_indices(self, nodes: frozenset[str]) -> np.ndarray:
        """Ascending :attr:`node_order` positions of ``nodes`` (name order)."""
        idx = np.fromiter(map(self._node_index.__getitem__, nodes),
                          dtype=np.int64, count=len(nodes))
        idx.sort()
        return idx

    def held_quanta(self, now: float, quantum_s: float) -> np.ndarray:
        """Per node (in :attr:`node_order` order): quanta from ``now`` it
        offers no supply.

        Running jobs hold their nodes for :meth:`busy_quanta`; a drained
        node is held for :data:`HELD_FOREVER` whether or not a job still
        runs on it.  One cycle asks for this many times (every
        partition's supply row, the plan accumulator, the warm start), so
        the read-only vector is kept until the ledger next changes.
        """
        key = (now, quantum_s)
        if self._held_key != key:
            held = self._busy_quanta(now, quantum_s)
            for node in self._drained:
                held[self._node_index[node]] = HELD_FOREVER
            held.flags.writeable = False
            self._held, self._held_key = held, key
        return self._held

    def availability_profile(self, nodes: frozenset[str], horizon_quanta: int,
                             now: float, quantum_s: float) -> list[int]:
        """``avail(x, t)`` for a node group: free count per future quantum.

        Returns a list of length ``horizon_quanta`` where entry ``t`` is the
        number of nodes from ``nodes`` expected to be free during time slice
        ``[now + t*q, now + (t+1)*q)``.  A drained node offers no supply
        anywhere in the horizon.
        """
        if horizon_quanta <= 0:
            return []
        held = self.held_quanta(now, quantum_s)[self.node_indices(nodes)]
        # Entry t counts the nodes released by then: held <= t.
        released = np.bincount(np.minimum(held, horizon_quanta),
                               minlength=horizon_quanta + 1)
        return np.cumsum(released[:horizon_quanta]).tolist()

    def availability_grid(self, partitioning: Partitioning,
                          horizon_quanta: int, now: float,
                          quantum_s: float) -> np.ndarray:
        """:meth:`availability_profile` of every partition, one per row of a
        ``partitions x horizon_quanta`` array: one grouped count over the
        held vector instead of a node lookup per partition."""
        width = horizon_quanta + 1
        held = np.minimum(self.held_quanta(now, quantum_s), horizon_quanta)
        released = np.bincount(partitioning.node_pid * width + held,
                               minlength=partitioning.num_partitions * width)
        return released.reshape(-1, width)[:, :horizon_quanta].cumsum(axis=1)

    def utilization(self) -> float:
        """Fraction of nodes currently held."""
        return len(self._node_owner) / len(self.universe)
