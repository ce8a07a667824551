"""Mapping solved schedules onto concrete nodes.

The MILP works on partition *counts*; actually launching a job requires
picking concrete free nodes.  :class:`PlanAccumulator` tracks per-node
space-time occupancy within a cycle so that

* placements launching now receive nodes that are genuinely free, and
* (in greedy mode) tentative future placements of earlier-considered jobs
  are visible to later jobs in the same cycle.

The accumulator implements the same ``availability_profile`` interface as
:class:`~repro.cluster.state.ClusterState`, so the STRL compiler can draw
supply from either: the raw cluster view (global scheduling — the MILP
resolves conflicts itself) or the accumulator (greedy scheduling — earlier
jobs' tentative placements consume capacity).

Supply constraints guarantee the counts fit, so node picking can be greedy
and deterministic (sorted order) without backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.cluster.partitions import Partitioning
from repro.cluster.state import HELD_FOREVER, ClusterState
from repro.errors import SchedulerError


@dataclass(frozen=True)
class Allocation:
    """A concrete launch decision: job -> nodes, now, for expected duration."""

    job_id: str
    nodes: frozenset[str]
    start_time: float      # absolute seconds
    expected_end: float    # absolute seconds (estimate-based)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise SchedulerError(f"allocation for {self.job_id!r} has no nodes")
        if self.expected_end <= self.start_time:
            raise SchedulerError(
                f"allocation for {self.job_id!r}: end must be after start")


class PlanAccumulator:
    """Per-node occupancy (in quanta from "now") within one scheduling cycle.

    Occupancy is one ``quanta x nodes`` boolean grid, nodes in
    :attr:`ClusterState.node_order` (sorted-name) order: "which nodes are
    busy somewhere in ``[start, end)``" is one reduction over contiguous
    rows, and "the first ``k`` free nodes" the same sorted-name choice on
    every run.  The grid has a row per quantum a caller expects to read (a
    cycle's batch horizon) and grows on demand; a row is seeded from the
    held-quanta vector (running jobs up to their expected release, drained
    nodes everywhere) when a query first reaches it, so its size follows
    what is read, never how long a job holds its nodes.  The caller
    :meth:`reserve`-s nodes for planned placements as they are materialized.
    """

    def __init__(self, state: ClusterState, now: float, quantum_s: float,
                 horizon: int = 32) -> None:
        self.universe = state.universe
        self.now = now
        self.quantum_s = quantum_s
        self._state = state
        self.partitioning = state.partitioning
        self._held = state.held_quanta(now, quantum_s)
        self._occ = np.empty((horizon, self._held.shape[0]), dtype=bool)
        #: Rows ``[0, _seeded)`` are seeded (and maybe reserved since).
        self._seeded = 0

    def _span(self, start: int, duration: int) -> np.ndarray:
        """Occupancy of every node over ``[start, start+duration)``."""
        end = start + duration
        if end > self._seeded:
            if end > self._occ.shape[0]:
                grown = np.empty((max(end, 2 * self._occ.shape[0]),
                                  self._held.shape[0]), dtype=bool)
                grown[:self._seeded] = self._occ[:self._seeded]
                self._occ = grown
            np.less.outer(np.arange(self._seeded, end), self._held,
                          out=self._occ[self._seeded:end])
            self._seeded = end
        return self._occ[start:end]

    def free_rows(self, rows: np.ndarray, start: int,
                  duration: int) -> np.ndarray:
        """Those of ``rows`` (a partition's, ascending) free for the whole
        interval.  Exposed to the STRL compiler so greedy-mode MILPs never
        plan counts that node-level fragmentation would make unassignable."""
        return rows[~self._span(start, duration).any(axis=0)[rows]]

    # -- availability-provider interface (mirrors ClusterState) -------------
    def availability_profile(self, nodes: frozenset[str], horizon_quanta: int,
                             now: float, quantum_s: float) -> list[int]:
        """Free-node count per quantum, accounting for tentative plans."""
        if horizon_quanta <= 0:
            return []
        busy = self._span(0, horizon_quanta)[:, self._state.node_indices(nodes)]
        return (len(nodes) - busy.sum(axis=1)).tolist()

    def availability_grid(self, partitioning: Partitioning,
                          horizon_quanta: int, now: float,
                          quantum_s: float) -> np.ndarray:
        """:meth:`availability_profile` of every partition, one per row."""
        free = ~self._span(0, horizon_quanta)
        return np.stack([free[:, rows].sum(axis=1)
                         for rows in partitioning.rows])

    # -- occupancy ------------------------------------------------------------
    def is_free(self, node: str, start: int, duration: int) -> bool:
        """Whether ``node`` is free for the whole ``[start, start+duration)``."""
        row = self._state.node_indices(frozenset((node,)))
        return not self._span(start, duration)[:, row].any()

    def free_nodes_within(self, nodes: frozenset[str], start: int,
                          duration: int) -> list[str]:
        """Deterministically ordered nodes free for the whole interval."""
        order = self._state.node_order
        rows = self.free_rows(self._state.node_indices(nodes), start, duration)
        return [order[r] for r in rows.tolist()]

    def interval_free_count(self, nodes: frozenset[str], start: int,
                            duration: int) -> int:
        """Number of nodes free for the *entire* interval."""
        return len(self.free_nodes_within(nodes, start, duration))

    def _flip(self, nodes: Iterable[str], start: int, duration: int,
              occupied: bool, complaint: str) -> None:
        """Set the interval of every node, refusing cells already there.

        A drained node's cells belong to nobody: they can be neither
        reserved (they are occupied) nor released.
        """
        rows = self._state.node_indices(frozenset(nodes))
        window = self._span(start, duration)[:, rows]
        drained = self._held[rows] == HELD_FOREVER
        clash = np.argwhere(((window == occupied) | drained).T)
        if clash.size:
            r, t = clash[0]
            raise SchedulerError(
                f"node {self._state.node_order[rows[r]]!r} {complaint} "
                f"quantum {start + int(t)}")
        self._occ[start:start + duration, rows] = occupied

    def reserve(self, nodes: Iterable[str], start: int, duration: int) -> None:
        """Mark nodes busy for the interval (planned placement)."""
        self._flip(nodes, start, duration, True, "double-reserved at")

    def unreserve(self, nodes: Iterable[str], start: int,
                  duration: int) -> None:
        """Roll back a prior :meth:`reserve`/:meth:`pick` of these nodes.

        Used by the greedy (-NG) cycle to undo a job's earlier successful
        picks when a later placement of the same job turns out to be
        unassignable; without the rollback, the partial reservations would
        leak and every subsequent job in the cycle would see
        phantom-occupied capacity.
        """
        self._flip(nodes, start, duration, False, "was not reserved at")

    def pick(self, partitioning: Partitioning, node_counts: dict[int, int],
             start: int, duration: int) -> frozenset[str]:
        """Pick and reserve concrete nodes for a placement.

        ``node_counts`` maps partition id -> count, as decoded from the MILP.
        Raises :class:`SchedulerError` if the counts don't fit — that would
        mean the supply constraints and this accumulator disagree, i.e. a
        compiler bug.
        """
        busy = self._span(start, duration).any(axis=0)
        chosen: list[np.ndarray] = []
        for pid, count in sorted(node_counts.items()):
            rows = partitioning.rows[pid]
            free = rows[~busy[rows]]
            if len(free) < count:
                raise SchedulerError(
                    f"partition {pid} has {len(free)} free nodes for "
                    f"[{start},{start + duration}), need {count}")
            chosen.append(free[:count])
        if not chosen:
            return frozenset()
        picked = np.concatenate(chosen)
        self._occ[start:start + duration, picked] = True
        return frozenset(map(self._state.node_order.__getitem__,
                             picked.tolist()))
