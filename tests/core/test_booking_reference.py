"""Direct booking and decoding against the vectorized code they replaced.

``CompiledBatch._book`` and ``CompiledBatch.active_leaves`` loop over what a
decision visits (the jobs booked before the first miss, the used entries)
instead of making a fixed set of numpy calls over the whole leaf table.  The
whole-table versions live on here, verbatim but for reading the batch through
its public attributes, as the reference: on random batches — single- and
multi-partition leaves, interval-capped leaves that keep their ``P`` column,
batches that are not flat — both must return the same ``(x, miss)`` to the
bit and the same active leaves.  Booking reads the fragments' buffers, not
the packed table, and records what it chose: the batch's decode of the
booked point is that record, and it must equal the packed table's decode of
the same point.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState
from repro.core import PlanAccumulator, StrlCompiler
from repro.strl import LnCk, Max, Min, NCk

NODES = [f"n{i}" for i in range(8)]
UNIVERSE = frozenset(NODES)
QUANTUM = 10.0


def reference_book(batch):
    """``_book`` as it was: ~15 numpy calls over the whole table."""
    if not batch.flat or batch.preemption_columns or batch.resize_candidates:
        return None, None
    leaves, ptr = batch.leaves, batch.leaf_ptr
    ub = batch.col_ub
    supply = np.zeros((len(batch.partitioning.partitions), batch.horizon))
    for pid, profile in batch.availability.items():
        supply[pid] = profile
    left = supply.copy()
    wanted = np.bincount(batch.leaf_pid, minlength=supply.shape[0])
    crowd = np.add.reduceat(wanted[batch.leaf_pid], ptr[:-1])
    first = np.searchsorted(
        batch.leaf_job, np.arange(len(batch.job_order) + 1)).tolist()

    def by_preference(j):
        lo, hi = first[j], first[j + 1]
        keys = list(zip([-leaf.value for leaf in leaves[lo:hi]],
                        crowd[lo:hi].tolist()))
        return [lo + i for i in sorted(range(hi - lo),
                                       key=keys.__getitem__)]

    def cells(grid, i):
        start = leaves[i].start
        return grid[batch.leaf_pid[ptr[i]:ptr[i + 1]],
                    start:start + leaves[i].duration]

    def room(grid, i):
        entries = slice(ptr[i], ptr[i + 1])
        return np.minimum(
            ub[batch.leaf_pcol[entries]] * batch.leaf_coef[entries],
            cells(grid, i).min(axis=1))

    x = np.zeros(ub.shape[0])
    for j, job_id in enumerate(batch.job_order):
        lost = None
        for i in by_preference(j):
            leaf = leaves[i]
            if leaf.value <= 0.0 or (lost is not None
                                     and leaf.value < leaves[lost].value):
                break
            free = room(left, i)
            if free.sum() < leaf.k:
                if lost is None and room(supply, i).sum() >= leaf.k:
                    lost = i
                continue
            pids = batch.leaf_pid[ptr[i]:ptr[i + 1]]
            need = leaf.k
            for e in np.argsort(wanted[pids], kind="stable").tolist():
                take = min(need, free[e])
                if take > 0:
                    x[batch.leaf_pcol[ptr[i] + e]] = (
                        take / batch.leaf_coef[ptr[i] + e])
                    left[pids[e],
                         leaf.start:leaf.start + leaf.duration] -= take
                    need -= take
            x[batch.leaf_indicator[i]] = 1.0
            x[batch.job_columns[job_id]] = 1.0
            lost = None
            break
        if lost is not None:
            taken = cells(supply, lost) - cells(left, lost)
            row, quantum = np.unravel_index(np.argmax(taken), taken.shape)
            return None, (job_id, int(batch.leaf_pid[ptr[lost] + row]),
                          leaves[lost].start + int(quantum))
    return x, None


def reference_active_leaves(batch, x):
    """``active_leaves`` as it was: one gather and an entry->leaf repeat
    over the whole table."""
    x = np.asarray(x, dtype=float)
    counts = np.rint(x[batch.leaf_pcol] * batch.leaf_coef).astype(np.int64)
    is_nck = np.array([type(leaf) is NCk for leaf in batch.leaves], bool)
    live = ~is_nck | (x[batch.leaf_indicator] >= 0.5)
    entry_leaf = np.repeat(np.arange(len(batch.leaves)),
                           np.diff(batch.leaf_ptr))
    used = np.flatnonzero((counts > 0) & live[entry_leaf])
    chosen = {}
    for leaf, pid, count in zip(entry_leaf[used].tolist(),
                                batch.leaf_pid[used].tolist(),
                                counts[used].tolist()):
        chosen.setdefault(leaf, {})[pid] = count
    return list(chosen.items())


@st.composite
def _leaf(draw, kind=NCk):
    # Random subsets of the nodes: leaves that overlap split the cluster
    # into partitions, so many leaves draw on several of them.
    nodes = frozenset(draw(st.permutations(NODES))[:draw(st.integers(1, 8))])
    return kind(nodes, draw(st.integers(1, len(nodes))),
                draw(st.integers(0, 4)), draw(st.integers(1, 3)),
                float(draw(st.sampled_from([0.0, 1.0, 2.0, 2.0, 5.0, 7.5]))))


_flat_job = st.one_of(_leaf(), st.lists(_leaf(), min_size=1, max_size=6)
                      .map(lambda leaves: Max(*leaves)))
#: Not flat: the bound ``sum_j U_j`` does not hold, the batch is not booked.
_other_job = st.one_of(
    _leaf(LnCk),
    st.lists(_leaf(), min_size=2, max_size=3).map(lambda ls: Min(*ls)))


@st.composite
def _batches(draw):
    jobs = draw(st.lists(_flat_job, min_size=1, max_size=5))
    if draw(st.integers(0, 3)) == 0:
        jobs.insert(draw(st.integers(0, len(jobs))), draw(_other_job))
    return [(f"job{i}", expr) for i, expr in enumerate(jobs)]


@st.composite
def _providers(draw):
    """A cluster with running jobs, maybe a drained node — and maybe seen
    through a plan accumulator with reservations, whose interval caps leave
    some leaves fewer than ``k`` nodes (their ``P`` is not substituted)."""
    state = ClusterState(UNIVERSE)
    free = list(draw(st.permutations(NODES)))
    for i in range(draw(st.integers(0, 3))):
        held = [free.pop() for _ in range(min(len(free),
                                              draw(st.integers(1, 3))))]
        if held:
            state.start(f"run{i}", frozenset(held), 0.0,
                        draw(st.sampled_from([5.0, 15.0, 25.0, 45.0])))
    if free and draw(st.booleans()):
        state.drain(free.pop())
    if not draw(st.booleans()):
        return state
    acc = PlanAccumulator(state, 0.0, QUANTUM)
    for node in free[:draw(st.integers(0, len(free)))]:
        acc.reserve([node], draw(st.integers(0, 5)), draw(st.integers(1, 3)))
    return acc


def _solutions(batch):
    """Points to decode: 0/1 columns and fractions that round either way."""
    n = batch.col_ub.shape[0]
    return st.lists(st.sampled_from([0.0, 0.0, 0.4, 0.5, 0.6, 1.0, 2.0, 3.0]),
                    min_size=n, max_size=n).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_providers(), _batches(), st.booleans(), st.data())
def test_booking_and_decoding_match_the_vectorized_reference(
        provider, batch, minimal, data):
    compiled = StrlCompiler(provider, QUANTUM,
                            minimal_partitioning=minimal).compile(batch)
    x, miss = compiled.book_directly()
    # Booking read the fragments' buffers: the booked point decodes to the
    # record it kept, before and after the table is packed, and that is
    # what the packed arrays decode any other copy of the point to.
    recorded = (compiled.decode(x), compiled.chosen_plan(x)) if (
        x is not None) else None
    assert not compiled.packed
    want_x, want_miss = reference_book(compiled)
    event("booked" if x is not None else
          "missed" if miss is not None else "not flat")
    owner = np.searchsorted(compiled.leaf_ptr[1:],
                            np.arange(compiled.leaf_pcol.shape[0]), "right")
    if (compiled.leaf_pcol != compiled.leaf_indicator[owner]).any():
        event("some leaf keeps its P columns")
    if (np.diff(compiled.leaf_ptr) > 1).any():
        event("some leaf draws on several partitions")
    assert miss == want_miss
    assert (x is None) == (want_x is None)
    if x is not None:
        assert x.tobytes() == want_x.tobytes()
        assert (compiled.active_leaves(x)
                == reference_active_leaves(compiled, x))
        assert recorded == (compiled.decode(x), compiled.chosen_plan(x)) == (
            compiled.decode(x.copy()), compiled.chosen_plan(x.copy()))
    point = data.draw(_solutions(compiled))
    assert (compiled.active_leaves(point)
            == reference_active_leaves(compiled, point))
    # A point changed in place between two decodes decodes to what it holds.
    compiled.decode(point)
    point[:] = data.draw(_solutions(compiled))
    assert compiled.decode(point) == compiled.decode(point.copy())


def test_a_batch_that_is_not_flat_is_not_booked():
    leaf = NCk(UNIVERSE, 2, 0, 2, 5.0)
    for other in (LnCk(UNIVERSE, 4, 0, 2, 8.0),
                  Min(NCk(frozenset(NODES[:4]), 2, 0, 2, 5.0),
                      NCk(frozenset(NODES[4:]), 2, 0, 2, 5.0))):
        compiled = StrlCompiler(ClusterState(UNIVERSE), QUANTUM).compile(
            [("flat", leaf), ("other", other)])
        assert compiled.book_directly() == (None, None)
        assert reference_book(compiled) == (None, None)
