"""The leaf table is packed on first read, from the fragments' buffers.

``CompiledBatch`` keeps its fragments' list buffers as the leaf table's one
eager form: the table's arrays, the column bounds and the objective are
packed the first time something reads them, and the MILP's sizes are
counted run by run on the fragments' buffers where no model was assembled.
The eager pass every batch used to make at
compile time lives on here, verbatim but for its name, as the reference
(``EagerPacked``): on random batches — every combinator, multi-partition
leaves, interval-capped leaves that keep ``P``, ``LnCk`` / ``Min``,
preemption victims and resize candidates — the lazy arrays must be
byte-identical to it, and the sizes counted on the fragments must equal
both its count and ``model.stats()``.
"""

from itertools import accumulate, chain

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import PlanAccumulator, StrlCompiler
from repro.core.compiler import _chained, _concat, _sizes
from tests.core.test_arrival_cycle import gang
from tests.core.test_lazy_model import _scheduler
from tests.core.test_substitution import NODES, QUANTUM, _instances


class EagerPacked:
    """``_Packed`` as it was: columns, leaf table and objective converted
    at compile time, and the batch sized on the packed table."""

    def __init__(self, fragments) -> None:
        self.fragments = fragments
        self.ncols = ncols = fragments[-1].base + len(fragments[-1].col_ub)
        self.job_first = list(accumulate((len(f.leaves) for f in fragments),
                                         initial=0))
        leaves = self.job_first[-1]
        entries = sum(len(f.leaf_pcol) for f in fragments)
        terms = sum(len(f.objective) for f in fragments)
        # Four per leaf (leaf_parts after a 0: it becomes leaf_ptr in place),
        # two per leaf-table entry, then the objective's columns.
        ints = np.fromiter(chain(
            _chained(fragments, "leaf_indicator"),
            _chained(fragments, "leaf_start"),
            _chained(fragments, "leaf_duration"),
            (0,), _chained(fragments, "leaf_parts"),
            _chained(fragments, "leaf_pcol"), _chained(fragments, "leaf_pid"),
            _chained(fragments, "objective")),
            np.int64, count=4 * leaves + 1 + 2 * entries + terms)
        self.leaf_indicator = ints[:leaves]
        #: Per leaf: its interval (start, then duration); per leaf-table
        #: entry: the same, repeated over the leaf's partitions.
        self.intervals = ints[leaves:3 * leaves].reshape(2, leaves)
        self.leaf_ptr = ints[3 * leaves:4 * leaves + 1]
        self.entry_start, self.entry_dur = self.intervals.repeat(
            self.leaf_ptr[1:], axis=1)
        self.leaf_ptr.cumsum(out=self.leaf_ptr)
        at = 4 * leaves + 1
        self.leaf_pcol = ints[at:at + entries]
        self.leaf_pid = ints[at + entries:at + 2 * entries]
        floats = np.fromiter(chain(
            _chained(fragments, "col_ub"), _chained(fragments, "leaf_coef"),
            chain.from_iterable(f.objective.values() for f in fragments)),
            float, count=ncols + entries + terms)
        self.col_ub = floats[:ncols]
        self.leaf_coef = floats[ncols:ncols + entries]
        self.objective = np.zeros(ncols)
        self.objective[ints[at + 2 * entries:]] = floats[ncols + entries:]
        self.col_domain = _concat(fragments, "col_domain", np.int8)

    def sizes(self, partitions: int, horizon: int) -> dict[str, int]:
        """:meth:`Model.stats` of fragments plus supply rows, counted on the
        leaf table: a row per distinct ``(partition, quantum)`` cell some
        entry's interval covers, a nonzero per quantum covered."""
        width, frags = horizon + 1, self.fragments
        at = self.leaf_pid * width + self.entry_start
        opened = np.bincount(at, minlength=partitions * width)
        opened -= np.bincount(at + self.entry_dur, minlength=opened.shape[0])
        continuous, _, binary = np.bincount(self.col_domain,
                                            minlength=3).tolist()
        return {
            "variables": self.ncols,
            "integer_variables": self.ncols - continuous,
            "binary_variables": binary,
            "constraints": sum(f.num_constraints for f in frags)
            + int(np.count_nonzero(opened.reshape(-1, width).cumsum(axis=1))),
            "nonzeros": sum(len(f.row_cols) for f in frags)
            + int(self.entry_dur.sum())}


@st.composite
def _capped(draw):
    """An instance from ``_instances()``; one without candidates is seen,
    half the time, through a plan accumulator with reservations, whose
    interval caps leave some leaves fewer than ``k`` nodes."""
    (state, batch, victims, resizable), minimal = draw(_instances())
    if victims or resizable or draw(st.booleans()):
        return (state, batch, victims, resizable), minimal
    acc = PlanAccumulator(state, 0.0, QUANTUM)
    for node in draw(st.permutations(NODES))[:draw(st.integers(0, 5))]:
        if acc.is_free(node, 0, 6):
            acc.reserve([node], draw(st.integers(0, 4)),
                        draw(st.integers(1, 2)))
    return (acc, batch, victims, resizable), minimal


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(_capped())
def test_lazy_arrays_and_sizes_match_the_eager_pass(drawn):
    (provider, batch, victims, resizable), minimal = drawn
    compiled = StrlCompiler(provider, QUANTUM,
                            minimal_partitioning=minimal).compile(
        batch, preemptible=victims, resizable=resizable)
    candidates = bool(victims or compiled.resize_candidates)
    # A batch with candidates is assembled at once; one without is sized
    # from its fragments and has packed nothing yet.
    if not candidates:
        assert compiled.stats == _sizes(compiled.fragments, 0)
    assert compiled.packed is candidates
    want = EagerPacked(compiled.fragments)
    event("candidates" if candidates else "no candidates")
    if (want.leaf_pcol != want.leaf_indicator[np.searchsorted(
            want.leaf_ptr[1:], np.arange(want.leaf_pcol.shape[0]),
            "right")]).any():
        event("some leaf keeps its P columns")
    if (np.diff(want.leaf_ptr) > 1).any():
        event("some leaf draws on several partitions")

    for name in ("leaf_indicator", "leaf_ptr", "leaf_pcol", "leaf_pid",
                 "leaf_coef"):
        assert _same(getattr(compiled, name), getattr(want, name)), name
    col_ub, objective = want.col_ub, want.objective
    if victims:
        col_ub = np.concatenate([col_ub, np.ones(len(victims))])
        objective = np.concatenate([objective, np.array(
            [-float(cand.penalty) for cand in victims])])
    assert _same(compiled.col_ub, col_ub)
    assert _same(compiled.objective, objective)
    assert compiled.job_first == want.job_first
    assert compiled.horizon == int((want.intervals[0]
                                    + want.intervals[1]).max())

    sizes = _sizes(compiled.fragments, len(victims))
    assert all(type(v) is int for v in sizes.values())
    stats = compiled.model.stats()
    assert compiled.stats == stats
    if candidates:  # the model adds credits and commit rows, not columns
        assert all(sizes[key] == stats[key] for key in (
            "variables", "integer_variables", "binary_variables"))
    else:
        assert sizes == stats == want.sizes(
            compiled.partitioning.num_partitions, compiled.horizon)


def test_a_booked_cycle_packs_no_leaf_table_and_a_contended_one_packs_one():
    registry = obs.set_enabled(True)
    try:
        sched = _scheduler(audit=False)
        sched.submit(gang(sched.cluster, "a", 3, submit_time=0.0))
        sched.run_cycle(0.0)  # periodic, booked
        sched.submit(gang(sched.cluster, "b", 1, submit_time=1.0))
        sched.run_cycle(1.0, arrival=True)  # arrival, booked
        booked = registry.snapshot()["counters"]
        sched.submit(gang(sched.cluster, "c", 3, submit_time=9.0))
        sched.submit(gang(sched.cluster, "d", 3, submit_time=10.0))
        sched.run_cycle(12.0)  # a holds 3 of 4 nodes: contended
        after = registry.snapshot()["counters"]
    finally:
        obs.set_enabled(False)
    assert booked["scheduler.direct_booking.booked"] == 2
    assert booked["scheduler.arrival_cycle.booked"] == 1
    assert "scheduler.leaf_table.packed" not in booked
    assert after["scheduler.model.assembled"] == 1
    assert after["scheduler.leaf_table.packed"] == 1

