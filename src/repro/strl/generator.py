"""STRL Generator: job requests -> STRL expressions (Sec. 3.1, 4.3, 4.4).

The generator replicates each job's spatial placement options over every
possible start time in the plan-ahead window (time is quantized, so the
expression grows linearly with the window, Sec. 3.2.1), attaches the value of
the resulting completion time from the job's value function, and combines
everything under a ``max`` — the solver then picks the single most valuable
space-time shape.

Culling optimizations (Sec. 3.2.1, 7.3) are applied during generation:

* options whose completion would exceed the job's deadline are skipped;
* options with non-positive value are skipped;
* jobs that retain no options yield ``None`` (the scheduler drops them from
  this cycle's MILP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import StrlError
from repro.strl.ast import ElasticNCk, Max, NCk, StrlNode, Sum, _check_leaf
from repro.valuefn import ValueFunction


@dataclass(frozen=True)
class SpaceOption:
    """One spatial placement alternative for a job.

    A job type with heterogeneity preferences produces several options with
    different equivalence sets and durations — e.g. a GPU job offers
    ("GPU nodes", fast duration) and ("whole cluster", slow duration); an
    MPI job offers one option per rack (fast) plus the whole cluster (slow).

    Attributes
    ----------
    nodes:
        Equivalence set: names of nodes this option may draw from.
    k:
        Gang size — number of nodes required simultaneously.
    duration_s:
        Estimated runtime in seconds when placed this way.
    label:
        Diagnostic tag ("gpu", "rack:r0", "fallback", ...).
    """

    nodes: frozenset[str]
    k: int
    duration_s: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise StrlError(f"SpaceOption: k must be positive, got {self.k}")
        if self.duration_s <= 0:
            raise StrlError(
                f"SpaceOption: duration must be positive, got {self.duration_s}")

    @property
    def feasible(self) -> bool:
        """Whether the equivalence set is large enough for the gang."""
        return self.k <= len(self.nodes)


def quantize_duration(duration_s: float, quantum_s: float) -> int:
    """Convert seconds to an integral number of quanta, rounding up.

    Rounding up is the safe direction: the scheduler never plans a slot
    shorter than the job's estimated runtime.
    """
    if quantum_s <= 0:
        raise StrlError("quantum must be positive")
    return max(1, math.ceil(duration_s / quantum_s - 1e-6))


#: Default per-quantum completion-time bias (see generate_job_strl).
DEFAULT_EARLINESS_BIAS = 1e-3


def generate_job_strl(options: list[SpaceOption], value_fn: ValueFunction,
                      now: float, quantum_s: float, plan_ahead_quanta: int,
                      deadline: float | None = None,
                      cull: bool = True,
                      earliness_bias: float = DEFAULT_EARLINESS_BIAS) -> StrlNode | None:
    """Build one job's STRL expression for the current scheduling cycle.

    Parameters
    ----------
    options:
        Spatial alternatives from the job's framework plugin.  Options whose
        equivalence set is smaller than ``k`` are ignored.
    value_fn:
        Maps absolute completion time to value (see :mod:`repro.valuefn`).
    now:
        Absolute current time in seconds (cycle start).
    quantum_s:
        Time quantum; leaf ``start``/``duration`` are in these units.
    plan_ahead_quanta:
        Number of *future* start quanta to consider.  ``0`` disables
        plan-ahead (TetriSched-NP / alsched): the job may only start now.
    deadline:
        Absolute deadline; used for culling when ``cull`` is true.
    cull:
        Apply deadline/zero-value culling.  Disabled only by the culling
        ablation benchmark.
    earliness_bias:
        Deterministic tie-breaker: each leaf's value is scaled by
        ``max(0.1, 1 - bias * completion_quanta)``.  The paper's SLO value
        function is *constant* up to the deadline (Fig. 5), which leaves the
        MILP indifferent between starting a job now or deferring it, and
        between fast and slow placements that both meet the deadline.  The
        tiny bias makes the solver strictly prefer earlier completion
        without perturbing the 1000x/25x/1x priority ordering.  Set to 0 to
        recover the paper's raw value functions exactly.

    Returns
    -------
    The job's ``max`` expression, a single leaf, or ``None`` when every
    option was culled.
    """
    if plan_ahead_quanta < 0:
        raise StrlError("plan_ahead_quanta must be >= 0")
    leaves: list[NCk] = []
    latest = (deadline + 1e-9 if cull and deadline is not None
              else math.inf)
    for opt in options:
        if not opt.feasible:
            continue
        nodes, k = opt.nodes, opt.k
        dur_q = quantize_duration(opt.duration_s, quantum_s)
        checked = False
        for start_q in range(plan_ahead_quanta + 1):
            end_q = start_q + dur_q
            completion = now + end_q * quantum_s
            if completion > latest:
                break  # later starts only finish later; stop this option
            value = value_fn(completion)
            if cull and value <= 0.0:
                continue
            if earliness_bias and value > 0.0:
                scale = 1.0 - earliness_bias * end_q
                value *= scale if scale > 0.1 else 0.1  # max(0.1, scale)
            # An option's leaves differ only in start (>= 0) and value: its
            # first leaf gets NCk's whole check, the others the value's.
            if not checked:
                _check_leaf(nodes, k, start_q, dur_q, value, "nCk")
                checked = True
            elif value < 0:
                raise StrlError(f"nCk: value must be nonnegative, got {value}")
            leaves.append(NCk._unchecked(nodes, k, start_q, dur_q, value))
    if not leaves:
        return None
    if len(leaves) == 1:
        return leaves[0]
    return Max(*leaves)


def generate_elastic_strl(options: list[SpaceOption],
                          value_fn: ValueFunction,
                          now: float, quantum_s: float,
                          plan_ahead_quanta: int,
                          deadline: float | None = None,
                          cull: bool = True,
                          earliness_bias: float = DEFAULT_EARLINESS_BIAS,
                          width_cap: int | None = None) -> StrlNode | None:
    """Build a malleable job's STRL expression from its width family.

    ``options`` is one option per admissible gang width (``opt.k`` is the
    width; narrower widths carry longer durations — work conservation).
    Each start quantum becomes one :class:`ElasticNCk` covering every
    width that still meets the deadline with positive value at that start;
    the per-start nodes are combined under ``max`` exactly like rigid
    placement options.  ``width_cap`` implements the DRESS-style
    congestion guard: widths above the cap are dropped before generation,
    shrinking the job's claim when the ledger is oversubscribed.

    Falls back to :func:`generate_job_strl` when the option family is not
    a clean width ladder (mixed node sets or non-contiguous widths), so
    callers may pass any option list.
    """
    if plan_ahead_quanta < 0:
        raise StrlError("plan_ahead_quanta must be >= 0")
    family = sorted((opt for opt in options if opt.feasible),
                    key=lambda o: o.k)
    if width_cap is not None:
        capped = [opt for opt in family if opt.k <= width_cap]
        # Never cap below the narrowest admissible width: the guard
        # shrinks a job's claim, it must not evict the job entirely.
        family = capped or family[:1]
    if not family:
        return None
    widths = [opt.k for opt in family]
    is_ladder = (len(set(widths)) == len(widths)
                 and widths == list(range(widths[0], widths[-1] + 1))
                 and all(opt.nodes == family[0].nodes for opt in family)
                 and all(a.duration_s >= b.duration_s
                         for a, b in zip(family, family[1:])))
    if not is_ladder:
        return generate_job_strl(family, value_fn, now, quantum_s,
                                 plan_ahead_quanta, deadline, cull,
                                 earliness_bias)
    nodes = family[0].nodes
    per_start: list[StrlNode] = []
    for start_q in range(plan_ahead_quanta + 1):
        durs: list[int] = []
        vals: list[float] = []
        kept: list[int] = []
        for opt in family:
            dur_q = quantize_duration(opt.duration_s, quantum_s)
            completion = now + (start_q + dur_q) * quantum_s
            if cull and deadline is not None and completion > deadline + 1e-9:
                # Narrower widths finish even later — the surviving band
                # stays contiguous at the top of the width range.
                durs.clear(); vals.clear(); kept.clear()
                continue
            value = value_fn(completion)
            if cull and value <= 0.0:
                durs.clear(); vals.clear(); kept.clear()
                continue
            if earliness_bias and value > 0.0:
                value *= max(0.1, 1.0 - earliness_bias * (start_q + dur_q))
            durs.append(dur_q)
            vals.append(value)
            kept.append(opt.k)
        if not kept:
            continue
        if len(kept) == 1:
            per_start.append(NCk(nodes=nodes, k=kept[0], start=start_q,
                                 duration=durs[0], value=vals[0]))
        else:
            per_start.append(ElasticNCk(
                nodes=nodes, min_width=kept[0], max_width=kept[-1],
                start=start_q, durations=tuple(durs),
                value_per_width=tuple(vals)))
    if not per_start:
        return None
    if len(per_start) == 1:
        return per_start[0]
    return Max(*per_start)


def generate_batch_strl(job_exprs: list[StrlNode]) -> StrlNode | None:
    """Aggregate per-job expressions with the top-level ``sum`` (Sec. 3.2)."""
    if not job_exprs:
        return None
    if len(job_exprs) == 1:
        return Sum(job_exprs[0])
    return Sum(*job_exprs)
