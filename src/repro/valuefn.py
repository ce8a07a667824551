"""Value functions mapping job completion time to scheduler value (Fig. 5).

Value functions are the general mechanism TetriSched uses to encode
priorities, deadline sensitivity, budgets, or fairness (Sec. 3.2).  The
paper's experiments use exactly two shapes, reproduced here:

* **SLO jobs** (:class:`StepValue`): a constant value up to the deadline and
  zero after it.  The constant is ``1000x`` the best-effort base for SLO jobs
  with an accepted reservation and ``25x`` for SLO jobs whose reservation was
  rejected, prioritizing them accordingly (Sec. 6.2.2).
* **Best-effort jobs** (:class:`LinearDecayValue`): a linearly decaying
  function of completion time starting from the base constant, giving the
  scheduler an incentive to finish best-effort work early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

#: Base value constant shared by all experiments (the "v" of Fig. 5).
BASE_VALUE = 1.0
#: Multiplier for SLO jobs with an accepted reservation.
SLO_ACCEPTED_MULTIPLIER = 1000.0
#: Multiplier for SLO jobs without a reservation.
SLO_NO_RESERVATION_MULTIPLIER = 25.0


class ValueFunction(Protocol):
    """Maps an absolute completion time (seconds) to scalar value."""

    def __call__(self, completion_time: float) -> float: ...


@dataclass(frozen=True)
class StepValue:
    """Constant ``value`` for completions at or before ``deadline``, else 0."""

    value: float
    deadline: float

    def __call__(self, completion_time: float) -> float:
        return self.value if completion_time <= self.deadline else 0.0


@dataclass(frozen=True)
class LinearDecayValue:
    """Linear decay from ``value`` at ``release_time`` down to ``floor``.

    ``decay_horizon`` is the sojourn time at which the value would reach
    zero; the ``floor`` keeps long-waiting best-effort jobs schedulable
    (a zero-value job would be culled).
    """

    value: float
    release_time: float
    decay_horizon: float
    floor: float = 0.01

    def __post_init__(self) -> None:
        if self.decay_horizon <= 0:
            raise ValueError("decay_horizon must be positive")

    def __call__(self, completion_time: float) -> float:
        # ``max(0.0, s)`` and ``max(floor, d)`` as conditional expressions:
        # the same results, NaN included, without two builtin calls per leaf.
        sojourn = completion_time - self.release_time
        sojourn = sojourn if sojourn > 0.0 else 0.0
        decayed = self.value * (1.0 - sojourn / self.decay_horizon)
        return decayed if decayed > self.floor else self.floor


@dataclass(frozen=True)
class GraceStepValue:
    """A step function with a discounted grace window past the deadline.

    ``value`` until ``deadline``; ``value * late_factor`` until
    ``deadline + grace``; zero after.  The grace window absorbs scheduling
    artifacts (duration ceil-rounding, cycle misalignment) so that a job
    whose *estimated* completion barely overshoots is still scheduled
    ("optimistically allows scheduled jobs to complete if their deadline
    has not passed", Sec. 7.1) — but the discount keeps genuinely on-time
    placements strictly preferred whenever one exists.
    """

    value: float
    deadline: float
    grace: float
    late_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.grace < 0:
            raise ValueError("grace must be nonnegative")
        if not 0.0 <= self.late_factor <= 1.0:
            raise ValueError("late_factor must be within [0, 1]")

    def __call__(self, completion_time: float) -> float:
        if completion_time <= self.deadline:
            return self.value
        if completion_time <= self.deadline + self.grace:
            return self.value * self.late_factor
        return 0.0


def slo_value(deadline: float, accepted: bool,
              base: float = BASE_VALUE) -> StepValue:
    """The paper's SLO value function (Fig. 5).

    Parameters
    ----------
    deadline:
        Absolute deadline in seconds.
    accepted:
        Whether the Rayon reservation was accepted (1000x) or not (25x).
    """
    mult = SLO_ACCEPTED_MULTIPLIER if accepted else SLO_NO_RESERVATION_MULTIPLIER
    return StepValue(value=mult * base, deadline=deadline)


def best_effort_value(release_time: float, decay_horizon: float = 600.0,
                      base: float = BASE_VALUE) -> LinearDecayValue:
    """The paper's best-effort value function (Fig. 5): linear decay."""
    return LinearDecayValue(value=base, release_time=release_time,
                            decay_horizon=decay_horizon)


def scale_value(fn: ValueFunction, factor: float) -> Callable[[float], float]:
    """Multiply a value function by a constant factor."""
    def scaled(completion_time: float) -> float:
        return factor * fn(completion_time)
    return scaled
