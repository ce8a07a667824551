"""Unified solver options: one dataclass for every solve-control knob.

Historically each backend grew its own keyword arguments — ``rel_gap`` and
``time_limit`` on :func:`~repro.solver.backend.make_backend`, ``warm_start``
on every ``solve()``.  :class:`SolveOptions` replaces that scatter with a
single value object accepted by :func:`~repro.solver.backend.make_backend`,
both backends' ``solve()``, and
:func:`~repro.solver.decompose.solve_decomposed`.

Fields default to the :data:`UNSET` sentinel, meaning *inherit the
receiver's configured value*: a backend constructed with ``rel_gap=0.01``
keeps that gap unless a per-call ``SolveOptions(rel_gap=...)`` overrides
it.  This is what lets :func:`solve_decomposed` carve per-component time
budgets out of the cycle budget without re-specifying every other knob.

The legacy per-function keyword arguments went through a one-release
:class:`DeprecationWarning` window and have been removed; passing them now
raises :class:`TypeError` like any other unknown keyword.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np


class _Unset:
    """Singleton marking 'not specified' (distinct from a meaningful None)."""

    _instance: "_Unset | None" = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNSET"

    def __bool__(self) -> bool:
        return False


#: Sentinel for "field not specified": the receiver's own default applies.
#: ``time_limit=None`` means *unlimited*; ``time_limit=UNSET`` means *keep
#: whatever the backend was configured with* — they are different values.
UNSET: Any = _Unset()


def is_set(value: Any) -> bool:
    """True when ``value`` was explicitly specified (is not :data:`UNSET`)."""
    return value is not UNSET


@dataclass(frozen=True, eq=False)
class SolveOptions:
    """Every tunable of a MILP solve, in one place.

    Example
    -------
    >>> from repro.solver import SolveOptions, make_backend
    >>> backend = make_backend("pure", SolveOptions(rel_gap=0.01))
    >>> SolveOptions(time_limit=2.0).merged_into(
    ...     SolveOptions(rel_gap=0.5, time_limit=9.0)).time_limit
    2.0
    """

    #: Relative optimality gap at which the search may stop (the paper
    #: configures its solver for solutions within 10 % of optimal).
    rel_gap: float = UNSET
    #: Wall-clock budget per solve in seconds; ``None`` = unlimited.
    time_limit: float | None = UNSET
    #: Branch-and-bound node budget; ``None`` = unlimited (pure backend).
    node_limit: int | None = UNSET
    #: Feasible seed point for this call (model column order), or ``None``.
    warm_start: np.ndarray | None = UNSET

    def merged_into(self, base: "SolveOptions") -> "SolveOptions":
        """``base`` with every field this instance explicitly sets applied."""
        overrides = {f.name: getattr(self, f.name) for f in fields(self)
                     if is_set(getattr(self, f.name))}
        return replace(base, **overrides) if overrides else base

    def get(self, name: str, default: Any = None) -> Any:
        """Field value, or ``default`` when the field is :data:`UNSET`."""
        value = getattr(self, name)
        return value if is_set(value) else default


#: Library-wide defaults (mirrors the historical ``make_backend`` keyword
#: defaults); :func:`resolve` folds user options onto these.
DEFAULT_OPTIONS = SolveOptions(rel_gap=1e-6, time_limit=None,
                               node_limit=200_000, warm_start=None)


def resolve(options: SolveOptions | None) -> SolveOptions:
    """``options`` with every unset field filled from :data:`DEFAULT_OPTIONS`."""
    if options is None:
        return DEFAULT_OPTIONS
    return options.merged_into(DEFAULT_OPTIONS)


__all__ = ["DEFAULT_OPTIONS", "SolveOptions", "UNSET", "is_set", "resolve"]
