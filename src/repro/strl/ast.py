"""STRL abstract syntax tree (Sec. 4 of the paper).

A STRL expression is a function mapping resource space-time shapes to scalar
value; positive value means the expression is satisfied.  The node types are
exactly the paper's primitives and operators:

* :class:`NCk` — "n Choose k": any ``k`` nodes from an equivalence set,
  starting at quantized time ``start`` for ``duration`` quanta, worth
  ``value`` when satisfied (the principal leaf primitive, [R1]);
* :class:`LnCk` — "Linear n Choose k": like :class:`NCk` but accepts any
  count up to ``k`` and yields value proportionally (suppresses enumeration
  over ``k``);
* :class:`ElasticNCk` — malleable gang: choose *one* width ``w`` in
  ``[min_width, max_width]`` with a per-width duration and a monotone
  per-width value (the elastic/malleable extension; desugars to
  ``max`` over per-width ``nCk`` options, so the existing compiler
  combinators and column-group tagging apply unchanged);
* :class:`Max` — choose at most one child (soft constraints / OR, [R2]);
* :class:`Min` — all children must be satisfied (gang / anti-affinity /
  AND, [R3], [R4]);
* :class:`Sum` — aggregate independent children (global scheduling, [R5]);
* :class:`Scale` — multiply a child's value by a scalar;
* :class:`Barrier` — pass value ``v`` iff the child's value reaches ``v``.

Time is quantized: ``start`` and ``duration`` are integer counts of the
scheduler's time quantum, with ``start`` relative to the current cycle
(0 = "now").  Equivalence sets are frozensets of node names; the compiler
maps them onto minimal cluster partitions (Sec. 4.2, TR Appendix A).

All nodes are immutable; construction validates invariants eagerly so that
malformed requests fail at submission, not inside the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import StrlError


class StrlNode:
    """Base class for all STRL AST nodes."""

    __slots__ = ()

    def children(self) -> tuple["StrlNode", ...]:
        """Direct sub-expressions (empty for leaves)."""
        return ()

    def walk(self) -> Iterator["StrlNode"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def leaves(self) -> Iterator["NCk | LnCk"]:
        """All leaf primitives in the tree."""
        for node in self.walk():
            if isinstance(node, (NCk, LnCk)):
                yield node

    @property
    def size(self) -> int:
        """Total number of AST nodes."""
        return sum(1 for _ in self.walk())

    def horizon(self) -> int:
        """Last time quantum touched by any leaf (exclusive end)."""
        return max((leaf.start + leaf.duration for leaf in self.leaves()),
                   default=0)

    def referenced_nodes(self) -> frozenset[str]:
        """Union of all equivalence sets mentioned in the tree."""
        out: set[str] = set()
        for leaf in self.leaves():
            out |= leaf.nodes
        return frozenset(out)

    def max_value(self) -> float:
        """Upper bound on the value this expression can yield.

        Used by the generator to cull zero-value jobs (Sec. 7.3) and by
        tests as a sanity bound on solver objectives.
        """
        raise NotImplementedError


def _check_leaf(nodes: frozenset[str], k: int, start: int, duration: int,
                value: float, kind: str) -> None:
    if not isinstance(nodes, frozenset):
        raise StrlError(f"{kind}: equivalence set must be a frozenset of node names")
    if not nodes:
        raise StrlError(f"{kind}: equivalence set must not be empty")
    if k <= 0:
        raise StrlError(f"{kind}: k must be positive, got {k}")
    if k > len(nodes):
        raise StrlError(f"{kind}: k={k} exceeds equivalence set size {len(nodes)}")
    if start < 0:
        raise StrlError(f"{kind}: start must be >= 0, got {start}")
    if duration <= 0:
        raise StrlError(f"{kind}: duration must be positive, got {duration}")
    if value < 0:
        raise StrlError(f"{kind}: value must be nonnegative, got {value}")


@dataclass(frozen=True)
class NCk(StrlNode):
    """Choose exactly ``k`` nodes from ``nodes`` for ``duration`` quanta."""

    nodes: frozenset[str]
    k: int
    start: int
    duration: int
    value: float

    def __post_init__(self) -> None:
        _check_leaf(self.nodes, self.k, self.start, self.duration,
                    self.value, "nCk")

    @classmethod
    def _unchecked(cls, nodes: frozenset[str], k: int, start: int,
                   duration: int, value: float) -> "NCk":
        """A leaf whose fields the caller has already validated (the
        generator checks each placement option once, not each start)."""
        leaf = object.__new__(cls)
        leaf.__dict__.update(nodes=nodes, k=k, start=start,
                             duration=duration, value=value)
        return leaf

    def max_value(self) -> float:
        return self.value


@dataclass(frozen=True)
class LnCk(StrlNode):
    """Choose up to ``k`` nodes; value scales linearly with the count chosen."""

    nodes: frozenset[str]
    k: int
    start: int
    duration: int
    value: float

    def __post_init__(self) -> None:
        _check_leaf(self.nodes, self.k, self.start, self.duration,
                    self.value, "LnCk")

    def max_value(self) -> float:
        return self.value


@dataclass(frozen=True)
class ElasticNCk(StrlNode):
    """Malleable gang: exactly one width from ``[min_width, max_width]``.

    A malleable job runs at any gang width in a contiguous range; narrower
    widths take longer (work conservation) and are worth no more than wider
    ones.  ``durations`` and ``value_per_width`` are aligned to widths in
    ascending order (``min_width`` first).  The node behaves exactly like
    ``Max(nCk(w) for w in widths)`` — its :meth:`children` are the
    desugared per-width :class:`NCk` options, widest first, so the
    compiler, the audit oracle, and every tree query (``leaves``,
    ``horizon``, ``max_value``) see ordinary combinators — but it keeps
    the width-range semantics first-class so the auditor can check elastic
    conformance (chosen width within range, value reconciled at the
    *chosen* width).
    """

    nodes: frozenset[str]
    min_width: int
    max_width: int
    start: int
    durations: tuple[int, ...]
    value_per_width: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.min_width <= 0:
            raise StrlError(
                f"elastic: min_width must be positive, got {self.min_width}")
        if self.max_width < self.min_width:
            raise StrlError(
                f"elastic: max_width {self.max_width} < min_width "
                f"{self.min_width}")
        n_widths = self.max_width - self.min_width + 1
        if len(self.durations) != n_widths:
            raise StrlError(
                f"elastic: expected {n_widths} durations "
                f"(one per width), got {len(self.durations)}")
        if len(self.value_per_width) != n_widths:
            raise StrlError(
                f"elastic: expected {n_widths} values "
                f"(one per width), got {len(self.value_per_width)}")
        for lo, hi in zip(self.value_per_width, self.value_per_width[1:]):
            if hi < lo - 1e-12:
                raise StrlError(
                    "elastic: value_per_width must be monotone "
                    f"non-decreasing in width, got {self.value_per_width}")
        # Each desugared width option is a full NCk and inherits its
        # validation (nonempty frozenset, k <= |nodes|, duration > 0, ...).
        options = tuple(
            NCk(self.nodes, self.min_width + i, self.start,
                self.durations[i], self.value_per_width[i])
            for i in reversed(range(n_widths)))
        object.__setattr__(self, "_options", options)

    @property
    def widths(self) -> tuple[int, ...]:
        """Admissible gang widths, ascending."""
        return tuple(range(self.min_width, self.max_width + 1))

    def children(self) -> tuple[StrlNode, ...]:
        """Desugared per-width NCk options, widest (fastest) first."""
        return self._options

    def option_for_width(self, width: int) -> NCk:
        """The desugared NCk option at one admissible width."""
        if not self.min_width <= width <= self.max_width:
            raise StrlError(
                f"elastic: width {width} outside "
                f"[{self.min_width}, {self.max_width}]")
        return self._options[self.max_width - width]

    def max_value(self) -> float:
        return max(self.value_per_width)


def _check_operator(children: tuple[StrlNode, ...], kind: str) -> None:
    if not children:
        raise StrlError(f"{kind}: needs at least one sub-expression")
    for c in children:
        if not isinstance(c, StrlNode):
            raise StrlError(f"{kind}: child {c!r} is not a STRL expression")


@dataclass(frozen=True)
class Max(StrlNode):
    """OR: the solver picks at most one satisfied child (the most valuable)."""

    subexprs: tuple[StrlNode, ...]

    def __init__(self, *subexprs: StrlNode) -> None:
        flat = _flatten(subexprs)
        _check_operator(flat, "max")
        object.__setattr__(self, "subexprs", flat)

    def children(self) -> tuple[StrlNode, ...]:
        return self.subexprs

    def max_value(self) -> float:
        return max(c.max_value() for c in self.subexprs)


@dataclass(frozen=True)
class Min(StrlNode):
    """AND: satisfied iff every child is satisfied; yields the minimum value."""

    subexprs: tuple[StrlNode, ...]

    def __init__(self, *subexprs: StrlNode) -> None:
        flat = _flatten(subexprs)
        _check_operator(flat, "min")
        object.__setattr__(self, "subexprs", flat)

    def children(self) -> tuple[StrlNode, ...]:
        return self.subexprs

    def max_value(self) -> float:
        return min(c.max_value() for c in self.subexprs)


@dataclass(frozen=True)
class Sum(StrlNode):
    """Aggregate independent children; value is the sum of child values."""

    subexprs: tuple[StrlNode, ...]

    def __init__(self, *subexprs: StrlNode) -> None:
        flat = _flatten(subexprs)
        _check_operator(flat, "sum")
        object.__setattr__(self, "subexprs", flat)

    def children(self) -> tuple[StrlNode, ...]:
        return self.subexprs

    def max_value(self) -> float:
        return sum(c.max_value() for c in self.subexprs)


@dataclass(frozen=True)
class Scale(StrlNode):
    """Amplify the child's value by nonnegative scalar ``factor``."""

    subexpr: StrlNode
    factor: float

    def __post_init__(self) -> None:
        if not isinstance(self.subexpr, StrlNode):
            raise StrlError("scale: child is not a STRL expression")
        if self.factor < 0:
            raise StrlError(f"scale: factor must be nonnegative, got {self.factor}")

    def children(self) -> tuple[StrlNode, ...]:
        return (self.subexpr,)

    def max_value(self) -> float:
        return self.factor * self.subexpr.max_value()


@dataclass(frozen=True)
class Barrier(StrlNode):
    """Yield exactly ``threshold`` iff the child's value reaches it."""

    subexpr: StrlNode
    threshold: float

    def __post_init__(self) -> None:
        if not isinstance(self.subexpr, StrlNode):
            raise StrlError("barrier: child is not a STRL expression")
        if self.threshold < 0:
            raise StrlError(
                f"barrier: threshold must be nonnegative, got {self.threshold}")

    def children(self) -> tuple[StrlNode, ...]:
        return (self.subexpr,)

    def max_value(self) -> float:
        return self.threshold if self.subexpr.max_value() >= self.threshold else 0.0


def _flatten(subexprs) -> tuple[StrlNode, ...]:
    """Accept either varargs of nodes or a single iterable of nodes."""
    if len(subexprs) == 1 and not isinstance(subexprs[0], StrlNode):
        try:
            return tuple(subexprs[0])
        except TypeError as exc:
            raise StrlError(f"invalid sub-expressions: {subexprs[0]!r}") from exc
    return tuple(subexprs)
