"""The pre-substitution formulation, as a test reference.

The compiler writes an ``nCk`` leaf with an indicator of its own that
draws on one partition as the time-indexed column it is: no partition
variable, no demand row, ``k`` nodes per unit of ``I`` in the supply rows.
:func:`expand_substituted` puts ``P`` and ``sum P == k * I`` back where the
compiler used to write them, and :func:`pre_substitution` makes every
compile in its scope assemble such fragments — the model the parent of
that change emitted, bit for bit (``tests/core/test_golden_export.py``
holds its digests), decoded by the same leaf table with coefficient 1.
"""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

from repro.core import compiler as compiler_module
from repro.core.compiler import JobFragment

_INTEGER, _DEMAND_NCK = 1, 0


def expand_substituted(frag: JobFragment, shift: int = 0) -> JobFragment:
    """``frag`` moved ``shift`` cycle columns right, with every substituted
    leaf's ``P`` column (right after its indicator) and demand row (in
    emission order) re-inserted."""
    entry = 0
    substituted: list[tuple[int, int]] = []  # (leaf, entry)
    for i, (parts, ind) in enumerate(zip(frag.leaf_parts,
                                         frag.leaf_indicator)):
        if frag.leaf_pcol[entry] == ind:
            substituted.append((i, entry))
        entry += parts
    if not substituted and not shift:
        return frag

    # Old column base + j lands at new_base + j + (number of P columns
    # inserted before it); ``moved`` is indexed by j.
    base, new_base = frag.base, frag.base + shift
    after = sorted(frag.leaf_indicator[i] - base for i, _ in substituted)
    inserted, moved = 0, []
    for col in range(frag.num_variables):
        moved.append(new_base + col + inserted)
        if inserted < len(after) and after[inserted] == col:
            inserted += 1
    ncols = frag.num_variables + len(after)
    col_ub, col_domain, col_counter = ([None] * ncols for _ in range(3))
    for col, new in enumerate(moved):
        col_ub[new - new_base] = frag.col_ub[col]
        col_domain[new - new_base] = frag.col_domain[col]
        col_counter[new - new_base] = frag.col_counter[col]

    # Rows carry the counter they were emitted under, and counters only
    # grow: sorting by it interleaves the demand rows where they were.
    rows, at = [], 0
    for length, is_eq, kind, counter in zip(frag.row_len, frag.row_is_eq,
                                            frag.row_kind, frag.row_counter):
        rows.append((counter, is_eq, kind,
                     [moved[c - base] for c in frag.row_cols[at:at + length]],
                     frag.row_coefs[at:at + length]))
        at += length
    leaf_pcol = [moved[c - base] for c in frag.leaf_pcol]
    for i, e in substituted:
        ind = frag.leaf_indicator[i] - base
        p, counter = moved[ind] + 1, frag.col_counter[ind] + 1
        k = float(frag.leaves[i].k)
        col_ub[p - new_base] = k
        col_domain[p - new_base] = _INTEGER
        col_counter[p - new_base] = counter
        rows.append((counter, True, _DEMAND_NCK, [p, moved[ind]], [1.0, -k]))
        leaf_pcol[e] = p
    rows.sort(key=lambda row: row[0])

    return replace(
        frag, base=new_base, col_ub=col_ub, col_domain=col_domain,
        col_counter=col_counter,
        row_len=[len(row[3]) for row in rows],
        row_is_eq=[row[1] for row in rows],
        row_kind=[row[2] for row in rows],
        row_counter=[row[0] for row in rows],
        row_cols=[c for row in rows for c in row[3]],
        row_coefs=[v for row in rows for v in row[4]],
        objective={moved[c - base]: v for c, v in frag.objective.items()},
        leaf_indicator=[moved[c - base] for c in frag.leaf_indicator],
        leaf_pcol=leaf_pcol, leaf_coef=[1.0] * len(leaf_pcol))


@contextmanager
def pre_substitution():
    """Every ``StrlCompiler.compile`` in scope emits the expanded model."""
    assemble = compiler_module.assemble_batch

    def expanded(fragments, *args, **kwargs):
        # Each fragment moves right by the columns inserted before it.
        out, shift = [], 0
        for frag in fragments:
            out.append(expand_substituted(frag, shift))
            shift += out[-1].num_variables - frag.num_variables
        return assemble(out, *args, **kwargs)

    with mock.patch.object(compiler_module, "assemble_batch", expanded):
        yield
