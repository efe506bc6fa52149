"""Shared fixtures: the worked red/blue pair and assorted helpers.

The red module X (one generator at (2,2), one relation at (6,2)) and the
blue module Y (generators (0,1), (1,0); relations (2,2), (5,0), (5,1))
form the running example used throughout; Hom(X, Y) is one-dimensional.
"""

import pytest

from mphom import (
    GradedMatrix,
    Presentation,
    PrimeField,
    column_reduce,
    graded_matrix_from_entries,
    minimize,
)
from mphom.graded import _pairs, _slice_indices


def red_blue(p=3):
    """The worked example pair over GF(p): (X red, Y blue)."""
    fld = PrimeField(p)
    mx = graded_matrix_from_entries(fld, [(2, 2)], [(6, 2)], {(0, 0): 1})
    my = graded_matrix_from_entries(
        fld,
        [(0, 1), (1, 0)],
        [(2, 2), (5, 0), (5, 1)],
        {(0, 0): 1, (1, 0): -1, (1, 1): 1, (0, 2): 1},
    )
    return (
        minimize(Presentation(mx, label="red")),
        minimize(Presentation(my, label="blue")),
    )


def staircase_pair(p=2):
    """The thin staircase pair: X has one relation at (4,4) where the
    first syzygy module of Y is two-dimensional (out of six relations)."""
    fld = PrimeField(p)
    mx = graded_matrix_from_entries(fld, [(1, 1)], [(4, 4)], {(0, 0): 1})
    my = graded_matrix_from_entries(
        fld,
        [(1, 0), (0, 1)],
        [(1, 1), (0, 4), (1, 3), (2, 2), (3, 1), (4, 0)],
        {
            (0, 0): 1,
            (1, 0): -1,
            (1, 1): 1,
            (0, 2): 1,
            (0, 3): 1,
            (0, 4): 1,
            (0, 5): 1,
        },
    )
    return (
        minimize(Presentation(mx, label="stair-x")),
        minimize(Presentation(my, label="stair-y")),
    )


def zero_module(p=3):
    fld = PrimeField(p)
    return Presentation(
        GradedMatrix(fld, [], [], [], validate=False), minimal=True
    )


def free_module(degrees, p=3):
    fld = PrimeField(p)
    m = GradedMatrix(fld, list(degrees), [], [], validate=False)
    return Presentation(m, minimal=True)


@pytest.fixture
def fig_pair():
    return red_blue()


@pytest.fixture
def fig_pair_gf2():
    return red_blue(p=2)


def slice_view(ck):
    """(pivot row, residual, source relation) for each kept column of a
    local cokernel's reduced slice, in sweep order, whichever form the
    span takes: a packed GF(2) pivot dict is unpacked to (row, 1) pairs,
    a `ColumnSpan` gives its entries."""
    span = ck.span
    if isinstance(span, dict):
        entries = [(pivot, tuple(_pairs(bits))) for pivot, bits in span.items()]
    else:
        entries = [(e.pivot, e.column) for e in span.reduced]
    assert len(entries) == len(ck.syzygy_subset)
    return [(pivot, column, source)
            for (pivot, column), source in zip(entries, ck.syzygy_subset)]


def fresh_slice_view(matrix, alpha):
    """`slice_view` of a fresh `column_reduce` of N_{<=alpha}'s columns,
    in N's own row numbering."""
    _, col_idx = _slice_indices(matrix, alpha)
    fresh = column_reduce([matrix.columns[j] for j in col_idx], matrix.field)
    return [(e.pivot, e.column, col_idx[e.source]) for e in fresh.reduced]
