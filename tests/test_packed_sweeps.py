"""The packed GF(2) sweeps against the generic column sweep.

Over GF(2), `kernel`, `_irredundant` and `nullspace_of_columns` reduce
int-packed columns with `_Gf2Span`.  The reference runs the same sweeps
on `_GenericSpan`, the generic `ColumnSpan` loop kept in test_graded.py,
which every prime shares; the outputs must be equal, matrices entry for
entry and nullspace vectors dict for dict.
"""

import random
from contextlib import contextmanager

import pytest

from mphom import (
    GradedMatrix,
    PrimeField,
    hom_module_presentation,
    kernel,
    nullspace_of_columns,
)
from mphom import presentations
from mphom.formats import serialize_pmod
from mphom.generators import random_pair

from test_graded import _ReferenceSpan

GF2 = PrimeField(2)


class _GenericSpan(_ReferenceSpan):
    """The generic sweep with the read-out the line sweeps use."""

    @staticmethod
    def combination(combo):
        return tuple(sorted(combo.items()))


@contextmanager
def _generic_sweeps():
    """Run `kernel` and `_irredundant` on the generic span at every
    prime, on unpacked columns."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentations, "_line_span",
                   lambda fld: (_GenericSpan, tuple))
        yield


def generic_kernel(matrix):
    with _generic_sweeps():
        return kernel(matrix)


def generic_irredundant(degrees, columns, fld):
    with _generic_sweeps():
        return presentations._irredundant(degrees, columns, fld)


def generic_nullspace(columns, fld):
    span = _GenericSpan(fld)
    for j, col in enumerate(columns):
        span.insert(col, source=j, record=True)
    return [combo for _, combo in span.zeroed]


def _gf2_matrix(rng, d, nrows, ncols, coord_range=4):
    """A graded GF(2) matrix whose columns mix zero ones, repeats of
    earlier ones, sums of two or three earlier ones (at the join of their
    degrees) and random supports."""
    def degree():
        return tuple(rng.randint(0, coord_range) for _ in range(d))

    rows = [degree() for _ in range(nrows)]
    cols, columns = [], []
    for _ in range(ncols):
        kind = rng.random()
        deg = degree()
        if kind < 0.1 or not rows:
            col = ()
        elif kind < 0.25 and columns:
            k = rng.randrange(len(columns))
            deg, col = tuple(map(max, deg, cols[k])), columns[k]
        elif kind < 0.45 and len(columns) >= 2:
            support = set()
            for k in rng.sample(range(len(columns)),
                                rng.randint(2, min(3, len(columns)))):
                deg = tuple(map(max, deg, cols[k]))
                support ^= {r for r, _ in columns[k]}
            col = tuple((r, 1) for r in sorted(support))
        else:
            below = [i for i, r in enumerate(rows)
                     if all(a <= b for a, b in zip(r, deg))]
            picked = rng.sample(below, min(len(below), rng.randint(1, 4)))
            col = tuple((r, 1) for r in sorted(picked))
        cols.append(deg)
        columns.append(col)
    return GradedMatrix(GF2, rows, cols, columns)


def _random_gf2_matrices(d):
    rng = random.Random(f"packed-sweeps:{d}")
    for nrows, ncols in ((0, 3), (1, 1), (3, 8), (6, 20), (10, 30),
                         (14, 45)):
        for _ in range(3):
            yield _gf2_matrix(rng, d, nrows, ncols)


def _edge_case_matrices():
    yield GradedMatrix(GF2, [(0, 0)], [], [])  # no columns
    yield GradedMatrix(GF2, [], [(1, 1), (0, 2)], [(), ()])  # no rows
    yield GradedMatrix(  # zero, repeated and dependent columns, tied degrees
        GF2, [(0, 0), (1, 0), (0, 1)], [(2, 2)] * 6,
        [(), ((0, 1), (2, 1)), ((0, 1), (2, 1)), ((1, 1),),
         ((0, 1), (1, 1), (2, 1)), ()],
    )
    yield GradedMatrix(GF2, [(0,)], [(3,), (3,), (1,)],
                       [((0, 1),), ((0, 1),), ((0, 1),)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_kernel_matches_the_generic_sweep(d):
    for m in _random_gf2_matrices(d):
        k = kernel(m)
        assert k == generic_kernel(m)
        if k.ncols:
            assert kernel(k) == generic_kernel(k)


def test_packed_kernel_matches_the_generic_sweep_on_edge_cases():
    for m in _edge_case_matrices():
        assert kernel(m) == generic_kernel(m)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_irredundant_matches_the_generic_sweep(d):
    for m in list(_random_gf2_matrices(d)) + [
            m for m in _edge_case_matrices() if m.dim == d]:
        assert presentations._irredundant(m.cols, m.columns, GF2) == (
            generic_irredundant(m.cols, m.columns, GF2))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_nullspace_matches_the_generic_sweep(d):
    for m in list(_random_gf2_matrices(d)) + list(_edge_case_matrices()):
        assert nullspace_of_columns(m.columns, GF2) == (
            generic_nullspace(m.columns, GF2))
    assert nullspace_of_columns([], GF2) == []


def test_packed_hom_module_presentation_matches_the_generic_sweep():
    """Both kernels of an n=40 Hom-module presentation and its minimize,
    serialized."""
    x, y = random_pair(11, d=2, gens=40, rels=40, coord_range=60, p=2)
    packed = hom_module_presentation(x, y)
    with _generic_sweeps():
        generic = hom_module_presentation(x, y)
    assert packed.matrix.ncols
    assert serialize_pmod(packed) == serialize_pmod(generic)
