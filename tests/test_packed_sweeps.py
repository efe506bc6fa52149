"""The carried line sweeps against the per-line loops they replace, and
the packed GF(2) sweeps against the generic ones.

`kernel` and `_irredundant` carry one column reduction along each chain
of lines (`presentations._line_sweep`).  The references are the loops
that reduced every line from scratch, kept here: `per_line_kernel` and
`per_line_irredundant`, on `ColumnSpan`, or over GF(2) on `_Gf2Span`
(the recording packed span those loops used, kept here) with the
columns packed once per call, as those loops chose; given a
span type they run on it at every prime, `_ReferenceSpan` being the
generic `ColumnSpan` loop kept in test_graded.py.  Outputs must be
equal, matrices entry for entry.  Over GF(2) the sweeps run on packed
ints (`graded._Gf2Chain`); `field_chains` runs them on `_FieldChain`,
which serves every other prime, so the two can be compared on one
input.
"""

import random
from contextlib import contextmanager
from operator import le

import pytest

from mphom import (
    ColumnSpan,
    GradedMatrix,
    PrimeField,
    hom_module_presentation,
    kernel,
    nullspace_of_columns,
)
from mphom import graded, homspace, presentations
from mphom.formats import serialize_pmod
from mphom.generators import random_pair
from mphom.graded import _bits, _pack

from test_graded import _ReferenceSpan

GF2 = PrimeField(2)
PRIMES = (2, 5, 65521)


class _Gf2Span:
    """A recording GF(2) column span over packed columns (`_pack`): a
    step XORs a stored column into the residual, the pivot is the
    highest bit, and each stored column carries its combination of
    sources as an int, bit j for source j.  `insert` returns whether the
    column was kept; a zeroed one appends (source, combination) to
    `zeroed`."""

    def __init__(self):
        self._by_pivot = {}
        self.zeroed = []

    def insert(self, bits, source):
        combo = 1 << source
        while bits:
            pivot = bits.bit_length() - 1
            other = self._by_pivot.get(pivot)
            if other is None:
                self._by_pivot[pivot] = (bits, combo)
                return True
            bits ^= other[0]
            combo ^= other[1]
        self.zeroed.append((source, combo))
        return False


def _line_span(fld, span_type=None, record=False):
    """(new span, column packing) of the per-line loops: a recording
    `_Gf2Span` on packed columns over GF(2), else a `ColumnSpan`, unless
    a span type is given; `new span` takes no argument."""
    if span_type is None and fld.p == 2:
        return _Gf2Span, _pack
    span_type = span_type or ColumnSpan
    return (lambda: span_type(fld, record)), tuple


def per_line_irredundant(degrees, columns, fld, span_type=None):
    """`_irredundant` as one fresh rank-only span per distinct head h:
    walking the columns in (last coordinate, head, index) order up to
    the last one of head h, it takes each one of head <= h and keeps
    those of head h that enlarge it."""
    new_span, pack = _line_span(fld, span_type)
    heads = list(dict.fromkeys(deg[:-1] for deg in degrees))
    head_of = {h: i for i, h in enumerate(heads)}
    order = sorted(range(len(degrees)), key=lambda j: (
        degrees[j][-1:], presentations._degree_sort_key(degrees[j][:-1]), j))
    sweep = [(j, head_of[degrees[j][:-1]], pack(columns[j])) for j in order]
    last = {h: pos for pos, (_, h, _) in enumerate(sweep)}
    keep = []
    for line, stop in last.items():
        below = [all(map(le, h, heads[line])) for h in heads]
        span = new_span()
        for j, h, column in sweep[:stop + 1]:
            if below[h] and span.insert(column, j) and h == line:
                keep.append(j)
    return sorted(keep)


def per_line_kernel(matrix, span_type=None, found=None):
    """`kernel` as one fresh recording span per line of the join closure
    of the heads, over the columns whose head lies below the line, in
    (last coordinate, index) order; a column that gave a generator on a
    line a' <= a is skipped on a.  The generators found before the
    d >= 3 filter are appended to `found` when it is given."""
    fld = matrix.field
    cols = matrix.cols
    if not cols:
        return GradedMatrix(fld, cols, [], [], validate=False)
    new_span, pack = _line_span(fld, span_type, record=True)
    heads = list(dict.fromkeys(c[:-1] for c in cols))
    head_of = {h: i for i, h in enumerate(heads)}
    order = sorted(range(len(cols)), key=lambda j: (cols[j][-1:], j))
    sweep = [(j, head_of[cols[j][:-1]], pack(matrix.columns[j]))
             for j in order]
    found = [] if found is None else found
    gave = []
    for line in presentations._join_closure(heads):
        below = [all(map(le, h, line)) for h in heads]
        dead = set()
        for earlier, js in gave:
            if all(map(le, earlier, line)):
                dead.update(js)
        line_span = new_span()
        zeroed = []
        for j, h, column in sweep:
            if not below[h] or j in dead:
                continue
            if not line_span.insert(column, j):
                zeroed.append(j)
                combo = line_span.zeroed[-1][1]
                combo = (tuple([(k, 1) for k in _bits(combo)])
                         if isinstance(combo, int)
                         else tuple(sorted(combo.items())))
                found.append((line + cols[j][-1:], j, combo))
        if zeroed:
            gave.append((line, zeroed))
    found.sort(key=lambda g: (presentations._degree_sort_key(g[0]), g[1]))
    degrees = [g[0] for g in found]
    columns = [g[2] for g in found]
    if len(cols[0]) >= 3:
        keep = per_line_irredundant(degrees, columns, fld, span_type)
        degrees = [degrees[k] for k in keep]
        columns = [columns[k] for k in keep]
    return GradedMatrix(fld, cols, degrees, columns, validate=False)


@contextmanager
def field_chains():
    """Run the carried sweeps on `_FieldChain` at every prime, GF(2)
    included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graded, "_Gf2Chain", graded._FieldChain)
        yield


def generic_nullspace(columns, fld):
    span = _ReferenceSpan(fld, record=True)
    for j, col in enumerate(columns):
        span.insert(col, source=j)
    return [combo for _, combo in span.zeroed]


def _random_matrix(rng, fld, d, nrows, ncols, coord_range=4):
    """A graded matrix whose columns mix zero ones, multiples of earlier
    ones, combinations of two or three earlier ones (at the join of
    their degrees) and random supports.  Coefficients are drawn only
    over primes other than 2."""
    p = fld.p

    def degree():
        return tuple(rng.randint(0, coord_range) for _ in range(d))

    def scalar():
        return 1 if p == 2 else rng.randint(1, p - 1)

    rows = [degree() for _ in range(nrows)]
    cols, columns = [], []
    for _ in range(ncols):
        kind = rng.random()
        deg = degree()
        if kind < 0.1 or not rows:
            col = ()
        elif kind < 0.25 and columns:
            k = rng.randrange(len(columns))
            s = scalar()
            deg = tuple(map(max, deg, cols[k]))
            col = tuple((r, v * s % p) for r, v in columns[k])
        elif kind < 0.45 and len(columns) >= 2:
            acc = {}
            for k in rng.sample(range(len(columns)),
                                rng.randint(2, min(3, len(columns)))):
                deg = tuple(map(max, deg, cols[k]))
                s = scalar()
                for r, v in columns[k]:
                    acc[r] = (acc.get(r, 0) + s * v) % p
            col = tuple((r, v) for r, v in sorted(acc.items()) if v)
        else:
            below = [i for i, r in enumerate(rows)
                     if all(a <= b for a, b in zip(r, deg))]
            picked = rng.sample(below, min(len(below), rng.randint(1, 4)))
            col = tuple((r, scalar()) for r in sorted(picked))
        cols.append(deg)
        columns.append(col)
    return GradedMatrix(fld, rows, cols, columns)


def _random_matrices(d, p=2):
    fld = PrimeField(p)
    rng = random.Random(f"packed-sweeps:{d}" if p == 2
                        else f"line-sweeps:{d}:{p}")
    for nrows, ncols in ((0, 3), (1, 1), (3, 8), (6, 20), (10, 30),
                         (14, 45)):
        for _ in range(3):
            yield _random_matrix(rng, fld, d, nrows, ncols)


def _edge_case_matrices(p=2):
    fld = PrimeField(p)
    u = p - 1  # a unit other than 1 unless p = 2
    yield GradedMatrix(fld, [(0, 0)], [], [])  # no columns
    yield GradedMatrix(fld, [], [(1, 1), (0, 2)], [(), ()])  # no rows
    yield GradedMatrix(  # zero, repeated and dependent columns, tied degrees
        fld, [(0, 0), (1, 0), (0, 1)], [(2, 2)] * 6,
        [(), ((0, 1), (2, 1)), ((0, u), (2, u)), ((1, 1),),
         ((0, 1), (1, 1), (2, 1)), ()],
    )
    yield GradedMatrix(fld, [(0,)], [(3,), (3,), (1,)],
                       [((0, 1),), ((0, u),), ((0, 1),)])
    yield GradedMatrix(fld, [(0, 0, 0)], [(1, 2, 0)] * 3 + [(0, 0, 5)],
                       [(), ((0, 1),), ((0, u),), ((0, 1),)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_kernel_matches_the_generic_sweep(d):
    """GF(2): the carried packed sweep equals the per-line loop on packed
    spans and on the generic span, and the carried `_FieldChain`."""
    for m in _random_matrices(d):
        k = kernel(m)
        assert k == per_line_kernel(m)
        assert k == per_line_kernel(m, _ReferenceSpan)
        with field_chains():
            assert kernel(m) == k
        if k.ncols:
            assert kernel(k) == per_line_kernel(k, _ReferenceSpan)


def test_packed_kernel_matches_the_generic_sweep_on_edge_cases():
    for p in PRIMES:
        for m in _edge_case_matrices(p):
            k = kernel(m)
            assert k == per_line_kernel(m)
            assert k == per_line_kernel(m, _ReferenceSpan)
            with field_chains():
                assert kernel(m) == k


@pytest.mark.parametrize("p", [5, 65521])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_field_sweeps_match_the_per_line_loops(d, p):
    for m in _random_matrices(d, p):
        k = kernel(m)
        assert k == per_line_kernel(m)
        if k.ncols:
            assert kernel(k) == per_line_kernel(k)
        assert presentations._irredundant(m.cols, m.columns, m.field) == (
            per_line_irredundant(m.cols, m.columns, m.field))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_irredundant_matches_the_generic_sweep(d):
    for p in PRIMES:
        fld = PrimeField(p)
        for m in list(_random_matrices(d, p)) + [
                m for m in _edge_case_matrices(p) if m.dim == d]:
            keep = presentations._irredundant(m.cols, m.columns, fld)
            assert keep == per_line_irredundant(m.cols, m.columns, fld)
            assert keep == per_line_irredundant(m.cols, m.columns, fld,
                                                _ReferenceSpan)
            with field_chains():
                assert presentations._irredundant(
                    m.cols, m.columns, fld) == keep


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_nullspace_matches_the_generic_sweep(d):
    for m in list(_random_matrices(d)) + list(_edge_case_matrices()):
        assert nullspace_of_columns(m.columns, GF2) == (
            generic_nullspace(m.columns, GF2))
    assert nullspace_of_columns([], GF2) == []


def _counted_chains(monkeypatch):
    """Record, per chain the sweeps build, whether it records and the
    ranks it activates."""
    chains = []
    for name in ("_Gf2Chain", "_FieldChain"):
        base = getattr(graded, name)

        class Counted(base):
            __slots__ = ()

            def __init__(self, fld, record, packed):
                super().__init__(fld, record, packed)
                chains.append((record, []))

            def activate(self, ranks):
                chains[-1][1].extend(ranks)
                super().activate(ranks)

        monkeypatch.setattr(graded, name, Counted)
    return chains


def test_sweeps_carry_one_reduction_per_chain(monkeypatch):
    """Each sweep builds one reduction per chain, the lines that differ
    only in their last coordinate, and activates each column at most
    once in it: for `_irredundant` one per distinct head prefix, for
    `kernel`'s recording sweep one per distinct prefix of its
    join-closure lines."""
    chains = _counted_chains(monkeypatch)
    rng = random.Random(16)
    for p in (2, 3):
        fld = PrimeField(p)
        for d in (1, 2, 3, 4):
            for _ in range(20):
                m = _random_matrix(rng, fld, d, rng.randint(0, 6),
                                   rng.randint(1, 12), 2)
                heads = [deg[:-1] for deg in m.cols]
                del chains[:]
                keep = presentations._irredundant(m.cols, m.columns, fld)
                assert [r for r, _ in chains] == (
                    [False] * len({h[:-1] for h in heads}))
                assert all(len(set(c)) == len(c) for _, c in chains)
                assert keep == per_line_irredundant(m.cols, m.columns, fld)
                del chains[:]
                k = kernel(m)
                recorded = [c for r, c in chains if r]
                lines = presentations._join_closure(heads)
                assert len(recorded) == len({a[:-1] for a in lines})
                assert all(len(set(c)) == len(c) for c in recorded)
                assert k == per_line_kernel(m)


def test_kernel_filters_what_the_per_line_loop_found(monkeypatch):
    """At d >= 3 the generators handed to `_irredundant` are those the
    per-line loop found: a column that gave a generator on a line gives
    none on a line above it, although `_irredundant` would drop such a
    generator anyway."""
    handed = []
    sweep = presentations._irredundant

    def recording(degrees, columns, fld):
        handed.append(list(zip(degrees, columns)))
        return sweep(degrees, columns, fld)

    monkeypatch.setattr(presentations, "_irredundant", recording)
    for p in (2, 5):
        for d in (3, 4):
            for m in _random_matrices(d, p):
                del handed[:]
                k = kernel(m)
                found = []
                assert k == per_line_kernel(m, found=found)
                assert handed == ([[(g[0], g[2]) for g in found]]
                                  if m.ncols else [])


def test_packed_hom_module_presentation_matches_the_generic_sweep():
    """Both kernels of an n=40 Hom-module presentation and its minimize,
    serialized: packed chains against `_FieldChain`."""
    x, y = random_pair(11, d=2, gens=40, rels=40, coord_range=60, p=2)
    packed = hom_module_presentation(x, y)
    with field_chains():
        generic = hom_module_presentation(x, y)
    assert packed.matrix.ncols
    assert serialize_pmod(packed) == serialize_pmod(generic)


def _first_kernel_input(x, y):
    """The first matrix `hom_module_presentation` hands to `kernel`."""
    seen = []

    class Stop(Exception):
        pass

    def recording(matrix):
        seen.append(matrix)
        raise Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homspace, "kernel", recording)
        with pytest.raises(Stop):
            hom_module_presentation(x, y)
    return seen[0]


@pytest.mark.parametrize("d, n, seed", [(2, 80, 3), (3, 20, 1)])
def test_hom_module_kernel_matches_the_per_line_loop(d, n, seed):
    x, y = random_pair(seed, d=d, gens=n, rels=n, coord_range=3 * n // 2,
                       p=2)
    m = _first_kernel_input(x, y)
    k = kernel(m)
    assert k.ncols > n
    assert k == per_line_kernel(m)
