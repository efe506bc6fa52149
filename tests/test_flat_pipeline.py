"""The flat Q pipeline of the primal routes against the matrix-per-solution
chain it replaced, and the public homotopy quotient around it.

Over GF(2) the pipeline keeps each flat Q column as one packed int from
the solve through the quotient, so the reference, which flattens sorted
tuples and reduces them with `ColumnSpan`, checks the packed form too; the
`ladder`-sized GF(2) pairs below kill long sets of homotopies.

The reference below copies the earlier implementation: it builds the system with `deg_leq`, turns every solution's Q part
into a graded matrix, flattens those again for the homotopy quotient (or
the plain reduction of route `a`) and a third time for the rank.  On a
free domain, routes `a` and `mixed` must also return the basis that their
earlier free-domain special case wrote down directly.  Route `b` shares
the flat solve, and must return the elements of its earlier tail, which
sorted the items of `nullspace_of_columns`'s dicts, at p = 2, 5 and 65521.
"""

import bisect
import itertools
import random

import pytest

from mphom import (
    ColumnSpan,
    DimensionMismatchError,
    GradedMatrix,
    GradingError,
    Presentation,
    deg_leq,
    graded_matrix_from_entries,
    hom_direct,
    hom_mixed,
    hom_restricted,
    homotopy_reduce,
    verify_hom,
)
from mphom import homspace
from mphom.generators import random_module, random_pair
from mphom.graded import _SortedColumns, _pairs, nullspace_of_columns
from mphom.localalg import CokernelCache, structure_map

from conftest import free_module, red_blue, zero_module
from test_localalg import generic_cokernel

ROUTES = {"direct": hom_direct, "mixed": hom_mixed, "a": hom_restricted}


# -- reference: the matrix-per-solution chain -------------------------------


def old_system(xp, yp, q_mask=None, p_mask=None):
    m, n = xp.matrix, yp.matrix
    p = m.field.p
    q_vars, q_pos = [], {}
    for g, gdeg in enumerate(m.rows):
        allowed = (
            q_mask[g]
            if q_mask is not None
            else [gp for gp, gpdeg in enumerate(n.rows) if deg_leq(gpdeg, gdeg)]
        )
        for gp in allowed:
            q_pos[(gp, g)] = len(q_vars)
            q_vars.append((gp, g))
    p_vars, p_pos = [], {}
    for r, rdeg in enumerate(m.cols):
        allowed = (
            p_mask[r]
            if p_mask is not None
            else [rp for rp, rpdeg in enumerate(n.cols) if deg_leq(rpdeg, rdeg)]
        )
        for rp in allowed:
            p_pos[(rp, r)] = len(p_vars)
            p_vars.append((rp, r))
    equations, eq_pos = [], {}
    for r, rdeg in enumerate(m.cols):
        for gp, gpdeg in enumerate(n.rows):
            if deg_leq(gpdeg, rdeg):
                eq_pos[(gp, r)] = len(equations)
                equations.append((gp, r))
    nq = len(q_vars)
    columns = [[] for _ in range(nq + len(p_vars))]
    for r in range(m.ncols):
        for g, mv in m.columns[r]:
            for gp in range(n.nrows):
                k = q_pos.get((gp, g))
                if k is not None and (gp, r) in eq_pos:
                    columns[k].append((eq_pos[(gp, r)], mv))
    for (rp, r), k in p_pos.items():
        for gp, nv in n.columns[rp]:
            eq = eq_pos.get((gp, r))
            if eq is not None:
                columns[nq + k].append((eq, (-nv) % p))
    return q_vars, p_vars, equations, [tuple(sorted(c)) for c in columns]


def old_q_matrix(entries, m, n):
    cols = [[] for _ in range(m.nrows)]
    for (gp, g), v in entries.items():
        cols[g].append((gp, v))
    return GradedMatrix(
        m.field, n.rows, m.rows, [tuple(sorted(c)) for c in cols],
        validate=False,
    )


def old_flat_index(q_rows, q_cols):
    index = {}
    for g, gdeg in enumerate(q_cols):
        for gp, gpdeg in enumerate(q_rows):
            if deg_leq(gpdeg, gdeg):
                index[(g, gp)] = len(index)
    return index


def old_flatten_q(qmat, index):
    col = []
    for g, entries in enumerate(qmat.columns):
        for gp, v in entries:
            col.append((index[(g, gp)], v))
    return tuple(sorted(col))


def old_unflatten_q(col, index, q_rows, q_cols, fld):
    rev = {k: key for key, k in index.items()}
    cols = [[] for _ in range(len(q_cols))]
    for k, v in col:
        g, gp = rev[k]
        cols[g].append((gp, v))
    return GradedMatrix(
        fld, q_rows, q_cols, [tuple(sorted(c)) for c in cols], validate=False
    )


def old_homotopy_columns(n, q_cols, index):
    cols = []
    for g, gdeg in enumerate(q_cols):
        for rp, rpdeg in enumerate(n.cols):
            if deg_leq(rpdeg, gdeg):
                col = tuple((index[(g, gp)], v) for gp, v in n.columns[rp])
                cols.append(tuple(sorted(col)))
    return cols


def old_homotopy_reduce(qs, yp):
    if not qs:
        return []
    n = yp.matrix
    q_rows, q_cols = qs[0].rows, qs[0].cols
    index = old_flat_index(q_rows, q_cols)
    span = ColumnSpan(n.field)
    for col in old_homotopy_columns(n, q_cols, index):
        span.insert(col, source=-1)
    survivors = []
    for j, q in enumerate(qs):
        entry = span.insert(old_flatten_q(q, index), source=j)
        if entry is not None:
            survivors.append(
                old_unflatten_q(entry.column, index, q_rows, q_cols, n.field)
            )
    return survivors


def old_column_reduce_qs(qs, fld):
    if not qs:
        return []
    q_rows, q_cols = qs[0].rows, qs[0].cols
    index = old_flat_index(q_rows, q_cols)
    span = ColumnSpan(fld)
    out = []
    for j, q in enumerate(qs):
        entry = span.insert(old_flatten_q(q, index), source=j)
        if entry is not None:
            out.append(old_unflatten_q(entry.column, index, q_rows, q_cols, fld))
    return out


def old_rank_of_qs(qs, xp, yp):
    if not qs:
        return 0
    index = old_flat_index(yp.matrix.rows, xp.matrix.rows)
    span = ColumnSpan(xp.field)
    for q in qs:
        span.insert(old_flatten_q(q, index))
    return span.rank


def old_free_domain_basis(xp, yp):
    m, n = xp.matrix, yp.matrix
    cache = CokernelCache(n)
    return [
        GradedMatrix(
            m.field, n.rows, m.rows,
            [((gp, 1),) if k == g else () for k in range(m.nrows)],
            validate=False,
        )
        for g, gdeg in enumerate(m.rows)
        for gp in cache.at(gdeg).subset
    ]


def reference(algorithm, xp, yp, masks):
    """(elements, (variables, equations, entries, solution_dim, killed))."""
    if xp.is_zero_module() or yp.is_zero_module():
        return [], (0, 0, 0, 0, 0)
    m, n = xp.matrix, yp.matrix
    q_vars, p_vars, equations, columns = old_system(xp, yp, **masks)
    nq = len(q_vars)
    solutions = []
    for combo in nullspace_of_columns(columns, m.field):
        solutions.append({q_vars[k]: v for k, v in combo.items() if k < nq})
    qs = [old_q_matrix(qe, m, n) for qe in solutions]
    if algorithm == "a":
        survivors, killed = old_column_reduce_qs(qs, m.field), 0
    else:
        survivors = old_homotopy_reduce(qs, yp)
        killed = old_rank_of_qs(qs, xp, yp) - len(survivors)
    shape = (
        nq + len(p_vars),
        len(equations),
        sum(len(c) for c in columns),
        len(solutions),
        killed,
    )
    return survivors, shape


# -- inputs -----------------------------------------------------------------


def seeded_pairs():
    for d, n, coord_range in ((1, 6, 8), (2, 6, 8), (3, 4, 5)):
        for p in (2, 5, 65521):
            for seed in range(4):
                yield f"d{d}-p{p}-s{seed}", random_pair(
                    seed, d=d, gens=n, rels=n, coord_range=coord_range, p=p
                )


def free_domain_pairs():
    for d, n, coord_range in ((1, 6, 8), (2, 6, 8), (3, 4, 5)):
        for p in (2, 5):
            for seed in range(2):
                x = random_module(2 * seed + 1, d, n, 0, coord_range, p=p)
                y = random_module(2 * seed + 2, d, n, n, coord_range, p=p)
                yield f"free-d{d}-p{p}-s{seed}", (x, y)


def special_pairs():
    x, y = red_blue(p=5)
    yield "fig", (x, y)
    yield "free-domain", (free_module([(2, 2), (6, 1), (0, 0)], p=5), y)
    yield "free-domain-into-free", (
        free_module([(3, 3), (1, 4)], p=5), free_module([(0, 0), (1, 1)], p=5)
    )
    yield "zero-domain", (zero_module(p=5), y)
    yield "zero-target", (x, zero_module(p=5))


def ladder_pairs():
    for n, seed in ((40, 0), (50, 1), (60, 1)):
        yield f"ladder-n{n}-s{seed}", random_pair(
            seed, d=2, gens=n, rels=n, coord_range=3 * n // 2, p=2
        )


PAIRS = (
    list(seeded_pairs()) + list(special_pairs()) + list(free_domain_pairs())
    + list(ladder_pairs())
)


def flat_pairs(col):
    """A flat Q column as (position, value) pairs by increasing position,
    from either form `LinearSystem.solve` returns: a packed int over GF(2),
    a sorted tuple of pairs over every other prime."""
    return tuple(_pairs(col))


def run_recording(monkeypatch, route, xp, yp):
    """Run a route and return (basis, masks of the system it built, the
    system)."""
    built = []

    class Recording(homspace.LinearSystem):
        def __init__(self, xp, cache, q_mask=None, p_mask=None):
            super().__init__(xp, cache, q_mask=q_mask, p_mask=p_mask)
            built.append(({"q_mask": q_mask, "p_mask": p_mask}, self))

    monkeypatch.setattr(homspace, "LinearSystem", Recording)
    basis = route(xp, yp)
    monkeypatch.undo()
    assert len(built) <= 1
    return (basis, *built[0]) if built else (basis, None, None)


@pytest.mark.parametrize("name,pair", PAIRS, ids=[name for name, _ in PAIRS])
def test_flat_pipeline_matches_matrix_chain(monkeypatch, name, pair):
    xp, yp = pair
    for algorithm, route in ROUTES.items():
        basis, masks, _ = run_recording(monkeypatch, route, xp, yp)
        elements, shape = reference(algorithm, xp, yp, masks)
        s = basis.stats
        assert list(basis.elements) == elements, algorithm
        assert (
            s.variables, s.equations, s.entries, s.solution_dim,
            s.homotopy_killed,
        ) == shape, algorithm
        if xp.n_relations == 0 and algorithm != "direct":
            elements = old_free_domain_basis(xp, yp)
            assert list(basis.elements) == elements, algorithm
            assert shape == (len(elements), 0, 0, len(elements), 0), algorithm


def system_equations(system, m):
    """The columns of a system as sorted lists of ((g', r), value) pairs,
    read in either column form (`_pairs`): relation r's block of rows
    starts at the sum of the widths before it, each width the largest
    row of `rows_le(deg r)` plus one, and row `off[r] + g'` is equation
    (g', r).  Over GF(2) a column is one int, over every other prime a
    tuple of (row, value) pairs by increasing row."""
    widths = [rows[-1] + 1 if rows else 0
              for rows in (system.cache.at(rdeg).rows_le for rdeg in m.cols)]
    off = [0]
    for w in widths:
        off.append(off[-1] + w)
    form = int if m.field.p == 2 else tuple
    out = []
    for col in system.columns:
        assert type(col) is form
        eqs = []
        for b, v in _pairs(col):
            assert 0 <= b < off[-1] and 0 < v < m.field.p
            r = bisect.bisect_right(off, b) - 1
            assert off[r] <= b < off[r] + widths[r]
            eqs.append(((b - off[r], r), v))
        if form is tuple:
            assert [b for b, _ in col] == sorted({b for b, _ in col})
        out.append(sorted(eqs))
    return out


@pytest.mark.parametrize("name,pair", PAIRS, ids=[name for name, _ in PAIRS])
def test_system_matches_the_degree_scans(monkeypatch, name, pair):
    # The slices of the route's cache give the variables and equations,
    # in the order and with the columns that the pairwise scans gave.
    # Each column's rows, read back through the relations' blocks, must
    # name equations, and hit those of the scanned column with the same
    # values, at every prime.
    xp, yp = pair
    for algorithm, route in ROUTES.items():
        _, masks, system = run_recording(monkeypatch, route, xp, yp)
        if system is None:
            assert xp.is_zero_module() or yp.is_zero_module(), algorithm
            continue
        q_vars, p_vars, equations, columns = old_system(xp, yp, **masks)
        assert (system.q_vars, system.p_vars, system.equations) == (
            q_vars, p_vars, equations), algorithm
        got = system_equations(system, xp.matrix)
        known = set(equations)
        assert all(eq in known for col in got for eq, _ in col), algorithm
        assert got == [sorted((equations[k], v) for k, v in col)
                       for col in columns], algorithm
        assert system.entries == sum(map(len, columns)), algorithm


def test_reference_inputs_exercise_the_quotient():
    # The equivalence above means little unless homotopies were killed,
    # solutions were dropped as dependent, and survivors were returned.
    killed = dropped = survivors = 0
    for _, (xp, yp) in PAIRS:
        for route in ROUTES.values():
            basis = route(xp, yp)
            killed += basis.stats.homotopy_killed
            dropped += basis.stats.solution_dim > basis.dim
            survivors += basis.dim
    assert killed and dropped and survivors
    # The GF(2) ladder pairs kill long homotopy sets on the packed path.
    for name, (xp, yp) in PAIRS:
        if name.startswith("ladder"):
            assert hom_direct(xp, yp).stats.homotopy_killed > 30, name


def test_solve_returns_sorted_flat_q_columns():
    xp, yp = random_pair(4, d=2, gens=6, rels=6, coord_range=8, p=5)
    system = homspace.LinearSystem(xp, CokernelCache(yp.matrix))
    cols = system.solve()
    assert cols and len(cols) == hom_direct(xp, yp).stats.solution_dim
    size = len(system.q_index)
    for col in cols:
        assert list(col) == sorted(col)
        assert all(0 <= k < size and 0 < v < 5 for k, v in col)


@pytest.mark.parametrize("route", ["direct", "mixed", "a"])
def test_solve_returns_packed_flat_q_columns_over_gf2(monkeypatch, route):
    # Over GF(2) each Q part is one int over the flat positions: the same
    # columns as the sorted form's, which the other primes use and which
    # holds over GF(2) too, read off the same system.
    xp, yp = random_pair(4, d=2, gens=12, rels=12, coord_range=18, p=2)
    basis, _, system = run_recording(monkeypatch, ROUTES[route], xp, yp)
    cols = system.solve()
    assert len(cols) == basis.stats.solution_dim
    assert all(type(col) is int for col in cols)
    size = len(system.q_index)
    assert all(0 <= col < 1 << size for col in cols)
    assert any(cols)
    sources = [system.q_index[(g, gp)] for gp, g in system.q_vars]
    sources += range(size, size + len(system.p_vars))
    unpacked = [tuple(_pairs(col)) for col in system.columns]
    sorted_cols, _ = homspace._flat_solutions(
        unpacked, _SortedColumns(system.field), sources, size)
    assert [flat_pairs(col) for col in cols] == sorted_cols


def spy_solutions(seen, solve):
    """`_flat_solutions` appending the columns of each call to `seen`;
    route `b` numbers its variables in order, every one a Q entry."""
    def spy(columns, form, sources, size):
        assert list(sources) == list(range(size))
        seen.append(columns)
        return solve(columns, form, sources, size)
    return spy


def old_exact_tail(columns, fld, keys, q_rows, q_cols):
    """Route `b`'s elements as it read them before it shared the flat
    solve: the nullspace combinations as dicts, their items sorted, each
    made a Q matrix."""
    return [homspace._q_matrix(sorted(combo.items()), keys, q_rows, q_cols,
                               fld)
            for combo in nullspace_of_columns(columns, fld)]


@pytest.mark.parametrize("p", [2, 5, 65521])
@pytest.mark.parametrize("n, seed", [(20, 1), (30, 2), (40, 3)])
def test_exact_route_matches_its_own_solve_tail(monkeypatch, p, n, seed):
    xp, yp = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=p)
    seen = []
    monkeypatch.setattr(homspace, "_flat_solutions",
                        spy_solutions(seen, homspace._flat_solutions))
    basis = homspace.hom_exact(xp, yp)
    monkeypatch.undo()
    (columns,) = seen
    if p == 2:
        # The packed system columns, unpacked for the dict-based tail.
        assert all(type(col) is int for col in columns)
        columns = [tuple(_pairs(col)) for col in columns]
    m, n_mat = xp.matrix, yp.matrix
    cache = CokernelCache(n_mat)
    keys = [(g, gp) for g, gdeg in enumerate(m.rows)
            for gp in cache.at(gdeg).subset]
    want = old_exact_tail(columns, m.field, keys, n_mat.rows, m.rows)
    assert basis.dim > n
    assert list(basis.elements) == want
    assert basis.stats.solution_dim == len(want)


def old_exact_columns(xp, yp, cache):
    """Route `b`'s block matrix as it was built from `structure_map`:
    (sorted (row, value) columns, entries)."""
    m, n = xp.matrix, yp.matrix
    p = m.field.p
    col_offsets, total = [], 0
    for gdeg in m.rows:
        col_offsets.append(total)
        total += cache.at(gdeg).dim
    row_offsets = [0]
    for rdeg in m.cols:
        row_offsets.append(row_offsets[-1] + cache.at(rdeg).dim)
    columns = [[] for _ in range(total)]
    entries = 0
    for r, rdeg in enumerate(m.cols):
        dim_r = cache.at(rdeg).dim
        if dim_r == 0:
            continue
        for g, mv in m.columns[r]:
            gdeg = m.rows[g]
            block = structure_map(n, gdeg, rdeg, cache)
            for s in range(cache.at(gdeg).dim):
                col = columns[col_offsets[g] + s]
                for t in range(dim_r):
                    val = (mv * block[t][s]) % p
                    if val:
                        col.append((row_offsets[r] + t, val))
                        entries += 1
    return [tuple(sorted(c)) for c in columns], entries


def with_stored_values(xp, values):
    """X's presentation, built without validation, with the stored
    values of M cycled through `values` in column order."""
    m = xp.matrix
    cycle = itertools.cycle(values)
    columns = [[(i, next(cycle)) for i, _ in col] for col in m.columns]
    return Presentation(
        GradedMatrix(m.field, m.rows, m.cols, columns, validate=False),
        minimal=True,
    )


@pytest.mark.parametrize("n, seed", [(40, 0), (50, 1), (60, 1)])
def test_exact_route_builds_the_structure_map_system_packed(
        monkeypatch, n, seed):
    """Over GF(2) route `b` builds its block matrix from the slices'
    cokernel columns, packed ints: unpacked, its columns and entry count
    are those of the structure-map loop, also when M stores even values,
    which are zero over GF(2)."""
    xp, yp = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=2)
    nm = yp.matrix
    stored = with_stored_values(xp, (1, 2, 3))
    assert any(v == 2 for col in stored.matrix.columns for _, v in col)
    for x in (xp, stored):
        seen = []
        monkeypatch.setattr(homspace, "_flat_solutions",
                            spy_solutions(seen, homspace._flat_solutions))
        basis = homspace.hom_exact(x, yp)
        monkeypatch.undo()
        (columns,) = seen
        want, entries = old_exact_columns(x, yp, CokernelCache(nm))
        assert all(type(col) is int for col in columns)
        assert [tuple(_pairs(col)) for col in columns] == want
        assert basis.stats.entries == entries
    # Each slice's packed columns unpack to its cokernel matrix: the
    # subset columns are the identity and every column of N below the
    # degree maps to zero, which pins the matrix down.
    cache = CokernelCache(nm)
    for alpha in set(xp.matrix.rows + xp.matrix.cols):
        ck = cache.at(alpha)
        packed = ck.columns
        assert list(packed) == list(ck.rows_le)
        assert ck.matrix == tuple(
            tuple(packed[r] >> t & 1 for r in ck.rows_le)
            for t in range(ck.dim))
        assert [packed[r] for r in ck.subset] == [1 << t
                                                  for t in range(ck.dim)]
        for j in ck.cols_le:
            image = 0
            for r, _ in nm.columns[j]:
                image ^= packed[r]
            assert image == 0, (alpha, j)


@pytest.mark.parametrize("p", [3, 5, 65521])
@pytest.mark.parametrize("n, seed", [(20, 4), (40, 5), (60, 6)])
def test_exact_route_builds_the_structure_map_system_at_odd_primes(
        monkeypatch, p, n, seed):
    """Over odd primes route `b` builds its block matrix from the slices'
    cokernel columns, sorted tuples: its columns and entry count are
    those of the structure-map loop, every element comes back, and each
    slice's cokernel columns unpack to its `matrix`, which is the one the
    generic forward substitution by scaled sums gives."""
    xp, yp = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=p)
    nm = yp.matrix
    seen = []
    monkeypatch.setattr(homspace, "_flat_solutions",
                        spy_solutions(seen, homspace._flat_solutions))
    basis = homspace.hom_exact(xp, yp)
    monkeypatch.undo()
    (columns,) = seen
    want, entries = old_exact_columns(xp, yp, CokernelCache(nm))
    assert all(type(col) is tuple for col in columns)
    assert columns == want
    assert basis.stats.entries == entries
    assert entries and any(v > 1 for col in columns for _, v in col)
    keys = [(g, gp) for g, gdeg in enumerate(xp.matrix.rows)
            for gp in CokernelCache(nm).at(gdeg).subset]
    assert list(basis.elements) == old_exact_tail(
        columns, xp.field, keys, nm.rows, xp.matrix.rows)
    cache = CokernelCache(nm)
    dims = 0
    for alpha in set(xp.matrix.rows + xp.matrix.cols):
        ck = cache.at(alpha)
        images = ck.columns
        assert list(images) == list(ck.rows_le)
        dense = [dict(images[r]) for r in ck.rows_le]
        assert ck.matrix == tuple(
            tuple(col.get(t, 0) for col in dense) for t in range(ck.dim))
        assert ck.matrix == generic_cokernel(nm, alpha)[1], alpha
        assert [images[r] for r in ck.subset] == [((t, 1),)
                                                  for t in range(ck.dim)]
        for j in ck.cols_le:
            image = {}
            for r, v in nm.columns[j]:
                for t, w in images[r]:
                    image[t] = (image.get(t, 0) + v * w) % p
            assert not any(image.values()), (alpha, j)
        dims += ck.dim
    assert dims


# -- the public homotopy quotient -------------------------------------------


def test_homotopy_reduce_rejects_mixed_decorations():
    xp, yp = red_blue()
    fld = xp.field
    q = graded_matrix_from_entries(fld, yp.matrix.rows, xp.matrix.rows, {})
    other = graded_matrix_from_entries(
        fld, yp.matrix.rows, [(3, 3)], {(0, 0): 1}
    )
    with pytest.raises(DimensionMismatchError):
        homotopy_reduce([q, other], yp)


def test_homotopy_reduce_rejects_q_rows_other_than_the_targets():
    # Q rows index the target's generators: fewer rows, or the same
    # degrees in another order, would be read against the wrong ones.
    xp, yp = red_blue()
    fld = xp.field
    for rows in ([(0, 0)], list(reversed(yp.matrix.rows))):
        q = graded_matrix_from_entries(fld, rows, xp.matrix.rows, {(0, 0): 1})
        with pytest.raises(DimensionMismatchError, match="foreign rows"):
            homotopy_reduce([q], yp)


def test_homotopy_reduce_rejects_an_entry_against_the_grading():
    # Entry (0, 0) pairs generator 0 of Y with generator 0 of X, whose
    # degree is not above it: no flat position holds it.
    x, y = random_pair(1, d=2, gens=5, rels=5, coord_range=8, p=5)
    assert not deg_leq(y.matrix.rows[0], x.matrix.rows[0])
    q = graded_matrix_from_entries(x.field, y.matrix.rows, x.matrix.rows,
                                   {(0, 0): 1}, validate=False)
    with pytest.raises(GradingError, match="against the grading"):
        homotopy_reduce([q], y)


def single_entry_q(xp, yp, value):
    """Q, built without validation, holding `value` at the first
    admissible entry of a seeded pair."""
    m, n = xp.matrix, yp.matrix
    gp, g = next((gp, g) for g, gdeg in enumerate(m.rows)
                 for gp, gpdeg in enumerate(n.rows) if deg_leq(gpdeg, gdeg))
    columns = [((gp, value),) if k == g else () for k in range(m.nrows)]
    return GradedMatrix(xp.field, n.rows, m.rows, columns, validate=False)


@pytest.mark.parametrize("p", [2, 5])
def test_homotopy_reduce_reads_stored_values_mod_p(p):
    """A stored p is zero, as `verify_hom` reads it: nothing survives,
    where a stored 2 over GF(2) used to survive and a stored 5 over GF(5)
    used to raise from the field inverse.  A stored p + 1 reads as 1."""
    xp, yp = random_pair(1, d=2, gens=6, rels=6, coord_range=8, p=p)
    zero, one = single_entry_q(xp, yp, p), single_entry_q(xp, yp, 1)
    assert verify_hom(zero, xp, yp)
    assert homotopy_reduce([zero], yp) == []
    survivors = homotopy_reduce([one], yp)
    assert len(survivors) == 1
    assert homotopy_reduce([single_entry_q(xp, yp, p + 1)], yp) == survivors
    assert homotopy_reduce([zero, one, zero], yp) == survivors


def test_homotopy_reduce_rejects_a_target_of_other_arity():
    xp, _ = red_blue()
    fld = xp.field
    target = free_module([(0, 0, 0)], p=3)
    q = graded_matrix_from_entries(fld, [(0, 0)], xp.matrix.rows, {(0, 0): 1})
    with pytest.raises(DimensionMismatchError):
        homotopy_reduce([q], target)


@pytest.mark.parametrize("name,pair", PAIRS[::3], ids=[n for n, _ in PAIRS[::3]])
def test_homotopy_reduce_is_idempotent_on_route_survivors(name, pair):
    xp, yp = pair
    for route in ROUTES.values():
        elements = list(route(xp, yp).elements)
        once = homotopy_reduce(elements, yp)
        assert homotopy_reduce(once, yp) == once
        if route is not hom_restricted:
            # The quotient routes return survivors of this very reduction.
            assert once == elements


def random_quotient_pairs():
    for d, n, coord_range, p in ((2, 12, 18, 2), (2, 16, 24, 5),
                                 (2, 20, 30, 2), (3, 6, 6, 2), (3, 7, 6, 3)):
        for seed in range(3):
            yield random_pair(seed, d=d, gens=n, rels=n,
                              coord_range=coord_range, p=p)


def test_homotopy_killed_matches_the_rank_sweep(monkeypatch):
    """`homotopy_killed`, read off the ranks of N's slices, equals the
    rank of the solutions' Q parts, found by a sweep over them, less the
    survivors."""
    killed = 0
    for xp, yp in random_quotient_pairs():
        for algorithm in ("direct", "mixed"):
            basis, _, system = run_recording(
                monkeypatch, ROUTES[algorithm], xp, yp)
            rank = ColumnSpan(xp.field)
            for col in system.solve():
                rank.insert(flat_pairs(col))
            assert basis.stats.homotopy_killed == rank.rank - basis.dim, (
                algorithm)
            killed += basis.stats.homotopy_killed
    assert killed


def random_q_family(rng, xp, yp, size):
    """Q matrices over the grading of Hom(X, Y): the zero matrix, repeats
    and sums of earlier ones, null-homotopies (columns of N placed in one
    generator block) and random admissible entries."""
    m, n = xp.matrix, yp.matrix
    p = m.field.p
    cache = CokernelCache(n)
    admissible = [cache.at(gdeg).rows_le for gdeg in m.rows]
    homotopies = [(g, rp) for g, gdeg in enumerate(m.rows)
                  for rp in cache.at(gdeg).cols_le]
    entries = []
    for _ in range(size):
        kind = rng.random()
        if kind < 0.1 or not entries:
            q = {}
        elif kind < 0.25:
            q = dict(rng.choice(entries))
        elif kind < 0.4:
            q = dict(rng.choice(entries))
            for key, v in rng.choice(entries).items():
                q[key] = (q.get(key, 0) + v) % p
        elif kind < 0.6 and homotopies:
            g, rp = rng.choice(homotopies)
            q = {(gp, g): v * rng.randint(1, p - 1) % p
                 for gp, v in n.columns[rp]}
        else:
            q = {}
            for _ in range(rng.randint(1, 4)):
                g = rng.randrange(m.nrows)
                if admissible[g]:
                    q[(rng.choice(admissible[g]), g)] = rng.randint(1, p - 1)
        entries.append(q)
    return [graded_matrix_from_entries(m.field, n.rows, m.rows, q)
            for q in entries]


@pytest.mark.parametrize("p", [2, 5])
def test_homotopy_reduce_matches_the_reference_on_random_families(p):
    rng = random.Random(f"q-family:{p}")
    kept = dropped = 0
    for seed in range(6):
        xp, yp = random_pair(seed, d=2, gens=12, rels=12, coord_range=18,
                             p=p)
        qs = random_q_family(rng, xp, yp, 40)
        assert any(q.nnz() == 0 for q in qs), seed
        assert len({q.columns for q in qs}) < len(qs), seed
        got = homotopy_reduce(qs, yp)
        assert got == old_homotopy_reduce(qs, yp), seed
        kept += len(got)
        dropped += len(qs) - len(got)
    assert kept and dropped
