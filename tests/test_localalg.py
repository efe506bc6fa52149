"""Local cokernels, restriction systems, structure maps, thickness."""

import random

import pytest

from mphom import (
    CokernelCache,
    DimensionMismatchError,
    GradingError,
    PrimeField,
    column_reduce,
    deg_leq,
    graded_matrix_from_entries,
    hilbert_at,
    kernel,
    local_cokernel,
    restriction_system,
    structure_map,
    submatrix_at_most,
    thickness,
    thickness_at_degrees,
)
from mphom import localalg
from mphom.generators import random_module, random_pair
from mphom.graded import _slice_at_most, _slice_indices
from mphom.localalg import evaluation_grid, grid_points

from conftest import (
    fresh_slice_view,
    free_module,
    red_blue,
    slice_view,
    staircase_pair,
    zero_module,
)


def test_local_cokernel_blue_at_2_2():
    _, blue = red_blue()
    ck = local_cokernel(blue.matrix, (2, 2))
    assert ck.dim == 1
    # First pivot-free row under the bottom-pivot sweep is generator 0
    # at degree (0,1).
    assert ck.subset == (0,)
    assert ck.rows_le == (0, 1)
    # d_alpha annihilates the single column [1, -1].
    coords = ck.coordinates(((0, 1), (1, 2)))
    assert all(v == 0 for v in coords)


def test_local_cokernel_below_everything():
    _, blue = red_blue()
    ck = local_cokernel(blue.matrix, (0, 0))
    assert ck.dim == 0
    assert ck.subset == ()


def test_coordinates_rejects_row_above_the_degree():
    _, blue = red_blue()
    # Generator 1 sits at (1,0), which is not <= (0,1).
    ck = local_cokernel(blue.matrix, (0, 1))
    assert ck.rows_le == (0,)
    with pytest.raises(GradingError, match=r"row 1 .*\(0, 1\)"):
        ck.coordinates([(1, 1)])


def test_local_cokernel_of_free_module():
    # No relations: d_alpha is the identity on the generators <= alpha.
    pres = free_module([(0, 0), (1, 1), (0, 2)])
    ck = local_cokernel(pres.matrix, (1, 2))
    assert ck.subset == ck.rows_le == (0, 1, 2)
    assert ck.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ck2 = local_cokernel(pres.matrix, (0, 2))
    assert ck2.subset == (0, 2)
    assert ck2.matrix == ((1, 0), (0, 1))


def test_local_cokernel_rank_nullity_and_invertibility():
    rng = random.Random(5)
    for seed in range(6):
        pres = random_module(seed, gens=6, rels=6, coord_range=5, p=5)
        m = pres.matrix
        for pt in list(grid_points(evaluation_grid(m)))[::3]:
            ck = local_cokernel(m, pt)
            sub, _, _ = submatrix_at_most(m, pt)
            span = column_reduce(sub.columns, m.field)
            assert ck.dim + span.rank == len(ck.rows_le)
            # The square block of d_alpha on the subset columns is the
            # identity by normalization, hence invertible.
            pos = {r: k for k, r in enumerate(ck.rows_le)}
            for t, g in enumerate(ck.subset):
                col = [ck.matrix[s][pos[g]] for s in range(ck.dim)]
                assert col == [1 if s == t else 0 for s in range(ck.dim)]


def test_local_cokernel_annihilates_columns():
    for seed in range(4):
        pres = random_module(seed, gens=5, rels=6, coord_range=4, p=3)
        m = pres.field.p
        mat = pres.matrix
        for pt in list(grid_points(evaluation_grid(mat)))[::4]:
            ck = local_cokernel(mat, pt)
            sub, row_idx, _ = submatrix_at_most(mat, pt)
            for col in sub.columns:
                lifted = [(row_idx[i], v) for i, v in col]
                assert all(v == 0 for v in ck.coordinates(lifted))


def test_restriction_system_running_example():
    red, blue = red_blue()
    rs0 = restriction_system(red.matrix, blue.matrix, 0)
    assert rs0.subset((2, 2)) == (0,)
    syz = kernel(blue.matrix)
    rs1 = restriction_system(red.matrix, syz, 1)
    # dim of the first syzygy of Y at (6,2) is 2: relations 0 and 1 stay,
    # forcing the third P variable to zero.
    assert rs1.subset((6, 2)) == (0, 1)


def _assert_syzygy_subsets_match_stage_one(x, y):
    """`syzygy_subset` of N's slices equals stage 1 over kernel(N) at
    every relation degree of X and every point of the pair's grid."""
    cache = CokernelCache(y.matrix)
    syz = kernel(y.matrix)
    reference = CokernelCache(syz)
    rs1 = restriction_system(x.matrix, syz, 1)
    for rdeg in x.matrix.cols:
        assert cache.at(rdeg).syzygy_subset == rs1.subset(rdeg), rdeg
    for alpha in grid_points(evaluation_grid(x, y)):
        assert cache.at(alpha).syzygy_subset == reference.at(alpha).subset


def test_syzygy_subset_running_example():
    red, blue = red_blue()
    ck = CokernelCache(blue.matrix).at((6, 2))
    # Relation 2 is a combination of relations 0 and 1 at (6, 2).
    assert ck.cols_le == (0, 1, 2)
    assert ck.syzygy_subset == (0, 1)
    _assert_syzygy_subsets_match_stage_one(red, blue)
    x, y = staircase_pair()
    assert len(CokernelCache(y.matrix).at((4, 4)).syzygy_subset) == 2
    _assert_syzygy_subsets_match_stage_one(x, y)


@pytest.mark.parametrize("p", (2, 5, 65521))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_syzygy_subset_equals_stage_one_over_the_kernel(d, p):
    for seed in range(6):
        n = 3 + (seed * 5 + d) % 8
        x, y = random_pair(seed, d=d, gens=n, rels=n, coord_range=6, p=p)
        _assert_syzygy_subsets_match_stage_one(x, y)
        # A free domain has no relation degrees; a free target has no
        # relations, so every subset is empty.
        free = free_module(x.matrix.rows, p=p)
        _assert_syzygy_subsets_match_stage_one(free, y)
        _assert_syzygy_subsets_match_stage_one(x, free)
    _assert_syzygy_subsets_match_stage_one(zero_module(p), y)


def test_restriction_system_staircase_fig9():
    x, y = staircase_pair()
    assert y.matrix.ncols == 6
    syz = kernel(y.matrix)
    rs1 = restriction_system(x.matrix, syz, 1)
    subset = rs1.subset((4, 4))
    assert len(subset) == 2


def test_restriction_system_empty_source():
    from conftest import zero_module

    z = zero_module()
    _, blue = red_blue()
    rs = restriction_system(z.matrix, blue.matrix, 0)
    assert rs.subsets == {}


def test_structure_map_identity_at_equal_degrees():
    _, blue = red_blue()
    cache = CokernelCache(blue.matrix)
    for pt in ((1, 1), (2, 2), (5, 1)):
        sm = structure_map(blue.matrix, pt, pt, cache)
        d = cache.at(pt).dim
        assert sm == tuple(
            tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
        )


def test_structure_map_blue_into_dead_degree():
    # At (6,2) every generator of the blue module has been killed, so the
    # map from the one-dimensional slice at (2,2) is the empty 0 x 1 матрix.
    _, blue = red_blue()
    sm = structure_map(blue.matrix, (2, 2), (6, 2))
    assert sm == ()
    assert hilbert_at(blue, (6, 2)) == 0


def test_structure_map_requires_comparable_degrees():
    _, blue = red_blue()
    with pytest.raises(DimensionMismatchError):
        structure_map(blue.matrix, (2, 2), (1, 5))


def test_structure_maps_compose():
    for seed in (2, 6, 9):
        pres = random_module(seed, gens=6, rels=5, coord_range=4, p=3)
        m = pres.matrix
        if m.nrows == 0:
            continue
        cache = CokernelCache(m)
        axes = evaluation_grid(m)
        pts = sorted(grid_points(axes))
        chains = [
            (a, b, c)
            for a in pts
            for b in pts
            if deg_leq(a, b)
            for c in pts
            if deg_leq(b, c)
        ][:40]
        p = m.field.p
        for a, b, c in chains:
            ab = structure_map(m, a, b, cache)
            bc = structure_map(m, b, c, cache)
            ac = structure_map(m, a, c, cache)
            da, db, dc = (cache.at(x).dim for x in (a, b, c))
            comp = tuple(
                tuple(
                    sum(bc[i][k] * ab[k][j] for k in range(db)) % p
                    for j in range(da)
                )
                for i in range(dc)
            )
            assert comp == ac, (seed, a, b, c)


def test_thickness_fixtures():
    red, blue = red_blue()
    assert thickness(red) == 1
    assert thickness(blue) == 2


def test_thickness_of_free_module_equal_degrees():
    pres = free_module([(1, 1)] * 4)
    assert thickness(pres) == 4


def test_thickness_agrees_with_denser_grid():
    # The Hilbert function is constant on grid cells, so refining the
    # grid 50-fold cannot change the maximum.
    for seed in (0, 3):
        pres = random_module(seed, gens=6, rels=6, coord_range=4, p=2)
        if pres.is_zero_module():
            continue
        base = thickness(pres)
        axes = evaluation_grid(pres.matrix)
        dense_axes = []
        for coords in axes:
            lo, hi = coords[0] - 1, coords[-1] + 1
            step = max((hi - lo) / (len(coords) * 50), 1e-9)
            extra = sorted({lo + int(k * step) for k in range(len(coords) * 50)})
            dense_axes.append(sorted(set(coords) | set(extra)))
        cache = CokernelCache(pres.matrix)
        refined = max(
            cache.at(pt).dim
            for pt in grid_points(tuple(tuple(a) for a in dense_axes))
        )
        assert refined == base


def test_betti_restricted_thickness_le_global():
    red, blue = red_blue()
    degrees = set(red.matrix.rows) | set(red.matrix.cols)
    restricted = thickness_at_degrees(blue, degrees)
    assert restricted <= thickness(blue)
    assert restricted == 1  # dim Y at (2,2) is 1 and Y dies at (6,2).


def test_subset_size_sum_bounded_by_b0_times_thickness():
    for seed in (1, 4, 8):
        x = random_module(seed, gens=5, rels=5, coord_range=5, p=2)
        y = random_module(seed + 50, gens=5, rels=5, coord_range=5, p=2)
        if x.is_zero_module() or y.is_zero_module():
            continue
        rs0 = restriction_system(x.matrix, y.matrix, 0)
        total = sum(
            len(rs0.subset(g)) for g in x.matrix.rows
        )
        assert total <= x.n_generators * thickness(y)


def old_local_cokernel(matrix, alpha):
    """`local_cokernel` as it was before it kept its span: the slice is
    renumbered, and the cokernel matrix is transposed cell by cell.

    Returns (degree, rows_le, subset, matrix, p)."""
    fld = matrix.field
    p = fld.p
    row_idx, _, columns = _slice_at_most(matrix, alpha)
    span = column_reduce(columns, fld)
    pivot_of = {entry.pivot: entry.column for entry in span.reduced}
    m = len(row_idx)
    free_local = [k for k in range(m) if k not in pivot_of]
    free_pos = {k: t for t, k in enumerate(free_local)}
    dim = len(free_local)
    cols = []
    for r in range(m):
        col = [0] * dim
        if r in free_pos:
            col[free_pos[r]] = 1
        else:
            pcol = pivot_of[r]
            lead_inv = fld.inv(pcol[-1][1])
            for i, v in pcol[:-1]:
                scale = (-v * lead_inv) % p
                for t in range(dim):
                    col[t] = (col[t] + scale * cols[i][t]) % p
        cols.append(col)
    rows = tuple(tuple(cols[r][t] for r in range(m)) for t in range(dim))
    subset = tuple(row_idx[k] for k in free_local)
    return tuple(alpha), tuple(row_idx), subset, rows, p


def assert_matches_old(matrix, alpha):
    ck = local_cokernel(matrix, alpha)
    old = old_local_cokernel(matrix, alpha)
    # The matrix is not part of equality; compare it explicitly.
    assert (ck.degree, ck.rows_le, ck.subset, ck.matrix, ck.p) == old
    # The span is that of the slice's columns in the matrix's own rows:
    # the same pivot rows, residuals and kept columns.
    assert slice_view(ck) == fresh_slice_view(matrix, alpha)
    return ck


def test_local_cokernel_matches_the_old_transpose():
    _, blue = red_blue()
    # No generator lies below (0, 0): an empty slice.
    empty = assert_matches_old(blue.matrix, (0, 0))
    assert empty.rows_le == () and empty.matrix == ()
    # Both generators die by (5, 1): a zero-dimensional slice of two rows.
    dead = assert_matches_old(blue.matrix, (5, 1))
    assert dead.rows_le == (0, 1) and dead.dim == 0 and dead.matrix == ()
    for seed, p in ((3, 2), (4, 5), (5, 65521)):
        y = random_module(seed, gens=8, rels=8, coord_range=6, p=p)
        for alpha in grid_points(evaluation_grid(y)):
            assert_matches_old(y.matrix, alpha)


def generic_cokernel(matrix, alpha):
    """The local cokernel by `ColumnSpan` and the generic forward
    substitution, by scaled sums, that `LocalCokernel.matrix` ran over
    every prime before GF(2) slices were packed.

    Returns (subset, matrix rows, syzygy_subset, rows_le)."""
    fld = matrix.field
    p = fld.p
    rows_le, cols_le = _slice_indices(matrix, alpha)
    span = column_reduce([matrix.columns[j] for j in cols_le], fld)
    pivot_of = span._by_pivot
    subset = tuple(r for r in rows_le if r not in pivot_of)
    free_pos = {r: t for t, r in enumerate(subset)}
    dim = len(free_pos)
    cols = {}
    for r in rows_le:
        col = [0] * dim
        if r in free_pos:
            col[free_pos[r]] = 1
        else:
            entry = pivot_of[r]
            for i, v in entry.column[:-1]:
                scale = (-v * entry.inv) % p
                prev = cols[i]
                for t in range(dim):
                    col[t] = (col[t] + scale * prev[t]) % p
        cols[r] = col
    syzygy = tuple(cols_le[e.source] for e in span.reduced)
    return subset, tuple(zip(*cols.values())), syzygy, rows_le


def generic_structure_map(ck_a, ck_b):
    """`structure_map` from two `generic_cokernel` results."""
    subset_a, _, _, _ = ck_a
    _, rows_b, _, rows_le_b = ck_b
    pos = {r: k for k, r in enumerate(rows_le_b)}
    return tuple(tuple(row[pos[g]] for g in subset_a) for row in rows_b)


@pytest.mark.parametrize("seed,n", [(0, 40), (1, 50), (2, 60)])
def test_packed_slices_match_the_generic_reduction_on_ladder_pairs(seed, n):
    """Over GF(2) the packed slices give what `ColumnSpan` and the
    generic forward substitution give on `ladder`-sized pairs: the same
    pivot rows, residuals and kept columns, subset, cokernel matrix and
    syzygy subset at every degree of X, and the same structure maps at
    every pair (deg g, deg r) that M joins, as route b reads them."""
    x, y = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                       p=2)
    m, nm = x.matrix, y.matrix
    cache = CokernelCache(nm)
    refs = {}
    for alpha in set(m.rows + m.cols):
        ck = cache.at(alpha)
        refs[alpha] = ref = generic_cokernel(nm, alpha)
        assert slice_view(ck) == fresh_slice_view(nm, alpha), alpha
        assert (ck.subset, ck.matrix, ck.syzygy_subset) == ref[:3], alpha
    assert any(ref[1] for ref in refs.values())
    pairs = {(m.rows[g], m.cols[r])
             for r, col in enumerate(m.columns) for g, _ in col}
    assert pairs
    for gdeg, rdeg in pairs:
        assert structure_map(nm, gdeg, rdeg, cache) == generic_structure_map(
            refs[gdeg], refs[rdeg]), (gdeg, rdeg)


def test_cokernel_cache_lends_the_spans_it_reduced():
    _, blue = red_blue()
    m = blue.matrix
    cache = CokernelCache(m)
    first = cache.at((2, 2))
    assert cache.at((2, 2)) is first
    # Each cached cokernel holds the span of a fresh reduction of the
    # slice, in the matrix's own rows.
    for alpha in ((2, 2), (5, 1)):
        _, col_idx, _ = _slice_at_most(m, alpha)
        fresh = column_reduce([m.columns[j] for j in col_idx], m.field)
        assert [(e.pivot, e.column) for e in cache.at(alpha).span.reduced] == [
            (e.pivot, e.column) for e in fresh.reduced
        ]
    assert cache.at((5, 1)).span.rank == 2
    # The cokernel matrix is built on first read, and only once.
    assert first._matrix is None
    assert first.matrix is first.matrix
    assert first._matrix is first.matrix


def test_reading_slice_indices_reduces_nothing(monkeypatch):
    calls = []
    column_form = localalg._column_form

    class Counting:
        """The field's column form, counting the slices it reduces."""

        def __init__(self, fld):
            self.form = column_form(fld)

        def span(self, columns):
            calls.append(columns)
            return self.form.span(columns)

        def __getattr__(self, name):
            return getattr(self.form, name)

    monkeypatch.setattr(localalg, "_column_form", Counting)
    for p in (3, 2):
        del calls[:]
        _, blue = red_blue(p)
        cache = CokernelCache(blue.matrix)
        ck = cache.at((6, 2))
        assert (ck.rows_le, ck.cols_le) == ((0, 1), (0, 1, 2))
        for alpha in grid_points(evaluation_grid(blue)):
            row_idx, col_idx, _ = _slice_at_most(blue.matrix, alpha)
            ck_alpha = cache.at(alpha)
            assert (ck_alpha.rows_le, ck_alpha.cols_le) == (row_idx, col_idx)
        assert calls == []
        # The first read of the subset reduces the slice, once; the
        # cokernel columns and matrix reduce nothing more.
        assert ck.subset == ck.subset
        assert ck.matrix == ck.matrix and ck.columns
        assert len(calls) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_degree_index_matches_the_slice_scan(d):
    """The cache's per-axis degree index gives the slice indices that
    `_slice_indices` scans for, on tied and negative coordinates, with no
    rows or no columns, and below and above every degree of N; a degree
    of the wrong arity raises from `CokernelCache.at`."""
    rng = random.Random(f"degree-index:{d}")
    fld = PrimeField(2)

    def degrees(count):
        return [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(count)]

    shapes = [(0, 0), (0, 5), (5, 0)] + [
        (rng.randint(1, 12), rng.randint(1, 12)) for _ in range(12)
    ]
    for n_rows, n_cols in shapes:
        m = graded_matrix_from_entries(
            fld, degrees(n_rows), degrees(n_cols), {})
        cache = CokernelCache(m)
        alphas = degrees(20) + list(m.rows) + list(m.cols) + [
            (-4,) * d, (4,) * d, (-4,) * (d - 1) + (4,), (4,) * (d - 1) + (-4,),
        ]
        for alpha in alphas:
            ck = cache.at(alpha)
            assert (ck.rows_le, ck.cols_le) == _slice_indices(m, alpha)
        if m.dim:
            for bad in ((0,) * (d + 1), (0,) * (d - 1)):
                with pytest.raises(DimensionMismatchError):
                    cache.at(bad)
