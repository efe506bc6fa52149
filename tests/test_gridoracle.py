"""The dense grid oracle: realization, commutativity, naturality."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from mphom import (
    CheckMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
    GradedMatrix,
    GradingError,
    ResourceCapError,
    hilbert_at,
    hom_direct,
    hom_exact,
    hom_mixed,
    hom_restricted,
    naturality_residual,
    push_to_grid,
    realize_grid,
)
from mphom import (
    PrimeField,
    cli,
    deg_leq,
    graded_matrix_from_entries,
    parse_pmod,
    serialize_pmod,
)
from mphom import gridoracle
from mphom.gridoracle import (
    _validate_squares,
    grid_axes,
    hom_oracle,
    nullspace,
    nullspace_with_free,
    rank,
    rref,
)
from mphom.generators import random_module, random_pair

from conftest import free_module, red_blue, staircase_pair, zero_module

FIXTURES = Path(__file__).parent / "fixtures"


def test_rref_and_rank_basics():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(m, 5) == 2
    r, pivots = rref(np.array(m), 5)
    assert pivots == [0, 1]


def test_nullspace_solves():
    m = np.array([[1, 1, 0], [0, 1, 1]])
    for p in (2, 3, 5):
        basis = nullspace(m, p)
        assert basis.shape[1] == 1
        assert ((m @ basis) % p == 0).all()


def test_realize_blue_module_dims(fig_pair):
    _, y = fig_pair
    g = realize_grid(y)
    # Shading of the worked figure: dim 2 on the dark strip where both
    # generators live and no relation has fired, dim 1 on the light
    # region after the merge at (2,2), 0 once the edge relations at
    # (5,0) and (5,1) have killed everything.
    assert g.dims[(0, 0)] == 0
    assert g.dims[(0, 1)] == 1
    assert g.dims[(1, 0)] == 1
    assert g.dims[(1, 1)] == 2
    assert g.dims[(2, 1)] == 2
    assert g.dims[(2, 2)] == 1
    assert g.dims[(5, 0)] == 0
    assert g.dims[(5, 1)] == 0
    assert g.dims[(5, 2)] == 0


def test_realize_free_rank_one():
    pres = free_module([(0, 0)], p=2)
    g = realize_grid(pres)
    assert all(d == 1 for d in g.dims.values())
    assert all(m.tolist() == [[1]] for m in g.maps.values())


def test_realize_zero_module():
    z = zero_module()
    g = realize_grid(z)
    assert g.axes == ()


def test_grid_cap():
    _, y = red_blue()
    with pytest.raises(ResourceCapError):
        realize_grid(y, cap=3)


def test_oracle_dims_match_hilbert_everywhere(fig_pair):
    x, y = fig_pair
    axes = grid_axes(x.matrix, y.matrix)
    for pres in (x, y):
        g = realize_grid(pres, axes)
        for pt in g.points():
            assert g.dims[pt] == hilbert_at(pres, pt), (pres.label, pt)


def test_oracle_running_example(fig_pair):
    x, y = fig_pair
    axes = grid_axes(x.matrix, y.matrix)
    gx, gy = realize_grid(x, axes), realize_grid(y, axes)
    result = hom_oracle(gx, gy)
    assert result.dim == 1


def test_oracle_self_hom_contains_identity(fig_pair):
    _, y = fig_pair
    g = realize_grid(y)
    assert hom_oracle(g, g).dim >= 1


def test_oracle_grid_mismatch(fig_pair):
    x, y = fig_pair
    gx = realize_grid(x)
    gy = realize_grid(y)
    with pytest.raises(DimensionMismatchError):
        hom_oracle(gx, gy)
    # A grid of another arity than the module's degrees.
    for axes in (((0, 1),), ((0,), (1,), (2,))):
        with pytest.raises(DimensionMismatchError, match="arities"):
            realize_grid(x, axes)


def test_oracle_field_mismatch():
    x, _ = red_blue(p=2)
    _, y = red_blue(p=5)
    axes = grid_axes(x.matrix, y.matrix)
    gx, gy = realize_grid(x, axes), realize_grid(y, axes)
    with pytest.raises(FieldMismatchError, match="different fields"):
        hom_oracle(gx, gy)
    # Like every route, the CLI's oracle refuses the pair with exit 1.
    args = [str(FIXTURES / "rand_17_gf2.pmod"),
            str(FIXTURES / "rand_18_gf5.pmod")]
    for alg in ("oracle", "a"):
        assert cli.main(["hom", *args, "--alg", alg]) == 1, alg


def test_naturality_residual_zero_for_all_engines(fig_pair):
    x, y = fig_pair
    axes = grid_axes(x.matrix, y.matrix)
    gx, gy = realize_grid(x, axes), realize_grid(y, axes)
    for algorithm in (hom_direct, hom_restricted, hom_mixed, hom_exact):
        for q in algorithm(x, y):
            assert naturality_residual(q, gx, gy) == 0


def test_naturality_residual_detects_fakes():
    # X = coker(x^2) dies at (2,0); mapping its generator to a free
    # module identically is not natural because the image survives.
    from mphom import (
        Presentation,
        PrimeField,
        graded_matrix_from_entries,
        minimize,
    )

    fld = PrimeField(2)
    x = minimize(Presentation(graded_matrix_from_entries(
        fld, [(0, 0)], [(2, 0)], {(0, 0): 1})))
    y = free_module([(0, 0)], p=2)
    axes = grid_axes(x.matrix, y.matrix)
    gx, gy = realize_grid(x, axes), realize_grid(y, axes)
    fake = graded_matrix_from_entries(
        fld, y.matrix.rows, x.matrix.rows, {(0, 0): 1}
    )
    assert naturality_residual(fake, gx, gy) != 0


def test_push_to_grid_raises_typed_errors():
    x, y = random_pair(1, d=2, gens=6, rels=6, coord_range=8, p=2)
    axes = grid_axes(x.matrix, y.matrix)
    gx, gy = realize_grid(x, axes), realize_grid(y, axes)
    checks = (push_to_grid, naturality_residual)
    # A map Y -> X has X's generators as rows and Y's as columns.
    backwards = hom_direct(y, x).elements
    assert backwards
    for q in backwards:
        for check in checks:
            with pytest.raises(DimensionMismatchError, match="generator"):
                check(q, gx, gy)
    # The same degrees over another field.
    fld = PrimeField(5)
    foreign = GradedMatrix(fld, y.matrix.rows, x.matrix.rows,
                           [() for _ in x.matrix.rows])
    for check in checks:
        with pytest.raises(FieldMismatchError):
            check(foreign, gx, gy)
    # One entry from X generator 0 at (8, 0) to Y generator 1 at (5, 7).
    assert (x.matrix.rows[0], y.matrix.rows[1]) == ((8, 0), (5, 7))
    columns = [() for _ in x.matrix.rows]
    columns[0] = ((1, 1),)
    against = GradedMatrix(x.field, y.matrix.rows, x.matrix.rows, columns,
                           validate=False)
    for check in checks:
        with pytest.raises(GradingError, match="against the grading"):
            check(against, gx, gy)
    # Grids of two different pairs.
    other = realize_grid(y)
    for check in checks:
        with pytest.raises(DimensionMismatchError, match="different grids"):
            check(hom_direct(x, y).elements[0], gx, other)


def test_oracle_agreement_on_random_pairs():
    for seed in (21, 22, 23):
        x, y = random_pair(seed, gens=4, rels=4, coord_range=5, p=5)
        axes = grid_axes(x.matrix, y.matrix)
        gx, gy = realize_grid(x, axes), realize_grid(y, axes)
        assert hom_oracle(gx, gy).dim == hom_direct(x, y).dim, seed


def reference_rref(matrix, p):
    """Textbook Gauss-Jordan over GF(p) on lists of Python ints."""
    r = [[v % p for v in row] for row in matrix]
    n_cols = len(r[0]) if r else 0
    pivots = []
    row = 0
    for col in range(n_cols):
        hit = next((i for i in range(row, len(r)) if r[i][col]), None)
        if hit is None:
            continue
        r[row], r[hit] = r[hit], r[row]
        inv = pow(r[row][col], p - 2, p)
        r[row] = [v * inv % p for v in r[row]]
        for i in range(len(r)):
            if i != row and r[i][col]:
                f = r[i][col]
                r[i] = [(a - f * b) % p for a, b in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


# (33, 40) and (40, 33) pass gridoracle._SMALL_CELLS, so rref reduces
# them on its numpy path and the others on lists of Python ints.
RREF_SHAPES = ((0, 0), (0, 4), (4, 0), (1, 1), (5, 5), (3, 9), (9, 3), (6, 6),
               (33, 40), (40, 33))


# 11, 181, 46337 and 3037000493 are the largest primes rref works on in
# int8, int16, int32 and int64; 4294967291 takes Python ints.
@pytest.mark.parametrize(
    "p", (2, 3, 5, 11, 181, 46337, 65521, 3037000493, 4294967291))
def test_rref_matches_reference(p):
    rng = random.Random(f"rref:{p}")
    cases = [np.zeros((4, 5), dtype=np.int64)]
    for shape in RREF_SHAPES:
        for density in (0.2, 0.8):
            cases.append(np.array(
                [[rng.randrange(-p, 2 * p) if rng.random() < density else 0
                  for _ in range(shape[1])] for _ in range(shape[0])],
                dtype=np.int64,
            ).reshape(shape))
    # Rank-deficient: repeated and scaled rows.
    base = cases[-1]
    cases.append(np.vstack([base, 3 * base, base[:2]]))
    cases.append(cases[-4].T)  # a transposed view, as realize_grid passes
    for matrix in cases:
        r, pivots = rref(matrix, p)
        want, want_pivots = reference_rref(matrix.tolist(), p)
        assert pivots == want_pivots, (p, matrix.shape)
        assert r.shape == matrix.shape
        assert r.tolist() == want


def both_paths(monkeypatch, matrix, p):
    """rref(matrix, p) on lists of Python ints and on numpy arrays."""
    out = []
    for cells in (np.asarray(matrix).size, -1):
        monkeypatch.setattr(gridoracle, "_SMALL_CELLS", cells)
        out.append(rref(matrix, p))
    return out


@pytest.mark.parametrize(
    "p", (2, 5, 65521, 4294967291, 9223372036854775783))
def test_rref_paths_agree(monkeypatch, p):
    # 31 x 33, 32 x 32 and 25 x 41 hold one cell fewer than, exactly and
    # one more than the threshold, so the default takes both paths.
    assert gridoracle._SMALL_CELLS == 1024
    rng = random.Random(f"rref-paths:{p}")
    # Entries in [-p, 2p) need Python ints once 2p passes int64.
    dtype = np.int64 if 2 * p <= np.iinfo(np.int64).max else object
    cases = []
    for shape in ((31, 33), (32, 32), (25, 41), (0, 7), (7, 0), (3, 4)):
        for density in (0.1, 0.6):
            m = np.array(
                [[rng.randrange(-p, 2 * p) if rng.random() < density else 0
                  for _ in range(shape[1])] for _ in range(shape[0])],
                dtype=dtype,
            ).reshape(shape)
            if m.size:
                m[rng.randrange(shape[0])] = 0
                m[:, rng.randrange(shape[1])] = 0
            cases.append(m)
        if shape[0] > 3:
            # Rank-deficient: the lower rows are multiples and sums of the
            # upper ones.
            half = cases[-1][: shape[0] // 2]
            low = (3 * half + np.roll(half, 1, axis=0))[: shape[0] - len(half)]
            cases.append(np.vstack([half, low]))
    for matrix in cases:
        (r1, pivots1), (r2, pivots2) = both_paths(monkeypatch, matrix, p)
        assert pivots1 == pivots2, (p, matrix.shape)
        assert r1.dtype == r2.dtype == np.int64
        assert r1.shape == r2.shape == matrix.shape
        assert r1.tolist() == r2.tolist()
        want, want_pivots = reference_rref(matrix.tolist(), p)
        assert (r1.tolist(), pivots1) == (want, want_pivots), matrix.shape
    # Inputs that are not integer arrays: bools, floats and Python ints.
    ints = [[0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 0, 0, 0]]
    for matrix in (np.array(ints, dtype=bool),
                   np.array(ints, dtype=float) * 3 - 1,
                   np.array([[v * (p + 2) - 1 for v in row] for row in ints],
                            dtype=object)):
        (r1, pivots1), (r2, pivots2) = both_paths(monkeypatch, matrix, p)
        assert (pivots1, r1.dtype, r1.tolist()) == (
            pivots2, r2.dtype, r2.tolist()), matrix.dtype
        if matrix.dtype == float and gridoracle._rref_dtype(p) is object:
            continue  # object work keeps floats, which round past 2^53
        want, want_pivots = reference_rref(
            [[int(v) for v in row] for row in matrix.tolist()], p)
        assert (r1.tolist(), pivots1) == (want, want_pivots), matrix.dtype


# 2^63 - 25 is the largest prime the parser accepts.
@pytest.mark.parametrize(
    "p", (65521, 2**31 - 1, 4294967291, 9223372036854775783))
def test_oracle_matches_direct_at_large_primes(p):
    dims = []
    for s in range(12):
        x, y = random_pair(100 + s, d=2, gens=5, rels=5, coord_range=4, p=p)
        axes = grid_axes(x.matrix, y.matrix)
        gx, gy = realize_grid(x, axes), realize_grid(y, axes)
        dim = hom_oracle(gx, gy).dim
        assert dim == hom_direct(x, y).dim, s
        dims.append(dim)
    assert any(dims)


def test_end_check_at_large_prime(tmp_path):
    path = tmp_path / "x.pmod"
    path.write_text(serialize_pmod(
        random_module(5, gens=5, rels=5, coord_range=4, p=2**31 - 1)))
    assert cli.main(["end", str(path), "--check"]) == 0


def per_point_realization(matrix, axes):
    """realize_grid's fields computed from scratch at every grid point."""
    p = matrix.field.p
    dims, gen_rows, free_rows, functionals, maps = {}, {}, {}, {}, {}
    for point in itertools.product(*axes):
        rows = [i for i, r in enumerate(matrix.rows) if deg_leq(r, point)]
        cols = [j for j, c in enumerate(matrix.cols) if deg_leq(c, point)]
        dense = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for k, j in enumerate(cols):
            for i, v in matrix.columns[j]:
                dense[rows.index(i), k] = v
        w, free = (nullspace_with_free(dense.T, p) if rows
                   else (np.zeros((0, 0), dtype=np.int64), []))
        dims[point] = w.shape[1]
        gen_rows[point] = tuple(rows)
        free_rows[point] = tuple(rows[k] for k in free)
        functionals[point] = w.T
    for point in itertools.product(*axes):
        for axis, coords in enumerate(axes):
            k = coords.index(point[axis])
            if k + 1 == len(coords):
                continue
            succ = point[:axis] + (coords[k + 1],) + point[axis + 1:]
            out = np.zeros((dims[succ], dims[point]), dtype=np.int64)
            for c, r in enumerate(free_rows[point]):
                out[:, c] = functionals[succ][:, gen_rows[succ].index(r)]
            maps[(point, axis)] = out % p
    return dims, gen_rows, free_rows, functionals, maps


def assert_realization_matches_per_point(matrix, axes):
    g = realize_grid(matrix, axes)
    dims, gen_rows, free_rows, functionals, maps = per_point_realization(
        matrix, g.axes)
    assert g.dims == dims
    assert g.gen_rows == gen_rows
    assert g.free_rows == free_rows
    for want, got in ((functionals, g.functionals), (maps, g.maps)):
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert got[key].shape == w.shape, key
            assert (got[key] == w).all(), key


def negative_degree_module(rng, p):
    """A random d=2 presentation with negative and tied coordinates."""
    rows = [(rng.randint(-3, 2), rng.randint(-3, 2))
            for _ in range(rng.randint(0, 4))]
    cols = []
    for _ in range(rng.randint(0, 5) if rows else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        cols.append(tuple(max(u, v) + rng.randint(0, 2)
                          for u, v in zip(a, b)))
    entries = {
        (i, j): rng.randrange(p)
        for j, c in enumerate(cols) for i, r in enumerate(rows)
        if deg_leq(r, c)
    }
    return graded_matrix_from_entries(PrimeField(p), rows, cols, entries)


def test_realize_grid_matches_per_point_reference():
    fixtures = [parse_pmod(f.read_text()).matrix
                for f in sorted(FIXTURES.glob("*.pmod"))]
    fixtures += [m.matrix for m in (*red_blue(), *staircase_pair(),
                                    free_module([(0, 0), (1, -1)]))]
    for m in fixtures:
        assert_realization_matches_per_point(m, None)
    for x, y in itertools.combinations(fixtures, 2):
        axes = grid_axes(x, y)
        if len(axes) == 2:
            assert_realization_matches_per_point(x, axes)
            assert_realization_matches_per_point(y, axes)
    rng = random.Random("realize-grid-reference")
    for p in (2, 5, 65521):
        for seed in range(8):
            x, y = random_pair(300 + seed, d=2, gens=4, rels=4,
                               coord_range=4, p=p)
            axes = grid_axes(x.matrix, y.matrix)
            assert_realization_matches_per_point(x.matrix, axes)
            assert_realization_matches_per_point(y.matrix, axes)
        for _ in range(12):
            x, y = negative_degree_module(rng, p), negative_degree_module(rng, p)
            axes = grid_axes(x, y)
            assert_realization_matches_per_point(x, axes)
            assert_realization_matches_per_point(y, axes)
    # The slice at the top of the grid holds all of N, here more than
    # gridoracle._SMALL_CELLS cells, so realize_grid reduces it on rref's
    # numpy path and the smaller slices on lists of Python ints.
    for p in (2, 5):
        m = random_module(7, gens=40, rels=40, coord_range=6, p=p).matrix
        assert m.nrows * m.ncols > gridoracle._SMALL_CELLS
        assert_realization_matches_per_point(m, None)


def dense_grid_system(gx, gy):
    """(A, var_layout) of the full naturality system on the grid: every
    point with both modules nonzero gets its own variables, every edge its
    own equation block, with no slice quotient, as one dense object array.
    Row (t, s) of an edge's block equates entry (t, s) of f_succ . X_edge
    and of Y_edge . f_point.
    """
    p = gx.p
    layout, offsets, total = [], {}, 0
    for point in gx.points():
        dx, dy = gx.dims[point], gy.dims[point]
        if dx and dy:
            offsets[point] = total
            layout.append((point, dy, dx))
            total += dx * dy
    blocks, n_eqs = [], 0
    for (point, axis), xmap in gx.maps.items():
        ymap = gy.maps[(point, axis)]
        if xmap.shape[1] and ymap.shape[0]:
            succ = gx.successor(point, axis)
            blocks.append((point, succ, xmap, ymap, n_eqs))
            n_eqs += xmap.shape[1] * ymap.shape[0]
    a = np.zeros((n_eqs, total), dtype=object)
    for point, succ, xmap, ymap, eq in blocks:
        (dxb, dxa), (dyb, dya) = xmap.shape, ymap.shape
        rows = slice(eq, eq + dyb * dxa)
        if succ in offsets:
            base = offsets[succ]
            a[rows, base:base + dyb * dxb] = np.kron(
                np.eye(dyb, dtype=np.int64), xmap.T)
        if point in offsets:
            base = offsets[point]
            a[rows, base:base + dya * dxa] = np.kron(
                -ymap % p, np.eye(dxa, dtype=np.int64))
    return a, tuple(layout)


def assert_oracle_matches_dense_system(x, y):
    axes = grid_axes(x.matrix, y.matrix)
    gx, gy = realize_grid(x, axes), realize_grid(y, axes)
    p = gx.p
    result = hom_oracle(gx, gy)
    a, layout = dense_grid_system(gx, gy)
    assert result.var_layout == layout
    assert (result.equations, result.variables) == a.shape
    assert result.dim == nullspace(a, p).shape[1]
    assert len(result.vectors) == result.dim
    if result.dim:
        vectors = np.array(result.vectors, dtype=object).T
        assert not ((a @ vectors) % p).any()
        assert rank(vectors, p) == result.dim
    return result


def test_oracle_matches_dense_grid_system():
    fixtures = [parse_pmod(f.read_text())
                for f in sorted(FIXTURES.glob("*.pmod"))]
    fixtures += [*red_blue(), *staircase_pair(),
                 free_module([(0, 0), (1, -1)])]
    for x in fixtures:
        assert_oracle_matches_dense_system(x, x)
    for x, y in itertools.permutations(fixtures, 2):
        if x.field.p == y.field.p:
            assert_oracle_matches_dense_system(x, y)
    dims = []
    for d in (1, 2, 3):
        for p in (2, 5, 65521, 9223372036854775783):
            for seed in range(4):
                x, y = random_pair(400 + seed, d=d, gens=4, rels=4,
                                   coord_range=4, p=p)
                dims.append(assert_oracle_matches_dense_system(x, y).dim)
    assert any(dims)


def test_validate_squares_rejects_a_perturbed_map():
    # A free module of rank one: every edge map is the one shared 1 x 1
    # identity, so all squares but those at a perturbed copy are alike.
    g = realize_grid(free_module([(0, 0)]), ((0, 1, 2), (0, 1, 2)))
    _validate_squares(g)
    g.maps[((1, 1), 0)] = (g.maps[((1, 1), 0)] + 1) % g.p
    with pytest.raises(CheckMismatchError, match=r"\(1, 0\)"):
        _validate_squares(g)


def test_realize_grid_rejects_a_corrupted_slice_pair(monkeypatch):
    # Generators at (0,0) and (1,1) give two slices on this grid; doubling
    # the 1 x 1 identity between points of the first one breaks the square
    # at (1,0), whose other path runs through the second slice.
    module = free_module([(0, 0), (1, 1)])
    axes = ((0, 1, 2), (0, 1, 2))
    realize_grid(module, axes)
    edge_map = gridoracle._edge_map
    corrupted = []

    def corrupt(p, source, target):
        out = edge_map(p, source, target)
        if source is target and source[0] == 1:
            corrupted.append(source)
            return 2 * out % p
        return out

    monkeypatch.setattr(gridoracle, "_edge_map", corrupt)
    with pytest.raises(CheckMismatchError, match="does not commute"):
        realize_grid(module, axes)
    assert len(corrupted) == 1
