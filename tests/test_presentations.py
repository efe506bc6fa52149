"""Minimization, kernels, resolutions, truncation, transposition,
sparsification."""

import random

import pytest

from mphom import (
    ColumnSpan,
    DegreeOverflowError,
    DimensionMismatchError,
    GradedMatrix,
    GradingError,
    Presentation,
    PrimeField,
    ResourceCapError,
    column_reduce,
    deg_join,
    deg_leq,
    free_resolution,
    graded_matrix_from_entries,
    hilbert_at,
    hom_direct,
    hom_module_presentation,
    kernel,
    matlis_transpose_shift,
    matmul,
    minimize,
    nullspace_of_columns,
    sparsify,
    thickness,
    truncate,
    truncation_bound,
    validate_grading,
)
from mphom import dual_context, homspace, presentations
from mphom.generators import random_module, random_pair
from mphom.graded import _axpy
from mphom.gridoracle import nullspace as dense_nullspace
from mphom.gridoracle import rank as dense_rank
from mphom.localalg import evaluation_grid, grid_points, local_cokernel

import numpy as np

from conftest import red_blue
from test_graded import lift_through


def hilbert_table(pres, axes):
    return {pt: hilbert_at(pres, pt) for pt in grid_points(axes)}


def test_minimize_removes_duplicate_column():
    _, blue = red_blue()
    n = blue.matrix
    widened = GradedMatrix(
        n.field,
        n.rows,
        list(n.cols) + [n.cols[0]],
        list(n.columns) + [n.columns[0]],
    )
    out = minimize(Presentation(widened))
    assert out.matrix.ncols == 3
    assert out.matrix.columns == n.columns


def test_minimize_cancels_unit_at_equal_degree():
    fld = PrimeField(3)
    # Generator b at (1,1) is killed by a relation of the same degree;
    # the surviving module is free on a.
    m = graded_matrix_from_entries(
        fld,
        [(0, 0), (1, 1)],
        [(1, 1)],
        {(0, 0): 1, (1, 0): 2},
    )
    out = minimize(Presentation(m))
    assert out.matrix.nrows == 1
    assert out.matrix.ncols == 0
    assert out.matrix.rows == ((0, 0),)


def test_minimize_preserves_hilbert_function():
    rng = random.Random(12)
    pres = random_module(12, d=2, gens=12, rels=15, coord_range=6, p=2)
    # Compare against the raw (unminimized) widened variant: append junk
    # columns that are combinations of existing ones.
    m = pres.matrix
    if m.ncols >= 2:
        extra_cols = list(m.cols) + [deg_join(m.cols[0], m.cols[1])]
        combined = {}
        for i, v in m.columns[0]:
            combined[i] = v
        for i, v in m.columns[1]:
            combined[i] = (combined.get(i, 0) + v) % m.field.p
        col = tuple(sorted((i, v) for i, v in combined.items() if v))
        widened = GradedMatrix(m.field, m.rows, extra_cols,
                               list(m.columns) + [col])
        noisy = Presentation(widened)
        axes = evaluation_grid(widened)
        pts = list(grid_points(axes))[:25]
        re_min = minimize(noisy)
        for pt in pts:
            assert hilbert_at(re_min, pt) == hilbert_at(noisy, pt)


def test_minimize_idempotent():
    for seed in range(5):
        pres = random_module(seed, gens=8, rels=8, p=3)
        again = minimize(pres)
        assert again.matrix == pres.matrix


def test_minimize_runs_the_redundancy_sweep_once(monkeypatch):
    # One cancel sweep then one redundancy sweep is already a fixpoint,
    # so no input gets a second round, even one that both sweeps change.
    from test_golden import REDUCER_DIMS, REDUCER_PRIMES, raw_matrix

    sweep = presentations._irredundant
    calls = []

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(presentations, "_irredundant", counted)
    changed = 0
    for d in REDUCER_DIMS:
        for p in REDUCER_PRIMES:
            for seed in range(8):
                m = raw_matrix(seed, d, p)
                calls.clear()
                out = minimize(Presentation(m)).matrix
                assert len(calls) == 1, (seed, d, p)
                changed += (out.nrows, out.ncols) != (m.nrows, m.ncols)
    assert changed


def _irredundant_per_column(degrees, columns, fld):
    """Reference for `_irredundant`: in (sum, degree) order, one fresh
    `column_reduce` per column over the columns kept before it of degree
    <= its own."""
    order = sorted(range(len(degrees)),
                   key=lambda j: (sum(degrees[j]), degrees[j]))
    keep = []
    for j in order:
        usable = [k for k in keep if deg_leq(degrees[k], degrees[j])]
        span = column_reduce([columns[k] for k in usable], fld)
        if columns[j] and not span.contains(columns[j]):
            keep.append(j)
    return sorted(keep)


def test_irredundant_matches_per_column_reference_on_route_inputs(
        monkeypatch):
    """Every `_irredundant` call made by `minimize` on raw matrices and
    by the d = 2, 3 kernels of Hom-module presentations and dual
    contexts."""
    from test_golden import REDUCER_DIMS, REDUCER_PRIMES, raw_matrix

    sweep = presentations._irredundant
    calls = []

    def recording(degrees, columns, fld):
        calls.append((degrees, columns, fld))
        return sweep(degrees, columns, fld)

    monkeypatch.setattr(presentations, "_irredundant", recording)
    for d in REDUCER_DIMS:
        for p in REDUCER_PRIMES:
            for seed in range(4):
                minimize(Presentation(raw_matrix(seed, d, p)))
    for d, seed, p in ((2, 0, 2), (2, 1, 5), (3, 0, 2), (3, 1, 5)):
        x, y = random_pair(seed, d=d, gens=5, rels=5, coord_range=4, p=p)
        hom_module_presentation(x, y)
        dual_context(x, y)
    monkeypatch.undo()
    assert any(len(set(degrees)) > 1 for degrees, _, _ in calls)
    for degrees, columns, fld in calls:
        assert sweep(degrees, columns, fld) == _irredundant_per_column(
            degrees, columns, fld)


def test_irredundant_carries_one_reduction_per_chain(monkeypatch):
    """One carried reduction per chain of heads (those that differ only
    in their last coordinate), each column activated at most once in
    it, where the per-line loop built one span per distinct head."""
    from test_packed_sweeps import _counted_chains, per_line_irredundant

    chains = _counted_chains(monkeypatch)
    rng = random.Random(16)
    fld = PrimeField(3)
    for d in (1, 2, 3):
        for _ in range(20):
            degrees = [tuple(rng.randint(0, 2) for _ in range(d))
                       for _ in range(rng.randint(0, 9))]
            columns = [tuple((i, rng.randint(1, 2))
                             for i in sorted(rng.sample(range(4), 2)))
                       for _ in degrees]
            del chains[:]
            keep = presentations._irredundant(degrees, columns, fld)
            assert len(chains) == len({deg[:-2] for deg in degrees})
            assert all(len(set(ranks)) == len(ranks) for _, ranks in chains)
            assert keep == _irredundant_per_column(degrees, columns, fld)
            assert keep == per_line_irredundant(degrees, columns, fld)


def _equal_degree_unit(rows, cols, columns):
    """First (row, column, value) entry, column by column, joining a row
    and a column of equal degree; None when there is none."""
    for j, col in enumerate(columns):
        for i, v in col:
            if rows[i] == cols[j]:
                return i, j, v
    return None


def _minimize_by_scan(presentation):
    """Reference for `minimize`: the loop that rescans every column for
    the first equal-degree unit, clears its row, and renumbers every
    column per cancelled unit; then `_irredundant`."""
    matrix = presentation.matrix
    fld = matrix.field
    p = fld.p
    rows = list(matrix.rows)
    cols = list(matrix.cols)
    columns = [list(c) for c in matrix.columns]
    while (hit := _equal_degree_unit(rows, cols, columns)) is not None:
        i, j, v = hit
        inv = fld.inv(v)
        pivot_col = columns[j]
        for k, col in enumerate(columns):
            coeff = dict(col).get(i) if k != j else None
            if coeff:
                columns[k] = _axpy(col, pivot_col, (-coeff * inv) % p, p)
        del columns[j]
        del cols[j]
        del rows[i]
        for k, col in enumerate(columns):
            columns[k] = [(r - 1 if r > i else r, w) for r, w in col]
    keep = presentations._irredundant(cols, columns, fld)
    return GradedMatrix(fld, rows, [cols[j] for j in keep],
                        [tuple(columns[j]) for j in keep], validate=False)


def test_minimize_matches_the_scan_loop():
    """The heap of unit candidates cancels the same units, in the same
    order, as the rescanning loop: equal matrices on the golden raw
    matrices, on random ones with many tied degrees over d = 1 to 4, and
    on the raw Hom-module presentations of n = 20 pairs."""
    from test_golden import REDUCER_DIMS, REDUCER_PRIMES, raw_matrix
    from test_packed_sweeps import _random_matrix

    inputs = [raw_matrix(seed, d, p) for d in REDUCER_DIMS
              for p in REDUCER_PRIMES for seed in range(8)]
    rng = random.Random("cancel-units")
    for p in (2, 5, 65521):
        fld = PrimeField(p)
        for d in (1, 2, 3, 4):
            for _ in range(12):
                inputs.append(_random_matrix(
                    rng, fld, d, rng.randint(0, 12), rng.randint(1, 30),
                    rng.randint(0, 2)))
    seen = []
    real = presentations.minimize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homspace, "minimize",
                   lambda pres: seen.append(pres.matrix) or real(pres))
        for p in (2, 5):
            hom_module_presentation(*random_pair(
                11, d=2, gens=20, rels=20, coord_range=30, p=p))
    assert seen
    inputs += seen
    cancelled = 0
    for m in inputs:
        out = minimize(Presentation(m)).matrix
        assert out == _minimize_by_scan(Presentation(m))
        cancelled += m.nrows - out.nrows
    assert cancelled


def _reduced_column_echelon_loop(columns, fld):
    """Reference for `_reduced_column_echelon`: its own elimination loop,
    unit pivots set as they are found, then pivot rows cleared."""
    p = fld.p
    work = [list(col) for col in columns]
    pivots = {}
    for j, col in enumerate(work):
        while col:
            piv, lead = col[-1]
            if piv not in pivots:
                inv = fld.inv(lead)
                col = [(r, (v * inv) % p) for r, v in col]
                pivots[piv] = j
                break
            col = _axpy(col, work[pivots[piv]], (-lead) % p, p)
        work[j] = col
    for piv, j in pivots.items():
        for k, col in enumerate(work):
            coeff = dict(col).get(piv) if k != j else None
            if coeff:
                work[k] = _axpy(col, work[j], (-coeff) % p, p)
    return work


def test_reduced_column_echelon_matches_elimination_loop():
    echelon = presentations._reduced_column_echelon
    # The third column is the sum of the first two: it comes back empty.
    fld = PrimeField(5)
    batch = [[(0, 2), (2, 1)], [(1, 3), (2, 4)], [(0, 2), (1, 3)]]
    assert echelon(batch, fld) == [[(0, 2), (2, 1)], [(0, 4), (1, 1)], []]
    assert echelon(batch, fld) == _reduced_column_echelon_loop(batch, fld)
    rng = random.Random(48)
    for p in (2, 3, 65521):
        fld = PrimeField(p)
        for _ in range(60):
            columns = []
            for _ in range(rng.randint(0, 7)):
                if columns and rng.random() < 0.3:
                    a, b = rng.choice(columns), rng.choice(columns)
                    columns.append(_axpy(a, b, rng.randint(1, p - 1), p))
                else:
                    support = sorted(rng.sample(range(6), rng.randint(0, 4)))
                    columns.append([(i, rng.randint(1, p - 1))
                                    for i in support])
            assert echelon(columns, fld) == _reduced_column_echelon_loop(
                columns, fld)


def test_kernel_of_injective_map_is_empty():
    red, _ = red_blue()
    assert kernel(red.matrix).ncols == 0


def test_kernel_of_duplicate_columns():
    fld = PrimeField(5)
    m = graded_matrix_from_entries(
        fld, [(0, 0)], [(1, 1), (1, 1)], {(0, 0): 2, (0, 1): 2}
    )
    k = kernel(m)
    assert k.ncols == 1
    assert k.cols == ((1, 1),)
    assert matmul(m, k).nnz() == 0


def test_kernel_matches_per_degree_dense_nullspace():
    for seed in (3, 4, 5):
        pres = random_module(seed, d=2, gens=6, rels=8, coord_range=5, p=2)
        m = pres.matrix
        k = kernel(m)
        assert matmul(m, k).nnz() == 0
        axes = evaluation_grid(m)
        for pt in grid_points(axes):
            cols_le = [j for j in range(m.ncols)
                       if all(a <= b for a, b in zip(m.cols[j], pt))]
            dense = np.zeros((m.nrows, len(cols_le)), dtype=np.int64)
            for kk, j in enumerate(cols_le):
                for i, v in m.columns[j]:
                    dense[i, kk] = v
            expected = len(dense_nullspace(dense, 2, len(cols_le)))
            span_cols = [j for j in range(k.ncols)
                         if all(a <= b for a, b in zip(k.cols[j], pt))]
            sub = np.zeros((m.ncols, len(span_cols)), dtype=np.int64)
            for kk, j in enumerate(span_cols):
                for i, v in k.columns[j]:
                    sub[i, kk] = v
            got = len(span_cols) - len(
                dense_nullspace(sub, 2, len(span_cols)))
            assert got == expected, (seed, pt)


def _fixpoint_join_closure(degrees):
    """The frontier-times-closure fixpoint, kept as a reference."""
    closure = {tuple(d) for d in degrees}
    frontier = set(closure)
    while frontier:
        new = set()
        for a in frontier:
            for b in closure:
                j = deg_join(a, b)
                if j not in closure:
                    new.add(j)
        closure |= new
        frontier = new
    return sorted(closure, key=lambda deg: (sum(deg), deg))


def test_join_closure_matches_fixpoint():
    rng = random.Random(2024)
    cases = [[(3,)], [(1, 2)], [(0, 0, 0)], [(1, 2), (1, 2), (2, 1)]]
    for d in (1, 2, 3):
        for _ in range(30):
            count = rng.randint(1, 12)
            degrees = [tuple(rng.randint(-3, 6) for _ in range(d))
                       for _ in range(count)]
            # Repeat some degrees so duplicates are always exercised.
            degrees += rng.sample(degrees, rng.randint(0, count))
            rng.shuffle(degrees)
            cases.append(degrees)
    for degrees in cases:
        got = presentations._join_closure(degrees)
        assert got == _fixpoint_join_closure(degrees), degrees


def test_join_closure_cap_matches_the_closure_size(monkeypatch):
    """The closure is built a coordinate at a time; it raises exactly
    when the whole closure has more than CLOSURE_CAP points, at every
    d."""
    rng = random.Random("closure-cap")
    for d in (1, 2, 3, 4):
        for _ in range(15):
            degrees = [tuple(rng.randint(0, 4) for _ in range(d))
                       for _ in range(rng.randint(1, 10))]
            size = len(_fixpoint_join_closure(degrees))
            for cap in (size - 1, size):
                monkeypatch.setattr(presentations, "CLOSURE_CAP", cap)
                if cap < size:
                    with pytest.raises(ResourceCapError):
                        presentations._join_closure(degrees)
                else:
                    assert len(presentations._join_closure(degrees)) == size


def test_kernel_rejects_mixed_arity_columns():
    fld = PrimeField(2)
    m = GradedMatrix(fld, [(0, 0)], [(1, 1), (1, 1, 1)], [[(0, 1)], []],
                     validate=False)
    with pytest.raises(DimensionMismatchError):
        kernel(m)


@pytest.mark.parametrize("cols", [[(1, 1), (1, 1, 1)], [(1, 1, 1), (1, 1)]])
def test_minimize_rejects_mixed_arity_columns(cols):
    fld = PrimeField(2)
    m = GradedMatrix(fld, [(0, 0)], cols, [[(0, 1)], [(0, 1)]],
                     validate=False)
    with pytest.raises(DimensionMismatchError):
        minimize(Presentation(m))


@pytest.mark.parametrize("coord", [1 << 62, -(1 << 62)])
def test_kernel_rejects_out_of_range_column_degree(coord):
    fld = PrimeField(2)
    m = GradedMatrix(fld, [(0, 0)], [(1, 1), (coord, 0)], [[(0, 1)], []],
                     validate=False)
    with pytest.raises(DegreeOverflowError):
        kernel(m)


def test_kernel_closure_cap(monkeypatch):
    # The cap bounds the lines, the join closure of the columns' first
    # d - 1 coordinates.  The running example's N lifted to d=3 has
    # relations at (2,2,0), (5,0,0), (5,1,0): its lines (2,2), (5,0),
    # (5,1) close to four with (5,2).
    m = GradedMatrix(PrimeField(3), [(0, 1, 0), (1, 0, 0)],
                     [(2, 2, 0), (5, 0, 0), (5, 1, 0)],
                     [((0, 1), (1, 2)), ((1, 1),), ((0, 1),)])
    assert len(presentations._join_closure([c[:-1] for c in m.cols])) == 4
    monkeypatch.setattr(presentations, "CLOSURE_CAP", 3)
    with pytest.raises(ResourceCapError):
        kernel(m)


def _kernel_per_point(matrix):
    """The kernel reduced from scratch at every point of the join closure
    of the column degrees; the reference for the line sweep of `kernel`,
    which must give the same Betti degrees and the same slice ranks (its
    generating set may differ)."""
    fld = matrix.field
    n = matrix.ncols
    if n == 0:
        return GradedMatrix(fld, matrix.cols, [], [], validate=False)
    cols = matrix.cols
    generators = []
    for alpha in presentations._join_closure(cols):
        cols_le = [j for j in range(n)
                   if all(a <= b for a, b in zip(cols[j], alpha))]
        if not cols_le:
            continue
        combos = nullspace_of_columns([matrix.columns[j] for j in cols_le],
                                      fld)
        if not combos:
            continue
        span = ColumnSpan(fld)
        for gdeg, gcol in generators:
            if all(a <= b for a, b in zip(gdeg, alpha)):
                span.insert(gcol)
        for combo in combos:
            if span.rank == len(combos):
                break
            vec = tuple(sorted((cols_le[k], v) for k, v in combo.items()))
            residual = span.reduce_vector(vec)
            if residual:
                residual = tuple(residual)
                generators.append((alpha, residual))
                span.insert(residual)
    return GradedMatrix(fld, matrix.cols, [deg for deg, _ in generators],
                        [col for _, col in generators], validate=False)


def _random_graded(seed, nrows, ncols, coord_range, p, d=2):
    """Seeded graded matrix with more columns than rows, so its kernel
    has many generators; it need not be minimal."""
    rng = random.Random(f"d{d}-kernel:{seed}:{nrows}:{ncols}:{p}")
    rows = [tuple(rng.randint(0, coord_range) for _ in range(d))
            for _ in range(nrows)]
    cols = [tuple(rng.randint(0, coord_range) for _ in range(d))
            for _ in range(ncols)]
    entries = {(i, j): rng.randrange(1, p)
               for j in range(ncols) for i in range(nrows)
               if all(a <= b for a, b in zip(rows[i], cols[j]))
               and rng.random() < 0.4}
    return graded_matrix_from_entries(PrimeField(p), rows, cols, entries)


def _seeded_d2_matrices():
    for p in (2, 5, 65521):
        for seed, (gens, rels) in enumerate(((4, 8), (8, 14), (12, 20),
                                             (16, 30), (30, 30))):
            yield random_module(seed, d=2, gens=gens, rels=rels,
                                coord_range=max(gens, 5), p=p).matrix
        for seed, (nrows, ncols) in enumerate(((3, 8), (6, 20), (10, 30))):
            yield _random_graded(seed, nrows, ncols, 8, p)


def _kernel_inputs(monkeypatch, pairs, route=hom_module_presentation):
    """The matrices `route` passes to `kernel` on each pair.  For
    `hom_module_presentation` these are its `combined` and `second`
    matrices, neither a minimal presentation."""
    seen = []

    def recording_kernel(matrix):
        seen.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(homspace, "kernel", recording_kernel)
    monkeypatch.setattr(presentations, "kernel", recording_kernel)
    for x, y in pairs:
        route(x, y)
    monkeypatch.undo()
    return seen


def _edge_case_matrices():
    fld5 = PrimeField(5)
    fld2 = PrimeField(2)
    yield graded_matrix_from_entries(  # duplicate columns
        fld5, [(0, 0), (1, 0)], [(1, 1), (1, 1), (2, 0), (2, 0), (2, 1)],
        {(0, 0): 2, (0, 1): 2, (1, 2): 1, (1, 3): 4, (0, 4): 1, (1, 4): 1},
    )
    yield GradedMatrix(  # zero columns next to nonzero ones
        fld2, [(0, 0)], [(0, 3), (1, 1), (2, 0), (1, 1)],
        [(), ((0, 1),), (), ((0, 1),)],
    )
    yield GradedMatrix(fld2, [(0, 0)], [(0, 0)], [()])  # one zero column
    yield GradedMatrix(fld2, [(0, 0)], [(2, 5)], [((0, 1),)])  # one column
    yield GradedMatrix(  # all columns at one degree
        fld5, [(0, 0), (0, 1)], [(3, 3)] * 4,
        [((0, 1),), ((1, 2),), ((0, 1), (1, 1)), ((0, 3), (1, 4))],
    )
    yield graded_matrix_from_entries(  # negative coordinates
        fld5, [(-4, -2), (-3, -5)],
        [(-2, -2), (-3, -1), (-1, -5), (0, 0), (-1, -1)],
        {(0, 0): 1, (0, 1): 3, (1, 2): 1, (0, 3): 1, (1, 3): 2,
         (0, 4): 4, (1, 4): 1},
    )


def _dense_rank_below(m, pt):
    """Number and dense rank of the columns of m of degree <= pt."""
    cols = [j for j in range(m.ncols)
            if all(a <= b for a, b in zip(m.cols[j], pt))]
    dense = [[0] * len(cols) for _ in range(m.nrows)]
    for k, j in enumerate(cols):
        for i, v in m.columns[j]:
            dense[i][k] = v
    return len(cols), dense_rank(dense, m.field.p) if cols else 0


def _dense_nullity(m, pt):
    count, rank = _dense_rank_below(m, pt)
    return count - rank


def _assert_minimal_generators(k):
    """No column of k lies in the span of the others of degree <= its
    own."""
    for j, deg in enumerate(k.cols):
        span = ColumnSpan(k.field)
        for i, other in enumerate(k.cols):
            if i != j and all(a <= b for a, b in zip(other, deg)):
                span.insert(k.columns[i])
        assert not span.contains(k.columns[j]), (j, deg)


def _assert_kernel_matches_per_point(m):
    """The kernel against the per-point reference: equal Betti-degree
    multisets, M.K = 0, a minimal generating set, and at every closure
    point its slice has the dense nullity of M's columns below the
    point."""
    k = kernel(m)
    assert sorted(k.cols) == sorted(_kernel_per_point(m).cols)
    assert k.rows == m.cols
    assert matmul(m, k).nnz() == 0
    _assert_minimal_generators(k)
    if m.ncols:
        for pt in presentations._join_closure(m.cols):
            assert _dense_rank_below(k, pt)[1] == _dense_nullity(m, pt), pt
    return k


def test_d2_kernel_matches_per_point_on_seeded_matrices():
    for m in _seeded_d2_matrices():
        k = _assert_kernel_matches_per_point(m)
        if k.ncols:
            _assert_kernel_matches_per_point(k)


def test_d2_kernel_matches_per_point_on_hom_module_inputs(monkeypatch):
    pairs = [random_pair(seed, d=2, gens=n, rels=n, coord_range=2 * n, p=p)
             for seed, n, p in ((0, 5, 2), (1, 6, 5), (2, 7, 2),
                                (3, 6, 65521))]
    seen = _kernel_inputs(monkeypatch, pairs)
    assert len(seen) == 2 * len(pairs)
    for m in seen:
        _assert_kernel_matches_per_point(m)


def test_d2_kernel_matches_per_point_on_edge_cases():
    for m in _edge_case_matrices():
        k = _assert_kernel_matches_per_point(m)
        assert k == _kernel_per_point(m)


def _other_d_matrices():
    """Seeded d = 1, 3, 4 presentations and wide graded matrices."""
    for d, rels, coord_range in ((1, 8, 6), (3, 8, 4), (4, 6, 3)):
        for seed in range(4):
            p = (2, 5, 3, 65521)[seed]
            yield random_module(seed, d=d, gens=7, rels=rels,
                                coord_range=coord_range, p=p).matrix
            yield _random_graded(seed, 4, 10, coord_range, p, d=d)


def test_kernel_matches_per_point_other_d():
    seen = 0
    for m in _other_d_matrices():
        k = _assert_kernel_matches_per_point(m)
        if k.ncols:
            seen += 1
            _assert_kernel_matches_per_point(k)
    assert seen >= 10


def test_kernel_drops_generator_spanned_across_incomparable_lines():
    # Column 5 first vanishes on the incomparable lines (0, 2) and (2, 1),
    # giving generators at (0, 2, 2) and (2, 1, 2).  On their join (2, 2)
    # column 3 vanishes with a dependency that is the sum of those two,
    # so the sweep's third generator, at (2, 2, 2), is dropped.
    m = GradedMatrix(
        PrimeField(2), [(0, 0, 0)] * 4,
        [(2, 1, 1), (1, 1, 2), (1, 0, 2), (1, 1, 2), (0, 2, 0), (0, 1, 2)],
        [((0, 1), (1, 1), (2, 1), (3, 1)), ((0, 1),), ((1, 1),),
         ((2, 1),), ((3, 1),), ((3, 1),)],
    )
    k = _assert_kernel_matches_per_point(m)
    assert k.cols == ((0, 2, 2), (2, 1, 2))
    assert k.columns == (((4, 1), (5, 1)),
                         ((0, 1), (1, 1), (2, 1), (3, 1), (5, 1)))


def test_kernel_matches_per_point_on_other_d_route_inputs(monkeypatch):
    """The dual contexts and Hom-module presentations of d = 3, 4 pairs
    hand `kernel` matrices on which the redundancy filter drops
    generators."""
    pairs = [random_pair(seed, d=d, gens=4, rels=4, coord_range=3, p=p)
             for d, seed, p in ((3, 0, 2), (3, 1, 5), (3, 3, 5), (4, 0, 2))]
    seen = [*_kernel_inputs(monkeypatch, pairs, dual_context),
            *_kernel_inputs(monkeypatch, pairs)]
    dropped = []
    irredundant = presentations._irredundant

    def recording_irredundant(degrees, columns, fld):
        keep = irredundant(degrees, columns, fld)
        dropped.append(len(degrees) - len(keep))
        return keep

    monkeypatch.setattr(presentations, "_irredundant",
                        recording_irredundant)
    for m in seen:
        _assert_kernel_matches_per_point(m)
    assert sum(dropped) > 0


def test_kernel_hands_join_closure_line_degrees(monkeypatch):
    """`kernel` builds the join closure of the columns' first d - 1
    coordinates only."""
    arities = []
    closure = presentations._join_closure

    def recording_closure(degrees):
        degrees = list(degrees)
        arities.append({len(deg) for deg in degrees})
        return closure(degrees)

    monkeypatch.setattr(presentations, "_join_closure", recording_closure)
    matrices = [*_edge_case_matrices(), *_other_d_matrices()]
    for m in matrices:
        del arities[:]
        kernel(m)
        assert arities == [{m.dim - 1}], m


def test_d2_second_difference_counts_generators():
    # At every point of the column-coordinate grid the second difference
    # of dense nullities equals the number of generators the per-point
    # kernel adds there, and the sweep's generators sit exactly at the
    # closure points where it is nonzero.
    matrices = list(_edge_case_matrices())
    matrices += [random_module(seed, d=2, gens=n, rels=n, coord_range=n,
                               p=p).matrix
                 for seed, n, p in ((0, 6, 2), (1, 9, 5), (2, 12, 2),
                                    (3, 8, 65521))]
    matrices += [_random_graded(seed, 6, 20, 6, p)
                 for seed, p in ((0, 2), (1, 5), (2, 65521))]
    for m in matrices:
        xs = sorted({c[0] for c in m.cols})
        ys = sorted({c[1] for c in m.cols})
        grid = [(x, y) for x in xs for y in ys]
        nullity = {pt: _dense_nullity(m, pt) for pt in grid}
        expected = _kernel_per_point(m).cols

        def dim_k(i, j):
            return nullity[xs[i], ys[j]] if i >= 0 and j >= 0 else 0

        second = {}
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                second[x, y] = (dim_k(i, j) - dim_k(i - 1, j)
                                - dim_k(i, j - 1) + dim_k(i - 1, j - 1))
                assert second[x, y] == expected.count((x, y)), (m, (x, y))
        closure = presentations._join_closure(m.cols)
        assert (sorted(set(kernel(m).cols))
                == sorted(a for a in closure if second[a])), m


def test_free_resolution_injective_length_one():
    red, _ = red_blue()
    res = free_resolution(red)
    assert res.length == 1


def test_free_resolution_blue_module():
    _, blue = red_blue()
    res = free_resolution(blue)
    assert res.length == 2
    d1, d2 = res.differentials
    assert d2.ncols == 1
    assert matmul(d1, d2).nnz() == 0


def test_free_resolution_of_free_module_is_single_stage():
    fld = PrimeField(2)
    free = Presentation(
        GradedMatrix(fld, [(0, 0)], [], []), minimal=True
    )
    res = free_resolution(free)
    assert res.length == 1
    assert res.last.ncols == 0


def test_free_resolution_terminates_by_two_for_d2():
    for seed in range(8):
        pres = random_module(seed, d=2, gens=7, rels=7, p=2)
        res = free_resolution(pres)
        assert res.length <= 2
        if res.length == 2:
            assert kernel(res.last).ncols == 0


def test_free_resolution_exact_on_oracle_grid():
    # Exactness at the middle stage, checked densely per grid degree:
    # dim ker(d1)_alpha equals dim im(d2)_alpha.
    from mphom.gridoracle import rank as dense_rank

    for seed in (1, 5, 9):
        pres = random_module(seed, d=2, gens=6, rels=7, coord_range=5, p=2)
        res = free_resolution(pres)
        if res.length < 2:
            continue
        d1, d2 = res.differentials
        axes = evaluation_grid(d1, d2)
        for pt in grid_points(axes):

            def dense_le(mat):
                cols = [j for j in range(mat.ncols)
                        if all(a <= b for a, b in zip(mat.cols[j], pt))]
                out = [[0] * len(cols) for _ in range(mat.nrows)]
                for k, j in enumerate(cols):
                    for i, v in mat.columns[j]:
                        out[i][k] = v
                return out, len(cols)

            m1, n1 = dense_le(d1)
            m2, _ = dense_le(d2)
            ker_dim = n1 - dense_rank(m1, 2)
            im_dim = dense_rank(m2, 2)
            assert ker_dim == im_dim, (seed, pt)


def test_truncate_free_module_forced_columns():
    fld = PrimeField(2)
    free = Presentation(GradedMatrix(fld, [(0, 0)], [], []), minimal=True)
    out = truncate(free, (3, 3))
    assert out.matrix.nrows == 1
    assert sorted(out.matrix.cols) == [(0, 3), (3, 0)]


def test_truncate_requires_dominating_bound():
    _, blue = red_blue()
    with pytest.raises(GradingError):
        truncate(blue, (3, 3))


def test_truncate_preserves_hom_dimension():
    for seed in (1, 2, 3, 4):
        x, y = random_pair(seed, gens=5, rels=5, coord_range=5, p=2)
        if x.is_zero_module() or y.is_zero_module():
            continue
        omega = truncation_bound(x, y)
        before = hom_direct(x, y).dim
        after = hom_direct(truncate(x, omega), truncate(y, omega)).dim
        assert before == after, seed


def test_truncate_idempotent_up_to_hilbert():
    x = random_module(7, gens=5, rels=4, coord_range=5, p=3)
    omega = truncation_bound(x)
    once = truncate(x, omega)
    twice = truncate(once, omega)
    axes = evaluation_grid(once.matrix, twice.matrix)
    for pt in grid_points(axes):
        assert hilbert_at(once, pt) == hilbert_at(twice, pt)


def test_matlis_transpose_shift_example():
    fld = PrimeField(2)
    m = graded_matrix_from_entries(fld, [(2, 2)], [(6, 2)], {(0, 0): 1})
    t = matlis_transpose_shift(m)
    assert t.rows == ((-5, -1),)
    assert t.cols == ((-1, -1),)
    assert t.entry(0, 0) == 1


def test_matlis_transpose_shift_is_an_involution():
    for seed in range(6):
        pres = random_module(seed, gens=6, rels=6, p=5)
        m = pres.matrix
        t = matlis_transpose_shift(m)
        assert validate_grading(t)
        assert matlis_transpose_shift(t) == m


def test_transposed_validated_matrices_pass_validation():
    """`matlis_transpose_shift` builds its output without re-checking it:
    the transpose of a validated matrix, over several primes and d, with
    negative and tied degrees, must pass the full `_validate`, and so
    must its transpose, which is the input again."""
    for p in (2, 5, 65521):
        for d in (1, 2, 3):
            for seed in range(4):
                m = _random_graded(seed, 5, 9, 4, p, d=d)
                m = GradedMatrix(m.field, [tuple(c - 2 for c in r)
                                           for r in m.rows],
                                 m.cols, m.columns)
                t = matlis_transpose_shift(m)
                t._validate()
                assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
                back = matlis_transpose_shift(t)
                back._validate()
                assert back == m
    with pytest.raises(DegreeOverflowError):
        matlis_transpose_shift(GradedMatrix(
            PrimeField(2), [(-(1 << 62) + 1, 0)], [], []))


def test_sparsify_interval_module_two_entries():
    # A staircase interval: thickness 1, so at most 2 entries per column.
    fld = PrimeField(2)
    m = graded_matrix_from_entries(
        fld,
        [(0, 2), (1, 1), (2, 0)],
        [(1, 2), (2, 1), (3, 3)],
        {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1},
    )
    pres = minimize(Presentation(m))
    assert thickness(pres) == 1
    out = sparsify(pres)
    assert all(len(c) <= 2 for c in out.matrix.columns)


def test_sparsify_keeps_already_sparse_columns():
    _, blue = red_blue()
    out = sparsify(blue)
    before = [set(dict(c)) for c in blue.matrix.columns]
    after = [set(dict(c)) for c in out.matrix.columns]
    assert all(a <= b for a, b in zip(after, before))


def test_sparsify_bound_and_hilbert_on_random_modules():
    for seed in range(10):
        pres = random_module(seed, gens=7, rels=7, coord_range=5, p=2,
                             thickness_hint=3)
        if pres.is_zero_module():
            continue
        bound = thickness(pres) + 1
        out = sparsify(pres)
        assert all(len(c) <= bound for c in out.matrix.columns), seed
        axes = evaluation_grid(pres.matrix)
        for pt in grid_points(axes):
            assert hilbert_at(out, pt) == hilbert_at(pres, pt), (seed, pt)


def _reference_sparsify(presentation):
    """Sparsification by lifting each batch through a recorded reduction
    of the lower generators' coordinates: the reference that `sparsify`,
    which reads the subset coordinates of its local cokernel directly,
    must reproduce byte for byte."""
    if not presentation.minimal:
        presentation = minimize(presentation)
    matrix = presentation.matrix
    fld = matrix.field
    columns = [list(c) for c in matrix.columns]
    cols = list(matrix.cols)
    groups = {}
    for j, deg in enumerate(cols):
        groups.setdefault(deg, []).append(j)

    def coordinate_column(ck, column):
        return tuple((t, v) for t, v in enumerate(ck.coordinates(column)) if v)

    for omega in sorted(groups, key=presentations._degree_sort_key):
        batch = groups[omega]
        in_batch = set(batch)
        others = [j for j in range(len(cols)) if j not in in_batch]
        rest = GradedMatrix(
            fld, matrix.rows, [cols[j] for j in others],
            [tuple(columns[j]) for j in others], validate=False,
        )
        ck = local_cokernel(rest, omega)
        dim_x = ck.dim - len(batch)
        if all(len(columns[j]) <= dim_x + 1 for j in batch):
            continue
        lower = [g for g in ck.rows_le if matrix.rows[g] != omega]
        span = column_reduce(
            [coordinate_column(ck, [(g, 1)]) for g in lower], fld,
            record=True,
        )
        lifted = []
        for j in batch:
            combo = lift_through(span, coordinate_column(ck, columns[j]))
            if combo is None:
                raise GradingError(
                    "batch relation class escapes the lower-generator span"
                )
            lifted.append(combo)
        echelon = presentations._reduced_column_echelon(lifted, fld)
        for slot, j in enumerate(batch):
            if not echelon[slot]:
                raise GradingError(
                    "dependent relation batch; presentation was not minimal"
                )
            columns[j] = [(lower[idx], v) for idx, v in echelon[slot]]
            if len(columns[j]) > dim_x + 1:
                raise GradingError("sparsification exceeded the entry bound")
    out = GradedMatrix(fld, matrix.rows, cols,
                       [tuple(sorted(c)) for c in columns], validate=False)
    return Presentation(out, minimal=True, label=presentation.label)


def test_sparsify_matches_the_lift_reference_on_random_modules():
    rewritten = total = 0
    for d in (1, 2, 3):
        for p in (2, 3, 5, 65521):
            for hint in (None, 2, 3, 4):
                for seed in range(4):
                    pres = random_module(seed, d=d, gens=8, rels=8,
                                         coord_range=5, thickness_hint=hint,
                                         p=p)
                    out = sparsify(pres)
                    assert out.matrix == _reference_sparsify(pres).matrix, (
                        d, p, hint, seed)
                    total += 1
                    rewritten += out.matrix != pres.matrix
    assert 0 < rewritten < total


def test_sparsify_reduces_once_per_rewritten_batch(monkeypatch):
    calls = {"column_reduce": 0, "echelon": 0}

    def counted(name, func):
        def run(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return run

    monkeypatch.setattr(presentations, "column_reduce",
                        counted("column_reduce", presentations.column_reduce))
    monkeypatch.setattr(
        presentations, "_reduced_column_echelon",
        counted("echelon", presentations._reduced_column_echelon))
    for seed in range(6):
        sparsify(random_module(seed, gens=10, rels=10, coord_range=6,
                               thickness_hint=3, p=5))
    assert calls["echelon"] > 0
    assert calls["column_reduce"] == calls["echelon"]
