"""Field, degree, graded-matrix, and column-reduction behaviour."""

import random
import time

import pytest

from mphom import (
    ColumnSpan,
    DimensionMismatchError,
    GradedMatrix,
    GradingError,
    PrimeField,
    UnsortedRowsError,
    column_reduce,
    deg_join,
    deg_leq,
    graded_matrix_from_entries,
    submatrix_at_most,
    validate_grading,
)
from mphom.generators import random_module
from mphom.graded import (
    _PackedColumns,
    _SortedColumns,
    _bits,
    _gf2_sweep,
    _is_prime,
    _pack,
    _pairs,
    _slice_at_most,
)
from mphom.gridoracle import rank as dense_rank
from mphom.localalg import evaluation_grid, grid_points

from conftest import red_blue


def test_prime_field_validation():
    for p in (2, 3, 5, 7, 101):
        PrimeField(p)
    for bad in (0, 1, 4, 6, 9, -3):
        with pytest.raises(ValueError):
            PrimeField(bad)


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_primality_agrees_with_trial_division():
    assert all(_is_prime(n) == _trial_division(n) for n in range(100_000))


def test_primality_rejects_strong_pseudoprimes():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7;
    # 3825123056546413051 to every prime base up to 23.
    for n in (3215031751, 3825123056546413051):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_large_prime_field_is_fast():
    start = time.perf_counter()
    fld = PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert fld.inv(2) * 2 % fld.p == 1


def test_characteristic_must_be_below_2_to_63():
    assert _is_prime(2**63 + 29)
    with pytest.raises(ValueError, match="2\\^63"):
        PrimeField(2**63 + 29)
    assert PrimeField(2**63 - 25).p == 2**63 - 25


def test_inverses_round_trip():
    for p in (2, 3, 5, 13):
        fld = PrimeField(p)
        for a in range(1, p):
            assert (a * fld.inv(a)) % p == 1


def test_degree_partial_order_and_join():
    assert deg_leq((1, 2), (1, 3))
    assert not deg_leq((2, 0), (1, 3))
    assert deg_join((1, 5), (2, 2)) == (2, 5)


def test_degree_arity_mismatch_is_an_error():
    with pytest.raises(DimensionMismatchError):
        deg_leq((1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        deg_join((0,), (0, 0))


def test_validate_grading_on_blue_matrix():
    _, blue = red_blue()
    n = blue.matrix
    assert validate_grading(n)
    # Forcing the gray cell (row (0,1), column (5,0)) nonzero breaks it.
    fld = n.field
    broken = GradedMatrix(
        fld,
        n.rows,
        n.cols,
        [n.columns[0], ((0, 1), (1, 1)), n.columns[2]],
        validate=False,
    )
    assert not validate_grading(broken)


def test_validate_grading_trivial_cases():
    fld = PrimeField(2)
    empty = GradedMatrix(fld, [], [], [])
    assert validate_grading(empty)
    bad = GradedMatrix(fld, [(1, 0)], [(0, 1)], [((0, 1),)], validate=False)
    assert not validate_grading(bad)


def old_validate_grading(matrix):
    """The full-column loop `validate_grading` replaced: every column is
    walked, empty or not."""
    for j, col in enumerate(matrix.columns):
        for i, _ in col:
            if not deg_leq(matrix.rows[i], matrix.cols[j]):
                return False
    return True


def sparse_graded(rng, nrows, ncols, density, bad=()):
    """A seeded d=2 GF(2) matrix, built without validation, whose columns
    are nonempty with probability `density` and hold admissible entries
    only; each column j in `bad` also gets one entry against the
    grading."""
    rows = [(rng.randrange(10), rng.randrange(10)) for _ in range(nrows)]
    cols, columns = [], []
    for j in range(ncols):
        if j in bad:
            i = rng.randrange(nrows)
            top = (rows[i][0] - 1, rows[i][1] + rng.randrange(5))
        else:
            i, top = None, (rng.randrange(12), rng.randrange(12))
        held = {i} if i is not None else set()
        if j in bad or rng.random() < density:
            below = [k for k, deg in enumerate(rows) if deg_leq(deg, top)]
            held.update(rng.sample(below, min(len(below), rng.randint(0, 2))))
        cols.append(top)
        columns.append(tuple((k, 1) for k in sorted(held)))
    return GradedMatrix(PrimeField(2), rows, cols, columns, validate=False)


def test_validate_grading_matches_the_full_column_loop():
    rng = random.Random("validate-grading")
    answers = []
    for trial in range(300):
        ncols = rng.randint(0, 40)
        bad = set(rng.sample(range(ncols), min(ncols, trial % 3)))
        mat = sparse_graded(rng, rng.randint(1, 20), ncols, 0.1, bad)
        assert validate_grading(mat) == old_validate_grading(mat), trial
        answers.append(validate_grading(mat))
    assert True in answers and False in answers


def test_validate_grading_on_sparse_edge_cases():
    rng = random.Random("validate-grading-edges")
    held = empty = 0
    for _ in range(20):
        ncols = rng.randint(2, 40)
        cases = {
            "mostly empty": (sparse_graded(rng, 15, ncols, 0.05), True),
            "last column": (sparse_graded(rng, 15, ncols, 0.05, {ncols - 1}),
                            False),
            "first column": (sparse_graded(rng, 15, ncols, 0.05, {0}), False),
            "zero columns": (sparse_graded(rng, 15, 0, 0.05), True),
        }
        for name, (mat, expected) in cases.items():
            assert old_validate_grading(mat) is expected, name
            assert validate_grading(mat) is expected, name
        columns = cases["mostly empty"][0].columns
        held += sum(map(bool, columns))
        empty += columns.count(())
    assert 0 < held < empty // 4


def test_constructor_rejects_grading_violations():
    fld = PrimeField(2)
    with pytest.raises(GradingError):
        GradedMatrix(fld, [(1, 0)], [(0, 1)], [((0, 1),)])


def test_column_reduce_paper_example():
    # Columns [1,-1], [1,-1], [0,1], [1,0] over GF(3): rank 2, the second
    # and fourth columns vanish in a left-to-right sweep.
    fld = PrimeField(3)
    cols = [((0, 1), (1, 2)), ((0, 1), (1, 2)), ((1, 1),), ((0, 1),)]
    span = column_reduce(cols, fld, record=True)
    assert span.rank == 2
    assert [src for src, _ in span.zeroed] == [1, 3]


def test_column_reduce_identity_unchanged():
    fld = PrimeField(5)
    cols = [((i, 1),) for i in range(3)]
    span = column_reduce(cols, fld)
    assert span.rank == 3
    assert sorted(e.column for e in span.reduced) == sorted(cols)


def test_column_reduce_rank_matches_dense_oracle():
    rng = random.Random(8)
    for _ in range(20):
        n = 8
        dense = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        cols = [
            tuple((i, dense[i][j]) for i in range(n) if dense[i][j])
            for j in range(n)
        ]
        span = column_reduce(cols, PrimeField(2))
        assert span.rank == dense_rank(dense, 2)


def test_column_reduce_idempotent_and_permutation_stable():
    rng = random.Random(99)
    fld = PrimeField(5)
    cols = []
    for _ in range(10):
        entries = sorted(rng.sample(range(7), rng.randint(1, 4)))
        cols.append(tuple((i, rng.randint(1, 4)) for i in entries))
    span = column_reduce(cols, fld)
    reduced = [e.column for e in span.reduced]
    again = column_reduce(reduced, fld)
    assert [e.column for e in again.reduced] == reduced
    shuffled = cols[:]
    rng.shuffle(shuffled)
    assert column_reduce(shuffled, fld).rank == span.rank


def _apply_combo(combo, cols, p):
    acc = {}
    for src, coeff in combo.items():
        for i, v in cols[src]:
            acc[i] = (acc.get(i, 0) + coeff * v) % p
    return tuple(sorted((i, v) for i, v in acc.items() if v))


def test_column_reduce_records_combinations():
    fld = PrimeField(5)
    cols = [((0, 1), (1, 2)), ((0, 2), (1, 4)), ((0, 1),)]
    span = column_reduce(cols, fld, record=True)
    # Column 1 is 2 * column 0, so it vanishes with combo {0: -2, 1: 1}.
    assert span.zeroed and span.zeroed[0][0] == 1
    assert _apply_combo(span.zeroed[0][1], cols, 5) == ()
    # Every surviving column's log reconstructs it from the originals.
    for entry in span.reduced:
        assert _apply_combo(entry.combo, cols, 5) == entry.column


def test_column_reduce_log_on_random_input():
    rng = random.Random(3)
    fld = PrimeField(3)
    cols = []
    for _ in range(12):
        support = sorted(rng.sample(range(6), rng.randint(1, 4)))
        cols.append(tuple((i, rng.randint(1, 2)) for i in support))
    span = column_reduce(cols, fld, record=True)
    for entry in span.reduced:
        assert _apply_combo(entry.combo, cols, 3) == entry.column
    for _, combo in span.zeroed:
        assert _apply_combo(combo, cols, 3) == ()


def test_reduce_vector_is_the_residual_insert_absorbs():
    rng = random.Random(21)
    for p in (2, 3, 65521):
        for record in (False, True):
            span = ColumnSpan(PrimeField(p), record)
            for j in range(15):
                support = sorted(rng.sample(range(6), rng.randint(0, 4)))
                col = tuple((i, rng.randint(1, p - 1)) for i in support)
                residual = span.reduce_vector(col)
                entry = span.insert(col, source=j)
                if residual:
                    assert entry.column == tuple(residual)
                else:
                    assert entry is None
                assert span.contains(col)


def test_submatrix_at_most_fig_example():
    _, blue = red_blue()
    sub, rows, cols = submatrix_at_most(blue.matrix, (2, 2))
    assert rows == (0, 1)
    assert cols == (0,)
    assert sub.columns == (((0, 1), (1, 2)),)


def test_submatrix_trivial_cases():
    _, blue = red_blue()
    below, rows, cols = submatrix_at_most(blue.matrix, (0, 0))
    assert rows == () and cols == ()
    top, rows, cols = submatrix_at_most(blue.matrix, (6, 6))
    assert top.columns == blue.matrix.columns


def test_submatrix_nesting():
    _, blue = red_blue()
    inner1, _, _ = submatrix_at_most(blue.matrix, (5, 1))
    via, _, _ = submatrix_at_most(blue.matrix, (5, 2))
    inner2, _, _ = submatrix_at_most(via, (5, 1))
    assert inner1 == inner2


def test_entries_reduced_mod_p():
    fld = PrimeField(3)
    m = graded_matrix_from_entries(fld, [(0, 0)], [(1, 1)], {(0, 0): -1})
    assert m.entry(0, 0) == 2


def test_submatrix_rejects_wrong_arity():
    _, blue = red_blue()
    with pytest.raises(DimensionMismatchError):
        submatrix_at_most(blue.matrix, (1, 1, 1))


def _old_submatrix_at_most(matrix, alpha):
    """The slice as it was cut before `_slice_at_most`: `deg_leq` per row
    and column, a validated GradedMatrix, and the index injections."""
    row_idx = tuple(i for i, r in enumerate(matrix.rows) if deg_leq(r, alpha))
    col_idx = tuple(j for j, c in enumerate(matrix.cols) if deg_leq(c, alpha))
    renum = {i: k for k, i in enumerate(row_idx)}
    sub = GradedMatrix(
        matrix.field,
        [matrix.rows[i] for i in row_idx],
        [matrix.cols[j] for j in col_idx],
        [tuple((renum[i], v) for i, v in matrix.columns[j]) for j in col_idx],
    )
    return sub, row_idx, col_idx


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slice_helper_matches_submatrix(d):
    for seed in range(4):
        m = random_module(seed, d=d, gens=6, rels=6, coord_range=6, p=5).matrix
        axes = evaluation_grid(m)
        below = tuple(a[0] - 1 for a in axes)
        above = tuple(a[-1] for a in axes)
        for alpha in [below, above] + list(grid_points(axes))[::5]:
            sub, row_idx, col_idx = _old_submatrix_at_most(m, alpha)
            assert _slice_at_most(m, alpha) == (
                row_idx, col_idx, list(sub.columns)
            )
            assert submatrix_at_most(m, alpha) == (sub, row_idx, col_idx)
        assert _slice_at_most(m, below) == ((), (), [])


def test_slice_helper_empty_and_wrong_arity():
    fld = PrimeField(3)
    empty = GradedMatrix(fld, [], [], [])
    assert _slice_at_most(empty, (0, 0)) == ((), (), [])
    assert submatrix_at_most(empty, (0, 0))[0] == empty
    _, blue = red_blue()
    for bad in ((1,), (1, 1, 1)):
        with pytest.raises(DimensionMismatchError):
            _slice_at_most(blue.matrix, bad)


def test_degree_overflow_is_an_error():
    from mphom import DegreeOverflowError

    with pytest.raises(DegreeOverflowError):
        deg_join((1 << 62, 0), (0, 0))


def _reference_axpy(target, source, scale, p):
    """target + scale * source for sparse columns, as one sorted merge."""
    out = []
    i = j = 0
    while i < len(target) and j < len(source):
        ri, rj = target[i][0], source[j][0]
        if ri < rj:
            out.append(target[i])
            i += 1
        elif ri > rj:
            c = (scale * source[j][1]) % p
            if c:
                out.append((rj, c))
            j += 1
        else:
            c = (target[i][1] + scale * source[j][1]) % p
            if c:
                out.append((ri, c))
            i += 1
            j += 1
    out.extend(target[i:])
    for rj, v in source[j:]:
        c = (scale * v) % p
        if c:
            out.append((rj, c))
    return out


class _ReferenceSpan:
    """The column sweep with one generic step for every prime: each step
    asks the field for the pivot's inverse, and `_reference_axpy` adds the
    scaled column.  Entries are (pivot, column, source, combo) tuples."""

    def __init__(self, fld, record=False):
        self.field = fld
        self.record = record
        self.reduced = []
        self.zeroed = []
        self._by_pivot = {}

    def _reduce(self, col, combo=None):
        p = self.field.p
        while col:
            slot = self._by_pivot.get(col[-1][0])
            if slot is None:
                break
            pivot, column, _, other = self.reduced[slot]
            scale = (-col[-1][1] * self.field.inv(column[-1][1])) % p
            col = _reference_axpy(col, column, scale, p)
            if combo is not None and other is not None:
                for k, v in other.items():
                    nv = (combo.get(k, 0) + scale * v) % p
                    if nv:
                        combo[k] = nv
                    else:
                        combo.pop(k, None)
        return col

    def insert(self, column, source=-1):
        combo = {source: 1} if self.record else None
        col = self._reduce(list(column), combo)
        if col:
            self._by_pivot[col[-1][0]] = len(self.reduced)
            self.reduced.append((col[-1][0], tuple(col), source, combo))
            return self.reduced[-1]
        self.zeroed.append((source, combo))
        return None

    def reduce_vector(self, column):
        return self._reduce(list(column))


def lift_through(span, column):
    """Express a column in the input columns of a recording span, one
    column at a time: the reference for the lifts that the firep importer
    and `sparsify` read off a single solve.

    Returns the sorted (input index, coefficient) pairs of a combination
    equal to `column`, or None when the column is outside the span (the
    span then absorbs its residual, as `insert` does).
    """
    if span.insert(column, source=-2) is not None:
        return None
    combo = span.zeroed.pop()[1]
    combo.pop(-2, None)
    p = span.field.p
    return sorted((k, (-v) % p) for k, v in combo.items())


def _ordered(combo):
    return None if combo is None else list(combo.items())


def _entry_view(entry):
    if entry is None:
        return None
    if isinstance(entry, tuple):
        pivot, column, source, combo = entry
    else:
        pivot, column, source, combo = (
            entry.pivot, entry.column, entry.source, entry.combo)
    return pivot, column, source, _ordered(combo)


def _span_view(span):
    return (
        [_entry_view(e) for e in span.reduced],
        [(s, _ordered(c)) for s, c in span.zeroed],
    )


def _random_columns(rng, p, count, rows=9):
    """Sparse columns with zero, repeated and dependent ones mixed in."""
    cols = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            col = ()
        elif kind < 0.25 and cols:
            col = rng.choice(cols)
        elif kind < 0.45 and len(cols) >= 2:
            acc = []
            for other in rng.sample(cols, rng.randint(2, min(3, len(cols)))):
                acc = _reference_axpy(acc, other, rng.randint(1, p - 1), p)
            col = tuple(acc)
        else:
            support = sorted(rng.sample(range(rows), rng.randint(1, 5)))
            col = tuple((i, rng.randint(1, p - 1)) for i in support)
        cols.append(col)
    return cols


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**63 - 25])
@pytest.mark.parametrize("record", [False, True])
def test_column_span_matches_the_generic_reference(p, record):
    """`ColumnSpan._reduce`, with the stored pivot inverse, gives the
    reference's entries, combination key order included, residuals,
    membership answers and lifts, over GF(2) as over every other
    prime."""
    fld = PrimeField(p)
    rng = random.Random(f"core:{p}:{record}")
    for _ in range(30):
        cols = _random_columns(rng, p, rng.randint(1, 25))
        span, ref = ColumnSpan(fld, record), _ReferenceSpan(fld, record)
        probes = _random_columns(rng, p, 6)
        for j, col in enumerate(cols):
            probe = rng.choice(probes + cols)
            assert span.reduce_vector(probe) == ref.reduce_vector(probe)
            assert span.contains(probe) == (not ref.reduce_vector(probe))
            assert _entry_view(span.insert(col, source=j)) \
                == _entry_view(ref.insert(col, source=j))
            if record and rng.random() < 0.3:
                probe = rng.choice(probes + cols)
                assert lift_through(span, probe) == lift_through(ref, probe)
        assert _span_view(span) == _span_view(ref)
        for entry in span.reduced:
            assert entry.column[-1][1] * entry.inv % p == 1


def test_gf2_sweep_matches_the_generic_reference():
    """The one packed sweep keeps the columns the reference keeps, with
    its residuals, with or without sources.  Given increasing sources,
    not contiguous, it records the reference's zeroed combinations with
    bit `sources[j]` for column j, each one's highest bit the source of
    the column it zeroed; without sources it records nothing."""
    fld = PrimeField(2)
    rng = random.Random("packed")
    for _ in range(40):
        cols = _random_columns(rng, 2, rng.randint(0, 30), rows=70)
        ref = _ReferenceSpan(fld, record=True)
        for j, col in enumerate(cols):
            ref.insert(col, source=j)
        packed = [_pack(col) for col in cols]
        sources = sorted(rng.sample(range(3 * len(cols)), len(cols)))
        kept, zeroed = _gf2_sweep(packed, sources)
        want = {source: column for _, column, source, _ in ref.reduced}
        assert [(j, tuple((k, 1) for k in _bits(bits)))
                for j, bits in kept.items()] == list(want.items())
        assert [dict.fromkeys(_bits(c), 1) for c in zeroed] == [
            {sources[k]: v for k, v in combo.items()}
            for _, combo in ref.zeroed]
        assert [c.bit_length() - 1 for c in zeroed] == [
            sources[j] for j, _ in ref.zeroed]
        assert _gf2_sweep(iter(packed)) == (kept, [])


def truncate(combos, size):
    """Recorded combinations as sorted (source, value) tuples of their
    sources below `size`: the sweep recording every source, then masked,
    as the solves did before they recorded the sources below `size`
    alone."""
    return [tuple(sorted((k, v) for k, v in _pairs(combo) if k < size))
            for combo in combos]


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_recording_the_sources_below_size_equals_masking(p):
    """`nullspace(columns, sources, size)` gives the combinations that
    recording every source and masking off those at or past `size`
    gives, in both column forms over GF(2) and in the sorted form at the
    odd primes.  Sources are distinct, out of order and not contiguous,
    and one of them is `size` itself; the unrecorded columns still pass
    on the recorded ones their reductions pick up."""
    fld = PrimeField(p)
    forms = [_SortedColumns(fld)] + ([_PackedColumns()] if p == 2 else [])
    rng = random.Random(f"masked:{p}")
    cut = carried = 0
    for _ in range(60):
        cols = _random_columns(rng, p, rng.randint(1, 30),
                               rows=rng.randint(5, 12))
        sources = rng.sample(range(3 * len(cols)), len(cols))
        size = rng.choice(sources)
        for form in forms:
            packed = [form.pack(col) for col in cols]
            every = form.nullspace(packed, sources, float("inf"))
            got = form.nullspace(packed, sources, size)
            assert all(type(col) is type(form.pack(())) for col in got)
            assert [tuple(_pairs(col)) for col in got] == truncate(
                every, size)
            cut += any(k >= size for col in every for k, _ in _pairs(col))
        span = ColumnSpan(fld, record=True)
        for source, col in zip(sources, cols):
            span.insert(col, source if source < size else None)
        carried += any(source is None and combo
                       for source, combo in span.zeroed)
    assert cut and carried


@pytest.mark.parametrize("p", [2, 5])
def test_unsorted_column_raises_instead_of_looping(p):
    """A column whose rows do not increase would leave its pivot row in
    place on every step; the span raises a typed error instead."""
    span = ColumnSpan(PrimeField(p))
    span.insert(((1, 1), (0, 1)))
    with pytest.raises(UnsortedRowsError):
        span.insert(((0, 1),))
    with pytest.raises(UnsortedRowsError):
        span.contains(((0, p - 1),))
