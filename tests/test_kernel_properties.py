"""Property tests of the kernel's line sweep against the per-point kernel
and the per-line loop, of `minimize` reaching its fixpoint in one round
and matching the rescanning loop, of `_irredundant`'s line sweep against
the per-column reference and the per-line loop, and of `sparsify`
against the lift-based reference and its thick + 1 entry bound, and of
`CokernelCache` building one local cokernel per distinct slice.  GF(2)
draws also compare the packed `kernel`, `_irredundant` and
`nullspace_of_columns` (on the one packed sweep, `_gf2_sweep`) with the
generic sweeps.  On small pairs of modules, empty, free and zero ones
among them, the six routes and the oracle must agree.

Needs hypothesis (the `dev` extra); it lives apart from
test_presentations.py so that module collects without it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mphom import (
    GradedMatrix,
    Presentation,
    PrimeField,
    graded_matrix_from_entries,
    kernel,
    minimize,
    nullspace_of_columns,
    sparsify,
    thickness,
)
from mphom.benchmarks import DUAL_ALGORITHMS, PRIMAL_ALGORITHMS
from mphom.generators import random_module
from mphom.graded import _column_form, _slice_indices, deg_join
from mphom.localalg import (
    CokernelCache,
    evaluation_grid,
    grid_points,
    local_cokernel,
)
from mphom.presentations import _irredundant

from conftest import slice_view
from test_packed_sweeps import (
    field_chains,
    generic_nullspace,
    per_line_irredundant,
    per_line_kernel,
)
from test_homspace import oracle_dim
from test_presentations import (
    _assert_kernel_matches_per_point,
    _equal_degree_unit,
    _irredundant_per_column,
    _minimize_by_scan,
    _reference_sparsify,
)


PRIMES = (2, 3, 5, 65521, 2**31 - 1, 2**63 - 25)


@st.composite
def _small_matrices(draw, d=None, p=None, min_rows=0, max_cols=8):
    """Small d = 1 to 4 graded matrices with tied and negative degrees,
    zero columns, and entries wherever the grading allows one, over
    primes up to the largest the parser accepts; `d` and `p` are drawn
    unless given."""
    d = d or draw(st.sampled_from((1, 2, 3, 4)))
    p = p or draw(st.sampled_from(PRIMES))
    deg = st.tuples(*[st.integers(-3, 3)] * d)
    rows = draw(st.lists(deg, min_size=min_rows, max_size=4))
    cols = draw(st.lists(deg, min_size=1, max_size=max_cols))
    entries = {
        (i, j): draw(st.integers(0, p - 1))
        for j, c in enumerate(cols) for i, r in enumerate(rows)
        if all(a <= b for a, b in zip(r, c))
    }
    return graded_matrix_from_entries(PrimeField(p), rows, cols, entries)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_small_matrices())
def test_kernel_properties_on_small_matrices(m):
    k = _assert_kernel_matches_per_point(m)
    if k.ncols:
        _assert_kernel_matches_per_point(k)
    assert k == per_line_kernel(m)
    if k.ncols:
        assert kernel(k) == per_line_kernel(k)
    if m.field.p == 2:
        with field_chains():
            assert kernel(m) == k
        assert nullspace_of_columns(m.columns, m.field) == (
            generic_nullspace(m.columns, m.field))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_small_matrices())
def test_minimize_is_a_fixpoint_after_one_round(m):
    out = minimize(Presentation(m)).matrix
    assert out == _minimize_by_scan(Presentation(m))
    assert _equal_degree_unit(out.rows, out.cols, out.columns) is None
    assert _irredundant(out.cols, out.columns, out.field) == list(
        range(out.ncols))
    assert minimize(Presentation(out)).matrix == out
    cache_m, cache_out = CokernelCache(m), CokernelCache(out)
    for pt in grid_points(evaluation_grid(m)):
        assert cache_out.at(pt).dim == cache_m.at(pt).dim, pt


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_small_matrices())
def test_irredundant_line_sweep_matches_per_column_reference(m):
    keep = _irredundant(m.cols, m.columns, m.field)
    assert keep == _irredundant_per_column(m.cols, m.columns, m.field)
    assert keep == per_line_irredundant(m.cols, m.columns, m.field)
    if m.field.p == 2:
        with field_chains():
            assert _irredundant(m.cols, m.columns, m.field) == keep


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_small_matrices())
def test_sparsify_matches_the_lift_reference_on_small_matrices(m):
    out = sparsify(Presentation(m)).matrix
    assert out == _reference_sparsify(Presentation(m)).matrix
    bound = thickness(out) + 1
    assert all(len(c) <= bound for c in out.columns)


@st.composite
def _small_modules(draw, d, p):
    """Minimal presentations over GF(p) at d: the empty one, a free
    module, a zero module (each generator killed at its own degree, so
    `minimize` cancels everything) or a `_small_matrices` draw."""
    fld = PrimeField(p)
    kind = draw(st.sampled_from(("random",) * 3 + ("free", "zero", "empty")))
    if kind == "random":
        m = draw(_small_matrices(d, p, min_rows=1, max_cols=5))
    else:
        rows = [] if kind == "empty" else draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=3))
        cols = rows if kind == "zero" else []
        m = GradedMatrix(fld, rows, cols, [((j, 1),) for j in range(len(cols))])
    return minimize(Presentation(m))


@st.composite
def _small_pairs(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    p = draw(st.sampled_from(PRIMES))
    return draw(_small_modules(d, p)), draw(_small_modules(d, p))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_small_pairs())
def test_routes_and_oracle_agree_on_small_pairs(pair):
    """The six routes and the oracle give one dimension: over GF(2) the
    primal solves run on the packed `_gf2_sweep`, over other primes on
    the recording `ColumnSpan`, and the duals resolve through both kinds
    of chain."""
    x, y = pair
    dims = {name: route(x, y).dim for name, route in
            {**PRIMAL_ALGORITHMS, **DUAL_ALGORITHMS}.items()}
    dims["oracle"] = oracle_dim(x, y)
    assert len(set(dims.values())) == 1, dims


# -- one local cokernel per distinct slice ----------------------------------


def _assert_one_cokernel_per_slice(matrix):
    """At every row and column degree of N, the join of each consecutive
    pair of them, each of those raised by 1 on every axis, and one degree
    below them all (the empty slice), `CokernelCache.at` gives the slice
    indices `_slice_indices` scans for, one object for the degrees with
    the same slice, and the span, subsets and cokernel columns of a fresh
    `local_cokernel`; each distinct slice is reduced once, by one call of
    the column form's `span`.  Returns {slice indices: cokernel} and the
    number of degrees read."""
    degrees = list(matrix.rows) + list(matrix.cols)
    degrees += [deg_join(a, b) for a, b in zip(degrees, degrees[1:])]
    degrees += [tuple(c + 1 for c in deg) for deg in degrees]
    degrees.append((min(min(deg) for deg in degrees) - 1,) * matrix.dim)
    form = _column_form(matrix.field)
    reductions = []

    def counted(columns, span=form.span):
        reductions.append(len(columns))
        return span(columns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(form, "span", counted)
        cache = CokernelCache(matrix)
        read = {}
        for alpha in degrees:
            ck = cache.at(alpha)
            read[alpha] = (ck, slice_view(ck), ck.subset, ck.syzygy_subset,
                           ck.columns)
    by_slice = {}
    for alpha, (ck, *views) in read.items():
        key = _slice_indices(matrix, alpha)
        assert (ck.rows_le, ck.cols_le) == key
        assert by_slice.setdefault(key, ck) is ck
        fresh = local_cokernel(matrix, alpha)
        assert views == [slice_view(fresh), fresh.subset,
                         fresh.syzygy_subset, fresh.columns]
    assert len(reductions) == len(by_slice)
    assert ((), ()) in by_slice
    return by_slice, len(read)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from((1, 2, 3, 4)).flatmap(
    lambda d: st.sampled_from((2, 5, 65521)).flatmap(
        lambda p: _small_matrices(d, p))))
def test_cokernel_cache_builds_one_cokernel_per_slice(m):
    _assert_one_cokernel_per_slice(m)


@pytest.mark.parametrize("p", [2, 5, 65521])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cokernel_cache_shares_slices_of_wide_presentations(d, p):
    """Over 64 rows, tied degrees: masks span several bytes, and read
    on both sides of the 8-bit threshold of the byte tables."""
    m = random_module(7, d=d, gens=120, rels=120, coord_range=4, p=p).matrix
    assert m.nrows > 64
    by_slice, read = _assert_one_cokernel_per_slice(m)
    assert len(by_slice) < read
    sizes = {len(indices) for key in by_slice for indices in key}
    assert max(sizes) > 64 and any(0 < size < 8 for size in sizes)
