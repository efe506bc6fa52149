"""Property tests of the kernel's line sweep against the per-point kernel
and the per-line loop, of `minimize` reaching its fixpoint in one round
and matching the rescanning loop, of `_irredundant`'s line sweep against
the per-column reference and the per-line loop, and of `sparsify`
against the lift-based reference and its thick + 1 entry bound.  GF(2)
draws also compare the packed `kernel`, `_irredundant` and
`nullspace_of_columns` (on the one packed sweep, `_gf2_sweep`) with the
generic sweeps.  On small pairs of modules, empty, free and zero ones
among them, the six routes and the oracle must agree.

Needs hypothesis (the `dev` extra); it lives apart from
test_presentations.py so that module collects without it.
"""

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
from mphom.localalg import CokernelCache, evaluation_grid, grid_points
from mphom.presentations import _irredundant

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
