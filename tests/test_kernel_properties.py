"""Property test of the d=2 kernel sweep against the per-point kernel.

Needs hypothesis (the `dev` extra); it lives apart from
test_presentations.py so that module collects without it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mphom import PrimeField, graded_matrix_from_entries

from test_presentations import _assert_kernel_matches_per_point


@st.composite
def _small_d2_matrices(draw):
    """Small d=2 graded matrices with tied and negative degrees, zero
    columns, and entries wherever the grading allows one."""
    p = draw(st.sampled_from((2, 5, 65521)))
    coord = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(coord, coord), max_size=4))
    cols = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    entries = {
        (i, j): draw(st.integers(0, p - 1))
        for j, c in enumerate(cols) for i, r in enumerate(rows)
        if all(a <= b for a, b in zip(r, c))
    }
    return graded_matrix_from_entries(PrimeField(p), rows, cols, entries)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_small_d2_matrices())
def _check_small_d2_kernel(m):
    k = _assert_kernel_matches_per_point(m)
    if k.ncols:
        _assert_kernel_matches_per_point(k)


def test_d2_kernel_properties_on_small_matrices():
    # Called from a plain test: on a failing @given test, the hypothesis
    # pytest plugin imports libcst to suggest a patch, and warnings-as-
    # errors turns libcst's DeprecationWarning into an internal error that
    # stops the whole session instead of failing this one test.
    _check_small_d2_kernel()
