"""Property test of the oracle's presolved solve against the plain one.

`hom_oracle` hands its system to `_presolved_nullspace` as sparse
triplets, which substitutes the one- and two-term rows before the dense
solve; here that solve must span the same nullspace as `nullspace(a, p)`
on random sparse systems.  Needs hypothesis (the `dev` extra).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mphom.gridoracle import _presolved_nullspace, _rref_dtype, nullspace, rank

# Small primes, the largest prime whose products (p-1)^2 fit int64, one
# whose products need Python ints, and the largest prime the parser
# accepts, 2^63 - 25.
PRIMES = (2, 5, 65521, 3037000493, 4294967291, 9223372036854775783)


@st.composite
def _sparse_systems(draw):
    """Systems of zero, one-, two- and many-term rows, plus triangles of
    two-term rows whose closing ratio is drawn freely (so usually
    inconsistent), as dense arrays in the dtype `rref` works in."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, 9))
    coef = st.integers(1, p - 1)
    rows = []
    kinds = ("zero", "one", "two", "triangle", "long") if n else ("zero",)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "zero":
            rows.append({})
        elif kind == "one":
            rows.append({draw(st.integers(0, n - 1)): draw(coef)})
        else:
            size = min(n, {"two": 2, "triangle": 3}.get(kind)
                       or draw(st.integers(3, max(n, 3))))
            cols = draw(st.lists(st.integers(0, n - 1), unique=True,
                                 min_size=size, max_size=size))
            if kind == "long":
                rows.append({c: draw(coef) for c in cols})
            else:
                for u, v in zip(cols, cols[1:] + cols[:1]):
                    if u != v:
                        rows.append({u: draw(coef), v: draw(coef)})
    order = draw(st.permutations(range(len(rows))))
    a = np.zeros((len(rows), n), dtype=_rref_dtype(p))
    for i, k in enumerate(order):
        for c, v in rows[k].items():
            a[i, c] = v
    return a, p


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_sparse_systems())
def test_presolved_nullspace_matches_dense_nullspace(system):
    a, p = system
    rows, cols = np.nonzero(a)  # row by row, columns ascending
    basis = _presolved_nullspace(rows, cols, a[rows, cols], a.shape, p)
    dim = nullspace(a, p).shape[1]
    assert basis.shape == (a.shape[1], dim)
    assert dim == a.shape[1] - rank(a, p)
    product = a.astype(object) @ basis.astype(object)
    assert not (product % p).any()
    assert rank(basis, p) == dim
