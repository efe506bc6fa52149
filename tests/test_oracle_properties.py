"""Property test of the oracle's presolved solve against the plain one.

`hom_oracle` hands its system to `_presolved_nullspace` as sparse rows
of (variable, value) terms, and it substitutes the one- and two-term
rows before the dense solve; here that solve must span the same
nullspace as `nullspace(a, p, n)` on random sparse systems.  Needs
hypothesis and numpy (the `dev` extra).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mphom.gridoracle import _presolved_nullspace, nullspace, rank

# Small primes, the largest prime whose products (p-1)^2 fit int64, one
# whose products do not, and the largest prime the parser accepts,
# 2^63 - 25.
PRIMES = (2, 5, 65521, 3037000493, 4294967291, 9223372036854775783)


@st.composite
def _sparse_systems(draw):
    """Systems of zero, one-, two- and many-term rows, plus triangles of
    two-term rows whose closing ratio is drawn freely (so usually
    inconsistent), as dense object arrays of Python ints."""
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
    a = np.zeros((len(rows), n), dtype=object)
    for i, k in enumerate(order):
        for c, v in rows[k].items():
            a[i, c] = v
    return a, p


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_sparse_systems())
def test_presolved_nullspace_matches_dense_nullspace(system):
    a, p = system
    n = a.shape[1]
    lines = [[(c, row[c]) for c in np.flatnonzero(row).tolist()] for row in a]
    basis = _presolved_nullspace(lines, n, p)
    # The basis depends on the rows' order, not on the order of the terms
    # inside a row.
    assert _presolved_nullspace([line[::-1] for line in lines], n, p) == basis
    dim = len(nullspace(a, p, n))
    assert len(basis) == dim
    assert all(len(x) == n and all(type(v) is int for v in x) for x in basis)
    assert dim == n - rank(a, p)
    product = a @ np.array(basis, dtype=object).reshape(dim, n).T
    assert not (product % p).any()
    assert rank(basis, p) == dim
