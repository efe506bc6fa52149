"""The primal routes' bases, checked element by element past the oracle's
reach.

Dimension checks alone (against one another, `reference.json` or the
identities of test_identities.py) would pass a route that returned a
null-homotopic element, or a homotopic duplicate of another element, in
place of a survivor.  The primal routes `direct`, `a`, `mixed` and `b`
share generator coordinates, so their bases can be compared directly
modulo null-homotopies with `quotient_rank`.  On seeded pairs with 40 to
60 generators over GF(2), GF(5) and GF(65521), every route's basis must
be independent modulo null-homotopies (rank == dim), and every two
routes must span the same subspace (the rank of their union == dim).

End(X) is an algebra with a unit: on seeded modules with 20 to 40
generators over the same three primes, every primal route's basis of
End(X) must be independent and hold the identity modulo null-homotopies,
and be closed under products: products Q_f Q_g of random combinations
f, g of its elements must pass `verify_hom` and lie in its span modulo
null-homotopies.  The same holds across three modules: for seeded X, Y,
Z over the three primes, composites of combinations in Hom(X, Y) and
Hom(Y, Z) must pass `verify_hom` and lie in the span of Hom(X, Z).
"""

import random
from itertools import combinations

import pytest

from mphom import (
    graded_matrix_from_entries,
    hom_direct,
    hom_exact,
    hom_mixed,
    hom_restricted,
    matmul,
    verify_hom,
)
from mphom.generators import random_module, random_pair

from test_homspace import quotient_rank

ROUTES = {
    "direct": hom_direct,
    "a": hom_restricted,
    "mixed": hom_mixed,
    "b": hom_exact,
}


@pytest.mark.parametrize("p", [2, 5, 65521])
@pytest.mark.parametrize("n, seed", [(40, 1), (50, 3), (60, 2)])
def test_primal_bases_are_independent_and_span_one_subspace(p, n, seed):
    x, y = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                       p=p)
    bases = {name: list(route(x, y).elements)
             for name, route in ROUTES.items()}
    dim = len(bases["direct"])
    assert dim > n
    for name, elements in bases.items():
        assert len(elements) == dim, name
        assert quotient_rank(elements, y, x) == dim, name
    for a, b in combinations(ROUTES, 2):
        assert quotient_rank(bases[a] + bases[b], y, x) == dim, (a, b)


@pytest.mark.parametrize("p", [2, 5, 65521])
@pytest.mark.parametrize("n, seed", [(20, 4), (30, 5), (40, 6)])
def test_identity_lies_in_every_primal_basis_of_end(p, n, seed):
    x = random_module(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                      p=p)
    m = x.matrix
    identity = graded_matrix_from_entries(
        m.field, m.rows, m.rows, {(g, g): 1 for g in range(m.nrows)})
    dims = set()
    for name, route in ROUTES.items():
        elements = list(route(x, x).elements)
        dim = len(elements)
        assert quotient_rank(elements, x, x) == dim, name
        assert quotient_rank(elements + [identity], x, x) == dim, name
        dims.add(dim)
    assert len(dims) == 1 and dims.pop() > n


def _combination(elements, rng):
    """A random linear combination of graded matrices of one shape."""
    first = elements[0]
    p = first.field.p
    entries = {}
    for q in elements:
        c = rng.randrange(p)
        for j, col in enumerate(q.columns):
            for i, v in col:
                entries[(i, j)] = (entries.get((i, j), 0) + c * v) % p
    return graded_matrix_from_entries(first.field, first.rows, first.cols,
                                      entries)


@pytest.mark.parametrize("p", [2, 5, 65521])
@pytest.mark.parametrize("n, seed", [(20, 7), (30, 8)])
def test_products_stay_in_every_primal_basis_of_end(p, n, seed):
    x = random_module(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                      p=p)
    rng = random.Random(f"products:{p}:{n}:{seed}")
    for name, route in ROUTES.items():
        elements = list(route(x, x).elements)
        dim = len(elements)
        products = [matmul(_combination(elements, rng),
                           _combination(elements, rng)) for _ in range(6)]
        assert quotient_rank(products, x, x) > 0, name
        for product in products:
            assert verify_hom(product, x, x), name
        assert quotient_rank(elements + products, x, x) == dim, name


@pytest.mark.parametrize("p", [2, 5, 65521])
@pytest.mark.parametrize("n, seed", [(20, 11), (30, 12)])
def test_composites_over_triples_stay_in_every_primal_basis(p, n, seed):
    """For seeded X, Y, Z, composites g f of random combinations f in
    Hom(X, Y) and g in Hom(Y, Z) pass `verify_hom` and lie in the span of
    Hom(X, Z) modulo null-homotopies, on every primal route."""
    x, y, z = (random_module(seed + 100 * k, d=2, gens=n, rels=n,
                             coord_range=3 * n // 2, p=p) for k in range(3))
    rng = random.Random(f"triples:{p}:{n}:{seed}")
    for name, route in ROUTES.items():
        fs, gs, hs = (list(route(a, b).elements)
                      for a, b in ((x, y), (y, z), (x, z)))
        composites = [matmul(_combination(gs, rng), _combination(fs, rng))
                      for _ in range(6)]
        assert quotient_rank(composites, z, x) > 0, name
        for composite in composites:
            assert verify_hom(composite, x, z), name
        assert quotient_rank(hs + composites, z, x) == len(hs), name
