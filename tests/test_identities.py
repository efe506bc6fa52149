"""Identities of Hom that check the six routes past the oracle's reach.

The oracle refuses `ladder`-sized pairs, and above that size the routes
are checked only against one another; they share `graded`, so one bug
there could make them agree on a wrong answer.  The identities below need
only one dimension per side and hold at any size.  On seeded modules
with 40 to 60 generators over GF(2), GF(5) and GF(65521), every route
must give

* Yoneda: dim Hom(A[a], Y) = dim Y_a = `hilbert_at(Y, a)`, at degrees on
  Y's grid and off it (below it, above it, and between its coordinates);
* additivity: dim Hom(X + X', Y) = dim Hom(X, Y) + dim Hom(X', Y), and
  the same in the second argument, with direct sums presented
  block-diagonally;
* shift invariance: Hom(X[a], Y[a]) = Hom(X, Y), on seeded pairs with 20
  to 40 generators over GF(2), GF(5) and GF(65521).  Shifting both
  modules by one degree changes no comparison between their degrees, so
  every route must return the same basis, element for element, and not
  only the same dimension.

Over GF(2) the primal routes solve, and reduce the slices of Y, on the
packed sweep, and the duals resolve through the packed kernel; over the
other primes every step runs on the sparse field paths.
"""

import random

import pytest

from mphom import (
    GradedMatrix,
    Presentation,
    hilbert_at,
    hom_direct,
    hom_exact,
    hom_exact_dual,
    hom_mixed,
    hom_restricted,
    hom_restricted_dual,
    minimize,
)
from mphom.generators import random_module, random_pair

from conftest import free_module

ROUTES = {
    "direct": hom_direct,
    "a": hom_restricted,
    "mixed": hom_mixed,
    "b": hom_exact,
    "a-star": hom_restricted_dual,
    "b-star": hom_exact_dual,
}
PRIMES = (2, 5, 65521)


def _module(seed, n, p):
    return random_module(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=p)


def _direct_sum(xp, xq):
    """Block-diagonal presentation of X + X'; minimal when both are."""
    a, b = xp.matrix, xq.matrix
    shift = a.nrows
    columns = a.columns + tuple(
        tuple((i + shift, v) for i, v in col) for col in b.columns)
    matrix = GradedMatrix(a.field, a.rows + b.rows, a.cols + b.cols,
                          columns)
    return Presentation(matrix, minimal=True)


def _yoneda_degrees(yp, rng):
    """Grid points of Y and points off its grid on both axes."""
    m = yp.matrix
    degrees = rng.sample(m.rows, 2) + rng.sample(m.cols, 2)
    xs, ys = ({deg[k] for deg in m.rows + m.cols} for k in (0, 1))
    off_x = [c for c in range(min(xs), max(xs)) if c not in xs]
    off_y = [c for c in range(min(ys), max(ys)) if c not in ys]
    assert off_x and off_y
    degrees += [
        (min(xs) - 1, min(ys) - 1),
        (max(xs) + 3, max(ys) + 3),
        (rng.choice(off_x), rng.choice(off_y)),
        (rng.choice(off_x), max(ys) + 1),
    ]
    return degrees


@pytest.mark.parametrize("seed,n", [(1, 40), (2, 60)])
def test_yoneda_on_every_route(seed, n):
    for p in PRIMES:
        yp = _module(seed, n, p)
        rng = random.Random(f"yoneda:{seed}:{n}")
        dims = set()
        for a in _yoneda_degrees(yp, rng):
            want = hilbert_at(yp, a)
            dims.add(want)
            xp = free_module([a], p=p)
            for name, route in ROUTES.items():
                assert route(xp, yp).dim == want, (name, a, p)
        assert len(dims) > 2, p


def test_additivity_on_every_route():
    for p in PRIMES:
        xp, xq, yp = _module(3, 40, p), _module(4, 40, p), _module(5, 50, p)
        both = _direct_sum(xp, xq)
        assert minimize(both).matrix == both.matrix
        for name, route in ROUTES.items():
            parts = route(xp, yp).dim, route(xq, yp).dim
            assert all(parts), (name, p)
            assert route(both, yp).dim == sum(parts), (name, p)
            # The same sum as the target, from the domain Y.
            parts = route(yp, xp).dim, route(yp, xq).dim
            assert all(parts), (name, p)
            assert route(yp, both).dim == sum(parts), (name, p)


def _shifted(pres, a):
    """X[a]: every degree of the presentation translated by a."""
    m = pres.matrix
    rows = [tuple(map(sum, zip(deg, a))) for deg in m.rows]
    cols = [tuple(map(sum, zip(deg, a))) for deg in m.cols]
    return Presentation(GradedMatrix(m.field, rows, cols, m.columns),
                        minimal=True)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n, seed", [(20, 1), (30, 2), (40, 3)])
def test_shift_invariance_on_every_route(p, n, seed):
    xp, yp = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=p)
    a = (-2 * n, 3 * n + 1)
    xs, ys = _shifted(xp, a), _shifted(yp, a)
    for name, route in ROUTES.items():
        basis, moved = route(xp, yp), route(xs, ys)
        assert basis.dim > n, name
        assert moved.dim == basis.dim, name
        assert ([q.columns for q in moved.elements]
                == [q.columns for q in basis.elements]), name
