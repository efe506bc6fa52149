"""Acceptance gate: one test per criterion, each printing a PASS line.

The cross-algorithm corpus (criterion 2) is computed once in a
module-scoped fixture and reused by the bound checks (criterion 3).
"""

import random
import time

import pytest

from mphom import (
    CokernelCache,
    ColumnSpan,
    GradedMatrix,
    Presentation,
    PrimeField,
    dual_context,
    graded_matrix_from_entries,
    hilbert_at,
    hom_direct,
    hom_exact,
    hom_exact_dual,
    hom_mixed,
    hom_module_presentation,
    hom_restricted,
    hom_restricted_dual,
    homotopy_reduce,
    minimize,
    sparsify,
    thickness,
    thickness_at_degrees,
    verify_hom,
)
from mphom.generators import random_module, random_pair
from mphom.gridoracle import grid_axes, hom_oracle, realize_grid
from mphom.graded import _SortedColumns
from mphom.homspace import (
    _flat_index,
    _flatten_q,
    _homotopy_columns,
)
from mphom.localalg import evaluation_grid, grid_points

from conftest import red_blue, staircase_pair

ALGORITHMS = (hom_direct, hom_restricted, hom_mixed, hom_exact)


def oracle_dim(xp, yp):
    axes = grid_axes(xp.matrix, yp.matrix)
    return hom_oracle(realize_grid(xp, axes), realize_grid(yp, axes)).dim


def homotopy_quotient_rank(qs, yp, xp):
    if not qs:
        return 0
    cache = CokernelCache(yp.matrix)
    index = _flat_index(cache, xp.matrix.rows)
    span = ColumnSpan(xp.field)
    form = _SortedColumns(xp.field)
    for col in _homotopy_columns(cache, xp.matrix.rows, form):
        span.insert(col)
    base = span.rank
    for q in qs:
        span.insert(_flatten_q(q, index, form))
    return span.rank - base


def assert_basis_sound(basis, xp, yp):
    """Every element verifies; nothing is killed by a homotopy pass."""
    for q in basis:
        assert verify_hom(q, xp, yp)
    reduced = homotopy_reduce(list(basis.elements), yp)
    assert len(reduced) == basis.dim
    assert homotopy_quotient_rank(list(basis.elements), yp, xp) == basis.dim


def staircase_interval(m, level, deaths, p=2):
    """Interval module: m+1 generators on the antichain x+y = level,
    merge relations at the joins, death relations at the given corners."""
    fld = PrimeField(p)
    rows = [(i, level - i) for i in range(m + 1)]
    cols, entries = [], {}
    for i in range(m):
        cols.append((i + 1, level - i))
        entries[(i, len(cols) - 1)] = 1
        entries[(i + 1, len(cols) - 1)] = -1
    for a, b in deaths:
        cols.append((a, b))
        g = next(i for i in range(m + 1) if i <= a and level - i <= b)
        entries[(g, len(cols) - 1)] = 1
    mat = graded_matrix_from_entries(fld, rows, cols, entries)
    return minimize(Presentation(mat, label=f"stair{m}@{level}"))


def table1_pair(m_y, t_y, m_x, t_x, depth=5, p=2):
    """Thin target with many generators and deep second syzygies; the
    domain's relations dominate them, as in the benchmark tables."""
    deaths_y = [(2 * j + depth, m_y - 2 * j + depth) for j in range(t_y)]
    y = staircase_interval(m_y, m_y, deaths_y, p)
    top = m_y + 2 * depth + 2 * max(t_y, t_x)
    deaths_x = [(top + j, top - j) for j in range(t_x)]
    x = staircase_interval(m_x, m_y + 1, deaths_x, p)
    return x, y


EQUALITY_SIZES = (
    [(k, 3 + k % 5, 3 + (k * 7) % 5, 2) for k in range(70)]
    + [(1000 + k, 3 + k % 5, 3 + (k * 3) % 5, 5) for k in range(70)]
    + [(2000 + k, 9 + k % 3, 9 + k % 3, 2) for k in range(20)]
    + [(3000 + k, 9 + k % 3, 9 + k % 3, 5) for k in range(20)]
    + [(4000 + k, 14 + k % 2, 14 + k % 2, 2) for k in range(10)]
    + [(5000 + k, 14 + k % 2, 14 + k % 2, 5) for k in range(10)]
)


@pytest.fixture(scope="module")
def equality_corpus():
    """200 seeded pairs, all five dimensions, soundness audited."""
    results = []
    start = time.perf_counter()
    for seed, gens, rels, p in EQUALITY_SIZES:
        x, y = random_pair(seed, gens=gens, rels=rels, coord_range=8, p=p)
        bases = [algorithm(x, y) for algorithm in ALGORITHMS]
        dims = {b.dim for b in bases}
        dims.add(oracle_dim(x, y))
        results.append((seed, x, y, bases, dims))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_worked_example():
    x, y = red_blue()
    axes = grid_axes(x.matrix, y.matrix)
    gx, gy = realize_grid(x, axes), realize_grid(y, axes)
    assert hom_oracle(gx, gy).dim == 1
    timings = {}
    for algorithm in ALGORITHMS:
        basis = algorithm(x, y)
        assert basis.dim == 1
        best = min(
            _timed(algorithm, x, y) for _ in range(3)
        )
        timings[basis.algorithm] = best
        assert best < 1e-3, (basis.algorithm, best)
    direct = hom_direct(x, y)
    assert direct.stats.solution_dim == 3
    assert direct.stats.homotopy_killed == 1
    print(
        "ACCEPTANCE 1: PASS - worked example dim 1 on all five routes, "
        f"solution space 3, one null-homotopy; timings {timings}"
    )


def _timed(algorithm, x, y):
    t0 = time.perf_counter()
    algorithm(x, y)
    return time.perf_counter() - t0


def test_criterion_2_cross_algorithm_equivalence(equality_corpus):
    results, elapsed = equality_corpus
    assert len(results) >= 200
    for seed, x, y, bases, dims in results:
        assert len(dims) == 1, (seed, dims)
        for basis in bases:
            assert_basis_sound(basis, x, y)
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 2: PASS - {len(results)} pairs, five-way agreement, "
        f"bases verified, homotopy-reduced; {elapsed:.1f}s"
    )


def test_criterion_3_dimension_bounds(equality_corpus):
    results, _ = equality_corpus
    checked = 0
    for seed, x, y, bases, dims in results:
        dim = next(iter(dims))
        cache = CokernelCache(y.matrix)
        thick = thickness(y, cache)
        betti_degrees = set(x.matrix.rows) | set(x.matrix.cols)
        betti_thick = thickness_at_degrees(y, betti_degrees, cache)
        sum_bound = sum(cache.at(g).dim for g in x.matrix.rows)
        assert dim <= x.n_generators * thick, seed
        assert dim <= sum_bound <= x.n_generators * betti_thick, seed
        assert betti_thick <= thick, seed
        checked += 1
    print(
        f"ACCEPTANCE 3: PASS - dimension bound and Betti-restricted "
        f"sharpening hold on {checked} instances"
    )


def test_criterion_4_duality_suite():
    checked = 0
    seed = 0
    while checked < 50:
        x, y = random_pair(6000 + seed, gens=4, rels=4, coord_range=5, p=2)
        seed += 1
        if x.is_zero_module() or y.is_zero_module():
            continue
        ctx = dual_context(x, y)
        primal_a = hom_restricted(ctx.truncated_x, ctx.truncated_y).dim
        primal_b = hom_exact(ctx.truncated_x, ctx.truncated_y).dim
        assert hom_restricted_dual(x, y, context=ctx).dim == primal_a, seed
        assert hom_exact_dual(x, y, context=ctx).dim == primal_b, seed
        checked += 1
    print(
        f"ACCEPTANCE 4: PASS - dual dimensions equal primal counterparts "
        f"after shared truncation on {checked} pairs"
    )


def test_criterion_5_sparsification():
    checked = 0
    seed = 0
    while checked < 50:
        pres = random_module(7000 + seed, gens=4 + seed % 5, rels=4 + seed % 5,
                             coord_range=6, p=2,
                             thickness_hint=1 + seed % 3)
        seed += 1
        if pres.is_zero_module() or pres.n_relations == 0:
            continue
        bound = thickness(pres) + 1
        out = sparsify(pres)
        assert all(len(col) <= bound for col in out.matrix.columns), seed
        axes = evaluation_grid(pres.matrix)
        for pt in grid_points(axes):
            assert hilbert_at(out, pt) == hilbert_at(pres, pt), (seed, pt)
        checked += 1
    print(
        f"ACCEPTANCE 5: PASS - sparsified columns within thickness+1 and "
        f"Hilbert functions unchanged on {checked} presentations"
    )


def test_criterion_6_thickness_fixtures():
    red, blue = red_blue()
    assert thickness(red) == 1
    assert thickness(blue) == 2
    print("ACCEPTANCE 6: PASS - thickness fixtures: red 1, blue 2")


TABLE1_PARAMS = (
    (6, 3, 3, 2), (8, 4, 4, 2), (10, 5, 5, 3), (7, 3, 2, 2), (9, 4, 3, 3),
    (11, 4, 6, 2), (12, 5, 4, 3), (6, 2, 3, 2), (8, 3, 5, 2), (10, 4, 4, 2),
)


def test_criterion_7_system_size_ordering():
    rows = []
    for params in TABLE1_PARAMS:
        x, y = table1_pair(*params)
        n = y.n_generators + y.n_relations
        assert thickness(y) * 5 <= n, params
        counts = {
            basis.algorithm: basis.stats.variables
            for basis in (algorithm(x, y) for algorithm in ALGORITHMS)
        }
        assert counts["b"] < counts["a"] < counts["mixed"] \
            < counts["direct"], (params, counts)
        dims = {algorithm(x, y).dim for algorithm in ALGORITHMS}
        dims.add(oracle_dim(x, y))
        assert len(dims) == 1, params
        rows.append(counts)
    print(
        "ACCEPTANCE 7: PASS - strict variable-count ordering "
        f"B < A < A-1/2 < direct on {len(rows)} thin-target instances"
    )


def test_criterion_8_hom_module_presentation():
    rng = random.Random("acceptance-8")
    checked = 0
    seed = 0
    while checked < 30:
        x, y = random_pair(8000 + seed, gens=4, rels=4, coord_range=5, p=2)
        seed += 1
        if x.is_zero_module() or y.is_zero_module():
            continue
        h = hom_module_presentation(x, y)
        assert hilbert_at(h, (0, 0)) == hom_direct(x, y).dim, seed
        n = y.matrix
        for _ in range(5):
            alpha = (rng.randint(0, 3), rng.randint(0, 3))
            shifted = GradedMatrix(
                n.field,
                [(r[0] - alpha[0], r[1] - alpha[1]) for r in n.rows],
                [(c[0] - alpha[0], c[1] - alpha[1]) for c in n.cols],
                n.columns,
            )
            ys = minimize(Presentation(shifted))
            assert hilbert_at(h, alpha) == hom_direct(x, ys).dim, (seed, alpha)
        checked += 1
    print(
        f"ACCEPTANCE 8: PASS - Hom-module Hilbert values match hom "
        f"dimensions at the origin and 5 shifts on {checked} pairs"
    )


def test_criterion_9_oracle_integrity():
    fixtures = [red_blue()[0], red_blue()[1], staircase_pair()[0],
                staircase_pair()[1]]
    for params in TABLE1_PARAMS[:3]:
        fixtures.extend(table1_pair(*params))
    for seed in range(5):
        fixtures.append(random_module(9000 + seed, gens=5, rels=5, p=2))
    checked_points = 0
    for pres in fixtures:
        if pres.is_zero_module():
            continue
        grid = realize_grid(pres)  # commutativity validated on build
        cache = CokernelCache(pres.matrix)
        for pt in grid.points():
            assert grid.dims[pt] == cache.at(pt).dim, (pres.label, pt)
            checked_points += 1
    print(
        f"ACCEPTANCE 9: PASS - grid squares commute and oracle Hilbert "
        f"values match local cokernels at {checked_points} points"
    )
