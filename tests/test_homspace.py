"""The four Hom algorithms, the homotopy quotient, verification, and the
enriched Hom-module presentation."""

import random
from dataclasses import replace

import pytest

from mphom import (
    CokernelCache,
    ColumnSpan,
    FieldMismatchError,
    GradedMatrix,
    Presentation,
    PrimeField,
    deg_sub,
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
    thickness,
    thickness_at_degrees,
    verify_hom,
)
from mphom.gridoracle import grid_axes, hom_oracle, realize_grid
from mphom.generators import random_pair
from mphom.graded import _SortedColumns
from mphom.homspace import (
    _flat_index,
    _flatten_q,
    _homotopy_columns,
)
from mphom.localalg import evaluation_grid

from conftest import free_module, red_blue, staircase_pair, zero_module

ALGORITHMS = (hom_direct, hom_restricted, hom_mixed, hom_exact)


def oracle_dim(xp, yp):
    axes = grid_axes(xp.matrix, yp.matrix)
    gx = realize_grid(xp, axes)
    gy = realize_grid(yp, axes)
    return hom_oracle(gx, gy).dim


def quotient_rank(qs, yp, xp):
    """Rank of the flattened family mod null-homotopies.

    It flattens into sorted tuples and reduces by `ColumnSpan` at every
    prime, so over GF(2) it checks the packed quotient of the routes.
    """
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


def test_running_example_all_algorithms(fig_pair):
    x, y = fig_pair
    for algorithm in ALGORITHMS:
        basis = algorithm(x, y)
        assert basis.dim == 1, algorithm.__name__
        assert basis.coords == "generators"
    assert oracle_dim(x, y) == 1


def test_running_example_direct_diagnostics(fig_pair):
    x, y = fig_pair
    basis = hom_direct(x, y)
    assert basis.stats.solution_dim == 3
    assert basis.stats.homotopy_killed == 1
    # The reduced representative spans the same class as [1, 0]^t.
    assert basis.elements[0].to_dense() == [[1], [0]]


def test_running_example_mixed_diagnostics(fig_pair):
    # Restricting only Q leaves a two-dimensional solution space (two
    # lifts of the same homomorphism with different P parts); their Q
    # parts coincide, so plain dependence, not a null-homotopy, removes
    # the duplicate.
    x, y = fig_pair
    basis = hom_mixed(x, y)
    assert basis.stats.solution_dim == 2
    assert basis.stats.homotopy_killed == 0
    assert basis.dim == 1


def test_running_example_over_other_fields():
    for p in (2, 5):
        x, y = red_blue(p)
        dims = {algorithm(x, y).dim for algorithm in ALGORITHMS}
        assert dims == {1}


def test_restriction_honesty(fig_pair):
    x, y = fig_pair
    basis = hom_restricted(x, y)
    cache = CokernelCache(y.matrix)
    for q in basis:
        for g, gdeg in enumerate(q.cols):
            allowed = set(cache.at(gdeg).subset)
            for gp, _ in q.columns[g]:
                assert gp in allowed
    # The forced zeros of the running example: Q has no entry at the
    # second generator, the solution is found without any quotient.
    assert basis.stats.variables == 3
    assert basis.stats.solution_dim == basis.dim == 1


def test_hom_into_zero_module(fig_pair):
    x, _ = fig_pair
    z = zero_module()
    assert hom_direct(x, z).dim == 0
    assert hom_restricted(z, x).dim == 0
    assert hom_exact(x, z).dim == 0


def test_hom_from_free_rank_one_matches_hilbert(fig_pair):
    _, y = fig_pair
    for alpha in ((0, 0), (1, 1), (2, 2), (5, 1)):
        x = free_module([alpha])
        expected = hilbert_at(y, alpha)
        for algorithm in ALGORITHMS:
            assert algorithm(x, y).dim == expected, (algorithm.__name__, alpha)


def test_hom_from_free_module_dimension_sum(fig_pair):
    _, y = fig_pair
    x = free_module([(1, 1), (2, 2)])
    expected = hilbert_at(y, (1, 1)) + hilbert_at(y, (2, 2))
    for algorithm in ALGORITHMS:
        assert algorithm(x, y).dim == expected


def test_staircase_pair_agreement():
    x, y = staircase_pair()
    dims = {algorithm(x, y).dim for algorithm in ALGORITHMS}
    dims.add(oracle_dim(x, y))
    assert len(dims) == 1


def test_homotopy_reduce_running_example(fig_pair):
    x, y = fig_pair
    fld = x.field
    qs = [
        graded_matrix_from_entries(fld, y.matrix.rows, x.matrix.rows, e)
        for e in ({(0, 0): 1, (1, 0): -1}, {(1, 0): 1}, {(0, 0): 1})
    ]
    out = homotopy_reduce(qs, y)
    assert len(out) == 1
    assert out[0].to_dense() == [[1], [0]]


def test_homotopy_reduce_zero_input(fig_pair):
    x, y = fig_pair
    fld = x.field
    zero = graded_matrix_from_entries(fld, y.matrix.rows, x.matrix.rows, {})
    assert homotopy_reduce([zero, zero], y) == []


def test_homotopy_reduce_preserves_independent_families(fig_pair):
    x, y = fig_pair
    basis = hom_direct(x, y)
    again = homotopy_reduce(list(basis.elements), y)
    assert [q.columns for q in again] == [q.columns for q in basis.elements]
    assert quotient_rank(list(basis.elements), y, x) == basis.dim


def test_verify_hom_on_running_example(fig_pair):
    x, y = fig_pair
    fld = x.field
    good = graded_matrix_from_entries(
        fld, y.matrix.rows, x.matrix.rows, {(0, 0): 1}
    )
    assert verify_hom(good, x, y)
    # [0, 1]^t also descends: Q*M lands in the full column span at (6,2).
    other = graded_matrix_from_entries(
        fld, y.matrix.rows, x.matrix.rows, {(1, 0): 1}
    )
    assert verify_hom(other, x, y)
    zero = graded_matrix_from_entries(fld, y.matrix.rows, x.matrix.rows, {})
    assert verify_hom(zero, x, y)


def test_verify_hom_rejects_non_homomorphism():
    # X free-ish target with a relation the image cannot satisfy:
    # X = coker([x^2]: gen (0,0), rel (2,0)); Y free on (0,0).
    fld = PrimeField(2)
    x = minimize(Presentation(graded_matrix_from_entries(
        fld, [(0, 0)], [(2, 0)], {(0, 0): 1})))
    y = free_module([(0, 0)], p=2)
    q = graded_matrix_from_entries(fld, y.matrix.rows, x.matrix.rows,
                                   {(0, 0): 1})
    assert not verify_hom(q, x, y)
    for algorithm in ALGORITHMS:
        assert algorithm(x, y).dim == 0


def _quotient_by_x(p):
    """A/(x) at d=2 and A, both over GF(p)."""
    fld = PrimeField(p)
    x = Presentation(graded_matrix_from_entries(
        fld, [(0, 0)], [(1, 0)], {(0, 0): 1}), minimal=True)
    return x, free_module([(0, 0)], p=p)


def _twice_identity_gf3():
    return graded_matrix_from_entries(PrimeField(3), [(0, 0)], [(0, 0)],
                                      {(0, 0): 2})


def test_verify_hom_rejects_q_over_another_field():
    # 2 * id: A/(x) -> A is no homomorphism over GF(3); over GF(2) the
    # coefficient 2 must not be read as 0.
    q = _twice_identity_gf3()
    assert not verify_hom(q, *_quotient_by_x(3))
    with pytest.raises(FieldMismatchError):
        verify_hom(q, *_quotient_by_x(2))
    x3, _ = _quotient_by_x(3)
    with pytest.raises(FieldMismatchError):
        verify_hom(q, x3, free_module([(0, 0)], p=2))


def test_homotopy_reduce_rejects_q_over_another_field():
    q = _twice_identity_gf3()
    assert homotopy_reduce([q], free_module([(0, 0)], p=3))[0].columns \
        == (((0, 2),),)
    with pytest.raises(FieldMismatchError):
        homotopy_reduce([q], free_module([(0, 0)], p=2))


def test_end_contains_identity(fig_pair):
    _, y = fig_pair
    basis = hom_restricted(y, y)
    identity = graded_matrix_from_entries(
        y.field, y.matrix.rows, y.matrix.rows,
        {(i, i): 1 for i in range(y.matrix.nrows)},
    )
    with_id = quotient_rank(list(basis.elements) + [identity], y, y)
    assert with_id == basis.dim  # identity already in the span mod homotopy


def test_linear_system_statistics(fig_pair):
    x, y = fig_pair
    direct = hom_direct(x, y).stats
    assert direct.variables == 5  # two Q entries + three P entries
    assert direct.equations == 2
    restricted = hom_restricted(x, y).stats
    assert restricted.variables == 3
    mixed = hom_mixed(x, y).stats
    assert mixed.variables == 4
    exact = hom_exact(x, y).stats
    assert exact.variables == 1
    assert exact.equations == 0
    assert exact.variables < restricted.variables < mixed.variables \
        < direct.variables


def test_dimension_bound_chain(fig_pair):
    x, y = fig_pair
    dim = hom_direct(x, y).dim
    cache = CokernelCache(y.matrix)
    sum_bound = sum(cache.at(g).dim for g in x.matrix.rows)
    betti = thickness_at_degrees(
        y, set(x.matrix.rows) | set(x.matrix.cols), cache
    )
    assert dim <= sum_bound <= x.n_generators * betti
    assert betti <= thickness(y)


def test_cross_algorithm_random_sample():
    for seed in range(6):
        x, y = random_pair(seed, gens=5, rels=5, coord_range=6, p=2)
        dims = {algorithm(x, y).dim for algorithm in ALGORITHMS}
        assert len(dims) == 1, seed
        assert dims.pop() == oracle_dim(x, y), seed


def test_hom_module_presentation_hilbert_at_origin(fig_pair):
    from mphom import validate_grading

    x, y = fig_pair
    h = hom_module_presentation(x, y)
    assert validate_grading(h.matrix)
    origin = (0,) * x.matrix.dim
    assert hilbert_at(h, origin) == hom_direct(x, y).dim


def test_hom_module_of_free_rank_one_is_shifted_target(fig_pair):
    _, y = fig_pair
    alpha = (1, 1)
    x = free_module([alpha])
    h = hom_module_presentation(x, y)
    # Hom(F(alpha), Y) = Y[alpha]: Hilbert functions match after shifting.
    for beta in ((0, 0), (1, 0), (1, 1), (4, 0), (2, 2)):
        shifted = tuple(a + b for a, b in zip(alpha, beta))
        assert hilbert_at(h, beta) == hilbert_at(y, shifted)


def test_hom_module_shift_consistency(fig_pair):
    x, y = fig_pair
    h = hom_module_presentation(x, y)
    fld = x.field
    n = y.matrix
    for alpha in ((1, 0), (0, 1), (2, 1)):
        shifted = GradedMatrix(
            fld,
            [deg_sub(r, alpha) for r in n.rows],
            [deg_sub(c, alpha) for c in n.cols],
            n.columns,
        )
        ys = minimize(Presentation(shifted))
        assert hilbert_at(h, alpha) == hom_direct(x, ys).dim, alpha


def _check_hom_module_hilbert(x, y, tag):
    """hilbert_at(Hom(X, Y), a) = dim Hom(X, Y[a]) at twelve degrees a:
    six points of the presentation's grid and six with one coordinate on
    no axis of it, below, between or above the axis values."""
    h = hom_module_presentation(x, y)
    cache = CokernelCache(h.matrix)
    axes = evaluation_grid(h)
    gaps = [[c for c in range(axis[0] - 8, axis[-1] + 9) if c not in axis]
            for axis in axes]
    rng = random.Random(f"hom-module-hilbert:{tag}")
    on = [tuple(rng.choice(axis) for axis in axes) for _ in range(6)]
    off = []
    for _ in range(3):
        off.append((rng.choice(gaps[0]), rng.choice(axes[1])))
        off.append((rng.choice(axes[0]), rng.choice(gaps[1])))
    n = y.matrix
    values = {}
    for a in on + off:
        shifted = GradedMatrix(
            n.field,
            [deg_sub(r, a) for r in n.rows],
            [deg_sub(c, a) for c in n.cols],
            n.columns,
        )
        want = hom_direct(x, Presentation(shifted, minimal=True)).dim
        assert hilbert_at(h, a, cache) == want, a
        values[a] = want
    assert len(set(values.values())) > 2
    assert any(values[a] for a in off)


@pytest.mark.parametrize("seed", [1, 2])
def test_hom_module_hilbert_is_dim_hom_into_shifted_targets(seed):
    """The Hilbert check on seeded d=2, n=20 GF(2) pairs."""
    x, y = random_pair(seed, d=2, gens=20, rels=20, coord_range=30, p=2)
    _check_hom_module_hilbert(x, y, seed)


def test_hom_module_hilbert_over_an_odd_prime():
    """The Hilbert check on a seeded d=2, n=10 GF(5) pair: `kernel` and
    `minimize` run their line sweeps in the sorted column form."""
    x, y = random_pair(3, d=2, gens=10, rels=10, coord_range=15, p=5)
    _check_hom_module_hilbert(x, y, "gf5")


def test_hom_module_of_endomorphisms_contains_identity(fig_pair):
    _, y = fig_pair
    h = hom_module_presentation(y, y)
    assert hilbert_at(h, (0, 0)) >= 1


def test_requires_minimal_presentations(fig_pair):
    x, y = fig_pair
    raw = Presentation(x.matrix, minimal=False)
    with pytest.raises(ValueError):
        hom_direct(raw, y)


def test_one_parameter_interval_homs():
    # Classical persistence: Hom([a,b), [c,d)) is K iff c <= a < d <= b.
    fld = PrimeField(2)

    def interval(a, b):
        return minimize(Presentation(graded_matrix_from_entries(
            fld, [(a,)], [(b,)], {(0, 0): 1})))

    i13, i02 = interval(1, 3), interval(0, 2)
    for algorithm in ALGORITHMS:
        assert algorithm(i13, i02).dim == 1
        assert algorithm(i02, i13).dim == 0
        assert algorithm(i02, i02).dim == 1


def test_three_parameter_agreement():
    # The primal routes, the duals (whose resolutions run the d=3 kernel),
    # the Hom-module presentation at the origin and the oracle agree.
    for p in (2, 5):
        for seed in (1, 2, 3):
            x, y = random_pair(seed, d=3, gens=4, rels=4, coord_range=3, p=p)
            dims = {algorithm(x, y).dim for algorithm in ALGORITHMS}
            ctx = dual_context(x, y)
            dims.add(hom_restricted_dual(x, y, context=ctx).dim)
            dims.add(hom_exact_dual(x, y, context=ctx).dim)
            dims.add(hilbert_at(hom_module_presentation(x, y), (0, 0, 0)))
            dims.add(oracle_dim(x, y))
            assert len(dims) == 1, (p, seed, dims)


def test_end_identity_on_random_modules():
    from mphom.generators import random_module

    for seed in (31, 32, 33):
        y = random_module(seed, gens=5, rels=5, coord_range=5, p=3)
        if y.is_zero_module():
            continue
        basis = hom_restricted(y, y)
        identity = graded_matrix_from_entries(
            y.field, y.matrix.rows, y.matrix.rows,
            {(i, i): 1 for i in range(y.matrix.nrows)},
        )
        assert quotient_rank(list(basis.elements) + [identity], y, y) \
            == basis.dim, seed


def seeded_pairs():
    for d, n, coord_range in ((1, 6, 8), (2, 6, 8), (3, 4, 5)):
        for p in (2, 5, 65521):
            for seed in range(2):
                yield random_pair(
                    seed, d=d, gens=n, rels=n, coord_range=coord_range, p=p
                )


def test_route_elements_equal_their_validated_copies():
    """The routes build their elements without copying or checking; each
    must equal the matrix the checking constructor builds from it, and
    share the generator degrees of its operands."""
    seen = 0
    for x, y in seeded_pairs():
        for algorithm in ALGORITHMS:
            for e in algorithm(x, y).elements:
                checked = GradedMatrix(
                    e.field, e.rows, e.cols, e.columns, validate=True
                )
                assert e == checked
                assert hash(e) == hash(checked)
                assert e.rows is y.matrix.rows
                assert e.cols is x.matrix.rows
                seen += 1
    assert seen > 50


def _untimed(basis):
    return basis.elements, basis.coords, replace(basis.stats, solve_seconds=0)


def test_route_a_computes_no_kernel(monkeypatch):
    """Route a reads its relation subsets off N's reduced slices: with
    every `kernel` patched to raise it returns what it returns unpatched,
    and so does a-star once its dual context is built."""
    from mphom import homspace, presentations

    pairs = [red_blue(), staircase_pair(), *seeded_pairs()]
    expected = []
    for x, y in pairs:
        ctx = dual_context(x, y)
        expected.append((
            ctx,
            _untimed(hom_restricted(x, y)),
            _untimed(hom_restricted_dual(x, y, context=ctx)),
        ))

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel called")

    monkeypatch.setattr(homspace, "kernel", no_kernel)
    monkeypatch.setattr(presentations, "kernel", no_kernel)
    for (x, y), (ctx, primal, dual) in zip(pairs, expected):
        assert _untimed(hom_restricted(x, y)) == primal
        assert _untimed(hom_restricted_dual(x, y, context=ctx)) == dual
    assert sum(len(primal[0]) for _, primal, _ in expected) > 0
    assert sum(len(dual[0]) for _, _, dual in expected) > 0
