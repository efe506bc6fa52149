"""The homomorphism audit: `verify_hom` walks only the relations a basis
element reaches, and must answer exactly as the per-relation check it
replaced.  It reads the spans of N from the `CokernelCache` its route
hands it.

The reference below copies the earlier implementation: it forms Q M_r for
every relation r of X, and reduces each nonzero product against the span
of N_{<=deg r} cut out by `submatrix_at_most` and lifted back to the
original row indices.  The audit is one `failures` call of the field's
column form on the whole basis.  Over GF(2) that is one bit-sliced batch
per relation (`_PackedColumns.failures`); it must flag exactly the
elements that the per-element packed loop it replaced rejects, a copy of
which is kept below as `old_gf2_verify`.  Over every other prime
(`_SortedColumns.failures`) it must flag exactly the elements the
reference rejects.
"""

import random

import pytest

from mphom import (
    DimensionMismatchError,
    FieldMismatchError,
    GradedMatrix,
    GradingError,
    Presentation,
    PrimeField,
    UnsortedRowsError,
    graded_matrix_from_entries,
    hom_direct,
    hom_exact,
    hom_mixed,
    hom_restricted,
    homotopy_reduce,
    minimize,
    submatrix_at_most,
    validate_grading,
    verify_hom,
)
from mphom import homspace
from mphom.graded import (
    _PackedColumns,
    _SortedColumns,
    _axpy,
    _column_form,
    _pack,
    _slice_indices,
    _transpose,
    column_reduce,
    deg_leq,
)
from mphom.generators import random_pair
from mphom.homspace import _audit, _failures as failures
from mphom.localalg import CokernelCache

from conftest import fresh_slice_view, red_blue, slice_view

ROUTES = {
    "direct": hom_direct,
    "a": hom_restricted,
    "mixed": hom_mixed,
    "b": hom_exact,
}


# -- reference: the per-relation check --------------------------------------


def old_verify_hom(q, xp, yp, spans=None):
    """The reference; calls over one N may share their `spans` memo."""
    m, n = xp.matrix, yp.matrix
    fld = n.field
    p = fld.p
    spans = {} if spans is None else spans
    for r in range(m.ncols):
        rdeg = m.cols[r]
        product = []
        for g, mv in m.columns[r]:
            product = _axpy(product, q.columns[g], mv, p)
        if not product:
            continue
        span = spans.get(rdeg)
        if span is None:
            sub, row_idx, _ = submatrix_at_most(n, rdeg)
            lifted = [
                tuple((row_idx[i], v) for i, v in col) for col in sub.columns
            ]
            span = column_reduce(lifted, fld)
            spans[rdeg] = span
        if not span.contains(product):
            return False
    return True


def old_failing_relations(q, xp, yp):
    """Relations r whose product Q M_r leaves the span at deg r."""
    m, n = xp.matrix, yp.matrix
    p = n.field.p
    failing = []
    for r in range(m.ncols):
        product = []
        for g, mv in m.columns[r]:
            product = _axpy(product, q.columns[g], mv, p)
        sub, row_idx, _ = submatrix_at_most(n, m.cols[r])
        lifted = [tuple((row_idx[i], v) for i, v in c) for c in sub.columns]
        if not column_reduce(lifted, n.field).contains(product):
            failing.append(r)
    return failing


# -- inputs -----------------------------------------------------------------


def seeded_pairs():
    for d, n, coord_range in ((1, 6, 8), (2, 6, 8), (3, 4, 5)):
        for p in (2, 5, 65521):
            for seed in range(3):
                yield f"d{d}-p{p}-s{seed}", random_pair(
                    seed, d=d, gens=n, rels=n, coord_range=coord_range, p=p
                )


PAIRS = list(seeded_pairs()) + [("fig", red_blue(p=5))]


def entries_of(q):
    return {(i, j): v for j, col in enumerate(q.columns) for i, v in col}


def perturbations(q, xp, yp):
    """Single-entry changes of Q: every admissible entry bumped by one
    (which adds a missing entry, changes or removes a present one), and
    one entry per column that breaks the grading."""
    m, n = xp.matrix, yp.matrix
    fld = m.field
    base = entries_of(q)
    for g, gdeg in enumerate(m.rows):
        broken = None
        for gp, gpdeg in enumerate(n.rows):
            entries = dict(base)
            entries[(gp, g)] = entries.get((gp, g), 0) + 1
            if deg_leq(gpdeg, gdeg):
                yield graded_matrix_from_entries(
                    fld, n.rows, m.rows, entries
                )
            elif broken is None:
                broken = graded_matrix_from_entries(
                    fld, n.rows, m.rows, entries, validate=False
                )
        if broken is not None:
            yield broken


def zero_q(xp, yp):
    return graded_matrix_from_entries(
        xp.field, yp.matrix.rows, xp.matrix.rows, {}
    )


def fresh_cache(xp, yp):
    """A cokernel cache of N that nothing else read."""
    return CokernelCache(yp.matrix)


def passes(q, xp, cache):
    """`verify_hom` over the spans of `cache`, a CokernelCache of N."""
    return not failures((q,), xp.matrix, cache)


# -- equivalence ------------------------------------------------------------


@pytest.mark.parametrize("name,pair", PAIRS, ids=[name for name, _ in PAIRS])
def test_basis_elements_pass_both_checks(name, pair):
    xp, yp = pair
    for algorithm, route in ROUTES.items():
        basis = route(xp, yp)
        cache = fresh_cache(xp, yp)
        for q in basis.elements:
            assert old_verify_hom(q, xp, yp), algorithm
            assert verify_hom(q, xp, yp), algorithm
            assert passes(q, xp, cache), algorithm
        _audit(basis.elements, xp, yp, algorithm, CokernelCache(yp.matrix))


@pytest.mark.parametrize("name,pair", PAIRS, ids=[name for name, _ in PAIRS])
def test_perturbed_elements_match_reference(name, pair):
    xp, yp = pair
    if xp.is_zero_module() or yp.is_zero_module():
        pytest.skip("no Q matrices between zero modules")
    bases = [q for route in ROUTES.values() for q in route(xp, yp).elements]
    # One shared cache across every candidate, as in an audit.
    cache = fresh_cache(xp, yp)
    answers = []
    for base in bases[:3] + [zero_q(xp, yp)]:
        for q in perturbations(base, xp, yp):
            expected = old_verify_hom(q, xp, yp)
            assert verify_hom(q, xp, yp) == expected
            assert passes(q, xp, cache) == expected
            answers.append(expected)
    assert answers


def test_perturbations_include_non_homomorphisms():
    rejected = 0
    for _, (xp, yp) in PAIRS:
        if xp.is_zero_module() or yp.is_zero_module():
            continue
        for q in perturbations(zero_q(xp, yp), xp, yp):
            rejected += not verify_hom(q, xp, yp)
    assert rejected > 100


def test_zero_q_is_a_homomorphism():
    for _, (xp, yp) in PAIRS:
        if xp.is_zero_module() or yp.is_zero_module():
            continue
        q = zero_q(xp, yp)
        assert old_verify_hom(q, xp, yp)
        assert verify_hom(q, xp, yp)
        assert passes(q, xp, fresh_cache(xp, yp))


def only_last_relation_fails(p=3):
    """X = k[0,2) + k[0,1) with relations listed at degrees 2 then 1,
    Y = k[0,2); Q sends both generators of X to the one of Y, which dies
    at degree 2 but not at degree 1, so only the last relation fails."""
    fld = PrimeField(p)
    mx = graded_matrix_from_entries(
        fld, [(0,), (0,)], [(2,), (1,)], {(0, 0): 1, (1, 1): 1}
    )
    my = graded_matrix_from_entries(fld, [(0,)], [(2,)], {(0, 0): 1})
    xp = minimize(Presentation(mx))
    yp = minimize(Presentation(my))
    q = graded_matrix_from_entries(
        fld, yp.matrix.rows, xp.matrix.rows, {(0, 0): 1, (0, 1): 1}
    )
    return q, xp, yp


def test_q_failing_only_at_the_last_relation():
    q, xp, yp = only_last_relation_fails()
    last = xp.matrix.ncols - 1
    assert old_failing_relations(q, xp, yp) == [last]
    assert not old_verify_hom(q, xp, yp)
    assert not verify_hom(q, xp, yp)
    cache = fresh_cache(xp, yp)
    assert passes(zero_q(xp, yp), xp, cache)
    assert not passes(q, xp, cache)


def test_seeded_q_failing_only_at_the_last_relation():
    found = 0
    for _, (xp, yp) in PAIRS:
        if xp.is_zero_module() or yp.is_zero_module():
            continue
        last = xp.matrix.ncols - 1
        for q in perturbations(zero_q(xp, yp), xp, yp):
            if old_failing_relations(q, xp, yp) == [last]:
                found += 1
                assert not verify_hom(q, xp, yp)
                assert not passes(q, xp, fresh_cache(xp, yp))
    assert found


def test_audit_rejects_a_non_homomorphism():
    q, xp, yp = only_last_relation_fails()
    with pytest.raises(GradingError, match="fails the homomorphism test"):
        _audit(
            [zero_q(xp, yp), q], xp, yp, "test", CokernelCache(yp.matrix)
        )


# -- the one-pass audit against the per-element loop ------------------------


def stored_multiples(q, xp, yp):
    """Copies of Q, built without validation, storing values that are
    multiples of p (even values over GF(2)): in each column, p at the
    first empty position that respects the grading and 2p at the first
    that does not, and each stored value raised by p.  They read as Q
    does mod p, but store every value they hold."""
    m, n = xp.matrix, yp.matrix
    p = m.field.p
    base = entries_of(q)
    for g, gdeg in enumerate(m.rows):
        extra = {}
        for gp, gpdeg in enumerate(n.rows):
            if (gp, g) not in base:
                extra.setdefault(deg_leq(gpdeg, gdeg), (gp, g))
        for graded, key in extra.items():
            yield unvalidated(q, {**base, key: p if graded else 2 * p})
    for key, v in base.items():
        yield unvalidated(q, {**base, key: v + p})


def unvalidated(q, entries):
    """Q's degrees with the {(g', g): value} entries stored as given."""
    columns = [[] for _ in q.cols]
    for (gp, g), v in sorted(entries.items(), key=lambda kv: kv[0][::-1]):
        columns[g].append((gp, v))
    return GradedMatrix(q.field, q.rows, q.cols, columns, validate=False)


def per_element_verdict(q, xp, yp, spans):
    """The per-element loop the one-pass audit replaced: the grading by
    `validate_grading`, then the homomorphism test."""
    if not validate_grading(q):
        return "violates the grading"
    if not old_verify_hom(q, xp, yp, spans):
        return "fails the homomorphism test"
    return None


def multiples_only_off_grading(q, xp, yp):
    """Does Q store a value against the grading, and only multiples of p
    there?"""
    rows, cols, p = yp.matrix.rows, xp.matrix.rows, xp.field.p
    off = [v for g, col in enumerate(q.columns) for gp, v in col
           if not deg_leq(rows[gp], cols[g])]
    return bool(off) and all(v % p == 0 for v in off)


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_one_pass_audit_answers_as_the_per_element_loop(p):
    """At p in {2, 5, 65521} and d in {1, 2, 3}, on route elements, their
    single-entry changes (those against the grading included) and copies
    storing multiples of p, alone and in random batches: `_audit` raises
    exactly when the per-element loop finds a bad element, with the
    message of the first one in basis order."""
    seen, dims = set(), set()
    for name, (xp, yp) in PAIRS:
        if xp.field.p != p or xp.is_zero_module() or yp.is_zero_module():
            continue
        dims.add(xp.matrix.dim)
        bases = [q for route in ROUTES.values()
                 for q in route(xp, yp).elements]
        candidates = list(bases)
        for base in bases[:3] + [zero_q(xp, yp)]:
            candidates += perturbations(base, xp, yp)
            candidates += stored_multiples(base, xp, yp)
        spans = {}
        verdicts = [per_element_verdict(q, xp, yp, spans)
                    for q in candidates]
        seen.update(verdicts)
        seen.update(
            "multiples of p against the grading" for q in candidates
            if multiples_only_off_grading(q, xp, yp))
        rng = random.Random(f"one-pass-audit:{name}")
        batches = [[k] for k in range(len(candidates))]
        for _ in range(60):
            batches.append(rng.sample(range(len(candidates)),
                                      min(len(candidates), rng.randint(2, 8))))
        for picked in batches:
            want = next(
                (verdicts[k] for k in picked if verdicts[k] is not None),
                None)
            batch = [candidates[k] for k in picked]
            cache = CokernelCache(yp.matrix)
            if want is None:
                _audit(batch, xp, yp, "test", cache)
                continue
            with pytest.raises(GradingError) as caught:
                _audit(batch, xp, yp, "test", cache)
            assert str(caught.value) == f"test: returned matrix {want}", \
                (name, picked)
    assert dims == {1, 2, 3}
    assert seen == {None, "violates the grading",
                    "fails the homomorphism test",
                    "multiples of p against the grading"}


# -- spans lent by each route's cokernel cache ------------------------------


def lent_cache(route, xp, yp, monkeypatch):
    """Run a route and return the `CokernelCache` it hands to its audit."""
    lent = []
    audit = homspace._audit

    def spy(elements, xp_, yp_, algorithm, cokernels):
        lent.append(cokernels)
        return audit(elements, xp_, yp_, algorithm, cokernels)

    with monkeypatch.context() as patch:
        patch.setattr(homspace, "_audit", spy)
        route(xp, yp)
    assert len(lent) == 1 and isinstance(lent[0], CokernelCache)
    return lent[0]


@pytest.mark.parametrize("name,pair", PAIRS, ids=[name for name, _ in PAIRS])
def test_lent_spans_reject_what_the_audit_rejects(name, pair, monkeypatch):
    xp, yp = pair
    if xp.is_zero_module() or yp.is_zero_module():
        pytest.skip("no route audits anything between zero modules")
    m, n = xp.matrix, yp.matrix
    lent = {
        algorithm: lent_cache(route, xp, yp, monkeypatch)
        for algorithm, route in ROUTES.items()
    }
    # At every relation degree the audit reads the span of a fresh
    # reduction of N_{<=deg r}, in N's own row numbering: the same pivot
    # rows, residuals and kept columns.
    for rdeg in m.cols:
        fresh = fresh_slice_view(n, rdeg)
        for algorithm, cache in lent.items():
            assert slice_view(cache.at(rdeg)) == fresh, algorithm
    unlent = fresh_cache(xp, yp)
    # The perturbations of the zero Q hold the rejections that
    # `test_perturbations_include_non_homomorphisms` counts.
    bases = list(hom_exact(xp, yp).elements)
    for base in bases[:3] + [zero_q(xp, yp)]:
        for q in perturbations(base, xp, yp):
            expected = passes(q, xp, unlent)
            for algorithm, cache in lent.items():
                assert passes(q, xp, cache) == expected, algorithm
                if not expected:
                    with pytest.raises(GradingError):
                        _audit([q], xp, yp, "test", lent[algorithm])


@pytest.mark.parametrize("seed,n", [(0, 40), (1, 50), (2, 60)])
def test_lent_packed_spans_match_fresh_reductions_on_ladder_pairs(
        seed, n, monkeypatch):
    """On `ladder`-sized GF(2) pairs every route lends packed spans with
    the pivot rows, residuals and kept columns of a fresh reduction at
    each relation degree, and the packed audit over them answers as the
    per-relation reference on random single-entry changes of a basis
    element, rejections included."""
    xp, yp = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=2)
    m, nm = xp.matrix, yp.matrix
    lent = {
        algorithm: lent_cache(route, xp, yp, monkeypatch)
        for algorithm, route in ROUTES.items()
    }
    for rdeg in set(m.cols):
        fresh = fresh_slice_view(nm, rdeg)
        for algorithm, cache in lent.items():
            assert slice_view(cache.at(rdeg)) == fresh, algorithm
    rng = random.Random(f"ladder-audit:{seed}")
    admissible = [(gp, g) for g, gdeg in enumerate(m.rows)
                  for gp, gpdeg in enumerate(nm.rows) if deg_leq(gpdeg, gdeg)]
    base = entries_of(hom_exact(xp, yp).elements[0])
    answers = []
    for key in rng.sample(admissible, 40):
        entries = dict(base)
        entries[key] = entries.get(key, 0) + 1
        q = graded_matrix_from_entries(xp.field, nm.rows, m.rows, entries)
        expected = old_verify_hom(q, xp, yp)
        for algorithm, cache in lent.items():
            assert passes(q, xp, cache) == expected, algorithm
        answers.append(expected)
    assert True in answers and False in answers


def test_lent_spans_reject_a_non_homomorphism(monkeypatch):
    q, xp, yp = only_last_relation_fails()
    for algorithm, route in ROUTES.items():
        lent = lent_cache(route, xp, yp, monkeypatch)
        with pytest.raises(GradingError, match="fails the homomorphism test"):
            _audit([zero_q(xp, yp), q], xp, yp, algorithm, lent)


@pytest.mark.parametrize("name,pair", PAIRS, ids=[name for name, _ in PAIRS])
def test_audits_build_no_cokernel_matrix(name, pair, monkeypatch):
    # No route reads a cokernel matrix (route b builds from the cokernel
    # columns), so no local cokernel a route cached has built its matrix.
    # Direct reads spans only at the relation degrees of X, so it reduces
    # no slice that is not shared with one of them: a generator degree
    # whose rows and columns below are those of a relation degree gets
    # that degree's reduced slice.
    xp, yp = pair
    if xp.is_zero_module() or yp.is_zero_module():
        pytest.skip("no route audits anything between zero modules")
    for algorithm, route in ROUTES.items():
        cache = lent_cache(route, xp, yp, monkeypatch)
        for cokernel in cache._memo.values():
            assert cokernel._matrix is None, algorithm
        if algorithm == "direct":
            audited = {_slice_indices(yp.matrix, rdeg)
                       for rdeg in xp.matrix.cols}
            for cokernel in cache._memo.values():
                if (cokernel.rows_le, cokernel.cols_le) not in audited:
                    assert cokernel._span is None and cokernel._subset is None


def test_gf2_audit_reads_stored_values_mod_2():
    """`verify_hom` is public and takes a Q built without validation.
    Over GF(2) a stored 2 is zero, so the Q whose one entry holds 2
    passes, and the ones holding 1 or 3 fail, as in the reference."""
    xp, yp = random_pair(1, d=2, gens=6, rels=6, coord_range=8, p=2)
    m, n = xp.matrix, yp.matrix

    def single(value):
        columns = [((0, value),)] + [()] * (m.nrows - 1)
        return GradedMatrix(xp.field, n.rows, m.rows, columns,
                            validate=False)

    for value, expected in ((2, True), (1, False), (3, False)):
        q = single(value)
        assert old_verify_hom(q, xp, yp) is expected
        assert verify_hom(q, xp, yp) is expected
        assert passes(q, xp, fresh_cache(xp, yp)) is expected


# -- shape check ------------------------------------------------------------


def test_q_with_wrong_decorations_is_rejected():
    xp, yp = red_blue(p=5)
    m, n = xp.matrix, yp.matrix
    fld = m.field
    bad = [
        # too few columns: Q has no column for the generator of X
        GradedMatrix(fld, n.rows, [], [], validate=False),
        # an extra row beyond the generators of Y
        GradedMatrix(
            fld, n.rows + ((0, 0),), m.rows, [((2, 1),)], validate=False
        ),
        # right shape, wrong row degrees
        GradedMatrix(
            fld, [(0, 2), (1, 0)], m.rows, [((0, 1),)], validate=False
        ),
        # transposed roles
        GradedMatrix(fld, m.rows, n.rows, [(), ()], validate=False),
    ]
    for q in bad:
        with pytest.raises(DimensionMismatchError):
            verify_hom(q, xp, yp)


def test_verify_hom_accepts_bare_matrices():
    xp, yp = red_blue(p=5)
    q = graded_matrix_from_entries(
        xp.field, yp.matrix.rows, xp.matrix.rows, {(0, 0): 1}
    )
    assert verify_hom(q, xp.matrix, yp.matrix)


# -- the bit-sliced GF(2) batch ---------------------------------------------


def old_gf2_verify(q, m, cache):
    """The per-element GF(2) loop the batch replaced: each product Q M_r
    is one packed int, reduced by `^` against the slice's pivots."""
    rels_of = _transpose(m.columns, m.nrows)
    products = {}
    for g, qcol in enumerate(q.columns):
        if qcol:
            bits = _pack(qcol)
            for r, mv in rels_of[g]:
                if mv & 1:
                    products[r] = products.get(r, 0) ^ bits
    for r in sorted(products):
        bits = products[r]
        if bits:
            pivots = cache.at(m.cols[r]).span
            while bits:
                other = pivots.get(bits.bit_length() - 1)
                if other is None:
                    return False
                bits ^= other
    return True


def old_failing_mask(elements, m, cache):
    return sum(1 << e for e, q in enumerate(elements)
               if not old_gf2_verify(q, m, cache))


def bumped(q, key):
    """Q with entry `key` = (g', g) raised by one mod p: over GF(2) the
    entry is toggled."""
    entries = entries_of(q)
    entries[key] = entries.get(key, 0) + 1
    return graded_matrix_from_entries(q.field, q.rows, q.cols, entries)


@pytest.mark.parametrize("seed,n", [(0, 40), (1, 50), (2, 60)])
def test_gf2_batch_flags_what_the_per_element_loop_rejects(seed, n):
    """On `ladder`-sized bases of every primal route, single-entry toggles
    of one element or of several at once: the batch flags exactly the
    elements the per-element loop rejects."""
    xp, yp = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=2)
    m, nm = xp.matrix, yp.matrix
    admissible = [(gp, g) for g, gdeg in enumerate(m.rows)
                  for gp, gpdeg in enumerate(nm.rows) if deg_leq(gpdeg, gdeg)]
    rng = random.Random(f"gf2-batch:{seed}")
    outcomes = set()
    for algorithm, route in ROUTES.items():
        elements = list(route(xp, yp).elements)
        cache = CokernelCache(nm)
        assert _PackedColumns.failures(
            elements, m, lambda alpha: cache.at(alpha).span) == (0, 0), \
            algorithm
        for trial in range(12):
            batch = list(elements)
            count = 1 if trial % 2 else rng.randint(2, 8)
            picked = rng.sample(range(len(batch)), count)
            for e in picked:
                batch[e] = bumped(batch[e], rng.choice(admissible))
            want = old_failing_mask(batch, m, cache)
            got = failures(batch, m, cache)
            assert got == want, (algorithm, trial)
            assert not got & ~sum(1 << e for e in picked), (algorithm, trial)
            outcomes.update(bool(got >> e & 1) for e in picked)
    assert outcomes == {True, False}


def test_gf2_batch_of_no_elements_or_zero_matrices_flags_nothing():
    xp, yp = random_pair(0, d=2, gens=40, rels=40, coord_range=60, p=2)
    cache = CokernelCache(yp.matrix)
    assert failures([], xp.matrix, cache) == 0
    zeros = [zero_q(xp, yp)] * 5
    assert failures(zeros, xp.matrix, cache) == 0
    _audit([], xp, yp, "test", cache)
    _audit(zeros, xp, yp, "test", cache)


def test_gf2_batch_flags_an_element_only_the_last_relation_rejects():
    q, xp, yp = only_last_relation_fails(p=2)
    m = xp.matrix
    assert old_failing_relations(q, xp, yp) == [m.ncols - 1]
    cache = CokernelCache(yp.matrix)
    batch = [zero_q(xp, yp), q, zero_q(xp, yp)]
    assert failures(batch, m, cache) == 0b010
    assert old_failing_mask(batch, m, cache) == 0b010
    assert not verify_hom(q, xp, yp)
    with pytest.raises(GradingError, match="fails the homomorphism test"):
        _audit(batch, xp, yp, "test", cache)


def test_gf2_verify_hom_runs_the_batch(monkeypatch):
    """At every prime the public `verify_hom` is its form's `failures` on
    [q], the audit's one membership loop: the bit-sliced batch over
    GF(2), the sorted loop over every other prime."""
    calls = []
    packed, sorted_ = _PackedColumns.failures, _SortedColumns.failures

    def packed_spy(elements, m, span_of):
        calls.append((2, len(elements)))
        return packed(elements, m, span_of)

    def sorted_spy(form, elements, m, span_of):
        calls.append((form.field.p, len(elements)))
        return sorted_(form, elements, m, span_of)

    monkeypatch.setattr(_PackedColumns, "failures", staticmethod(packed_spy))
    monkeypatch.setattr(_SortedColumns, "failures", sorted_spy)
    for p in (2, 3, 65521):
        q, xp, yp = only_last_relation_fails(p=p)
        assert not verify_hom(q, xp, yp)
        assert verify_hom(zero_q(xp, yp), xp, yp)
    assert calls == [(2, 1), (2, 1), (3, 1), (3, 1), (65521, 1), (65521, 1)]


def test_gf2_audit_checks_field_and_shape_of_each_new_object():
    """Over GF(2) `_audit` skips `_check_q` for an element whose field,
    rows and columns are the objects it last checked.  An element holding
    other objects is checked again: an equal copy passes, and a foreign
    shape or field raises as the check would on any element."""
    xp, yp = random_pair(0, d=2, gens=12, rels=12, coord_range=18, p=2)
    elements = list(hom_direct(xp, yp).elements)
    assert len(elements) >= 3
    q = elements[1]

    def variant(field=q.field, rows=q.rows):
        return GradedMatrix._trusted(field, rows, q.cols, q.columns)

    def audit(element):
        batch = elements[:1] + [element] + elements[2:]
        _audit(batch, xp, yp, "test", CokernelCache(yp.matrix))

    rows = tuple(list(q.rows))
    assert rows == q.rows and rows is not q.rows
    audit(variant(rows=rows))
    with pytest.raises(DimensionMismatchError):
        audit(variant(rows=q.rows + q.rows[:1]))
    field = PrimeField(2)
    assert field == q.field and field is not q.field
    audit(variant(field=field))
    with pytest.raises(FieldMismatchError):
        audit(variant(field=PrimeField(3)))


# -- the sorted mask at odd primes ------------------------------------------


@pytest.mark.parametrize("p", [5, 65521])
@pytest.mark.parametrize("seed,n", [(0, 40), (1, 50), (2, 60)])
def test_sorted_mask_flags_what_the_reference_rejects(seed, n, p):
    """Over GF(5) and GF(65521), on `ladder`-sized bases of every primal
    route, "+1 mod p" changes of one element or of several at once: the
    sorted form's `failures` flags exactly the elements that the
    per-element reference `old_verify_hom` rejects."""
    xp, yp = random_pair(seed, d=2, gens=n, rels=n, coord_range=3 * n // 2,
                         p=p)
    m, nm = xp.matrix, yp.matrix
    assert type(_column_form(m.field)) is _SortedColumns
    admissible = [(gp, g) for g, gdeg in enumerate(m.rows)
                  for gp, gpdeg in enumerate(nm.rows) if deg_leq(gpdeg, gdeg)]
    rng = random.Random(f"sorted-mask:{p}:{seed}")
    spans, outcomes = {}, set()
    for algorithm, route in ROUTES.items():
        elements = list(route(xp, yp).elements)
        cache = CokernelCache(nm)
        assert failures(elements, m, cache) == 0, algorithm
        for trial in range(6):
            batch = list(elements)
            count = 1 if trial % 2 else rng.randint(2, 8)
            picked = rng.sample(range(len(batch)), count)
            for e in picked:
                batch[e] = bumped(batch[e], rng.choice(admissible))
            want = sum(1 << e for e, q in enumerate(batch)
                       if not old_verify_hom(q, xp, yp, spans))
            got = failures(batch, m, cache)
            assert got == want, (algorithm, trial)
            assert not got & ~sum(1 << e for e in picked), (algorithm, trial)
            outcomes.update(bool(got >> e & 1) for e in picked)
    assert outcomes == {True, False}


# -- malformed Q ------------------------------------------------------------


def malformed_copies(p, seeds=range(40)):
    """(xp, yp, reversed, duplicated) for `hom_direct` basis elements over
    GF(p): `reversed` has one column's rows in decreasing order and
    `duplicated` one entry stored twice, both built without validation."""
    for seed in seeds:
        xp, yp = random_pair(seed, d=2, gens=5, rels=5, coord_range=6, p=p)
        for q in hom_direct(xp, yp).elements:
            for g, col in enumerate(q.columns):
                if len(col) < 2:
                    continue
                columns = list(q.columns)
                columns[g] = col[::-1]
                reversed_ = GradedMatrix(q.field, q.rows, q.cols, columns,
                                         validate=False)
                columns[g] = col[:1] + col
                duplicated = GradedMatrix(q.field, q.rows, q.cols, columns,
                                          validate=False)
                yield xp, yp, reversed_, duplicated
                break


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_verify_hom_rejects_unsorted_rows_at_every_prime(p, monkeypatch):
    """A column whose rows do not strictly increase, reversed or with an
    entry stored twice, raises UnsortedRowsError at every prime, in
    `verify_hom` before any product is formed and in `homotopy_reduce`
    before any column is reduced."""

    def never(*args):
        raise AssertionError("a product was formed or a column reduced")

    seen = 0
    for xp, yp, reversed_, duplicated in malformed_copies(p):
        with monkeypatch.context() as patch:
            patch.setattr(homspace, "_failures", never)
            patch.setattr(homspace, "_reduce_flat", never)
            for q in (reversed_, duplicated):
                with pytest.raises(UnsortedRowsError):
                    verify_hom(q, xp, yp)
                with pytest.raises(UnsortedRowsError):
                    homotopy_reduce([q], yp)
        seen += 1
    assert seen >= 10
