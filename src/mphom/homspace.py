"""Bases of Hom(X, Y) between finitely presented graded modules.

Four routes to the same vector space, given minimal presentations
M: A[R] -> A[G] of X and N: A[R'] -> A[G'] of Y:

* hom_direct      solves Q M = N P over all degree-admissible entries and
                  quotients by null-homotopies (columns of N placed into
                  the generator blocks they can hit).
* hom_restricted  restricts Q to the distinguished generator subsets of Y
                  and P to the distinguished relation subsets of the first
                  syzygy of Y, read off the reduced slices of N; lifts are
                  then unique and no homotopy quotient is needed.
* hom_mixed       restricts Q only; P stays free; homotopy quotient as in
                  the direct route.
* hom_exact       assembles the block matrix with (r, g) block
                  M_{g,r} * (structure map of Y from deg g to deg r) and
                  reads Hom off its nullspace.

The three equation-based routes share one sparse linear-system builder
that differs only in the variable-admissibility masks, so their reported
system statistics are directly comparable.  Admissibility is read from
the route's one `CokernelCache` of N: the generators and relations of Y
below a degree of X are the `rows_le` and `cols_le` of the slice there,
which is reduced only when its span or subset is first read.

Every system, solve and quotient is written once over the field's
column form (`graded._column_form`): over GF(2) a column is one int
whose bit k is row k, over every other prime a tuple of (row, value)
pairs by increasing row.  In Q M = N P relation r owns a block of rows
from `off[r]` and equation (g', r) is row `off[r] + g'`; Q variable
(g', g) is row g of M moved to the block starts and shifted by g', and
P variable (r', r) is column r' of N, negated, shifted to block r.
Route `b`'s column (g, s) sums, over the relations r of g, M_{g,r}
times the slice's cokernel column (`LocalCokernel.columns`) of
generator s of the subset at deg g, shifted to block r; the blocks are
disjoint and come in order, so over GF(2) the sum is an OR and over
every other prime a concatenation, and no route reads `structure_map`.
The grading puts every entry inside its block, and numbering the rows
by any injective map leaves the kept columns and the unique combination
that zeroes a dependent one as they are, so the numbering changes no
solution.

All four share one flat solve (`_flat_solutions`), whose nullspace
basis comes out as flat columns: the sweep records the Q variables
alone, each by its flat position, so no P variable enters a
combination; a combination is linear in its sources and which columns
are zeroed depends on the columns alone, so the Q parts are those that
recording every variable gives.  `hom_exact`'s variables are all Q
entries, in order.  A flat column stays in the column form through the
homotopy columns to the quotient, and `_q_matrices` unpacks a batch by
one form call.
`solve_seconds` times the elimination sweep alone.  `_reduce_flat`
column-reduces the equation routes' flat columns once: after the
flattened null-homotopies for `direct` and `mixed`, on their own for
`a`, whose lifts are unique; only survivors become graded matrices, and
`_q_matrices` builds only the columns a survivor touches.  The
rank that `homotopy_killed` needs is the solution count less the
solutions with Q = 0, which the ranks of N's slices at the relation
degrees of X count, so no Q column is reduced a second time.  The public
`homotopy_reduce` flattens its Q matrices and calls the same reducer,
over a `CokernelCache` of its target.

Every route's basis is audited before it is returned (`_audit`): each
element must respect the grading and be a homomorphism, both masked by
one call of the column form's `failures` on the whole basis, one pass
over its stored entries that over GF(2) bit-slices it (one int per Q
entry, bit e for element e).  The grading is compared once per (g', g)
position against the Q degrees, never through N's slices, which fix the
routes' own admissible entries; the public `verify_hom` is that call on
[Q], reading only the homomorphism mask.  Only the relations a Q
reaches are formed, and zero products pass unreduced, so the audit is
exactly as strong as checking every relation.  Each route
hands its audit the `CokernelCache` of N it built, so each distinct
slice of N (the rows and columns of N below a degree, however many
degrees of X share them) is reduced once per route whether the masks,
the cokernel columns or the audit asks for it first.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    GradingError,
    NonMinimalPresentationError,
    UnsortedRowsError,
)
from .graded import (
    GradedMatrix,
    _column_form,
    _transpose,
    deg_sub,
    validate_grading,
)
from .localalg import CokernelCache, _matrix_of
from .presentations import Presentation, kernel, minimize


@dataclass(frozen=True)
class SolveStats:
    """Shape of the linear system an algorithm solved, plus wall time.

    `solution_dim` counts presentation-morphism solutions before any
    homotopy quotient; `homotopy_killed` how many independent directions
    the quotient removed.
    """

    algorithm: str
    variables: int
    equations: int
    entries: int
    solve_seconds: float
    solution_dim: int
    homotopy_killed: int = 0

    @property
    def avg_entries(self):
        return self.entries / self.equations if self.equations else 0.0


@dataclass(frozen=True)
class HomBasis:
    """Ordered basis of Hom(X, Y) as graded matrices in K^{G' x G}."""

    elements: tuple
    coords: str
    algorithm: str
    stats: SolveStats

    @property
    def dim(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _require_minimal(pres, name):
    if not isinstance(pres, Presentation):
        raise TypeError(f"{name} must be a Presentation")
    if not pres.minimal:
        raise NonMinimalPresentationError(
            f"{name} must be a minimal presentation; call minimize() first"
        )


def _check_pair(xp, yp):
    """Validate a route's operands; True when either module is zero."""
    _require_minimal(xp, "domain")
    _require_minimal(yp, "target")
    if xp.field != yp.field:
        raise FieldMismatchError("presentations over different fields")
    dx, dy = xp.matrix.dim, yp.matrix.dim
    if dx and dy and dx != dy:
        raise DimensionMismatchError("presentations graded over different posets")
    return xp.is_zero_module() or yp.is_zero_module()


class LinearSystem:
    """The sparse system Q M = N P with pluggable admissibility masks.

    N is the matrix of `cache`, the route's `CokernelCache`.  Variables
    are the admissible entries of Q and P; there is one equation per pair
    (g', r) with g' in `cache.at(deg r).rows_le`.  Masks map a generator
    (relation) index of X to the tuple of allowed Y-side row indices, a
    subsequence of the slice's; `None` means the degree-admissible ones,
    `rows_le` (`cols_le`) of the slice at that degree.  The system
    numbers its variables and counts its equations: `q_index[k]` is the
    (g, g') entry at flat position k, generator g's block holding
    `rows_le(deg g)`, and `sources[j]` the flat position of the j-th Q
    variable, `range(len(q_index))` without a Q mask; `variables`,
    `equations` and `entries` count the variables, the equations and the
    nonzero entries of the columns.

    `columns` holds one column per variable, the Q variables in
    `sources` order and then the P variables (r', r) by r and r', in the
    field's `_column_form`.  Relation r owns a block of rows from
    `off[r]`, as wide as the largest row of `rows_le(deg r)` plus one,
    and equation (g', r) is row `off[r] + g'` at every prime, so Q
    variable (g', g) is row g of M with M_{g,r} moved to `off[r]`,
    shifted by g', and P variable (r', r) is column r' of N, negated,
    shifted by `off[r]`.  Renumbering the equations leaves the solutions
    as they are: which columns are independent of the ones before them,
    and the unique combination that zeroes a dependent one, do not
    depend on the order of the rows.
    """

    def __init__(self, xp, cache, q_mask=None, p_mask=None):
        m = xp.matrix
        self.field = fld = m.field
        self.cache = cache
        form = _column_form(fld)
        scaled, shift = form.scaled, form.shift

        width = equations = 0
        rels_of = [[] for _ in range(m.nrows)]
        minus_n = [scaled(col, -1 % fld.p) for col in cache._n_columns]
        p_columns = []
        for r, rdeg in enumerate(m.cols):
            ck = cache.at(rdeg)
            allowed = ck.cols_le if p_mask is None else p_mask[r]
            p_columns += [shift(minus_n[rp], width) for rp in allowed]
            for g, mv in m.columns[r]:
                rels_of[g].append((width, mv))
            if ck.rows_le:
                equations += len(ck.rows_le)
                width += ck.rows_le[-1] + 1
        spread = list(map(form.pack, rels_of))

        keys, sources, columns = [], [], []
        for g, gdeg in enumerate(m.rows):
            rows, start, col = cache.at(gdeg).rows_le, len(keys), spread[g]
            keys += zip(itertools.repeat(g), rows)
            if q_mask is None:
                columns += [shift(col, gp) for gp in rows]
                continue
            k = 0
            for gp in q_mask[g]:
                k = rows.index(gp, k)
                sources.append(start + k)
                columns.append(shift(col, gp))
        self.q_index = keys
        self.sources = range(len(keys)) if q_mask is None else sources
        self.columns = columns + p_columns
        self.variables = len(self.columns)
        self.equations = equations
        self.entries = sum(map(form.size, self.columns))

    def solve(self):
        """Q parts of a basis of the solution space, as flat columns.

        Each solution's Q part is one flat column in the field's
        `_column_form` over the positions of `q_index`, ready for the
        homotopy quotient without building a matrix per solution: over
        GF(2) one int whose bit k is position k, else a tuple of
        (position, value) pairs by increasing position.  Only the Q
        variables are recorded, as their `sources`; the P variables are
        reduced but enter no combination.  Solutions with Q = 0 give
        empty columns (0 or ()), so the list length is the dimension of
        the solution space.  The elimination sweep alone is timed into
        `solve_seconds`.
        """
        size = len(self.q_index)
        sources = itertools.chain(self.sources, itertools.repeat(
            size, len(self.columns) - len(self.sources)))
        cols, self.solve_seconds = _flat_solutions(
            self.columns, _column_form(self.field), sources, size)
        return cols


def _flat_index(cache, q_cols):
    """Order on the admissible Q entries (g, g'), g' in N's slice at deg g."""
    index = {}
    for g, gdeg in enumerate(q_cols):
        for gp in cache.at(gdeg).rows_le:
            index[(g, gp)] = len(index)
    return index


def _flat_solutions(columns, form, sources, size):
    """(nullspace basis of `columns` as flat columns, sweep seconds).

    Column j is variable `sources[j]`, recorded as that flat position
    when it is below `size`; the variables past `size` are solved for
    but enter no combination.  The sources below `size` must be
    distinct.  Columns and solutions are in `form`, a `_column_form`.
    """
    t0 = time.perf_counter()
    combos = form.nullspace(columns, sources, size)
    return combos, time.perf_counter() - t0


def _flatten_q(qmat, index, form):
    """The flat column, in `form`, of a caller's Q matrix, its stored
    values read mod p and the zeros dropped, as `verify_hom` reads
    them."""
    p = qmat.field.p
    return form.pack(sorted(
        (index[(g, gp)], v % p)
        for g, col in enumerate(qmat.columns) for gp, v in col if v % p))


def _homotopy_columns(cache, q_cols, form):
    """Flattened columns of N placed into each generator block they reach.

    One column per pair (r', g) with r' in the slice of N at deg(g), in
    `cache`: the g-block holds the r'-th column of N, every other block is
    zero.  These span exactly the flattened null-homotopies N H.  They
    are built in `form`, a `_column_form`: each column of N renumbered to
    the positions of the slice's rows, then shifted to the start of block
    g, which in the `_flat_index` order follows the rows of every earlier
    block.
    """
    columns, renumbered = cache.matrix.columns, form.renumbered
    out, start = [], 0
    for gdeg in q_cols:
        ck = cache.at(gdeg)
        if ck.cols_le:
            pos = ck.positions
            out += [renumbered(columns[rp], pos, start) for rp in ck.cols_le]
        start += len(ck.rows_le)
    return out


def _q_matrices(flats, keys, q_rows, q_cols, fld):
    """Graded Q matrices of flat columns in the field's column form, all
    unpacked by one call of its `unpack`: `keys[k]` is the (g, g') entry
    at flat position k.  Keys must be g-major with g' ascending inside
    each block, so every column fills in sorted row order; `q_rows` and
    `q_cols` must be tuples of degree tuples, which the matrices share.
    Only the columns a flat column touches are built; every other column
    is the shared empty tuple.
    """
    empty, out = [()] * len(q_cols), []
    for pairs in _column_form(fld).unpack(flats):
        columns = empty.copy()
        for k, v in pairs:
            g, gp = keys[k]
            columns[g] += ((gp, v),)
        out.append(GradedMatrix._trusted(fld, q_rows, q_cols,
                                         tuple(columns)))
    return out


def _reduce_flat(cols, keys, q_rows, q_cols, fld, homotopies=()):
    """Column-reduce flat Q columns after the given homotopy columns.

    Both are in the field's `_column_form`, swept once, the homotopy
    columns first.  Returns the surviving reduced columns as graded
    matrices, `keys[k]` the (g, g') entry at flat position k; only they
    are unflattened.
    """
    kept = _column_form(fld).sweep(itertools.chain(homotopies, cols))
    first = len(homotopies)
    return _q_matrices([col for j, col in kept.items() if j >= first],
                       keys, q_rows, q_cols, fld)


def homotopy_reduce(qs, yp):
    """Quotient a family of Q matrices by null-homotopies.

    Column-reduces [N-bar | flattened Qs] and returns the surviving,
    reduced Q columns as graded matrices.  Stored values are read mod p,
    as `verify_hom` reads them, so a Q whose entries are all multiples
    of p is zero.  Idempotent: the survivors have
    pivots distinct from the homotopy columns and from each other, so a
    second pass returns them unchanged.  Raises FieldMismatchError unless
    every Q shares the target's field, DimensionMismatchError unless
    every Q has the target's generator degrees as rows and one set of
    columns, GradingError for an entry against the grading, and
    UnsortedRowsError for a column of a Q whose rows do not strictly
    increase.
    """
    if not qs:
        return []
    n = _matrix_of(yp)
    q_cols = qs[0].cols
    for q in qs:
        if q.field != n.field:
            raise FieldMismatchError("Q matrix and target over different fields")
        if q.rows != n.rows or q.cols != q_cols:
            raise DimensionMismatchError(
                "Q matrices with mixed decorations or foreign rows"
            )
        _require_sorted_rows(q)
    if len({len(deg) for deg in q_cols + n.rows + n.cols}) > 1:
        raise DimensionMismatchError(
            "Q matrices and target graded over different posets"
        )
    if not all(map(validate_grading, qs)):
        raise GradingError("Q matrix with an entry against the grading")
    cache = CokernelCache(n)
    index = _flat_index(cache, q_cols)
    form = _column_form(n.field)
    return _reduce_flat(
        [_flatten_q(q, index, form) for q in qs],
        list(index),
        n.rows,
        q_cols,
        n.field,
        _homotopy_columns(cache, q_cols, form),
    )


def _check_q(q, m, n):
    """Raise unless Q maps the generators of coker M to those of coker N
    over their field."""
    if not q.field == m.field == n.field:
        raise FieldMismatchError("Q matrix and operands over different fields")
    if q.rows != n.rows or q.cols != m.rows:
        raise DimensionMismatchError(
            "Q must have the target's generator degrees as rows and the "
            f"domain's as columns; got a {q.nrows}x{q.ncols} matrix for "
            f"{n.nrows} and {m.nrows} generators"
        )


def _require_sorted_rows(q):
    """Raise UnsortedRowsError for a column of Q, built without
    validation, whose rows do not strictly increase: reversed rows or a
    row stored twice."""
    for j, col in enumerate(q.columns):
        if any(a >= b for (a, _), (b, _) in zip(col, col[1:])):
            raise UnsortedRowsError(
                f"Q column {j}: rows not strictly increasing")


def _masks(elements, m, cokernels):
    """The column form's `failures` over `cokernels`, N's CokernelCache."""
    return _column_form(m.field).failures(
        elements, m, lambda alpha: cokernels.at(alpha).span)


def _failures(elements, m, cokernels):
    """The `failing` mask alone, all that `verify_hom` reads."""
    return _masks(elements, m, cokernels)[1]


def verify_hom(q, xp, yp):
    """Does Q descend to a homomorphism coker M -> coker N?

    True iff every column of Q M lies in the column span of N at the
    corresponding relation degree (so that some P with Q M = N P exists).

    The column form's `failures` on [Q], its stored values read mod p,
    against the spans of a fresh `CokernelCache` of N; only its
    `failing` mask is read.  The grading is not checked: with
    X = A[-(0,0)], Y = A[-(1,1)] and Q = [[1]] built with
    `validate=False`, the answer is True at every prime, yet
    `hom_direct(X, Y).dim == 0`.  Check it with `validate_grading`.
    Raises FieldMismatchError unless Q, X and Y share one field,
    DimensionMismatchError unless Q has the generator degrees of Y as
    rows and those of X as columns, and UnsortedRowsError, at every
    prime, for a column of Q whose rows do not strictly increase.
    """
    m = _matrix_of(xp)
    n = _matrix_of(yp)
    _check_q(q, m, n)
    _require_sorted_rows(q)
    return not _failures((q,), m, CokernelCache(n))


def _audit(basis_elements, xp, yp, algorithm, cokernels):
    """Check every returned element: graded, and a homomorphism.

    `_check_q` runs first on every element whose field, rows or columns
    are other objects than those last checked, so all share their
    degrees; then one `failures` call over `cokernels`, the route's
    `CokernelCache` of N, masks both checks, and the first bad element
    raises, its grading checked first.  Row order is not checked, as
    `_q_matrices` sorts it.
    """
    m, n = xp.matrix, yp.matrix
    field = rows = cols = None
    for q in basis_elements:
        if q.field is not field or q.rows is not rows or q.cols is not cols:
            _check_q(q, m, n)
            field, rows, cols = q.field, q.rows, q.cols
    ungraded, failing = _masks(basis_elements, m, cokernels)
    bad = ungraded | failing
    if bad:
        first = bad & -bad
        what = ("violates the grading" if ungraded & first
                else "fails the homomorphism test")
        raise GradingError(f"{algorithm}: returned matrix {what}")


def _audited(elements, stats, xp, yp, cokernels):
    basis = HomBasis(tuple(elements), "generators", stats.algorithm, stats)
    _audit(basis.elements, xp, yp, stats.algorithm, cokernels)
    return basis


def _empty_basis(algorithm, coords="generators"):
    stats = SolveStats(algorithm, 0, 0, 0, 0.0, 0)
    return HomBasis((), coords, algorithm, stats)


def _primal_basis(algorithm, xp, yp, system, quotient):
    """Solve a route's system and reduce the Q parts of its solutions.

    With `quotient` the Q parts are reduced modulo null-homotopies and
    `homotopy_killed` counts the directions that removed, read off the
    ranks of N's slices at the relation degrees of X; without it
    (unique lifts) a plain column reduction drops dependent solutions.
    The system's `CokernelCache` of N also serves the audit.
    """
    qcols = system.solve()
    cache, fld = system.cache, xp.field
    q_rows, q_cols, keys = cache.matrix.rows, xp.matrix.rows, system.q_index
    homotopies = (
        _homotopy_columns(cache, q_cols, _column_form(fld))
        if quotient else ()
    )
    survivors = _reduce_flat(qcols, keys, q_rows, q_cols, fld, homotopies)
    killed = 0
    if quotient:
        # The solutions with Q = 0 are the (0, P) with N P = 0; column r of
        # P is free over the slice of N at deg r, so they span
        # sum_r (len(cols_le) - rank) dimensions, and the Q parts span the
        # rest of the len(qcols) solutions.
        q_zero = 0
        for rdeg in xp.matrix.cols:
            ck = cache.at(rdeg)
            q_zero += len(ck.cols_le) - len(ck.syzygy_subset)
        killed = len(qcols) - q_zero - len(survivors)
    stats = SolveStats(
        algorithm,
        system.variables,
        system.equations,
        system.entries,
        system.solve_seconds,
        solution_dim=len(qcols),
        homotopy_killed=killed,
    )
    return _audited(survivors, stats, xp, yp, cache)


def _q_mask(xp, cache):
    """Distinguished generator subsets of Y at the generator degrees of X."""
    return [cache.at(gdeg).subset for gdeg in xp.matrix.rows]


def hom_direct(xp, yp):
    """Direct computation: full system, then the homotopy quotient."""
    if _check_pair(xp, yp):
        return _empty_basis("direct")
    system = LinearSystem(xp, CokernelCache(yp.matrix))
    return _primal_basis("direct", xp, yp, system, True)


def hom_restricted(xp, yp):
    """Algorithm A: sharp restriction systems at both stages.

    Q entries live only on the distinguished generator subsets of Y at
    the generator degrees of X; P entries only on the distinguished
    relation subsets of the first syzygy of Y at the relation degrees of
    X.  Lifts are unique, so the solution space maps isomorphically onto
    Hom(X, Y) and only a plain column reduction is applied.  Both subsets
    are read off the route's one `CokernelCache` of N: the relation subset
    at a degree is the set of columns of N's slice that survive its
    reduction (`LocalCokernel.syzygy_subset`), so no presentation of the
    syzygy of Y is computed.
    """
    if _check_pair(xp, yp):
        return _empty_basis("a")
    cache = CokernelCache(yp.matrix)
    q_mask = _q_mask(xp, cache)
    p_mask = [cache.at(rdeg).syzygy_subset for rdeg in xp.matrix.cols]
    system = LinearSystem(xp, cache, q_mask=q_mask, p_mask=p_mask)
    return _primal_basis("a", xp, yp, system, False)


def hom_mixed(xp, yp):
    """Algorithm A-1/2: restrict Q only, keep P free, quotient at the end."""
    if _check_pair(xp, yp):
        return _empty_basis("mixed")
    cache = CokernelCache(yp.matrix)
    system = LinearSystem(xp, cache, q_mask=_q_mask(xp, cache))
    return _primal_basis("mixed", xp, yp, system, True)


def hom_exact(xp, yp):
    """Algorithm B: nullspace of the tensored presentation matrix.

    Builds the block matrix from ⊕_g Y_{deg g} to ⊕_r Y_{deg r} whose
    (r, g) block is M_{g,r} times the structure map of Y, read off the
    slices' cokernel columns in the field's `_column_form`, computes its
    nullspace by the flat solve of the other primal routes,
    and re-expresses each nullvector's g-component as column g of a
    graded matrix via the distinguished generator subsets.
    """
    if _check_pair(xp, yp):
        return _empty_basis("b")
    m, n = xp.matrix, yp.matrix
    fld = m.field
    cache = CokernelCache(n)
    # Variables are g-major with ascending subset rows, as `_q_matrices`
    # needs: keys[k] is the (g, g') entry of variable k.
    keys, col_offsets = [], []
    for g, gdeg in enumerate(m.rows):
        col_offsets.append(len(keys))
        for gp in cache.at(gdeg).subset:
            keys.append((g, gp))
    total = len(keys)
    row_offsets = list(itertools.accumulate(
        [cache.at(rdeg).dim for rdeg in m.cols], initial=0))
    # Column (g, s) sums, over the relations r of g, M_{g,r} times the
    # cokernel column at deg r of generator s of the subset at deg g,
    # placed in block r.  The blocks come in increasing r, so each sum
    # joins disjoint blocks in order.
    form, p = _column_form(fld), fld.p
    join, scaled, shift = form.join, form.scaled, form.shift
    columns = [form.pack(())] * total
    for r, rdeg in enumerate(m.cols):
        ck = cache.at(rdeg)
        if not ck.dim:
            continue
        images, start = ck.columns, row_offsets[r]
        for g, mv in m.columns[r]:
            c = mv % p
            if c:
                for k, gp in enumerate(cache.at(m.rows[g]).subset,
                                       col_offsets[g]):
                    columns[k] = join(columns[k],
                                      shift(scaled(images[gp], c), start))
    # The flat solve of the primal routes, every variable a Q entry.
    flats, elapsed = _flat_solutions(columns, form, range(total), total)
    elements = _q_matrices(flats, keys, n.rows, m.rows, fld)
    stats = SolveStats(
        "b", total, row_offsets[-1], sum(map(form.size, columns)), elapsed,
        solution_dim=len(flats),
    )
    return _audited(elements, stats, xp, yp, cache)


def _block_diagonal(n, shifts):
    """Presentation of ⊕_k Y[shift_k]: one copy of N per shift, with all
    degrees translated down by the shift.  Returns (rows, cols, columns)
    where basis indices are (k, original index) pairs flattened k-major."""
    rows, cols, columns = [], [], []
    for k, shift in enumerate(shifts):
        row_base = len(rows)
        for gdeg in n.rows:
            rows.append(deg_sub(gdeg, shift))
        for rdeg, col in zip(n.cols, n.columns):
            cols.append(deg_sub(rdeg, shift))
            columns.append(tuple((row_base + i, v) for i, v in col))
    return rows, cols, columns


def hom_module_presentation(xp, yp):
    """Presentation of the graded module Hom(X, Y).

    The Hilbert value at alpha is dim Hom(X, Y[alpha]); at the origin it
    is dim Hom(X, Y).  Built from the left-exact sequence
    0 -> Hom(X, Y) -> ⊕_g Y[deg g] -> ⊕_r Y[deg r]: the block map is
    lifted to the free covers, its preimage of the relation submodule is
    generated by a kernel computation, and a second kernel yields the
    relations among those generators.
    """
    if _check_pair(xp, yp):
        return Presentation(
            GradedMatrix(xp.field, [], [], [], validate=False), minimal=True
        )
    fld = xp.field
    m, n = xp.matrix, yp.matrix
    # Free cover of ⊕_g Y[deg g] and its relation columns.
    f1_rows, n1_cols, n1_columns = _block_diagonal(n, m.rows)
    f2_rows, n2_cols, n2_columns = _block_diagonal(n, m.cols)
    ng = n.nrows
    # Lift of the block map: block (r, g) is M_{g,r} times the identity.
    row_hits = _transpose(m.columns, m.nrows)
    qhat_columns = []
    for g in range(m.nrows):
        for gp in range(ng):
            col = [(r * ng + gp, mv) for r, mv in row_hits[g]]
            qhat_columns.append(tuple(sorted(col)))
    combined = GradedMatrix(
        fld,
        f2_rows,
        list(f1_rows) + list(n2_cols),
        list(qhat_columns) + list(n2_columns),
        validate=False,
    )
    k1 = kernel(combined)
    nf1 = len(f1_rows)
    cover_cols, cover_degs = [], []
    for j in range(k1.ncols):
        vpart = tuple((i, v) for i, v in k1.columns[j] if i < nf1)
        if vpart:
            cover_cols.append(vpart)
            cover_degs.append(k1.cols[j])
    second = GradedMatrix(
        fld,
        f1_rows,
        list(cover_degs) + list(n1_cols),
        list(cover_cols) + list(n1_columns),
        validate=False,
    )
    k2 = kernel(second)
    ns = len(cover_degs)
    rel_cols, rel_degs = [], []
    for j in range(k2.ncols):
        spart = tuple((i, v) for i, v in k2.columns[j] if i < ns)
        rel_cols.append(spart)
        rel_degs.append(k2.cols[j])
    raw = GradedMatrix(fld, cover_degs, rel_degs, rel_cols, validate=False)
    return minimize(Presentation(raw, minimal=False, label="hom-module"))
