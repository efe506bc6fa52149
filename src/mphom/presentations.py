"""Operations on presentations of graded modules.

A presentation is a graded matrix M: A[R] -> A[G] whose cokernel is the
module; it is minimal when no entry connects a row and a column of equal
degree (so nothing cancels) and no column lies in the span of the shifts
of the others at its own degree (so no relation is redundant).

Both column filters walk lines.  A column's head is its first d - 1
coordinates; on a line (a head degree) the active columns are those
whose head lies below it, ranked by their last coordinate.  The lines
that differ only in their last coordinate form a chain, and
`_line_sweep` carries one left-to-right column reduction along each
chain (the kernel reduction of Lesnick and Wright, arXiv:1902.05708, as
in mpfree; the chains live in `graded`): on each line it activates the
columns new there, and a zero column stays zero up the chain.  At d = 2
all lines form one chain; at d <= 1 there is one line.

`minimize` cancels equal-degree units in one pass over a heap of
candidates (`_cancel_units`), then keeps a relation when it is nonzero
on its own head's line (`_irredundant`, the distinct heads as lines).
The kernel's lines are the join closure of the heads (`_join_closure`,
enumerated chain by chain and capped at CLOSURE_CAP points); a column
first reaching zero on a line gives one generator, its combination
normalised to the line's greedy basis.  For d <= 2 the generating set
is minimal; for d >= 3 generators spanned by earlier ones are dropped
by `_irredundant` (see `kernel`).  For d = 2 this produces the usual
length-<=2 resolutions; for higher d it is correct but makes no
complexity claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter, le

from .errors import (
    DegreeOverflowError,
    DimensionMismatchError,
    EmptyPresentationError,
    FieldMismatchError,
    GradingError,
    ResourceCapError,
)
from .graded import (
    _COORD_LIMIT,
    GradedMatrix,
    _axpy,
    _check_arity,
    _column_form,
    _line_chains,
    _pairs,
    _transpose,
    column_reduce,
    deg_join,
)
from .localalg import local_cokernel

# Largest join closure `kernel` enumerates before raising ResourceCapError:
# the closure of the columns' first d - 1 coordinates, one point per line.
CLOSURE_CAP = 250_000


@dataclass(frozen=True)
class Presentation:
    """A graded matrix presenting the module coker(matrix)."""

    matrix: GradedMatrix
    minimal: bool = False
    label: str | None = None

    @property
    def field(self):
        return self.matrix.field

    @property
    def n_generators(self):
        return self.matrix.nrows

    @property
    def n_relations(self):
        return self.matrix.ncols

    @property
    def dim(self):
        return self.matrix.dim

    def is_zero_module(self):
        return self.matrix.nrows == 0


def _degree_sort_key(deg):
    # Linear extension of the coordinate-wise order: strictly smaller
    # degrees have strictly smaller coordinate sums.
    return (sum(deg), deg)


def _line_sweep(lines, heads, columns, fld, record=False):
    """Walk `lines`, given in (sum, degree) order, by chains of lines,
    carrying one column reduction along each chain; yield (line, died)
    per line on which a column becomes active, `died` as
    `_Chain.settle` returns it (on the other lines no column reaches
    zero).

    Column r, its sweep rank, has head `heads[r]` and is active on a line
    when its head lies below the line.  The lines are grouped by all but
    their last coordinate; the groups are taken in (sum, degree) order,
    so every line below a line of a later group comes first, and each
    group is walked in increasing last coordinate, which at d = 2 is one
    chain of every line.  On each line the columns that become active
    there are activated in the group's chain, one from `_line_chains`.
    """
    new_chain = _line_chains(columns, fld, record)
    ranks_of = {}
    for r, h in enumerate(heads):
        ranks_of.setdefault(h, []).append(r)
    chains = {}
    for line in lines:
        chains.setdefault(line[:-1], []).append(line)
    # (last coordinate, the rest, ranks) of each distinct head, by the
    # last coordinate.
    groups = sorted([(h[-1:], h[:-1], ranks) for h, ranks in ranks_of.items()],
                    key=itemgetter(0))
    for key in sorted(chains, key=_degree_sort_key):
        below = [(last, ranks) for last, rest, ranks in groups
                 if all(map(le, rest, key))]
        chain = new_chain()
        activate, settle = chain.activate, chain.settle
        nxt, end = 0, len(below)
        for line in chains[key]:
            top = line[-1:]
            start = nxt
            while nxt < end and below[nxt][0] <= top:
                activate(below[nxt][1])
                nxt += 1
            if nxt > start:
                yield line, settle()


def _irredundant(degrees, columns, fld):
    """Indices, increasing, of the columns left after dropping, in (sum,
    degree) order, each one that is zero or lies in the span of the
    columns kept before it of degree <= its own.  The arities of the
    degrees must already agree.

    The lines are the distinct heads h, a column's head being its first
    d - 1 coordinates.  The columns are ranked in (last coordinate, head,
    index) order, and `_line_sweep` carries one reduction along each
    chain of lines; a column is dropped when it reaches zero on its own
    head's line.  There the columns to its left are exactly those of
    degree <= its own that come before it in (sum, degree) order, and
    each dropped one lies in the span of kept ones, so the test is the
    same.
    """
    heads = [deg[:-1] for deg in degrees]
    order = sorted(range(len(degrees)), key=lambda j: (
        degrees[j][-1:], _degree_sort_key(heads[j]), j))
    ranked = [heads[j] for j in order]
    lines = sorted(set(heads), key=_degree_sort_key)
    dropped = {
        order[r]
        for line, died in _line_sweep(lines, ranked,
                                      [columns[j] for j in order], fld)
        for r, _ in died if ranked[r] == line
    }
    return [j for j in range(len(degrees)) if j not in dropped]


def _clear_row(columns, i, j, inv, p):
    """Clear row i from every column but j by adding multiples of column
    j, whose row-i entry has inverse `inv`."""
    pivot_col = columns[j]
    for k, col in enumerate(columns):
        coeff = dict(col).get(i) if k != j else None
        if coeff:
            columns[k] = _axpy(col, pivot_col, (-coeff * inv) % p, p)


def _check_degrees(distinct):
    """Check each of the distinct degrees once: mixed arities raise
    DimensionMismatchError, out-of-range coordinates DegreeOverflowError."""
    for deg in distinct:
        _check_arity(distinct[0], deg)
        if deg and max(max(deg), -min(deg)) >= _COORD_LIMIT:
            raise DegreeOverflowError(f"degree {deg} out of range")


def _cancel_units(rows, cols, columns, fld):
    """Cancel (row, column) pairs joined by an entry at equal degree
    until none is left; return the kept row ids, the kept column ids and
    the columns, renumbered to the kept rows.

    Each step takes the first unit in column-then-row order, clears its
    row from every other column by adding multiples of its column, and
    drops the row and the column.  Rows and columns keep their original
    ids until the end, so that order is the order of the ids.  A heap
    holds the (column, row) unit candidates and a row -> columns index
    finds the columns to clear; a column gets new candidates only where
    a step adds a row to it, and a popped candidate whose column no
    longer holds its row is skipped.
    """
    p = fld.p
    holders = {}  # row -> ids of the live columns holding it
    cancelled_rows, cancelled_cols = set(), set()
    heap = []
    for j, col in enumerate(columns):
        for i, _ in col:
            holders.setdefault(i, set()).add(j)
            if rows[i] == cols[j]:
                heap.append((j, i))
    heapify(heap)
    while heap:
        j, i = heappop(heap)
        if j not in holders.get(i, ()):
            continue
        pivot_col = columns[j]
        inv = fld.inv(dict(pivot_col)[i])
        for k in holders[i] - {j}:
            col = columns[k]
            new = _axpy(col, pivot_col, -dict(col)[i] * inv % p, p)
            columns[k] = new
            before = {r for r, _ in col}
            after = {r for r, _ in new}
            for r in before - after:
                holders[r].discard(k)
            for r in after - before:
                holders.setdefault(r, set()).add(k)
                if rows[r] == cols[k]:
                    heappush(heap, (k, r))
        for r, _ in pivot_col:
            holders[r].discard(j)
        cancelled_rows.add(i)
        cancelled_cols.add(j)
    kept_rows = [i for i in range(len(rows)) if i not in cancelled_rows]
    renumber = {i: k for k, i in enumerate(kept_rows)}
    kept_cols = [j for j in range(len(cols)) if j not in cancelled_cols]
    return kept_rows, kept_cols, [
        [(renumber[r], v) for r, v in columns[j]] for j in kept_cols]


def minimize(presentation):
    """Minimal presentation of an isomorphic module.

    Runs two sweeps once each: cancel (row, column) pairs joined by an
    entry at equal degree until none is left (`_cancel_units`, one pass
    over a heap of candidates), then drop the columns that the shifts of
    the columns kept before them already span at their own degree
    (`_irredundant`, one reduction carried along each chain of lines).
    That is a fixpoint: dropping columns makes no new equal-degree unit,
    and `_irredundant` run on its own output visits the kept columns in
    the same order, each against the same earlier kept columns, so it
    keeps them all.  The Hilbert function of the cokernel is unchanged.
    """
    matrix = presentation.matrix
    fld = matrix.field
    # Checked once per distinct degree, so `_irredundant` can compare
    # degrees without an arity check per pair.
    _check_degrees(list(dict.fromkeys(matrix.cols)))
    kept_rows, kept_cols, columns = _cancel_units(
        matrix.rows, matrix.cols, list(matrix.columns), fld)
    cols = [matrix.cols[j] for j in kept_cols]
    keep = _irredundant(cols, columns, fld)
    out = GradedMatrix._trusted(
        fld,
        tuple([matrix.rows[i] for i in kept_rows]),
        tuple([cols[j] for j in keep]),
        tuple([tuple(columns[j]) for j in keep]),
    )
    return Presentation(out, minimal=True, label=presentation.label)


def _join_closure(degrees):
    """Closure of a degree set under pairwise joins, in (sum, deg) order.

    A point lies in the closure exactly when it is the join of the
    degrees below it.  So the closure of the degrees' first k coordinates
    is built from that of their first k - 1, chain by chain: for each
    point g of it, walk the degrees whose first k - 1 coordinates lie
    below g in increasing k-th coordinate, joining those first
    coordinates; from the degree where the join reaches g on, each
    distinct k-th coordinate y gives the point (g, y).  That is one pass
    over the degrees per chain instead of one join per (degree, closure
    point) pair.  The degrees must share one arity and lie in range
    (`_check_degrees`).  A closure larger than CLOSURE_CAP points raises
    ResourceCapError.
    """
    distinct = list(dict.fromkeys(degrees))
    points = list(dict.fromkeys(deg[:1] for deg in distinct))
    k, arity = 1, len(distinct[0]) if distinct else 0
    while k < arity and len(points) <= CLOSURE_CAP:
        k += 1
        by_last = sorted(dict.fromkeys(deg[:k] for deg in distinct),
                         key=lambda deg: deg[-1])
        chains, points = points, []
        for g in chains:
            join = last = None
            for deg in by_last:
                prefix = deg[:-1]
                if not all(map(le, prefix, g)):
                    continue
                if join != g:
                    join = prefix if join is None else tuple(
                        map(max, join, prefix))
                    if join != g:
                        continue
                if deg[-1] != last:
                    last = deg[-1]
                    points.append(g + (last,))
            if len(points) > CLOSURE_CAP:
                break
    if len(points) > CLOSURE_CAP:
        raise ResourceCapError(
            f"join closure of the column degrees exceeds {CLOSURE_CAP} points"
        )
    return sorted(points, key=_degree_sort_key)


def kernel(matrix):
    """Graded matrix whose columns generate ker(M: A[R] -> A[G]).

    The degree-alpha slice of the kernel is the nullspace of the columns
    of degree <= alpha.  The lines are the join closure of the columns'
    heads, their first d - 1 coordinates (`_join_closure`, capped at
    CLOSURE_CAP points): for d = 2 the distinct x values, for d <= 1 one
    empty line.  The columns are ranked in (last coordinate, index)
    order, and `_line_sweep` carries one recording reduction along each
    chain of lines, those that differ only in their last coordinate; on
    line a the active columns are those whose head lies below a.  A
    column reaching zero on line a lies in the span of the columns to its
    left there, and gives one generator: degree a + (c_d(j),), column its
    normalised combination, which is the column itself plus the unique
    combination of line a's greedy basis to its left (the columns not in
    the span of those before them) that cancels it, so it does not
    depend on how the chain reached line a.  A column that already gave
    a generator on a line a' <= a gives none on a: the one at
    a' + (c_d(j),) lies below, and `_irredundant` would drop the second.

    They generate: at (a, z), each column j with c_d(j) <= z that is in
    the span of the columns to its left on line a has a generator of
    degree <= (a, z) whose last column in the rank order is j, so these
    span the nullspace of the slice.  For d <= 2 the lines form one
    chain, each column gives at most one generator, and the set is
    minimal.  For d >= 3 a column can first vanish on incomparable lines,
    so each generator spanned by earlier ones of degree <= its own is
    dropped by `_irredundant`, the line sweep with which `minimize` drops
    redundant relations.  New generators carry no unit entry at an
    equal-degree column when the input presentation is minimal, so
    resolutions built from this kernel stay minimal.
    """
    fld = matrix.field
    cols = matrix.cols
    if not cols:
        return GradedMatrix._trusted(fld, cols, (), ())
    _check_degrees(list(dict.fromkeys(cols)))
    order = sorted(range(len(cols)), key=lambda j: (cols[j][-1:], j))
    heads = [cols[j][:-1] for j in order]
    found = []  # (degree, column index, sparse column)
    gave = {}  # column index -> the lines it gave a generator on
    for line, died in _line_sweep(
            _join_closure(list(dict.fromkeys(heads))), heads,
            [matrix.columns[j] for j in order], fld, record=True):
        for r, combo in died:
            j = order[r]
            lines = gave.setdefault(j, [])
            if any(all(map(le, earlier, line)) for earlier in lines):
                continue
            lines.append(line)
            found.append((line + cols[j][-1:], j, tuple(sorted(
                [(order[k], v) for k, v in _pairs(combo)]))))
    found.sort(key=lambda g: (_degree_sort_key(g[0]), g[1]))
    degrees = [g[0] for g in found]
    columns = [g[2] for g in found]
    if len(cols[0]) >= 3:
        keep = _irredundant(degrees, columns, fld)
        degrees = [degrees[k] for k in keep]
        columns = [columns[k] for k in keep]
    return GradedMatrix._trusted(fld, cols, tuple(degrees), tuple(columns))


@dataclass(frozen=True)
class Resolution:
    """A chain of graded matrices d_1, d_2, ... with d_k d_{k+1} = 0.

    The composite is checked column by column without building it: each
    column of d_{k+1} is combined from the columns of d_k in the field's
    `_column_form` (packed ints XORed over GF(2), sparse columns added by
    `_axpy` at every other prime), and the first nonzero one raises
    GradingError.
    """

    differentials: tuple

    def __post_init__(self):
        diffs = self.differentials
        for k in range(len(diffs) - 1):
            a, b = diffs[k], diffs[k + 1]
            if a.cols != b.rows:
                raise DimensionMismatchError(
                    f"stage {k + 1}: rows of d_{k + 2} differ from cols of d_{k + 1}"
                )
            if a.field != b.field:
                raise FieldMismatchError("matrix product over different fields")
            form = _column_form(a.field)
            packed = [form.pack(col) for col in a.columns]
            if any(form.combine(packed, col) for col in b.columns):
                raise GradingError(f"d_{k + 1} * d_{k + 2} != 0")

    @property
    def length(self):
        return len(self.differentials)

    @property
    def last(self):
        return self.differentials[-1]


def free_resolution(presentation):
    """Minimal free resolution d_1 = M, d_{k+1} = kernel(d_k).

    Stops when a kernel vanishes.  For minimal inputs the Hilbert syzygy
    theorem bounds the number of differentials by max(d, 1), so no kernel
    is computed past that many: the last differential must instead be
    injective, which one non-recording sweep over its columns in the
    field's `_column_form` tests; a zeroed column raises GradingError.

    That is the same test as an empty kernel.  Write the last
    differential as f: F -> G, F the sum of the A[-a_j], and let omega be
    the join of the a_j.  At omega and above every summand of F is
    one-dimensional, so f is there the plain matrix of its columns.  The
    structure maps of the free modules F and G are injective, and f
    commutes with them, so an x in F_alpha with f(x) = 0 maps to a
    nonzero element of F at the join of alpha and omega, when x is
    nonzero, that f also sends to zero.  So f is injective at every
    degree exactly when it is at omega, that is, when its columns, read
    as plain vectors, are linearly independent; this holds at every d
    and every prime.
    """
    pres = presentation if presentation.minimal else minimize(presentation)
    d = pres.matrix.dim
    diffs = [pres.matrix]
    while len(diffs) < max(d, 1):
        nxt = kernel(diffs[-1])
        if nxt.ncols == 0:
            break
        diffs.append(nxt)
    else:
        last = diffs[-1]
        form = _column_form(last.field)
        if len(form.sweep(map(form.pack, last.columns))) < last.ncols:
            raise GradingError(
                f"resolution does not terminate at the syzygy bound {d}"
            )
    return Resolution(tuple(diffs))


def truncation_bound(*presentations):
    """Shared truncation degree: coordinate-wise max of all generator and
    relation degrees of the operands, plus one on every axis.  Operands
    with no degree at all raise EmptyPresentationError."""
    join = None
    for pres in presentations:
        m = getattr(pres, "matrix", pres)
        for deg in m.rows + m.cols:
            join = deg if join is None else deg_join(join, deg)
    if join is None:
        raise EmptyPresentationError(
            "cannot bound a family of empty presentations"
        )
    return tuple(c + 1 for c in join)


def truncate(presentation, omega):
    """Presentation of the module cut off above omega.

    Adds, for each generator g and each axis i, a relation killing g at
    the degree obtained from deg(g) by replacing coordinate i with
    omega_i; the result is minimized.  Requires omega to have the
    presentation's arity (DimensionMismatchError) and to dominate each of
    its degrees (GradingError).  The widened matrix shares the input's
    tuples and is not validated again: a new relation has one unit entry
    at its generator, and its degree, omega on one axis and the
    generator's degree on the others, lies above that generator's.
    `minimize` checks every column degree once, so a coordinate of omega
    out of range still raises DegreeOverflowError.
    """
    matrix = presentation.matrix
    omega = tuple(omega)
    degrees = dict.fromkeys(matrix.rows + matrix.cols)
    if degrees and len(omega) != matrix.dim:
        raise DimensionMismatchError("truncation bound has wrong arity")
    for deg in degrees:
        if not all(map(le, deg, omega)):
            raise GradingError(
                f"truncation bound {omega} does not dominate degree {deg}"
            )
    cols = list(matrix.cols)
    columns = list(matrix.columns)
    for g, gdeg in enumerate(matrix.rows):
        unit = ((g, 1),)
        for axis, bound in enumerate(omega):
            cols.append(gdeg[:axis] + (bound,) + gdeg[axis + 1:])
            columns.append(unit)
    widened = GradedMatrix._trusted(matrix.field, matrix.rows, tuple(cols),
                                    tuple(columns))
    return minimize(
        Presentation(widened, minimal=False, label=presentation.label)
    )


def matlis_transpose_shift(matrix):
    """Transpose with all degrees negated and shifted by the all-ones vector.

    Rows and columns swap roles; applying the operation twice returns the
    original matrix.  Used to turn the last stage of a projective
    resolution into a presentation of the Matlis dual.  The transpose of
    a valid matrix is valid (entries keep their values, columns come out
    sorted, and negating reverses the order), so the result is built
    with `GradedMatrix._trusted`.  Each distinct degree is negated and
    shifted once, and a shifted degree out of range raises
    DegreeOverflowError.
    """
    shifted = dict.fromkeys(matrix.rows + matrix.cols)
    for deg in shifted:
        out = tuple([1 - c for c in deg])
        if out and max(max(out), -min(out)) >= _COORD_LIMIT:
            raise DegreeOverflowError(f"shift {out} exceeds coordinate bounds")
        shifted[deg] = out
    return GradedMatrix._trusted(
        matrix.field,
        tuple(map(shifted.__getitem__, matrix.cols)),
        tuple(map(shifted.__getitem__, matrix.rows)),
        tuple(_transpose(matrix.columns, matrix.nrows)),
    )


def sparsify(presentation):
    """Re-express relations so every column has <= thick(X) + 1 entries.

    Works batch by batch over equal-degree groups of relations.  A batch
    at omega is read in the subset basis of the local cokernel, at omega,
    of the other relations: the input is minimal, so the batch has no
    entry at a generator of degree omega, and every other relation below
    omega has entries only at generators of smaller degree, so the batch's
    coordinates lie on subset generators of smaller degree.  Those
    coordinate columns are brought to reduced column echelon form and
    written back.  Batches already inside the bound are left untouched.
    The module, its Hilbert function, and minimality are preserved.
    """
    if not presentation.minimal:
        presentation = minimize(presentation)
    matrix = presentation.matrix
    fld = matrix.field
    columns = [list(c) for c in matrix.columns]
    groups = {}
    for j, deg in enumerate(matrix.cols):
        groups.setdefault(deg, []).append(j)

    for omega in sorted(groups, key=_degree_sort_key):
        batch = groups[omega]
        rest = [j for j, deg in enumerate(matrix.cols) if deg != omega]
        ck = local_cokernel(GradedMatrix._trusted(
            fld,
            matrix.rows,
            tuple([matrix.cols[j] for j in rest]),
            tuple([tuple(columns[j]) for j in rest]),
        ), omega)
        dim_x = ck.dim - len(batch)
        if all(len(columns[j]) <= dim_x + 1 for j in batch):
            continue
        coordinates = []
        for j in batch:
            coords = ck.coordinates(columns[j])
            col = [(g, v) for g, v in zip(ck.subset, coords) if v]
            if any(matrix.rows[g] == omega for g, _ in col):
                raise GradingError(
                    "batch relation class escapes the lower-generator span"
                )
            coordinates.append(col)
        echelon = _reduced_column_echelon(coordinates, fld)
        for slot, j in enumerate(batch):
            if not echelon[slot]:
                raise GradingError(
                    "dependent relation batch; presentation was not minimal"
                )
            columns[j] = echelon[slot]
            if len(columns[j]) > dim_x + 1:
                raise GradingError("sparsification exceeded the entry bound")
    out = GradedMatrix(fld, matrix.rows, matrix.cols, columns, validate=False)
    return Presentation(out, minimal=True, label=presentation.label)


def _reduced_column_echelon(columns, fld):
    """Reduced column echelon form: unit pivots, pivot rows cleared in
    sweep order; a column dependent on earlier ones comes back empty."""
    p = fld.p
    span = column_reduce(columns, fld)
    work = [[] for _ in columns]
    for entry in span.reduced:
        work[entry.source] = [(r, v * entry.inv % p) for r, v in entry.column]
    for entry in span.reduced:
        _clear_row(work, entry.pivot, entry.source, 1, p)
    return work
