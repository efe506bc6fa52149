"""Operations on presentations of graded modules.

A presentation is a graded matrix M: A[R] -> A[G] whose cokernel is the
module; it is minimal when no entry connects a row and a column of equal
degree (so nothing cancels) and no column lies in the span of the shifts
of the others at its own degree (so no relation is redundant).

Both column filters walk lines.  A column's head is its first d - 1
coordinates; on a line (a head degree) the columns whose head lies below
it are reduced in order of their last coordinate.  Over GF(2) the
columns are packed into ints once per call and reduced by `_Gf2Span` on
every line; over other primes `ColumnSpan` reduces them (`_line_span`).
`minimize` keeps a relation when it enlarges the span on its own line,
one rank-only sweep per distinct head (`_irredundant`).  The kernel makes
one recording sweep per point of the join closure of the heads, and a
column's first zeroing on a line gives one generator.  For d <= 2 the
lines form a chain and the generating set is minimal; for d >= 3
generators spanned by earlier ones are dropped by `_irredundant` (see
`kernel`).  The closure is enumerated once per distinct head, joining it
with the points found so far, and is capped at CLOSURE_CAP points.  For
d = 2 this produces the usual length-<=2 resolutions; for higher d it is
correct but makes no complexity claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .errors import (
    DegreeOverflowError,
    DimensionMismatchError,
    GradingError,
    ResourceCapError,
)
from .graded import (
    _COORD_LIMIT,
    ColumnSpan,
    GradedMatrix,
    _axpy,
    _Gf2Span,
    _check_arity,
    _transpose,
    column_reduce,
    deg_add,
    deg_join,
    deg_leq,
    deg_neg,
    matmul,
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


def _equal_degree_unit(rows, cols, columns):
    """First (row, column, value) entry, column by column, joining a row
    and a column of equal degree; None when there is none."""
    for j, col in enumerate(columns):
        for i, v in col:
            if rows[i] == cols[j]:
                return i, j, v
    return None


def _line_span(fld):
    """(span type, column packing) of the line sweeps over fld: over GF(2)
    `_Gf2Span`, whose columns a sweep packs once per call and reuses on
    every line, else `ColumnSpan` on the columns as tuples."""
    if fld.p == 2:
        return _Gf2Span, _Gf2Span.pack
    return ColumnSpan, tuple


def _irredundant(degrees, columns, fld):
    """Indices, increasing, of the columns left after dropping, in (sum,
    degree) order, each one that is zero or lies in the span of the
    columns kept before it of degree <= its own.  The arities of the
    degrees must already agree.

    One rank-only sweep per distinct head h: walking the columns in (last
    coordinate, head, index) order up to the last one of head h, a fresh
    span takes each one of head <= h, and keeps those of head h that
    enlarge it.  On line head(j) the columns before j are exactly those
    of degree <= deg j before j in (sum, degree) order, and each dropped
    one lies in the span of kept ones, so the test is the same.  Over
    GF(2) the span is a `_Gf2Span` and each column is packed once for all
    lines (`_line_span`); over other primes it is a `ColumnSpan`.
    """
    span_type, pack = _line_span(fld)
    heads = list(dict.fromkeys(deg[:-1] for deg in degrees))
    head_of = {h: i for i, h in enumerate(heads)}
    order = sorted(range(len(degrees)), key=lambda j: (
        degrees[j][-1:], _degree_sort_key(degrees[j][:-1]), j))
    sweep = [(j, head_of[degrees[j][:-1]], pack(columns[j])) for j in order]
    last = {h: pos for pos, (_, h, _) in enumerate(sweep)}
    keep = []
    for line, stop in last.items():
        below = [all(map(le, h, heads[line])) for h in heads]
        span = span_type(fld)
        for j, h, column in sweep[:stop + 1]:
            if below[h] and span.insert(column) and h == line:
                keep.append(j)
    return sorted(keep)


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


def minimize(presentation):
    """Minimal presentation of an isomorphic module.

    Runs two sweeps once each: cancel (row, column) pairs joined by an
    entry at equal degree until none is left (`_clear_row`), then drop
    the columns that the shifts of the columns kept before them already
    span at their own degree (`_irredundant`, one rank-only sweep per
    line).  That is a fixpoint: dropping columns makes no new
    equal-degree unit, and `_irredundant` run on its own output visits
    the kept columns in the same order, each against the same earlier
    kept columns, so it keeps them all.  The Hilbert function of the
    cokernel is unchanged.
    """
    matrix = presentation.matrix
    fld = matrix.field
    p = fld.p
    rows = list(matrix.rows)
    cols = list(matrix.cols)
    columns = [list(c) for c in matrix.columns]
    # Checked once per distinct degree, so `_irredundant` can compare
    # degrees without an arity check per pair.
    _check_degrees(list(dict.fromkeys(cols)))

    while (hit := _equal_degree_unit(rows, cols, columns)) is not None:
        i, j, v = hit
        _clear_row(columns, i, j, fld.inv(v), p)
        # Drop row i and column j (the only one still holding row i),
        # renumbering entries above i.
        del columns[j]
        del cols[j]
        del rows[i]
        for k, col in enumerate(columns):
            columns[k] = [(r - 1 if r > i else r, w) for r, w in col]

    keep = _irredundant(cols, columns, fld)
    out = GradedMatrix(
        fld,
        rows,
        [cols[j] for j in keep],
        [tuple(columns[j]) for j in keep],
        validate=False,
    )
    return Presentation(out, minimal=True, label=presentation.label)


def _join_closure(degrees):
    """Closure of a degree set under pairwise joins, in (sum, deg) order.

    Enumerated one distinct degree at a time: the closure of S + {g} is
    the closure of S, plus g, plus g joined with each point of it.  That
    is exact for every d because the join is associative, commutative and
    idempotent, and costs one join per (distinct degree, closure point)
    pair, about n * |closure| in all.  The degrees must share one arity
    and lie in range (`_check_degrees`).  A closure larger than
    CLOSURE_CAP points raises ResourceCapError.
    """
    closure = set()
    for deg in dict.fromkeys(degrees):
        if deg in closure:
            continue
        closure.update([tuple(map(max, deg, c)) for c in closure])
        closure.add(deg)
        if len(closure) > CLOSURE_CAP:
            raise ResourceCapError(
                f"join closure of the column degrees exceeds "
                f"{CLOSURE_CAP} points"
            )
    return sorted(closure, key=_degree_sort_key)


def kernel(matrix):
    """Graded matrix whose columns generate ker(M: A[R] -> A[G]).

    The degree-alpha slice of the kernel is the nullspace of the columns
    of degree <= alpha.  It is read off one recording column sweep per
    line.  The lines are the join closure of the columns' first d - 1
    coordinates (`_join_closure`, capped at CLOSURE_CAP points): for d = 2
    the distinct x values, for d <= 1 one empty line.  They are walked in
    (sum, degree) order.  On line a, a fresh span takes the columns whose
    first d - 1 coordinates lie below a, in (last coordinate, index)
    order: over GF(2) a `_Gf2Span`, on columns packed once for all lines
    (`_line_span`), else a `ColumnSpan`.  Both record the same zeroed
    combinations.  A column zeroed on a line a' <= a is zeroed again on a
    (the columns before it there are a superset), so line a skips it,
    which leaves its span unchanged.  A column the span zeroes gives one
    generator: degree a + (c_d(j),), column the recorded dependency.

    They generate: at (a, z), each column j with c_d(j) <= z that line a
    zeroes or skips has a generator of degree <= (a, z) whose last column
    in line a's order is j, so these span the nullspace of the slice.  For
    d <= 2 the lines form a chain, each column gives at most one
    generator, and the set is minimal.  For d >= 3 a column can first
    vanish on incomparable lines, so each generator spanned by earlier
    ones of degree <= its own is dropped by `_irredundant`, the line
    sweep with which `minimize` drops redundant relations.  New generators
    carry no unit entry at an equal-degree column when the input
    presentation is minimal, so resolutions built from this kernel stay
    minimal.
    """
    fld = matrix.field
    cols = matrix.cols
    if not cols:
        return GradedMatrix(fld, cols, [], [], validate=False)
    _check_degrees(list(dict.fromkeys(cols)))
    span_type, pack = _line_span(fld)
    heads = list(dict.fromkeys(c[:-1] for c in cols))
    head_of = {h: i for i, h in enumerate(heads)}
    order = sorted(range(len(cols)), key=lambda j: (cols[j][-1:], j))
    sweep = [(j, head_of[cols[j][:-1]], pack(matrix.columns[j]))
             for j in order]
    found = []  # (degree, column index, sparse column)
    gave = []  # (line, the columns that gave a generator on it)
    for line in _join_closure(heads):
        below = [all(map(le, h, line)) for h in heads]
        dead = set()
        for earlier, js in gave:
            if all(map(le, earlier, line)):
                dead.update(js)
        span = span_type(fld)
        zeroed = []
        for j, h, column in sweep:
            if not below[h] or j in dead:
                continue
            if not span.insert(column, source=j, record=True):
                zeroed.append(j)
                combo = span.combination(span.zeroed[-1][1])
                found.append((line + cols[j][-1:], j, combo))
        if zeroed:
            gave.append((line, zeroed))
    found.sort(key=lambda g: (_degree_sort_key(g[0]), g[1]))
    degrees = [g[0] for g in found]
    columns = [g[2] for g in found]
    if len(cols[0]) >= 3:
        keep = _irredundant(degrees, columns, fld)
        degrees = [degrees[k] for k in keep]
        columns = [columns[k] for k in keep]
    return GradedMatrix(fld, cols, degrees, columns, validate=False)


@dataclass(frozen=True)
class Resolution:
    """A chain of graded matrices d_1, d_2, ... with d_k d_{k+1} = 0."""

    differentials: tuple

    def __post_init__(self):
        diffs = self.differentials
        for k in range(len(diffs) - 1):
            if diffs[k].cols != diffs[k + 1].rows:
                raise DimensionMismatchError(
                    f"stage {k + 1}: rows of d_{k + 2} differ from cols of d_{k + 1}"
                )
            product = matmul(diffs[k], diffs[k + 1])
            if product.nnz():
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
    theorem bounds the number of differentials by max(d, 1); a resolution
    that would grow past it raises GradingError.
    """
    pres = presentation if presentation.minimal else minimize(presentation)
    d = pres.matrix.dim
    diffs = [pres.matrix]
    while True:
        nxt = kernel(diffs[-1])
        if nxt.ncols == 0:
            break
        if len(diffs) >= max(d, 1):
            raise GradingError(
                f"resolution does not terminate at the syzygy bound {d}"
            )
        diffs.append(nxt)
    return Resolution(tuple(diffs))


def truncation_bound(*presentations):
    """Shared truncation degree: coordinate-wise max of all generator and
    relation degrees of the operands, plus one on every axis."""
    join = None
    for pres in presentations:
        m = getattr(pres, "matrix", pres)
        for deg in m.rows + m.cols:
            join = deg if join is None else deg_join(join, deg)
    if join is None:
        raise ValueError("cannot bound a family of empty presentations")
    return tuple(c + 1 for c in join)


def truncate(presentation, omega):
    """Presentation of the module cut off above omega.

    Adds, for each generator g and each axis i, a relation killing g at
    the degree obtained from deg(g) by replacing coordinate i with
    omega_i; the result is minimized.  Requires omega to dominate every
    degree of the presentation.
    """
    matrix = presentation.matrix
    omega = tuple(omega)
    if matrix.dim and len(omega) != matrix.dim:
        raise DimensionMismatchError("truncation bound has wrong arity")
    for deg in matrix.rows + matrix.cols:
        if not deg_leq(deg, omega):
            raise GradingError(
                f"truncation bound {omega} does not dominate degree {deg}"
            )
    cols = list(matrix.cols)
    columns = [list(c) for c in matrix.columns]
    for g, gdeg in enumerate(matrix.rows):
        for axis in range(len(omega)):
            rho = tuple(
                omega[axis] if k == axis else gdeg[k]
                for k in range(len(omega))
            )
            cols.append(rho)
            columns.append([(g, 1)])
    widened = GradedMatrix(matrix.field, matrix.rows, cols, columns)
    return minimize(
        Presentation(widened, minimal=False, label=presentation.label)
    )


def matlis_transpose_shift(matrix):
    """Transpose with all degrees negated and shifted by the all-ones vector.

    Rows and columns swap roles; applying the operation twice returns the
    original matrix.  Used to turn the last stage of a projective
    resolution into a presentation of the Matlis dual.
    """
    ones = (1,) * matrix.dim if matrix.dim else ()
    new_rows = [deg_add(deg_neg(c), ones) for c in matrix.cols]
    new_cols = [deg_add(deg_neg(r), ones) for r in matrix.rows]
    transposed = _transpose(matrix.columns, matrix.nrows)
    return GradedMatrix(matrix.field, new_rows, new_cols, transposed)


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
