"""Operations on presentations of graded modules.

A presentation is a graded matrix M: A[R] -> A[G] whose cokernel is the
module; it is minimal when no entry connects a row and a column of equal
degree (so nothing cancels) and no column lies in the span of the shifts
of the others at its own degree (so no relation is redundant).

The kernel routine works degree by degree over the join closure of the
column degrees: at each degree, nullspace vectors of the column slice that
are not generated by earlier kernel elements become new generators.  The
closure is enumerated once per distinct column degree, joining it with the
points found so far (about n * |closure| joins for n columns), and is
capped at CLOSURE_CAP points.  For d = 2 one rank-only sweep per distinct
column x-coordinate gives the kernel dimension at every closure point, and
only the points where that count shows new generators are reduced (see
`kernel`); for other d every closure point is reduced from scratch.  For
d = 2 this produces the usual length-<=2 resolutions; for higher d it is
correct but makes no complexity claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .errors import DimensionMismatchError, GradingError, ResourceCapError
from .graded import (
    ColumnSpan,
    GradedMatrix,
    _axpy,
    _lift_through,
    _transpose,
    column_reduce,
    deg_add,
    deg_join,
    deg_leq,
    deg_neg,
    matmul,
    nullspace_of_columns,
)
from .localalg import local_cokernel

# Largest join closure `kernel` enumerates before raising ResourceCapError.
# The largest closure in the test suite and the benchmark pools has 651
# points, and a Hom-module presentation at 20 generators reaches 2099.
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


def minimize(presentation):
    """Minimal presentation of an isomorphic module.

    Alternates two sweeps to a fixpoint: cancel (row, column) pairs joined
    by an entry at equal degree, and drop columns that the shifts of the
    other columns already span at their own degree.  The Hilbert function
    of the cokernel is unchanged.
    """
    matrix = presentation.matrix
    fld = matrix.field
    p = fld.p
    rows = list(matrix.rows)
    cols = list(matrix.cols)
    columns = [list(c) for c in matrix.columns]

    def cancel_units():
        changed = False
        while True:
            hit = _equal_degree_unit(rows, cols, columns)
            if hit is None:
                return changed
            i, j, v = hit
            inv = fld.inv(v)
            pivot_col = columns[j]
            for k, col in enumerate(columns):
                coeff = dict(col).get(i) if k != j else None
                if coeff:
                    columns[k] = _axpy(col, pivot_col, (-coeff * inv) % p, p)
            # Drop row i and column j, renumbering entries above i.
            del columns[j]
            del cols[j]
            del rows[i]
            for k, col in enumerate(columns):
                columns[k] = [
                    (r - 1 if r > i else r, w) for r, w in col if r != i
                ]
            changed = True

    def drop_redundant():
        changed = False
        order = sorted(range(len(cols)), key=lambda j: _degree_sort_key(cols[j]))
        keep = []
        kept_flags = [False] * len(cols)
        for j in order:
            usable = [k for k in keep if deg_leq(cols[k], cols[j])]
            span = column_reduce([tuple(columns[k]) for k in usable], fld)
            if not columns[j] or span.contains(columns[j]):
                changed = True
                continue
            keep.append(j)
            kept_flags[j] = True
        if changed:
            survivors = [j for j in range(len(cols)) if kept_flags[j]]
            cols[:] = [cols[j] for j in survivors]
            columns[:] = [columns[j] for j in survivors]
        return changed

    while True:
        c1 = cancel_units()
        c2 = drop_redundant()
        if not (c1 or c2):
            break

    out = GradedMatrix(
        fld,
        rows,
        cols,
        [tuple(c) for c in columns],
        validate=False,
    )
    return Presentation(out, minimal=True, label=presentation.label)


def _join_closure(degrees):
    """Closure of a degree set under pairwise joins, in (sum, deg) order.

    Enumerated one distinct degree at a time: the closure of S + {g} is
    the closure of S, plus g, plus g joined with each point of it.  That
    is exact for every d because the join is associative, commutative and
    idempotent, and costs one join per (distinct degree, closure point)
    pair, about n * |closure| in all.  Arity and coordinate range are
    checked once per distinct degree, so mixed arities raise
    DimensionMismatchError and out-of-range coordinates raise
    DegreeOverflowError.  A closure larger than CLOSURE_CAP points raises
    ResourceCapError.
    """
    distinct = list(dict.fromkeys(tuple(d) for d in degrees))
    closure = set()
    for deg in distinct:
        deg_join(distinct[0], deg)  # arity
        deg_join(deg, deg)  # coordinate range
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


def _generator_points_2d(matrix, closure):
    """Closure points of a d=2 matrix at which `kernel` adds generators.

    K(x, y) is the nullspace of the columns of degree <= (x, y).  One
    rank-only sweep per distinct column x-coordinate x inserts the columns
    with c_x <= x in (c_y, index) order, so dim K(x, y) is the number of
    columns zeroed among those with c_y <= y.  Below a closure point
    alpha = (x, y) the earlier generators span K(x-, y) + K(x, y-), where
    x- and y- are the previous column coordinates (K is 0 when there is
    none); its dimension is dim K(x-, y) + dim K(x, y-) - dim K(x-, y-),
    because K(x-, y) and K(x, y-) intersect in K(x-, y-).  The point adds
    generators exactly when dim K(alpha) exceeds that, a second difference
    of the swept nullities.  (For d >= 3 three subspaces meet and
    inclusion-exclusion fails, so this is d = 2 only.)
    """
    fld = matrix.field
    cols = matrix.cols
    xs = sorted({c[0] for c in cols})
    ys = sorted({c[1] for c in cols})
    by_y = sorted(range(len(cols)), key=lambda j: (cols[j][1], j))
    nullity = {}  # (x, y) -> dim K(x, y) at column coordinates
    for x in xs:
        span = ColumnSpan(fld)
        zeroed = 0
        for j in by_y:
            if cols[j][0] <= x and span.insert(matrix.columns[j]) is None:
                zeroed += 1
            # Columns come in c_y order, so the last write per y counts
            # every column with c_y <= y.
            nullity[x, cols[j][1]] = zeroed
    prev_x = dict(zip(xs[1:], xs))
    prev_y = dict(zip(ys[1:], ys))
    points = []
    for x, y in closure:
        # A missing previous coordinate is None, never a key: K = 0 there.
        xm, ym = prev_x.get(x), prev_y.get(y)
        if (nullity[x, y] - nullity.get((xm, y), 0)
                - nullity.get((x, ym), 0) + nullity.get((xm, ym), 0)):
            points.append((x, y))
    return points


def kernel(matrix):
    """Graded matrix whose columns generate ker(M: A[R] -> A[G]).

    At each degree alpha in the join closure of the column degrees, the
    degree-alpha slice of the kernel is the nullspace of the columns of
    degree <= alpha; generators are the nullspace vectors not spanned by
    shifts of generators found at earlier degrees.  New generators carry
    no unit entry at an equal-degree column when the input presentation
    is minimal, so resolutions built from this kernel stay minimal.

    Cost: building the closure takes about n * |closure| joins (see
    `_join_closure`).  For d = 2, one rank-only sweep per distinct column
    x-coordinate (about n inserts each) finds the closure points that add
    generators (see `_generator_points_2d`); only those are reduced, and
    the generators are the ones the full loop finds, since it adds none
    at the other points.  For other d every closure point is reduced.  A
    reduced point reduces, from scratch, the columns below it and the
    earlier generators below it; nullspace vectors are reduced against
    those generators only until they span the nullspace.
    """
    fld = matrix.field
    n = matrix.ncols
    if n == 0:
        return GradedMatrix(fld, matrix.cols, [], [], validate=False)
    cols = matrix.cols
    points = _join_closure(cols)
    if len(points[0]) == 2:
        points = _generator_points_2d(matrix, points)
    generators = []  # (degree, sparse column over the column indices of M)
    for alpha in points:
        # Every degree here has alpha's arity (the closure checked it).
        cols_le = [j for j in range(n) if all(map(le, cols[j], alpha))]
        if not cols_le:
            continue
        combos = nullspace_of_columns(
            [matrix.columns[j] for j in cols_le], fld
        )
        if not combos:
            continue
        span = ColumnSpan(fld)
        for gdeg, gcol in generators:
            if all(map(le, gdeg, alpha)):
                span.insert(gcol)
        for combo in combos:
            # The span lies in this nullspace; once it has the nullspace's
            # dimension, every remaining combo would reduce to zero.
            if span.rank == len(combos):
                break
            vec = tuple(sorted((cols_le[k], v) for k, v in combo.items()))
            residual = span.reduce_vector(vec)
            if residual:
                residual = tuple(residual)
                generators.append((alpha, residual))
                span.insert(residual)
    return GradedMatrix(
        fld,
        matrix.cols,
        [deg for deg, _ in generators],
        [col for _, col in generators],
        validate=False,
    )


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


def free_resolution(presentation, length=None):
    """Minimal free resolution d_1 = M, d_{k+1} = kernel(d_k).

    Stops early when a kernel vanishes; `length` caps the number of
    differentials (default d + 1, which the Hilbert syzygy theorem makes
    unreachable for minimal inputs).
    """
    pres = presentation if presentation.minimal else minimize(presentation)
    d = pres.matrix.dim
    diffs = [pres.matrix]
    while True:
        if length is not None and len(diffs) >= length:
            break
        nxt = kernel(diffs[-1])
        if nxt.ncols == 0:
            break
        if length is None and len(diffs) >= max(d, 1):
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

    Works batch by batch over equal-degree groups of relations: the batch
    classes are lifted to coordinates in a basis of the local slice built
    from generators of strictly smaller degree (they span everything the
    batch can hit), brought to reduced column echelon form, and written
    back.  Batches already inside the bound are left untouched.  The
    module, its Hilbert function, and minimality are preserved.
    """
    if not presentation.minimal:
        presentation = minimize(presentation)
    matrix = presentation.matrix
    fld = matrix.field
    columns = [list(c) for c in matrix.columns]
    cols = list(matrix.cols)
    groups = {}
    for j, deg in enumerate(cols):
        groups.setdefault(deg, []).append(j)

    for omega in sorted(groups, key=_degree_sort_key):
        batch = groups[omega]
        k = len(batch)
        in_batch = set(batch)
        others = [j for j in range(len(cols)) if j not in in_batch]
        rest = GradedMatrix(
            fld,
            matrix.rows,
            [cols[j] for j in others],
            [tuple(columns[j]) for j in others],
            validate=False,
        )
        ck = local_cokernel(rest, omega, fld)
        dim_before = ck.dim
        dim_x = dim_before - k
        if all(len(columns[j]) <= dim_x + 1 for j in batch):
            continue
        # The classes of the strictly lower generators span the batch.
        # Their surviving columns are a basis; the recorded combinations
        # reference only those, by position in `lower`.
        lower = [
            g for g in ck.rows_le
            if deg_leq(matrix.rows[g], omega) and matrix.rows[g] != omega
        ]
        span = column_reduce(
            [_coordinate_column(ck, [(g, 1)]) for g in lower], fld,
            record=True,
        )
        lifted = []
        for j in batch:
            combo = _lift_through(span, _coordinate_column(ck, columns[j]))
            if combo is None:
                raise GradingError(
                    "batch relation class escapes the lower-generator span"
                )
            lifted.append(combo)
        # Reduced column echelon form of the lifted block.
        echelon = _reduced_column_echelon(lifted, fld)
        for slot, j in enumerate(batch):
            if not echelon[slot]:
                raise GradingError(
                    "dependent relation batch; presentation was not minimal"
                )
            columns[j] = [(lower[idx], v) for idx, v in echelon[slot]]
            if len(columns[j]) > dim_x + 1:
                raise GradingError("sparsification exceeded the entry bound")
    out = GradedMatrix(
        fld,
        matrix.rows,
        cols,
        [tuple(sorted(c)) for c in columns],
        validate=False,
    )
    return Presentation(out, minimal=True, label=presentation.label)


def _coordinate_column(ck, column):
    """Coordinates of a vector in a local cokernel, as a sparse column."""
    return tuple((t, v) for t, v in enumerate(ck.coordinates(column)) if v)


def _reduced_column_echelon(columns, fld):
    """Reduced column echelon form: unit pivots, pivot rows cleared."""
    p = fld.p
    work = [list(col) for col in columns]
    pivots = {}
    for j, col in enumerate(work):
        while col:
            piv, lead = col[-1]
            if piv not in pivots:
                inv = fld.inv(lead)
                if inv != 1:
                    col = [(r, (v * inv) % p) for r, v in col]
                pivots[piv] = j
                break
            col = _axpy(col, work[pivots[piv]], (-lead) % p, p)
        work[j] = col
    # Clear pivot rows across the other columns.
    for piv, j in pivots.items():
        for k, col in enumerate(work):
            coeff = dict(col).get(piv) if k != j else None
            if coeff:
                work[k] = _axpy(col, work[j], (-coeff) % p, p)
    return work
