"""Prime-field arithmetic and sparse graded matrices.

A graded matrix is a matrix over GF(p) whose rows and columns carry degrees
in Z^d, with the constraint that an entry (i, j) can only be nonzero when
the row degree is <= the column degree coordinate-wise.  Matrices are stored
as a list of sparse columns, each column a tuple of (row index, coefficient)
pairs in strictly increasing row order; this favours the column reductions
used everywhere downstream.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le

from .errors import (
    DegreeOverflowError,
    DimensionMismatchError,
    FieldMismatchError,
    GradingError,
)

# Degrees are plain tuples of ints; the helpers below enforce equal arity.
Degree = tuple

_COORD_LIMIT = 1 << 62


def _check_arity(alpha, beta):
    if len(alpha) != len(beta):
        raise DimensionMismatchError(
            f"degrees {alpha} and {beta} live in different posets"
        )


def deg_leq(alpha, beta):
    """Coordinate-wise partial order on Z^d."""
    _check_arity(alpha, beta)
    return all(a <= b for a, b in zip(alpha, beta))


def deg_join(alpha, beta):
    """Coordinate-wise maximum (least upper bound)."""
    _check_arity(alpha, beta)
    out = tuple(max(a, b) for a, b in zip(alpha, beta))
    if any(abs(c) >= _COORD_LIMIT for c in out):
        raise DegreeOverflowError(f"join {out} exceeds coordinate bounds")
    return out


def deg_add(alpha, beta):
    _check_arity(alpha, beta)
    out = tuple(a + b for a, b in zip(alpha, beta))
    if any(abs(c) >= _COORD_LIMIT for c in out):
        raise DegreeOverflowError(f"shift {out} exceeds coordinate bounds")
    return out


def deg_sub(alpha, beta):
    _check_arity(alpha, beta)
    return tuple(a - b for a, b in zip(alpha, beta))


def deg_neg(alpha):
    return tuple(-a for a in alpha)


# Miller-Rabin with the first twelve prime bases is exact below 3.3e24,
# which covers every n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The oracle slices fields into int64 arrays, so p must stay below 2^63.
MAX_CHARACTERISTIC = 1 << 63


def _is_prime(p):
    """Deterministic Miller-Rabin; exact for p < 2^64."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) with values stored as plain ints in [0, p).

    p is validated at construction to be a prime below 2^63
    (`MAX_CHARACTERISTIC`); inverses are computed by Fermat and cached for
    small p.
    """

    __slots__ = ("p", "_inv")

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p!r}")
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"field characteristic {p} is not below 2^63, the largest "
                "the int64 grid slices hold"
            )
        self.p = p
        if p <= 257:
            self._inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        else:
            self._inv = None

    def normalize(self, value):
        return value % self.p

    def neg(self, value):
        return (-value) % self.p

    def inv(self, value):
        value %= self.p
        if value == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._inv is not None:
            return self._inv[value]
        return pow(value, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _axpy(target, source, scale, p):
    """Return target + scale * source for sparse columns (sorted merge)."""
    out = []
    i = j = 0
    nt, ns = len(target), len(source)
    while i < nt and j < ns:
        ri, rj = target[i][0], source[j][0]
        if ri < rj:
            out.append(target[i])
            i += 1
        elif ri > rj:
            c = (scale * source[j][1]) % p
            if c:
                out.append((rj, c))
            j += 1
        else:
            c = (target[i][1] + scale * source[j][1]) % p
            if c:
                out.append((ri, c))
            i += 1
            j += 1
    out.extend(target[i:])
    for k in range(j, ns):
        c = (scale * source[k][1]) % p
        if c:
            out.append((source[k][0], c))
    return out


class GradedMatrix:
    """Sparse matrix over GF(p) with row/column degree decorations.

    Attributes
    ----------
    field: PrimeField
    rows: tuple of Degree, one per row (the "generators").
    cols: tuple of Degree, one per column (the "relations").
    columns: tuple of sparse columns; each column is a tuple of
        (row index, coefficient) pairs, rows strictly increasing,
        coefficients in [1, p).
    """

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field, rows, cols, columns, validate=True):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.cols = tuple(tuple(c) for c in cols)
        self.columns = tuple(
            tuple((int(i), int(v)) for i, v in col) for col in columns
        )
        if validate:
            self._validate()

    def _validate(self):
        p = self.field.p
        d = None
        for deg in self.rows + self.cols:
            if d is None:
                d = len(deg)
            elif len(deg) != d:
                raise DimensionMismatchError("mixed degree arities in matrix")
            if any(abs(c) >= _COORD_LIMIT for c in deg):
                raise DegreeOverflowError(f"degree {deg} out of range")
        if len(self.columns) != len(self.cols):
            raise ValueError("column count does not match column degrees")
        for j, col in enumerate(self.columns):
            last = -1
            for i, v in col:
                if i <= last:
                    raise ValueError(f"column {j}: rows not strictly increasing")
                last = i
                if not 0 <= i < len(self.rows):
                    raise ValueError(f"column {j}: row index {i} out of range")
                if not 1 <= v < p:
                    raise ValueError(f"column {j}: coefficient {v} not in [1,{p})")
                if not deg_leq(self.rows[i], self.cols[j]):
                    raise GradingError(
                        f"entry ({i},{j}): row degree {self.rows[i]} "
                        f"not <= column degree {self.cols[j]}"
                    )

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.cols)

    @property
    def dim(self):
        """Number of grading parameters d."""
        if self.rows:
            return len(self.rows[0])
        if self.cols:
            return len(self.cols[0])
        return 0

    def entry(self, i, j):
        for r, v in self.columns[j]:
            if r == i:
                return v
            if r > i:
                return 0
        return 0

    def nnz(self):
        return sum(len(col) for col in self.columns)

    def to_dense(self):
        """Dense list-of-rows copy, for tests and the dense oracle."""
        dense = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                dense[i][j] = v
        return dense

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.columns))

    def __repr__(self):
        return (
            f"GradedMatrix({self.field!r}, {self.nrows}x{self.ncols}, "
            f"nnz={self.nnz()})"
        )


def graded_matrix_from_entries(field, rows, cols, entries, validate=True):
    """Build a GradedMatrix from an {(i, j): value} mapping.

    Values are reduced mod p (so -1 becomes p-1); zeros are dropped.
    """
    p = field.p
    cols_data = [[] for _ in cols]
    for (i, j), v in entries.items():
        v %= p
        if v:
            cols_data[j].append((i, v))
    for col in cols_data:
        col.sort()
    return GradedMatrix(field, rows, cols, cols_data, validate=validate)


def validate_grading(matrix):
    """Pure predicate: does every stored entry satisfy rows[i] <= cols[j]?"""
    for j, col in enumerate(matrix.columns):
        for i, _ in col:
            if not deg_leq(matrix.rows[i], matrix.cols[j]):
                return False
    return True


def _slice_at_most(matrix, alpha):
    """Rows and columns of degree <= alpha, without building a matrix.

    Returns (row_idx, col_idx, columns): the order-preserving injections
    back into the original row/column sets, and the kept columns with
    their rows renumbered to positions in row_idx.  The arity of alpha is
    checked once; degrees are then compared inline.
    """
    alpha = tuple(alpha)
    if matrix.dim and len(alpha) != matrix.dim:
        raise DimensionMismatchError(
            f"degree {alpha} has arity {len(alpha)}, matrix has d={matrix.dim}"
        )
    rows, cols = matrix.rows, matrix.cols
    row_idx = tuple([i for i, r in enumerate(rows) if all(map(le, r, alpha))])
    col_idx = tuple([j for j, c in enumerate(cols) if all(map(le, c, alpha))])
    renum = {i: k for k, i in enumerate(row_idx)}
    # Grading guarantees every entry row of a kept column is kept too.
    columns = [
        tuple((renum[i], v) for i, v in matrix.columns[j]) for j in col_idx
    ]
    return row_idx, col_idx, columns


def submatrix_at_most(matrix, alpha):
    """Restrict a graded matrix to rows and columns of degree <= alpha.

    Returns (submatrix, row_indices, col_indices) where the index tuples are
    the order-preserving injections back into the original row/column sets.
    """
    row_idx, col_idx, columns = _slice_at_most(matrix, alpha)
    sub = GradedMatrix(
        matrix.field,
        [matrix.rows[i] for i in row_idx],
        [matrix.cols[j] for j in col_idx],
        columns,
        validate=False,
    )
    return sub, row_idx, col_idx


@dataclass
class ReducedColumn:
    """One nonzero output column of a reduction sweep."""

    pivot: int
    column: tuple
    source: int
    combo: dict | None = None


@dataclass
class ColumnSpan:
    """Result of a left-to-right column reduction with lowest-row pivots.

    `reduced` holds the surviving columns (distinct pivots, in sweep order);
    `zeroed` holds, for columns that vanished, the recorded combination of
    original columns that witnesses the dependency (so the zeroed combos are
    a basis of the nullspace of the input, when recording is on).
    """

    field: PrimeField
    reduced: list = field(default_factory=list)
    zeroed: list = field(default_factory=list)
    _by_pivot: dict = field(default_factory=dict)

    @property
    def rank(self):
        return len(self.reduced)

    def pivots(self):
        return dict(self._by_pivot)

    def insert(self, column, source=-1, record=False):
        """Reduce one column against the span; absorb the residual."""
        p = self.field.p
        col = list(column)
        combo = {source: 1} if record else None
        while col:
            pivot = col[-1][0]
            slot = self._by_pivot.get(pivot)
            if slot is None:
                break
            other = self.reduced[slot]
            scale = (-col[-1][1] * self.field.inv(other.column[-1][1])) % p
            col = _axpy(col, other.column, scale, p)
            if record and other.combo is not None:
                for k, v in other.combo.items():
                    nv = (combo.get(k, 0) + scale * v) % p
                    if nv:
                        combo[k] = nv
                    else:
                        combo.pop(k, None)
        if col:
            entry = ReducedColumn(col[-1][0], tuple(col), source, combo)
            self._by_pivot[col[-1][0]] = len(self.reduced)
            self.reduced.append(entry)
            return entry
        self.zeroed.append((source, combo))
        return None

    def reduce_vector(self, column):
        """Residual of a sparse column modulo the current span."""
        p = self.field.p
        col = list(column)
        while col:
            pivot = col[-1][0]
            slot = self._by_pivot.get(pivot)
            if slot is None:
                break
            other = self.reduced[slot]
            scale = (-col[-1][1] * self.field.inv(other.column[-1][1])) % p
            col = _axpy(col, other.column, scale, p)
        return col

    def contains(self, column):
        return not self.reduce_vector(column)


def column_reduce(columns, fld, record=False):
    """Column-reduce a sparse matrix given as a sequence of columns.

    Sweeps left to right; each surviving column keeps its lowest nonzero
    row (the largest row index) as pivot.  With `record=True` the returned
    span carries, per output column, the combination of input columns it
    equals, and per vanished column the dependency combination.
    """
    span = ColumnSpan(fld)
    for idx, col in enumerate(columns):
        span.insert(col, source=idx, record=record)
    return span


def nullspace_of_columns(columns, fld):
    """Basis of {x : sum_j x_j * columns[j] = 0} as sparse dicts."""
    span = column_reduce(columns, fld, record=True)
    return [combo for _, combo in span.zeroed]


def _lift_through(span, column):
    """Express a column in the input columns of a recorded span.

    Returns the sorted (input index, coefficient) pairs of a combination
    equal to `column`, or None when the column is outside the span (the
    span then absorbs its residual, as `insert` does).
    """
    if span.insert(column, source=-2, record=True) is not None:
        return None
    combo = span.zeroed.pop()[1]
    combo.pop(-2, None)
    p = span.field.p
    return sorted((k, (-v) % p) for k, v in combo.items())


def _transpose(columns, n_rows):
    """Sparse columns of the transpose of a matrix with n_rows rows.

    Entries are appended in increasing column order, so each output
    column is already sorted.
    """
    out = [[] for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, v in col:
            out[i].append((j, v))
    return [tuple(col) for col in out]


def matmul(a, b):
    """Composite a @ b of graded matrices (cols of a match rows of b)."""
    if a.field != b.field:
        raise FieldMismatchError("matrix product over different fields")
    if a.cols != b.rows:
        raise DimensionMismatchError("inner degree sequences differ")
    p = a.field.p
    out_cols = []
    for col in b.columns:
        acc = []
        for k, v in col:
            acc = _axpy(acc, a.columns[k], v, p)
        out_cols.append(tuple(acc))
    return GradedMatrix(a.field, a.rows, b.cols, out_cols, validate=False)
