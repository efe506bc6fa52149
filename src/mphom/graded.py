"""Prime-field arithmetic and sparse graded matrices.

A graded matrix is a matrix over GF(p) whose rows and columns carry degrees
in Z^d, with the constraint that an entry (i, j) can only be nonzero when
the row degree is <= the column degree coordinate-wise.  Matrices are stored
as a list of sparse columns, each column a tuple of (row index, coefficient)
pairs in strictly increasing row order; this favours the column reductions
used everywhere downstream.

Every recorded elimination lives here.  A recorded combination is an
int bitset, updated by `^`, in the packed GF(2) sweeps, else a dict,
updated by `_add_into` alone.

The prime picks the column form in one place, `_column_form`: over GF(2)
a column is one int whose bit r is row r (`_pack`), swept by
`_gf2_sweep`, the one packed sweep, with pivots read off
`bit_length()`; over every other prime it is a tuple of (row, value)
pairs by increasing row, swept by `ColumnSpan`.  The primal systems and
solves of `homspace`, its audit and the slices of N in `localalg` are
written once over the form's operations (pack, shift, scale, join,
sweep, nullspace, forward substitution, failures), so each takes one
code path at every prime; the audit's `failures` bit-slices a whole
basis over GF(2).  `ColumnSpan` also serves the echelon forms over
every prime; each reduced column stores its pivot's inverse, and every
step is the scaled sparse merge `_axpy`.  `_pairs` unpacks a column or
combination of either form into (index, value) pairs.

The chains, `_Gf2Chain` on packed ints and `_FieldChain` on sparse
lists, carry one reduction along a chain of lines for the line sweeps
of `presentations` (Lesnick and Wright, arXiv:1902.05708);
`_line_chains` takes the one of the field's column form and packs the
columns once per sweep.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, le, lshift, mul, or_

from .errors import (
    DegreeOverflowError,
    DimensionMismatchError,
    FieldMismatchError,
    GradingError,
    UnsortedRowsError,
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
    return all(map(le, alpha, beta))


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

# The supported range, exclusive: not a limit of the arithmetic, which
# is exact on Python ints at any p, but the range the tests cover (up to
# 2^63 - 25, the largest prime below it).  `_is_prime` is exact far past it.
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
    (`MAX_CHARACTERISTIC`), the supported range; inverses are computed by Fermat and cached for small p.  The
    field's column form (`_column_form`) is kept on first use.
    """

    __slots__ = ("p", "_inv", "_form")

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p!r}")
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"field characteristic {p} is not below 2^63, the "
                "supported range"
            )
        self.p = p
        if p <= 257:
            self._inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        else:
            self._inv = None
        self._form = None

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

    The public constructor copies its arguments into tuples of ints;
    `_trusted` is for routes that already hold tuples in that form.

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

    @classmethod
    def _trusted(cls, field, rows, cols, columns):
        """A matrix over tuples that already have the stored form.

        `rows` and `cols` must be tuples of int tuples and `columns` a
        tuple of column tuples of (int, int) pairs, as `__init__` would
        store them.  They are kept as given, neither copied nor checked,
        so a matrix can share the degree tuples of the matrices it was
        computed from.
        """
        self = cls.__new__(cls)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.columns = columns
        return self

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
                if not all(map(le, self.rows[i], self.cols[j])):
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
    """Pure predicate: does every stored entry satisfy rows[i] <= cols[j]?

    Only the nonempty columns are visited, so the cost is the number of
    stored entries, not of columns.
    """
    rows, cols, columns = matrix.rows, matrix.cols, matrix.columns
    for j in compress(range(len(columns)), columns):
        cdeg = cols[j]
        for i, _ in columns[j]:
            if not deg_leq(rows[i], cdeg):
                return False
    return True


def _slice_indices(matrix, alpha):
    """Indices (row_idx, col_idx) of the rows and columns of degree <= alpha.

    Both are increasing, so they are the order-preserving injections back
    into the original row/column sets.  The arity of alpha is checked
    once; degrees are then compared inline.
    """
    alpha = tuple(alpha)
    if matrix.dim and len(alpha) != matrix.dim:
        raise DimensionMismatchError(
            f"degree {alpha} has arity {len(alpha)}, matrix has d={matrix.dim}"
        )
    rows, cols = matrix.rows, matrix.cols
    row_idx = tuple([i for i, r in enumerate(rows) if all(map(le, r, alpha))])
    col_idx = tuple([j for j, c in enumerate(cols) if all(map(le, c, alpha))])
    return row_idx, col_idx


def _slice_at_most(matrix, alpha):
    """Rows and columns of degree <= alpha, without building a matrix.

    Returns (row_idx, col_idx, columns): the indices of `_slice_indices`,
    and the kept columns with their rows renumbered to positions in
    row_idx.
    """
    row_idx, col_idx = _slice_indices(matrix, alpha)
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


@dataclass(slots=True)
class ReducedColumn:
    """One nonzero output column of a reduction sweep.

    `inv` is the inverse of the pivot entry `column[-1][1]`, computed once
    when the column is inserted.
    """

    pivot: int
    column: tuple
    source: int
    combo: dict | None = None
    inv: int = 1


def _add_into(combo, other, scale, p):
    """combo += scale * other for dict combinations, in place; return
    the keys that were not in combo before.  A key that comes back is
    appended, so key order is the order in which keys last appeared."""
    new = []
    get = combo.get
    for k, v in other.items():
        old = get(k, 0)
        nv = (old + scale * v) % p
        if nv:
            combo[k] = nv
            if not old:
                new.append(k)
        else:
            del combo[k]
    return new


@dataclass(slots=True)
class ColumnSpan:
    """Result of a left-to-right column reduction with lowest-row pivots.

    `reduced` holds the surviving columns (distinct pivots, in sweep order);
    `zeroed` holds, for columns that vanished, the recorded combination of
    original columns that witnesses the dependency (so the zeroed combos are
    a basis of the nullspace of the input), or None when the span does not
    `record`.  `_by_pivot` maps each pivot row to its entry of `reduced`.
    """

    field: PrimeField
    record: bool = False
    reduced: list = field(default_factory=list)
    zeroed: list = field(default_factory=list)
    _by_pivot: dict = field(default_factory=dict)

    @property
    def rank(self):
        return len(self.reduced)

    def _reduce(self, col, combo=None):
        """Reduce the sparse column `col` by the reduced columns until its
        pivot is free; return the residual, `col` itself when no step was
        taken.  Each step's multiple of a reduced column's combination is
        added to `combo` when one is given.

        Each step must lower the pivot row.  One that does not can only
        come from a column whose rows do not increase, and would loop
        forever, so it raises UnsortedRowsError.
        """
        p = self.field.p
        by_pivot = self._by_pivot
        while col:
            row, lead = col[-1]
            other = by_pivot.get(row)
            if other is None:
                break
            scale = -lead * other.inv % p
            col = _axpy(col, other.column, scale, p)
            if combo is not None:
                _add_into(combo, other.combo, scale, p)
            if col and col[-1][0] >= row:
                raise UnsortedRowsError(
                    f"reducing at row {row} left row {col[-1][0]} last: "
                    "column rows are not strictly increasing"
                )
        return col

    def insert(self, column, source=-1):
        """Reduce one column against the span; absorb the residual."""
        combo = {source: 1} if self.record else None
        col = self._reduce(column, combo)
        if col:
            pivot, lead = col[-1]
            entry = ReducedColumn(pivot, tuple(col), source, combo,
                                  self.field.inv(lead))
            self._by_pivot[pivot] = entry
            self.reduced.append(entry)
            return entry
        self.zeroed.append((source, combo))
        return None

    def reduce_vector(self, column):
        """Residual of a sparse column modulo the current span, as a list."""
        return list(self._reduce(column))

    def contains(self, column):
        return not self._reduce(column)


def _pack(column):
    """A sparse GF(2) column as an int whose bit r is row r's value mod
    2, so a stored even value packs as zero."""
    bits = 0
    for r, v in column:
        bits |= (v & 1) << r
    return bits


def _bits(packed):
    """Indices of the set bits of a packed int, increasing."""
    out = []
    while packed:
        low = packed & -packed
        out.append(low.bit_length() - 1)
        packed ^= low
    return out


class _Chain:
    """A column reduction carried along one chain of lines.

    Columns are known by their sweep rank, and `packed` holds every
    column of the sweep, indexed by rank, in the chain's own form.
    `activate` adds columns; `settle` reduces, in rank order by a heap,
    the columns added since the last call and those displaced from their
    pivot (the lowest row), and returns (rank, combination) for each
    column that reached zero, in rank order.  A column whose pivot is
    held by a column to its left is reduced by it; one whose pivot is
    held by a column to its right takes the pivot and the right column
    goes back on the heap.  So every nonzero column holds its own pivot,
    and a column is zero exactly when it lies in the span of the active
    columns to its left.  Activating columns only adds columns, so a
    zero column stays zero for the rest of the chain.

    When recording, each column carries its combination of ranks.  A
    column reaching zero is normalised by adding in the stored
    combination of each zero column it uses, highest rank first, and
    stores the result: its own rank plus the unique combination of the
    nonzero columns to its left that cancels it, which is what a fresh
    left-to-right reduction of the line records (`_pairs` reads it).
    Without recording the combination is None.
    """

    __slots__ = ("field", "record", "packed", "cols", "combos", "owner",
                 "heap", "stored")

    def __init__(self, fld, record, packed):
        self.field = fld
        self.record = record
        self.packed = packed
        self.cols = {}  # rank -> reduced column, for the nonzero columns
        self.combos = {}  # rank -> its combination
        self.owner = {}  # pivot row -> rank holding it
        self.heap = []
        self.stored = {}  # rank -> normalised combination of a zero column

    def activate(self, ranks):
        """Add the columns of these ranks; the next `settle` reduces
        them."""
        cols, combos, unit, packed = self.cols, self.combos, self.unit, \
            self.packed
        record = self.record
        for r in ranks:
            cols[r] = packed[r]
            combos[r] = unit(r) if record else None
        self.heap += ranks


class _Gf2Chain(_Chain):
    """`_Chain` over GF(2): columns are packed ints (`_pack`), eliminated
    by `^`, and combinations ints with bit k for rank k."""

    __slots__ = ("zero",)

    pack = staticmethod(_pack)

    def __init__(self, fld, record, packed):
        super().__init__(fld, record, packed)
        self.zero = 0  # the zero ranks, as bits

    @staticmethod
    def unit(rank):
        return 1 << rank

    def settle(self):
        cols, combos, owner, heap = self.cols, self.combos, self.owner, \
            self.heap
        record = self.record
        heapify(heap)
        died = []
        while heap:
            r = heappop(heap)
            bits, combo = cols[r], combos[r]
            while bits:
                pivot = bits.bit_length() - 1
                other = owner.get(pivot)
                if other is None or other > r:
                    owner[pivot] = r
                    if other is not None:
                        heappush(heap, other)
                    break
                bits ^= cols[other]
                if record:
                    combo ^= combos[other]
            if bits:
                cols[r], combos[r] = bits, combo
                continue
            del cols[r], combos[r]
            if record:
                stored, zero = self.stored, self.zero
                while used := combo & zero:
                    combo ^= stored[used.bit_length() - 1]
                stored[r] = combo
                self.zero = zero | 1 << r
            died.append((r, combo))
        return died


class _FieldChain(_Chain):
    """`_Chain` over any prime: columns are sparse (row, coefficient)
    lists, combined by `_axpy` with field scaling, each pivot's inverse
    is stored when it is taken, and combinations are dicts from rank to
    coefficient, updated by `_add_into` as in `ColumnSpan`."""

    __slots__ = ("inv",)

    pack = staticmethod(tuple)

    def __init__(self, fld, record, packed):
        super().__init__(fld, record, packed)
        self.inv = {}  # rank -> inverse of its pivot entry

    @staticmethod
    def unit(rank):
        return {rank: 1}

    def settle(self):
        fld = self.field
        p = fld.p
        cols, combos, owner, inv, heap = self.cols, self.combos, \
            self.owner, self.inv, self.heap
        heapify(heap)
        died = []
        while heap:
            r = heappop(heap)
            col, combo = cols[r], combos[r]
            while col:
                row, lead = col[-1]
                other = owner.get(row)
                if other is None or other > r:
                    owner[row] = r
                    inv[r] = fld.inv(lead)
                    if other is not None:
                        heappush(heap, other)
                    break
                scale = -lead * inv[other] % p
                col = _axpy(col, cols[other], scale, p)
                if col and col[-1][0] >= row:
                    raise UnsortedRowsError(
                        f"reducing at row {row} left row {col[-1][0]} "
                        "last: column rows are not strictly increasing"
                    )
                if combo is not None:
                    _add_into(combo, combos[other], scale, p)
            if col:
                cols[r] = col
                continue
            del cols[r], combos[r]
            if combo is not None:
                self._normalise(combo)
                self.stored[r] = combo
            died.append((r, combo))
        return died

    def _normalise(self, combo):
        """Add in the stored combination of each zero rank the combination
        uses, highest first, by a heap of those ranks."""
        stored, p = self.stored, self.field.p
        todo = [-k for k in combo if k in stored]
        heapify(todo)
        while todo:
            k = -heappop(todo)
            v = combo.get(k)
            if v:
                for new in _add_into(combo, stored[k], p - v, p):
                    if new in stored:
                        heappush(todo, -new)


def _line_chains(columns, fld, record):
    """A function that starts a fresh `_Chain` over `columns`, of the
    field's `_column_form`, the columns packed into the chain type's
    form (`pack`) once here and shared by every chain it starts."""
    chain_type = _column_form(fld).chain()
    packed = [chain_type.pack(c) for c in columns]
    return partial(chain_type, fld, record, packed)


def _pairs(combo):
    """A column or combination as (index, coefficient) pairs: a packed
    int (bit k for index k) by increasing index, a dict as its items,
    and a sequence of pairs as itself."""
    if isinstance(combo, int):
        return [(k, 1) for k in _bits(combo)]
    if isinstance(combo, dict):
        return combo.items()
    return combo


def column_reduce(columns, fld, record=False):
    """Column-reduce a sparse matrix given as a sequence of columns.

    Sweeps left to right; each surviving column keeps its lowest nonzero
    row (the largest row index) as pivot.  With `record=True` the returned
    span carries, per output column, the combination of input columns it
    equals, and per vanished column the dependency combination.
    """
    span = ColumnSpan(fld, record)
    for idx, col in enumerate(columns):
        span.insert(col, idx)
    return span


def _gf2_sweep(columns, sources=None):
    """One left-to-right sweep over packed GF(2) columns (`_pack`), each
    reduced by `^` against a pivot -> (residual, combination) dict, the
    pivot being the highest bit.

    Returns (kept, zeroed): `kept` maps the index of each kept column to
    its nonzero residual, in order (the column `ColumnSpan` keeps,
    packed); `zeroed` lists each zeroed column's combination as an int in
    which bit `sources[j]` stands for column j.  Sources must be
    distinct; when they increase, a combination's highest bit is the
    source of the column it zeroed.  Without sources nothing is recorded.
    """
    by_pivot = {}
    kept = {}
    zeroed = []
    for j, bits in enumerate(columns):
        combo = 0 if sources is None else 1 << sources[j]
        while bits:
            pivot = bits.bit_length() - 1
            other = by_pivot.get(pivot)
            if other is None:
                by_pivot[pivot] = bits, combo
                kept[j] = bits
                break
            bits ^= other[0]
            combo ^= other[1]
        else:
            if sources is not None:
                zeroed.append(combo)
    return kept, zeroed


class _PackedColumns:
    """The column form over GF(2): a column is one int whose bit r is
    row r (`_pack`), shifted by `<<`, and every sweep is `_gf2_sweep`.
    Combinations are ints too, bit k for source k."""

    pack = staticmethod(_pack)
    shift = staticmethod(lshift)
    # A scale is a value mod 2, so 0 or 1, and the product is exact.
    scaled = staticmethod(mul)
    join = staticmethod(or_)
    size = staticmethod(int.bit_count)

    @staticmethod
    def renumbered(column, rows, k):
        bits = 0
        for i, v in column:
            bits |= (v & 1) << rows[i]
        return bits << k

    @staticmethod
    def combine(columns, column):
        acc = 0
        for k, v in column:
            if v & 1:
                acc ^= columns[k]
        return acc

    @staticmethod
    def sweep(columns):
        return _gf2_sweep(columns)[0]

    @staticmethod
    def nullspace(columns, sources):
        return _gf2_sweep(columns, sources)[1]

    @staticmethod
    def truncate(combos, size):
        mask = (1 << size) - 1
        return [combo & mask for combo in combos]

    @staticmethod
    def span(columns):
        kept, _ = _gf2_sweep(columns)
        pivots = {bits.bit_length() - 1: bits for bits in kept.values()}
        return pivots, pivots, tuple(kept)

    @staticmethod
    def substitute(record, columns):
        # The record of a pivot row is its residual.
        rest = record ^ 1 << record.bit_length() - 1
        acc = 0
        while rest:
            i = rest.bit_length() - 1
            acc ^= columns[i]
            rest ^= 1 << i
        return acc

    @staticmethod
    def chain():
        return _Gf2Chain

    @staticmethod
    def failures(elements, m, span_of):
        """A bit-sliced batch: `sliced[g][g']` has bit e set when element
        e holds an odd value at (g', g), so column r of every product at
        once is the XOR of `sliced[g]` over the odd M_{g,r}, one int of
        elements per row g'.  It is reduced against the packed pivots of
        `span_of(deg r)`, highest row first; the elements left on a row
        that is no pivot fail.  Zero products are not reduced."""
        sliced = {}
        for e, q in enumerate(elements):
            bit = 1 << e
            columns = q.columns
            for g in compress(range(len(columns)), columns):
                rows = sliced.setdefault(g, {})
                for gp, v in columns[g]:
                    if v & 1:
                        rows[gp] = rows.get(gp, 0) | bit
        failing = 0
        for r, mcol in enumerate(m.columns):
            rows, touched = {}, 0
            for g, mv in mcol:
                if mv & 1 and g in sliced:
                    for gp, bits in sliced[g].items():
                        rows[gp] = rows.get(gp, 0) ^ bits
                        touched |= 1 << gp
            pivots = None
            while touched:
                i = touched.bit_length() - 1
                touched ^= 1 << i
                bits = rows[i]
                if not bits:
                    continue
                if pivots is None:
                    pivots = span_of(m.cols[r])
                residual = pivots.get(i)
                if residual is None:
                    failing |= bits
                    continue
                rest = residual ^ 1 << i
                touched |= rest
                while rest:
                    j = rest.bit_length() - 1
                    rest ^= 1 << j
                    rows[j] = rows.get(j, 0) ^ bits
        return failing


class _SortedColumns:
    """The column form over any prime: a column is a tuple of (row,
    value) pairs by increasing row, shifted by adding to each row, and
    every sweep is a `ColumnSpan`'s.  Combinations are dicts from source
    to value.  Every prime but 2 takes it; it holds over GF(2) too."""

    pack = staticmethod(tuple)
    join = staticmethod(add)
    size = staticmethod(len)

    def __init__(self, fld):
        self.field = fld

    @staticmethod
    def renumbered(column, rows, k):
        return tuple([(rows[i] + k, v) for i, v in column])

    @staticmethod
    def shift(column, k):
        return tuple([(i + k, v) for i, v in column])

    def scaled(self, column, c):
        p = self.field.p
        return tuple([(i, x) for i, v in column if (x := c * v % p)])

    def combine(self, columns, column):
        p = self.field.p
        acc = ()
        for k, v in column:
            acc = _axpy(acc, columns[k], v, p)
        return acc

    def sweep(self, columns):
        span = column_reduce(columns, self.field)
        return {e.source: e.column for e in span.reduced}

    def nullspace(self, columns, sources):
        span = ColumnSpan(self.field, record=True)
        for source, col in zip(sources, columns):
            span.insert(col, source)
        return [combo for _, combo in span.zeroed]

    @staticmethod
    def truncate(combos, size):
        return [tuple(sorted((k, v) for k, v in combo.items() if k < size))
                for combo in combos]

    def span(self, columns):
        span = column_reduce(columns, self.field)
        return span, span._by_pivot, tuple([e.source for e in span.reduced])

    def substitute(self, record, columns):
        # The record of a pivot row is its `ReducedColumn`.
        p = self.field.p
        acc = ()
        for i, v in record.column[:-1]:
            acc = _axpy(acc, columns[i], -v * record.inv % p, p)
        return tuple(acc)

    @staticmethod
    def chain():
        return _FieldChain

    def failures(self, elements, m, span_of):
        """Per element, each nonzero column g of Q is added, times
        M_{g,r}, into column r of Q M for each relation r of g, and the
        nonzero products are tested by increasing r against the
        `ColumnSpan` `span_of(deg r)` until one fails."""
        p = self.field.p
        rels_of = _transpose(m.columns, m.nrows)
        failing = 0
        for e, q in enumerate(elements):
            columns, products = q.columns, {}
            for g in compress(range(len(rels_of)), columns):
                for r, mv in rels_of[g]:
                    products[r] = _axpy(products.get(r, ()), columns[g], mv, p)
            for r in sorted(products):
                product = products[r]
                if product and not span_of(m.cols[r]).contains(product):
                    failing |= 1 << e
                    break
        return failing


_PACKED_COLUMNS = _PackedColumns()


def _column_form(fld):
    """The column form over GF(p): `_PackedColumns` over GF(2),
    `_SortedColumns` over every other prime.  Both offer:

    * `pack(column)`, from (row, value) pairs, each value nonzero and
      reduced mod p, and `renumbered(column, rows, k)`, row i put at
      rows[i] + k, the rows increasing in i;
    * `shift(column, k)`, rows raised by k; `scaled(column, c)`, times c
      in [0, p); `join(a, b)`, the sum of columns whose rows lie in
      disjoint blocks, those of `a` first; `size(column)`, its nonzeros;
      `combine(columns, column)`, the sum of v * columns[k] over the
      (k, v) pairs of a sparse column, zero (falsy) when they cancel;
    * `sweep(columns)`, a left-to-right reduction with lowest-row
      pivots, as {index of each kept column: its residual};
      `nullspace(columns, sources)`, the same sweep recording column j
      as source `sources[j]`, as the combination of each zeroed column;
      `truncate(combos, size)`, those combinations as columns of their
      sources below `size`;
    * `span(columns)`, a slice reduced as (span, pivot row -> its
      record, positions of the kept columns), the span being the pivot
      -> residual dict over GF(2) and the `ColumnSpan` otherwise, and
      `substitute(record, columns)`, the column forward substitution
      gives a pivot row: -1/lead times the sum of v * columns[i] over
      the other entries (i, v) of its residual;
    * `failures(elements, m, span_of)`, the audit: a mask, bit e set when
      a column r of `elements[e]` times `m` leaves `span_of(deg r)`, the
      form's span of N's slice there, stored values read mod p;
    * `chain()`, the `_Chain` type of the line sweeps.

    The form is picked on the field's first call and kept on it.
    """
    form = fld._form
    if form is None:
        form = fld._form = (_PACKED_COLUMNS if fld.p == 2
                            else _SortedColumns(fld))
    return form


def nullspace_of_columns(columns, fld):
    """Basis of {x : sum_j x_j * columns[j] = 0} as sparse dicts.

    One recording sweep in the field's `_column_form`.  Each dict's
    largest key is the index of the column it zeroed.
    """
    form = _column_form(fld)
    zeroed = form.nullspace(map(form.pack, columns), range(len(columns)))
    return [dict(_pairs(combo)) for combo in zeroed]


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
