"""Degree-local linear algebra on presentations.

For a presentation N of a module Y and a degree alpha, the slice Y_alpha is
the cokernel of the vector-space map given by the submatrix N_{<=alpha}.
This module computes those local cokernels together with a distinguished
subset of generators whose images form a basis, the structure maps
Y_alpha -> Y_beta, the Hilbert function, and thickness (the maximum
pointwise dimension).

Pivot convention: columns of N_{<=alpha} are reduced left to right with
lowest-row pivots (largest row index); the distinguished subset collects
the pivot-free rows in their original order.  Any valid subset would do;
fixing the sweep makes results deterministic.

The slice is reduced, and its cokernel columns built, in the field's
column form (`graded._column_form`), one code path at every prime: the
column of each generator g' in the subset basis is a unit column for a
free row and, for a pivot row, the combination that one forward
substitution reads off its residual (by XOR over GF(2), by `_axpy` with
-v * inv over every other prime).  Those columns
(`LocalCokernel.columns`) are what route `b` builds its block matrix
from; the dense `matrix` is unpacked from them, and `structure_map`,
which reads it, is public only.

A local cokernel knows at once which generators and relations of N lie
below alpha (`rows_le`, `cols_le`); it reduces N_{<=alpha} when its span
or subset is first read, and builds its cokernel columns and matrix
when each is first read.  So reading the slice indices (the primal
routes' equations and variables) reduces nothing, and reading the subset
or the span (the homomorphism audit, the Q masks) builds no cokernel
column.

The same sweep gives the distinguished relation subset of the first
syzygy module of Y at alpha.  That module is presented by kernel(N), whose
columns of degree <= alpha span K(alpha) = ker N_{<=alpha}.  A vector of
K(alpha) has its last nonzero entry at relation j exactly when column j of
N_{<=alpha} is a combination of lower-numbered columns, that is, when the
sweep zeroes it.  So the pivot-free rows of the local cokernel of
kernel(N) at alpha are the columns of N_{<=alpha} that survive the sweep
(`LocalCokernel.syzygy_subset`), and no presentation of the syzygy module
is needed to read them.

The primal routes read everything they know about N's degrees off one
`CokernelCache` of N: which entries are admissible (`rows_le` and
`cols_le` at the degrees of X), and both masks, `subset` at the generator
degrees of X (the Q mask) and `syzygy_subset` at its relation degrees
(the P mask).  `restriction_system` gathers the same subsets per degree
and is kept as their reference.

A `CokernelCache` indexes N's row degrees and column degrees once, per
axis (`_DegreeIndex`): the sorted distinct coordinates, each with the bit
mask of the degrees at or below it.  The rows and columns below alpha are
then one bisection and one AND per axis instead of a scan of every degree
of N, and that pair of masks names the slice: degrees with the same rows
and columns below share one `LocalCokernel`, so each distinct N_{<=alpha}
is indexed, reduced and substituted once per cache.  A `local_cokernel`
call made outside a cache scans (`_slice_indices`).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from operator import getitem

from .errors import DimensionMismatchError, GradingError
from .graded import _bits, _column_form, _pairs, _slice_indices, deg_leq


def _matrix_of(obj):
    """Accept either a GradedMatrix or anything with a .matrix attribute."""
    return getattr(obj, "matrix", obj)


class LocalCokernel:
    """Cokernel of N_{<=alpha} with a distinguished generator subset.

    The slice indices, and N's columns in the field's `_column_form`
    (shared by a `CokernelCache`), are set when the object is built.  The
    slice is reduced, in that form, when `span`, `subset` (so `dim`),
    `syzygy_subset`, `columns` or `matrix` is first read, and each is
    kept once computed.

    Attributes
    ----------
    degree: the evaluation degree alpha; for a slice a `CokernelCache`
        shares between degrees, the first degree at which it was read.
    rows_le: original indices of the generators of degree <= alpha, in
        increasing order.
    cols_le: original indices of the relations of degree <= alpha, in
        increasing order: the columns of the slice in sweep order.
    positions: {r: position of r in rows_le}.
    subset: original indices of the pivot-free generators; their images
        form a basis of Y_alpha, so dim Y_alpha == len(subset).
    span: the column span of N_{<=alpha} in N's own row numbering: over
        GF(2) a dict from each pivot row to its packed residual (bit r
        for row r), in sweep order; over every other prime a
        `ColumnSpan`.
    columns: the cokernel columns, a dict from each row of `rows_le`, in
        order, to its column of `matrix` in the field's column form (an
        int with bit t for subset position t over GF(2), else a tuple of
        (t, value) pairs); route `b` builds its system from these.
    matrix: the cokernel map K^{rows_le} -> Y_alpha as a dense list of
        rows (one per subset element), expressed so that the columns at
        subset positions form the identity, unpacked from `columns`.
    """

    __slots__ = ("degree", "rows_le", "cols_le", "p", "_source",
                 "_n_columns", "_positions", "_span", "_pivots", "_kept",
                 "_subset", "_columns", "_matrix")

    def __init__(self, matrix, alpha, rows_le, cols_le, n_columns):
        self.degree = tuple(alpha)
        self.rows_le, self.cols_le = rows_le, cols_le
        self.p = matrix.field.p
        self._source, self._n_columns = matrix, n_columns
        self._positions = self._span = self._subset = None
        self._columns = self._matrix = None

    @property
    def positions(self):
        if self._positions is None:
            self._positions = {r: k for k, r in enumerate(self.rows_le)}
        return self._positions

    def _reduced(self):
        """(pivot row -> its record in the column form, positions in
        `cols_le` of the kept columns), reducing the slice on the first
        call."""
        if self._span is None:
            cols = [self._n_columns[j] for j in self.cols_le]
            self._span, self._pivots, self._kept = _column_form(
                self._source.field).span(cols)
        return self._pivots, self._kept

    @property
    def span(self):
        self._reduced()
        return self._span

    @property
    def subset(self):
        if self._subset is None:
            pivots, _ = self._reduced()
            self._subset = tuple([r for r in self.rows_le if r not in pivots])
        return self._subset

    @property
    def dim(self):
        return len(self.subset)

    @property
    def syzygy_subset(self):
        """Original indices of the relations that survive the sweep.

        In increasing order, these are the pivot-free rows of the local
        cokernel of kernel(N) at the same degree: the distinguished
        relation subset of the first syzygy module of Y at alpha.  Their
        number is the rank of the slice.
        """
        _, kept = self._reduced()
        cols_le = self.cols_le
        return tuple([cols_le[j] for j in kept])

    @property
    def columns(self):
        # Forward substitution in increasing row order: free row t of the
        # subset gets the unit column at t, and a residual's pivot is its
        # largest row, so a pivot row's column only reads rows already
        # processed.
        if self._columns is None:
            pivots, _ = self._reduced()
            form = _column_form(self._source.field)
            shift, substitute = form.shift, form.substitute
            unit, t, cols = form.pack(((0, 1),)), 0, {}
            for r in self.rows_le:
                if r in pivots:
                    cols[r] = substitute(pivots[r], cols)
                else:
                    cols[r] = shift(unit, t)
                    t += 1
            self._columns = cols
        return self._columns

    @property
    def matrix(self):
        if self._matrix is None:
            rows = [[0] * len(self.rows_le) for _ in range(self.dim)]
            for k, col in enumerate(self.columns.values()):
                for t, v in _pairs(col):
                    rows[t][k] = v
            self._matrix = tuple(map(tuple, rows))
        return self._matrix

    def coordinates(self, column):
        """Coordinates in the subset basis of a sparse vector over rows_le.

        The vector indexes rows by their *original* row numbers; a row
        whose degree is not <= the evaluation degree raises GradingError.
        """
        pos, rows = self.positions, self.matrix
        out = [0] * len(rows)
        for r, v in column:
            local = pos.get(r)
            if local is None:
                raise GradingError(
                    f"row {r} is not a generator of degree <= {self.degree}"
                )
            for t, row in enumerate(rows):
                out[t] += row[local] * v
        return [v % self.p for v in out]


def local_cokernel(matrix, alpha, _index=None):
    """Local cokernel of a presentation at a degree (Algorithm 1).

    The columns of N_{<=alpha} are reduced, in N's own row numbering,
    when the result's span, subset or matrix is first read.  Pivot-free
    rows become the distinguished subset G_alpha, and the cokernel matrix
    d_alpha is the unique solution of d_alpha * N_{<=alpha} = 0
    normalized so that its columns at G_alpha are the identity.  The rows
    of degree <= alpha keep their order, so the pivots are those of the
    renumbered slice.

    The slice indices are found by a scan of N's degrees, and N's columns
    put in the field's column form, unless a `CokernelCache` passes the
    increasing indices of the rows and of the columns below alpha, and
    N's columns in that form, in `_index`; alpha's arity must then be
    checked already.
    """
    matrix = _matrix_of(matrix)
    if _index is None:
        rows_le, cols_le = _slice_indices(matrix, alpha)
        n_columns = list(map(_column_form(matrix.field).pack, matrix.columns))
    else:
        rows_le, cols_le, n_columns = _index
    return LocalCokernel(matrix, alpha, rows_le, cols_le, n_columns)


class _DegreeIndex:
    """The degrees of N's rows or of its columns, indexed per axis.

    Axis k keeps the sorted distinct k-th coordinates, each with the bit
    mask of the degrees whose k-th coordinate is at or below it.  The
    degrees <= alpha are those in the AND over the axes of the mask at
    the largest coordinate <= alpha_k, found by bisection.
    """

    __slots__ = ("axes", "full")

    def __init__(self, degrees, d):
        self.full = (1 << len(degrees)) - 1
        self.axes = []
        for k in range(d):
            at_coord = {}
            for i, deg in enumerate(degrees):
                at_coord[deg[k]] = at_coord.get(deg[k], 0) | 1 << i
            coords = sorted(at_coord)
            masks, acc = [], 0
            for c in coords:
                acc |= at_coord[c]
                masks.append(acc)
            self.axes.append((coords, masks))

    def mask(self, alpha):
        """Bit mask of the degrees <= alpha, bit i for degree i."""
        mask = self.full
        for (coords, masks), a in zip(self.axes, alpha):
            t = bisect_right(coords, a)
            if not t:
                return 0
            mask &= masks[t - 1]
        return mask


@functools.cache
def _byte_table(k):
    """For each byte value b, the increasing indices 8k + i of its set
    bits i: the table of byte k of a mask.  Its tuples share eight ints,
    so a table holds about 20 KB."""
    index = list(range(8 * k, 8 * k + 8))
    return tuple(tuple([index[i] for i in range(8) if b >> i & 1])
                 for b in range(256))


class CokernelCache:
    """Memoizes local cokernels of one presentation per distinct slice.

    It is the one memo of N's slices in a computation: a route reads its
    system's admissible entries, its masks or its cokernel columns from one
    and hands it to its homomorphism audit, which reads the span at each
    relation degree.
    The cache is scoped to a single computation context; contexts are
    independent and may run in parallel.

    `at(alpha)` is memoized per degree.  On a new degree the bit masks of
    N's rows and of its columns below alpha are read off a `_DegreeIndex`
    per axis, built once with the cache, instead of scanning every degree
    of N, and the pair names the slice: a degree whose rows and columns
    below are those of a slice already built gets that `LocalCokernel`,
    since its span, subsets and cokernel columns depend on nothing else.
    Only a new slice calls `local_cokernel`, with the masks unpacked
    (each distinct mask once) into the indices `_slice_indices` would
    find.  N's columns are put in the field's column form once too
    (`_n_columns`), and each slice reduces its share of them.  A degree
    of the wrong arity raises DimensionMismatchError.
    """

    def __init__(self, matrix):
        self.matrix = m = _matrix_of(matrix)
        self._n_columns = list(map(_column_form(m.field).pack, m.columns))
        self._rows = _DegreeIndex(m.rows, m.dim)
        self._cols = _DegreeIndex(m.cols, m.dim)
        self._tables = tuple(map(_byte_table,
                                 range(max(m.nrows, m.ncols) + 7 >> 3)))
        self._memo = {}
        self._slices = {}
        self._unpacked = {}

    def _indices(self, mask):
        """Increasing indices of the set bits of a mask, unpacked once.

        A mask of 8 or more bits is read a byte at a time through the
        byte tables, one lookup per byte; below that `_bits`, one step
        per bit, is the cheaper.
        """
        hit = self._unpacked.get(mask)
        if hit is None:
            if mask.bit_count() < 8:
                hit = tuple(_bits(mask))
            else:
                data = mask.to_bytes(mask.bit_length() + 7 >> 3, "little")
                hit = tuple(itertools.chain.from_iterable(
                    map(getitem, self._tables, data)))
            self._unpacked[mask] = hit
        return hit

    def at(self, alpha):
        alpha = tuple(alpha)
        hit = self._memo.get(alpha)
        if hit is None:
            d = self.matrix.dim
            if d and len(alpha) != d:
                raise DimensionMismatchError(
                    f"degree {alpha} has arity {len(alpha)}, matrix has d={d}"
                )
            key = (self._rows.mask(alpha), self._cols.mask(alpha))
            hit = self._slices.get(key)
            if hit is None:
                index = (self._indices(key[0]), self._indices(key[1]),
                         self._n_columns)
                hit = self._slices[key] = local_cokernel(
                    self.matrix, alpha, index)
            self._memo[alpha] = hit
        return hit


@dataclass(frozen=True)
class RestrictionSystem:
    """Distinguished target subsets per degree of a basis of the source.

    `subsets` maps each relevant degree alpha to the ordered tuple of
    row indices of the target presentation (stage 0) or of its kernel
    (stage 1) whose images form a basis of the local slice; subset sizes
    equal the local dimensions, so the induced lift is unique.
    """

    subsets: dict

    def subset(self, alpha):
        return self.subsets[tuple(alpha)]


def restriction_system(source, stage_matrix, stage, cache=None):
    """Restriction system for the generators (stage 0) or relations
    (stage 1) of `source`, through `stage_matrix`.

    Stage 0 passes the target presentation N itself (slices of Y); stage 1
    passes O = kernel(N) (slices of the first syzygy module of Y).  Its
    stage-0 subsets are `CokernelCache(N).at(alpha).subset` and its stage-1
    subsets equal `CokernelCache(N).at(alpha).syzygy_subset`; the primal
    routes read those instead, so this is the reference that their masks
    are checked against.
    """
    if stage not in (0, 1):
        raise ValueError("stage must be 0 or 1")
    source = _matrix_of(source)
    degrees = source.rows if stage == 0 else source.cols
    cache = cache or CokernelCache(stage_matrix)
    subsets = {}
    for alpha in degrees:
        alpha = tuple(alpha)
        if alpha not in subsets:
            subsets[alpha] = cache.at(alpha).subset
    return RestrictionSystem(subsets)


def structure_map(matrix, alpha, beta, cache=None):
    """Matrix of Y_alpha -> Y_beta in the distinguished subset bases.

    The columns are the subset-of-alpha indexed columns of the cokernel
    at beta, expressed in the subset basis at beta.  Requires alpha <= beta.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if not deg_leq(alpha, beta):
        raise DimensionMismatchError(f"{alpha} is not <= {beta}")
    cache = cache or CokernelCache(matrix)
    subset_a = cache.at(alpha).subset
    ck_b = cache.at(beta)
    cols = [ck_b.positions[g] for g in subset_a]
    return tuple(tuple(row[k] for k in cols) for row in ck_b.matrix)


def hilbert_at(presentation, alpha, cache=None):
    """dim Y_alpha, read off the local cokernel."""
    cache = cache or CokernelCache(_matrix_of(presentation))
    return cache.at(alpha).dim


def evaluation_grid(*objs):
    """Product grid of the per-axis coordinate values of all degrees.

    The Hilbert function of each module involved is constant on the cells
    this grid induces, so maxima over the grid are global maxima.
    """
    axes = None
    for obj in objs:
        m = _matrix_of(obj)
        for deg in m.rows + m.cols:
            if axes is None:
                axes = [set() for _ in deg]
            if len(deg) != len(axes):
                raise DimensionMismatchError("mixed arities in grid build")
            for k, c in enumerate(deg):
                axes[k].add(c)
    if axes is None:
        return ()
    return tuple(tuple(sorted(a)) for a in axes)


def grid_points(axes):
    return itertools.product(*axes) if axes else iter(())


def thickness(presentation, cache=None):
    """Maximum pointwise dimension over the evaluation grid."""
    matrix = _matrix_of(presentation)
    return thickness_at_degrees(
        matrix, grid_points(evaluation_grid(matrix)), cache
    )


def thickness_at_degrees(presentation, degrees, cache=None):
    """Maximum of the Hilbert function over an explicit degree set.

    Used for the Betti-restricted variant, where `degrees` are the
    generator/relation degrees of the other operand.
    """
    degrees = {tuple(d) for d in degrees}
    if not degrees:
        return 0
    cache = cache or CokernelCache(_matrix_of(presentation))
    return max(cache.at(alpha).dim for alpha in degrees)
