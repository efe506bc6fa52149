"""Brute-force oracle: modules as explicit functors on a finite grid.

A presentation is realized as vector spaces and structure maps on the
product grid of its degree coordinates; Hom(X, Y) is then computed as the
space of natural transformations by solving one global linear system,
one equation block per grid edge.

Everything here is deliberately redundant with the sparse engine: ranks
and nullspaces come from an independent dense row-echelon routine,
`rref` (leftmost-pivot convention), which shares no arithmetic with
`graded`, so a bug in the sparse column reduction cannot confirm itself.
`rref` eliminates inputs of at most _SMALL_CELLS (1 024) cells on lists
of Python ints, where numpy's overhead per call would dominate, and
larger ones on numpy arrays; the RREF is unique, so both give the same
result.

Three things keep the dense work small.  Many grid points share the same
slice N_{<=alpha} (the same rows and columns of N lie below them), and
`realize_grid` reduces each distinct slice once, read from N's sparse
columns, and reads its edge maps from the slices' functionals as Python
lists.  Points with the same slices of X and of Y are joined by identity
maps, so `hom_oracle` gives each such class one block of variables and
each pair of adjacent classes one block of equations, built as sparse
triplets rather than a dense array.  Nearly every naturality equation
has one or two terms, so it substitutes those first, writing each
variable as a multiple of a root variable, and row-reduces only the
longer equations over the roots; its basis spans the same space as the
plain nullspace but is not the RREF one.

The arithmetic is exact for every prime.  Python ints are exact at any
size.  On numpy arrays `rref` eliminates in the narrowest integer dtype
that holds (p-1)^2 + p, the largest magnitude a row update produces
before it is reduced mod p, and in Python ints (object arrays) once that
passes int64; matrix products use the same rule with the bound
inner_dim * (p-1)^2.  Reduced values are stored as int64, which holds
every residue of a prime below 2^63.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from operator import le

from .errors import (
    CheckMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
    GradingError,
    ResourceCapError,
)
from .localalg import _matrix_of, evaluation_grid

import numpy as np

GRID_CAP_DEFAULT = 10_000
# Largest grid naturality system hom_oracle accepts, sized as a dense
# equations x variables matrix in bytes of the rref working dtype; the
# solve works on a sparse quotient and never allocates it.  The largest
# system the test suite and the benchmark pools ask for is 17.9 M cells
# over GF(2), 18 MB.
SYSTEM_BYTES_CAP = 768 << 20

_INT_DTYPES = tuple(
    (dtype, int(np.iinfo(dtype).max))
    for dtype in (np.int8, np.int16, np.int32, np.int64)
)
_INT64_MAX = _INT_DTYPES[-1][1]
# Inputs of at most this many cells are eliminated in Python ints: below
# it numpy's overhead per call outweighs the vectorised row updates.
_SMALL_CELLS = 1024


def _work_dtype(bound):
    """Narrowest signed integer dtype holding magnitudes up to `bound`;
    object (Python ints, exact at any size) beyond int64."""
    for dtype, largest in _INT_DTYPES:
        if bound <= largest:
            return dtype
    return object


def _rref_dtype(p):
    return _work_dtype((p - 1) ** 2 + p)


def _matmul_mod(a, b, p):
    """(a @ b) mod p for entries in [0, p), exact for every p.

    int64 while a dot product, at most inner_dim * (p-1)^2, fits;
    Python-int arithmetic beyond.
    """
    if _work_dtype(a.shape[1] * (p - 1) ** 2) is object:
        return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)
    return (a @ b) % p


def rref(matrix, p):
    """Reduced row echelon form over GF(p) with leftmost pivots.

    Returns (R, pivot_cols); R is a fresh int64 array (object for p at
    or above 2^63).  Each pivot row is the first row at or below the
    current echelon position that is nonzero in its column; it is swapped
    into that position, scaled to 1 by its Fermat inverse, and its column
    is cleared from every other row that is nonzero there.  The update
    touches only the columns where the pivot row is nonzero, all at or
    right of the pivot, since the pivot row is zero to its left.

    An input of at most _SMALL_CELLS cells is eliminated on lists of
    Python ints (`_rref_rows`), where numpy's per-call overhead would
    outweigh the arithmetic; a larger one in one vectorised update per
    pivot, in the narrowest dtype that holds (p-1)^2 + p, the largest
    magnitude of an update before its reduction, so no step can
    overflow.  The RREF is unique, so both give the same R.
    """
    dtype = _rref_dtype(p)
    r = np.asarray(matrix)
    if r.dtype.kind not in "iu" or (r.size and (r.min() < 0 or r.max() >= p)):
        r = r.astype(object) % p
    r = r.astype(dtype)
    out_dtype = np.int64 if p <= _INT64_MAX else object
    if r.size <= _SMALL_CELLS:
        rows = r.tolist()
        pivot_cols = _rref_rows(rows, r.shape[1], p)
        return np.array(rows, dtype=out_dtype).reshape(r.shape), pivot_cols
    n_rows, n_cols = r.shape
    pivot_cols = []
    for col in range(n_cols):
        k = len(pivot_cols)
        if k == n_rows:
            break
        hits = r[k:, col].nonzero()[0]
        if hits.size == 0:
            continue
        if hits[0]:
            r[[k, k + hits[0]]] = r[[k + hits[0], k]]
        support = col + r[k, col:].nonzero()[0]
        piv = int(r[k, col])
        if piv != 1:
            r[k, support] = r[k, support] * pow(piv, p - 2, p) % p
        others = r[:, col].nonzero()[0]
        others = others[others != k]
        if others.size:
            block = (others[:, None], support)
            r[block] = (r[block] - r[others, col, None] * r[k, support]) % p
        pivot_cols.append(col)
    return r.astype(out_dtype, copy=False), pivot_cols


def _rref_rows(r, n_cols, p):
    """Reduce `r`, a list of rows of n_cols ints in [0, p), in place to
    the leftmost-pivot RREF over GF(p), by the steps of `rref`; returns
    the pivot columns.
    """
    pivot_cols = []
    n_rows = len(r)
    for col in range(n_cols):
        k = len(pivot_cols)
        if k == n_rows:
            break
        for i in range(k, n_rows):
            if r[i][col]:
                break
        else:
            continue
        r[k], r[i] = r[i], r[k]
        row = r[k]
        support = [c for c in range(col, n_cols) if row[c]]
        piv = int(row[col])
        if piv != 1:
            inv = pow(piv, p - 2, p)
            for c in support:
                row[c] = row[c] * inv % p
        for other in r:
            f = other[col]
            if f and other is not row:
                for c in support:
                    other[c] = (other[c] - f * row[c]) % p
        pivot_cols.append(col)
    return pivot_cols


def rank(matrix, p):
    a = np.asarray(matrix)
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace_with_free(matrix, p):
    """Nullspace basis plus the free-column indices that label it.

    Columns of the returned basis solve matrix @ x = 0 mod p; basis
    vector k carries a 1 at free column k and 0 at the other free
    columns.
    """
    a = np.asarray(matrix)
    n_cols = a.shape[1]
    if a.size == 0:
        return np.eye(n_cols, dtype=np.int64), list(range(n_cols))
    r, pivot_cols = rref(a, p)
    pivots = set(pivot_cols)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((n_cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivot_cols] = -r[: len(pivot_cols), free] % p
    return basis, free


def nullspace(matrix, p):
    """Columns form a basis of {x : matrix @ x = 0 mod p}."""
    return nullspace_with_free(matrix, p)[0]


@dataclass
class GridModule:
    """A module realized pointwise on a finite product grid.

    The basis of the slice at each point consists of the classes of the
    unit vectors at `free_rows[point]` (original generator indices, the
    "basis provenance"); `functionals[point]` evaluates a coefficient
    vector over the local generators in that basis.  maps[(point, axis)]
    is the dense matrix of the structure map from `point` to its
    successor along `axis`; square-commutativity of the grid diagram is
    validated at construction.  `slice_index[point]` numbers the distinct
    slices N_{<=point} in grid order.  Points with the same slice share
    its functionals, and edges between the same two slices share one
    edge-map array, so treat them as read-only.  `_degrees` holds the
    generator degrees of the realized presentation, against which
    `push_to_grid` checks a map.
    """

    p: int
    axes: tuple
    dims: dict
    gen_rows: dict
    free_rows: dict
    functionals: dict
    maps: dict
    slice_index: dict
    _next: tuple = field(init=False, repr=False, compare=False)
    _degrees: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        self._next = tuple(dict(zip(c, c[1:])) for c in self.axes)

    def points(self):
        return itertools.product(*self.axes)

    def successor(self, point, axis):
        """The next grid point after `point` along `axis`."""
        succ = self._next[axis][point[axis]]
        return point[:axis] + (succ,) + point[axis + 1:]


def realize_grid(presentation, axes=None, cap=GRID_CAP_DEFAULT):
    """Realize coker(N) as spaces and maps on a product grid.

    `axes` defaults to the per-axis sorted coordinate values of the
    presentation's own degrees; Hom computations pass the combined axes
    of both operands.  Raises ResourceCapError when the grid has more
    than `cap` points.

    N_{<=alpha} depends only on which rows and columns of N lie below
    alpha, and many grid points share them, so each distinct slice is
    reduced once and the edge maps between two slices are built once;
    every grid point still gets its own entry and every square is checked.
    """
    matrix = _matrix_of(presentation)
    p = matrix.field.p
    own = grid_axes(matrix)
    if axes is None:
        axes = own
    axes = tuple(tuple(sorted(set(a))) for a in axes)
    n_points = 1
    for a in axes:
        n_points *= max(len(a), 1)
    if n_points > cap:
        raise ResourceCapError(
            f"oracle grid has {n_points} points, cap is {cap}"
        )
    if own and len(own) != len(axes):
        raise DimensionMismatchError("oracle grid and module arities differ")
    # below[axis][c]: bitmasks of the rows and of the columns of N whose
    # coordinate on `axis` is <= c.
    below = [
        {c: (_mask(matrix.rows, axis, c), _mask(matrix.cols, axis, c))
         for c in coords}
        for axis, coords in enumerate(axes)
    ]
    everything = ((1 << matrix.nrows) - 1, (1 << matrix.ncols) - 1)
    slices, number, slice_index = [], {}, {}
    dims, gen_rows, free_rows, functionals = {}, {}, {}, {}
    for point in itertools.product(*axes):
        rows, cols = everything
        for masks, c in zip(below, point):
            rows, cols = rows & masks[c][0], cols & masks[c][1]
        key = (rows, cols)
        if key not in number:
            number[key] = len(slices)
            slices.append(_realize_slice(matrix.columns, rows, cols, p))
        slice_index[point] = k = number[key]
        dims[point], gen_rows[point], free_rows[point], functionals[point] = (
            slices[k][:4]
        )
    module = GridModule(p, axes, dims, gen_rows, free_rows, functionals, {},
                        slice_index)
    module._degrees = matrix.rows
    points = list(slice_index)
    ids = list(slice_index.values())
    strides = _strides(axes)
    edges = {}
    for i, point in enumerate(points):
        for axis, step in enumerate(strides):
            if point[axis] == axes[axis][-1]:
                continue
            pair = (ids[i], ids[i + step])
            if pair not in edges:
                edges[pair] = _edge_map(p, slices[pair[0]], slices[pair[1]])
            module.maps[(point, axis)] = edges[pair]
    _validate_squares(module)
    return module


def grid_axes(*matrices):
    """Per-axis sorted unique coordinates across all degree decorations."""
    return evaluation_grid(*matrices)


def _mask(degrees, axis, c):
    """Bitmask of the degrees whose coordinate on `axis` is <= c."""
    return sum(1 << i for i, deg in enumerate(degrees) if deg[axis] <= c)


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _realize_slice(columns, row_mask, col_mask, p):
    """(dim, gen_rows, free_rows, functionals, functional rows) of the
    cokernel of the slice of N, given by its sparse `columns`, on the
    masked rows and columns.

    The slice is reduced transposed, one row per column of N, on lists
    of Python ints up to _SMALL_CELLS cells and by `rref` on numpy
    beyond; the functionals are its nullspace basis, one row per basis
    element, as an int64 array and as lists of ints.  With no column of
    N the generators are a basis, and the functionals are the identity.
    """
    rows = _bits(row_mask)
    n = len(rows)
    if not n:
        return 0, (), (), np.zeros((0, 0), dtype=np.int64), []
    pos = {r: k for k, r in enumerate(rows)}
    t = []
    for j in _bits(col_mask):
        line = [0] * n
        for i, v in columns[j]:
            if i in pos:
                line[pos[i]] = v % p
        t.append(line)
    if len(t) * n > _SMALL_CELLS:
        r, pivots = rref(np.array(t, dtype=np.int64), p)
        t = r.tolist()
    else:
        pivots = _rref_rows(t, n, p)
    taken = set(pivots)
    free = [c for c in range(n) if c not in taken]
    w = []
    for f in free:
        line = [0] * n
        line[f] = 1
        for echelon, c in zip(t, pivots):
            line[c] = -echelon[f] % p
        w.append(line)
    array = np.array(w, dtype=np.int64).reshape(len(free), n)
    return len(free), tuple(rows), tuple(rows[k] for k in free), array, w


def _strides(axes):
    """How far the flat index of a point in grid order moves along each
    axis, the last axis moving fastest."""
    out, step = [], 1
    for coords in reversed(axes):
        out.append(step)
        step *= len(coords)
    return out[::-1]


def _edge_map(p, source, target):
    """Matrix of the structure map between two comparable slices.

    The basis vector k of `source` is the class of the unit vector at the
    generator source free_rows[k]; its coordinate inclusion into the
    target slice is evaluated by the target's functionals, so the edge
    map consists of the target functional columns at those generators.
    """
    free_a = source[2]
    dim_b, rows_b, _, _, w_b = target
    if not free_a or not dim_b:
        return np.zeros((dim_b, len(free_a)), dtype=np.int64)
    pos_b = {r: k for k, r in enumerate(rows_b)}
    at = [pos_b[r] for r in free_a]
    return np.array([[line[k] for k in at] for line in w_b], dtype=np.int64)


def _validate_squares(module):
    """Raise CheckMismatchError unless every grid square commutes.

    Edge maps are shared arrays, so a square is keyed by the identities
    of its four maps and each distinct square is multiplied out once.  A
    square whose source point or far corner is zero has nothing to
    compare and is skipped.
    """
    p, maps = module.p, module.maps
    points = list(module.points())
    d, strides = len(module.axes), _strides(module.axes)
    # out[axis][i]: the map out of the i-th point along `axis`, None past
    # the last coordinate.
    out = [[maps.get((point, axis)) for point in points] for axis in range(d)]
    planes = [(out[ax1], out[ax2], strides[ax1], strides[ax2])
              for ax1, ax2 in itertools.combinations(range(d), 2)]
    checked = set()
    for i, point in enumerate(points):
        for out1, out2, step1, step2 in planes:
            e1, e2 = out1[i], out2[i]
            if e1 is None or e2 is None:
                continue
            top, right = out2[i + step1], out1[i + step2]
            square = (id(e1), id(e2), id(top), id(right))
            if square in checked:
                continue
            checked.add(square)
            if not e1.shape[1] or not top.shape[0]:
                continue
            if (_matmul_mod(top, e1, p) != _matmul_mod(right, e2, p)).any():
                raise CheckMismatchError(
                    f"grid square at {point} does not commute"
                )


@dataclass(frozen=True)
class OracleResult:
    dim: int
    vectors: tuple
    variables: int
    equations: int
    solve_seconds: float
    var_layout: tuple


def hom_oracle(gx, gy):
    """Dimension and basis of the natural transformations X|grid -> Y|grid.

    One variable per matrix entry of f_alpha wherever both modules are
    nonzero; one equation block per grid edge enforcing
    f_beta . X_edge = Y_edge . f_alpha.  `variables`, `equations`,
    `var_layout` and SYSTEM_BYTES_CAP count that grid system, but it is
    solved over the slice quotient: points with the same pair of slices
    (X's and Y's) form a convex class holding its least element, and
    consecutive points of a class are joined by identity edge maps, so
    f is constant on a class.  Each class gets one variable block and
    each distinct pair of adjacent classes one equation block, emitted as
    sparse triplets; `_presolved_nullspace` then substitutes the one- and
    two-term rows, so `vectors` (the class blocks copied back to every
    point) is a basis of the solution space but not the RREF one.
    """
    if gx.p != gy.p:
        raise FieldMismatchError("oracle modules over different fields")
    if gx.axes != gy.axes:
        raise DimensionMismatchError("oracle modules live on different grids")
    p = gx.p
    layout, total = [], 0
    # offset[point]: the first variable of the block of the point's class;
    # shift[k]: that offset minus the point's first variable in the grid
    # system, for the k-th point of `layout`.
    offset, classes, shift, n_vars = {}, {}, [], 0
    for point in gx.points():
        dx, dy = gx.dims[point], gy.dims[point]
        if dx and dy:
            key = (gx.slice_index[point], gy.slice_index[point])
            if key not in classes:
                classes[key] = n_vars
                n_vars += dx * dy
            offset[point] = classes[key]
            shift.append(offset[point] - total)
            layout.append((point, dy, dx))
            total += dx * dy
    n_eqs = 0
    blocks = {}
    for point, axis in gx.maps:
        succ = gx.successor(point, axis)
        dxa, dyb = gx.dims[point], gy.dims[succ]
        if dxa == 0 or dyb == 0:
            continue
        n_eqs += dxa * dyb
        pair = (gx.slice_index[point], gy.slice_index[point],
                gx.slice_index[succ], gy.slice_index[succ])
        # Within a class both edge maps are identities: f_succ = f_point.
        if pair[:2] != pair[2:] and pair not in blocks:
            blocks[pair] = (point, succ, axis)
    size = n_eqs * total * np.dtype(_rref_dtype(p)).itemsize
    if size > SYSTEM_BYTES_CAP:
        raise ResourceCapError(
            f"oracle system of {n_eqs} equations x {total} variables needs "
            f"{size} bytes, cap is {SYSTEM_BYTES_CAP}"
        )
    # Row (t, s) of a block equates entry (t, s) of f_succ . X_edge and of
    # Y_edge . f_point, so the block is -kron(Y_edge, I_dxa) on the
    # variables of f_point and kron(I_dyb, X_edge^T) on those of f_succ.
    factors, entries, parts = {}, [], []
    eq = 0
    for point, succ, axis in blocks.values():
        xmap = gx.maps[(point, axis)]  # dxb x dxa
        ymap = gy.maps[(point, axis)]  # dyb x dya
        (dxb, dxa), dyb = xmap.shape, ymap.shape[0]
        if point in offset:
            entries.append(_kron_factor(factors, ymap, p, True))
            parts.append((eq, offset[point], dxa, dxa, 1, 1))
        if succ in offset:
            entries.append(_kron_factor(factors, xmap, p, False))
            parts.append((eq, offset[succ], 1, dyb, dxa, dxb))
        eq += dyb * dxa
    rows, cols, vals = _kron_triplets(entries, parts)
    t0 = time.perf_counter()
    quotient = _presolved_nullspace(rows, cols, vals, (eq, n_vars), p)
    elapsed = time.perf_counter() - t0
    # Copy each class block back to every point of the class.
    sizes = [dy * dx for _, dy, dx in layout]
    shift = np.repeat(np.array(shift, dtype=np.int64), sizes)
    basis = quotient[np.arange(total) + shift]
    return OracleResult(
        dim=basis.shape[1],
        vectors=tuple(map(tuple, basis.T.tolist())),
        variables=total,
        equations=n_eqs,
        solve_seconds=elapsed,
        var_layout=tuple(layout),
    )


def _kron_factor(cache, edge_map, p, of_y):
    """Nonzeros (row, col, value) of the factor an edge map puts in its
    block's Kronecker product, -Y_edge mod p for a map of Y and X_edge^T
    for a map of X, as one 3 x nnz array.  Edge maps are shared arrays, so
    each is read once, keyed by identity.
    """
    key = (id(edge_map), of_y)
    if key not in cache:
        rows, cols = edge_map.nonzero()
        vals = edge_map[rows, cols]
        cache[key] = np.array(
            [rows, cols, -vals % p] if of_y else [cols, rows, vals])
    return cache[key]


def _kron_triplets(entries, parts):
    """Triplets (rows, cols, vals) of the Kronecker blocks, sorted by row
    and then column.

    parts[k] = (row0, col0, scale, times, row_step, col_step) places each
    nonzero (a, b, v) of entries[k] at (row0 + a * scale, col0 + b * scale)
    and `times` times in all, moving by (row_step, col_step) each time:
    kron(A, I_m) at (row0, col0) is (row0, col0, m, m, 1, 1), and
    kron(I_m, B) is (row0, col0, 1, m, B rows, B columns).
    """
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    a, b, v = np.concatenate(entries, axis=1)
    row0, col0, scale, times, row_step, col_step = np.repeat(
        np.array(parts, dtype=np.int64).T, [e.shape[1] for e in entries],
        axis=1)
    # k: which copy of its nonzero each triplet is.
    k = np.arange(times.sum()) - np.repeat(np.cumsum(times) - times, times)
    rows = np.repeat(row0 + a * scale, times) + k * np.repeat(row_step, times)
    cols = np.repeat(col0 + b * scale, times) + k * np.repeat(col_step, times)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.repeat(v, times)[order]


def _presolved_nullspace(rows, cols, vals, shape, p):
    """Nullspace basis mod p of the matrix `a` of the given shape whose
    nonzeros are the triplets (rows[k], cols[k], vals[k]), values in
    [0, p), listed row by row with columns ascending.

    Nearly every naturality equation has one or two terms.  A row
    c_u x_u + c_v x_v = 0 fixes x_u as a multiple of x_v and a row
    c_u x_u = 0 fixes x_u = 0, so a weighted union-find over those rows
    writes every variable as weight * root; forced-zero variables hang
    below an extra "zero" node with weight 0.  A row that closes a cycle
    either holds under the weights or forces its component to zero.  The
    resulting map P satisfies every short row, and every solution of `a`
    is P y for exactly one y, so null(a) = P null(a_long P), with a_long
    the rows of three or more terms.  Column r of a_long P is the
    weighted sum of the columns of a whose root is r; the dense rref then
    runs on it without its zero rows.
    """
    n_rows, n = shape
    rows, cols, vals = (
        np.asarray(x, dtype=np.int64) for x in (rows, cols, vals))
    terms = np.bincount(rows, minlength=n_rows)[rows]
    short = terms <= 2
    # Node n is the zero node.  It stays a root, and every variable in its
    # component has weight 0.
    parent = list(range(n + 1))
    weight = [1] * (n + 1)  # x_u = weight[u] * x_parent[u]

    def find(u):
        if parent[parent[u]] == parent[u]:  # u is a root or just below one
            return parent[u], weight[u]
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        w = 1
        for v in reversed(path):
            w = weight[v] * w % p
            parent[v], weight[v] = u, w
        return u, w

    col, coef, n_terms = (x[short].tolist() for x in (cols, vals, terms))
    k = 0
    while k < len(col):
        if n_terms[k] == 1:  # x_u = 0 * x_zero
            u, v, ratio = col[k], n, 0
        else:  # x_u = -c_v / c_u * x_v
            u, v = col[k], col[k + 1]
            ratio = -coef[k + 1] * pow(coef[k], p - 2, p) % p
        k += n_terms[k]
        (ru, wu), (rv, wv) = find(u), find(v)
        if ru == rv:
            if (wu - ratio * wv) % p:  # an inconsistent cycle: x_ru = 0
                parent[ru], weight[ru] = n, 0
        elif wu:
            parent[ru], weight[ru] = rv, ratio * wv * pow(wu, p - 2, p) % p
        else:  # u is forced zero, hence so is v
            parent[rv], weight[rv] = ru, 0
    # P as one (root index, weight) per variable; index -1 where x_u = 0.
    root_ids, index, weights = {}, [], []
    for u in range(n):
        r, w = find(u)
        index.append(-1 if r == n else root_ids.setdefault(r, len(root_ids)))
        weights.append(w)
    index = np.array(index, dtype=np.int64)
    # Products are reduced before they are summed, so the int64 sums stay
    # below n * p; object (Python ints) once (p-1)^2 passes int64.
    dtype = np.int64 if _work_dtype((p - 1) ** 2) is not object else object
    weights = np.array(weights, dtype=dtype)
    long = ~short & (index[cols] >= 0)
    long_rows, row_of = np.unique(rows[long], return_inverse=True)
    n_roots = len(root_ids)
    # Entry (i, r) of a_long P sums the products of row i at root r.
    key = row_of * n_roots + index[cols[long]]
    reduced = np.zeros(len(long_rows) * n_roots, dtype=dtype)
    if key.size:
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        products = vals[long].astype(dtype) * weights[cols[long]] % p
        reduced[key[starts]] = np.add.reduceat(products[order], starts) % p
    reduced = reduced.reshape(len(long_rows), n_roots)
    y = nullspace(reduced[(reduced != 0).any(axis=1)], p)
    basis = np.zeros((n, y.shape[1]), dtype=np.int64)
    live = index >= 0
    basis[live] = weights[live, None] * y.astype(dtype)[index[live]] % p
    return basis


def push_to_grid(q, gx, gy):
    """Evaluate a graded matrix Q: A[G] -> A[G'] pointwise on the grid.

    Returns {point: dense dy x dx matrix} mapping the oracle basis of
    X_alpha to the oracle basis of Y_alpha.  Raises FieldMismatchError
    unless Q and both grids share one field, DimensionMismatchError
    unless the grids are one grid and Q has Y's generator degrees as rows
    and X's as columns, and GradingError for an entry of Q against the
    grading.
    """
    if not q.field.p == gx.p == gy.p:
        raise FieldMismatchError("Q matrix and grids over different fields")
    if gx.axes != gy.axes:
        raise DimensionMismatchError("oracle modules live on different grids")
    if q.rows != gy._degrees or q.cols != gx._degrees:
        raise DimensionMismatchError(
            "Q must have Y's generator degrees as rows and X's as columns")
    for cdeg, col in zip(q.cols, q.columns):
        if not all(all(map(le, q.rows[i], cdeg)) for i, _ in col):
            raise GradingError("Q matrix with an entry against the grading")
    p = gx.p
    out = {}
    for point in gx.points():
        dx, dy = gx.dims[point], gy.dims[point]
        rows_y = gy.gen_rows[point]
        if dx == 0 or dy == 0:
            out[point] = np.zeros((dy, dx), dtype=np.int64)
            continue
        # Column k: image of the unit vector at the k-th free generator.
        q_dense = np.zeros((len(rows_y), dx), dtype=np.int64)
        pos_y = {r: k for k, r in enumerate(rows_y)}
        for k, g in enumerate(gx.free_rows[point]):
            for gp, v in q.columns[g]:
                q_dense[pos_y[gp], k] = v
        out[point] = _matmul_mod(gy.functionals[point], q_dense, p)
    return out


def naturality_residual(q, gx, gy):
    """Maximum absolute residual of the pushed map over all grid edges."""
    p = gx.p
    f = push_to_grid(q, gx, gy)
    worst = 0
    for (point, axis), xmap in gx.maps.items():
        succ = gx.successor(point, axis)
        ymap = gy.maps[(point, axis)]
        lhs = _matmul_mod(f[succ], xmap, p)
        rhs = _matmul_mod(ymap, f[point], p)
        if lhs.size:
            worst = max(worst, int(np.abs(lhs - rhs).max()))
    return worst
