"""Brute-force oracle: modules as explicit functors on a finite grid.

A presentation is realized as vector spaces and structure maps on the
product grid of its degree coordinates; Hom(X, Y) is then computed as the
space of natural transformations by solving one global dense linear
system, one equation block per grid edge.

Everything here is deliberately redundant with the sparse engine: ranks
and nullspaces come from an independent dense row-echelon routine on
numpy arrays (leftmost-pivot convention), so a bug in the sparse column
reduction cannot confirm itself.

Two things keep the dense work small.  Many grid points share the same
slice N_{<=alpha} (the same rows and columns of N lie below them), and
`realize_grid` reduces each distinct slice once.  Nearly every naturality
equation has one or two terms, so `hom_oracle` substitutes those first,
writing each variable as a multiple of a root variable, and row-reduces
only the longer equations over the roots; its basis spans the same space
as the plain nullspace but is not the RREF one.

The arithmetic is exact for every prime.  `rref` eliminates in the
narrowest integer dtype that holds (p-1)^2 + p, the largest magnitude a
row update produces before it is reduced mod p, and in Python ints
(object arrays) once that passes int64; matrix products use the same
rule with the bound inner_dim * (p-1)^2.  Reduced values are stored as
int64, which holds every residue of a prime below 2^63.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .errors import (
    CheckMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
    ResourceCapError,
)
from .localalg import _matrix_of, evaluation_grid

import numpy as np

GRID_CAP_DEFAULT = 10_000
# Largest equation matrix hom_oracle allocates, in bytes of the rref
# working dtype (rref copies it once more).  The largest system the test
# suite and the benchmark pools build is 17.9 M cells over GF(2), 18 MB.
SYSTEM_BYTES_CAP = 768 << 20

_INT_DTYPES = tuple(
    (dtype, int(np.iinfo(dtype).max))
    for dtype in (np.int8, np.int16, np.int32, np.int64)
)
_INT64_MAX = _INT_DTYPES[-1][1]


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
    or above 2^63).  Each pivot is scaled to 1 by its Fermat inverse and
    its column is cleared in one vectorised update of every other row
    that is nonzero there.  The update touches only the columns where
    the pivot row is nonzero, all at or right of the pivot, since the
    pivot row is zero to its left.  The pivot row of a column is its
    first nonzero row that holds no earlier pivot; RREF is unique, so
    the choice does not change R.  The work array takes the narrowest
    dtype that holds (p-1)^2 + p, the largest magnitude of an update
    before its reduction, so no step can overflow.
    """
    dtype = _rref_dtype(p)
    r = np.asarray(matrix)
    if r.dtype.kind not in "iu" or (r.size and (r.min() < 0 or r.max() >= p)):
        r = r.astype(object) % p
    r = r.astype(dtype)
    n_rows, n_cols = r.shape
    # Rows are not swapped: each pivot row is recorded and the rows are
    # put in echelon order once at the end.  Every other row ends zero.
    is_pivot_row = np.zeros(n_rows, dtype=bool)
    pivot_rows, pivot_cols = [], []
    for col in range(n_cols):
        if len(pivot_rows) == n_rows:
            break
        # astype(bool) first: nonzero() is several times faster on bools.
        nonzero = r[:, col].astype(bool).nonzero()[0]
        candidates = nonzero[~is_pivot_row[nonzero]]
        if candidates.size == 0:
            continue
        row = candidates[0]
        support = col + r[row, col:].astype(bool).nonzero()[0]
        piv = int(r[row, col])
        if piv != 1:
            r[row, support] = r[row, support] * pow(piv, p - 2, p) % p
        others = nonzero[nonzero != row]
        if others.size:
            block = (others[:, None], support)
            r[block] = (r[block] - r[block[0], col] * r[row, support]) % p
        is_pivot_row[row] = True
        pivot_rows.append(row)
        pivot_cols.append(col)
    out = np.zeros_like(r)
    out[: len(pivot_rows)] = r[pivot_rows]
    if p <= _INT64_MAX:
        out = out.astype(np.int64, copy=False)
    return out, pivot_cols


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
    validated at construction.  Points with the same slice share its
    functionals and edge-map arrays, so treat them as read-only.
    """

    p: int
    axes: tuple
    dims: dict
    gen_rows: dict
    free_rows: dict
    functionals: dict
    maps: dict
    _next: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._next = tuple(dict(zip(c, c[1:])) for c in self.axes)

    def points(self):
        return itertools.product(*self.axes)

    def dimension_at(self, point):
        return self.dims[tuple(point)]

    def successor(self, point, axis):
        """The next grid point after `point` along `axis`."""
        succ = list(point)
        succ[axis] = self._next[axis][point[axis]]
        return tuple(succ)


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
    full = np.zeros((matrix.nrows, matrix.ncols), dtype=np.int64)
    for j, col in enumerate(matrix.columns):
        for i, v in col:
            full[i, j] = v
    slices, keys = {}, {}
    dims, gen_rows, free_rows, functionals = {}, {}, {}, {}
    for point in itertools.product(*axes):
        rows, cols = everything
        for masks, c in zip(below, point):
            rows, cols = rows & masks[c][0], cols & masks[c][1]
        key = (rows, cols)
        keys[point] = key
        if key not in slices:
            slices[key] = _realize_slice(full, rows, cols, p)
        dims[point], gen_rows[point], free_rows[point], functionals[point] = (
            slices[key]
        )
    module = GridModule(p, axes, dims, gen_rows, free_rows, functionals, {})
    edges = {}
    for point in module.points():
        for axis, coords in enumerate(axes):
            if point[axis] == coords[-1]:
                continue
            succ = module.successor(point, axis)
            pair = (keys[point], keys[succ])
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


def _realize_slice(full, row_mask, col_mask, p):
    """(dim, gen_rows, free_rows, functionals) of the cokernel of the
    slice of N (given densely as `full`) on the masked rows and columns.
    """
    rows = _bits(row_mask)
    if not rows:
        return 0, (), (), np.zeros((0, 0), dtype=np.int64)
    w, free = nullspace_with_free(full[rows][:, _bits(col_mask)].T, p)
    # One row of functionals per basis element.
    return w.shape[1], tuple(rows), tuple(rows[k] for k in free), w.T


def _edge_map(p, source, target):
    """Matrix of the structure map between two comparable slices.

    The basis vector k of `source` is the class of the unit vector at the
    generator source free_rows[k]; its coordinate inclusion into the
    target slice is evaluated by the target's functionals, so the edge
    map consists of the target functional columns at those generators.
    """
    _, _, free_a, _ = source
    dim_b, rows_b, _, w_b = target
    dim_a = len(free_a)
    if dim_a == 0 or dim_b == 0:
        return np.zeros((dim_b, dim_a), dtype=np.int64)
    pos_b = {r: k for k, r in enumerate(rows_b)}
    return w_b[:, [pos_b[r] for r in free_a]] % p


def _validate_squares(module):
    axes, p = module.axes, module.p
    for point in module.points():
        for ax1 in range(len(axes)):
            for ax2 in range(ax1 + 1, len(axes)):
                e1 = module.maps.get((point, ax1))
                e2 = module.maps.get((point, ax2))
                if e1 is None or e2 is None:
                    continue
                succ1 = module.successor(point, ax1)
                succ2 = module.successor(point, ax2)
                top = module.maps[(succ1, ax2)]
                right = module.maps[(succ2, ax1)]
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
    f_beta . X_edge = Y_edge . f_alpha.  The system is assembled densely,
    and `variables` and `equations` count it as built; the solve then
    substitutes its one- and two-term rows (`_presolved_nullspace`), so
    `vectors` is a basis of the solution space but not the RREF one.
    """
    if gx.p != gy.p:
        raise FieldMismatchError("oracle modules over different fields")
    if gx.axes != gy.axes:
        raise DimensionMismatchError("oracle modules live on different grids")
    p = gx.p
    layout = []
    offsets = {}
    total = 0
    for point in gx.points():
        dx, dy = gx.dims[point], gy.dims[point]
        if dx and dy:
            offsets[point] = total
            layout.append((point, dy, dx))
            total += dx * dy
    n_eqs = 0
    blocks = []
    for point in gx.points():
        for axis in range(len(gx.axes)):
            if (point, axis) not in gx.maps:
                continue
            succ = gx.successor(point, axis)
            dxa, dyb = gx.dims[point], gy.dims[succ]
            if dxa == 0 or dyb == 0:
                continue
            blocks.append((point, succ, axis, n_eqs))
            n_eqs += dxa * dyb
    # Entries lie in [0, p): build the matrix in the dtype rref works in.
    dtype = _rref_dtype(p)
    size = n_eqs * total * np.dtype(dtype).itemsize
    if size > SYSTEM_BYTES_CAP:
        raise ResourceCapError(
            f"oracle system of {n_eqs} equations x {total} variables needs "
            f"{size} bytes, cap is {SYSTEM_BYTES_CAP}"
        )
    a = np.zeros((n_eqs, total), dtype=dtype)
    for point, succ, axis, eq in blocks:
        # Row (t, s) of the block equates entry (t, s) of f_succ . X_edge
        # and of Y_edge . f_point.  The block is kron(I_dyb, X_edge^T) on
        # the variables of f_succ and -kron(Y_edge, I_dxa) on those of
        # f_point, written through 4-d views of `a`.
        xmap = gx.maps[(point, axis)]  # dxb x dxa
        ymap = gy.maps[(point, axis)]  # dyb x dya
        (dxb, dxa), (dyb, dya) = xmap.shape, ymap.shape
        rows = slice(eq, eq + dyb * dxa)
        if succ in offsets:
            base = offsets[succ]
            view = a[rows, base : base + dyb * dxb].reshape(dyb, dxa, dyb, dxb)
            t = np.arange(dyb)
            view[t, :, t, :] = xmap.T
        if point in offsets:
            base = offsets[point]
            view = a[rows, base : base + dya * dxa].reshape(dyb, dxa, dya, dxa)
            s = np.arange(dxa)
            view[:, s, :, s] = -ymap % p
    t0 = time.perf_counter()
    basis = _presolved_nullspace(a, p)
    elapsed = time.perf_counter() - t0
    vectors = tuple(map(tuple, basis.T.tolist()))
    return OracleResult(
        dim=basis.shape[1],
        vectors=vectors,
        variables=total,
        equations=n_eqs,
        solve_seconds=elapsed,
        var_layout=tuple(layout),
    )


def _presolved_nullspace(a, p):
    """Nullspace basis of `a` mod p, substituting short rows first.

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
    n_rows, n = a.shape
    rows, cols = np.nonzero(a)  # row-major: each row's terms are adjacent
    vals = a[rows, cols]
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
    X_alpha to the oracle basis of Y_alpha.
    """
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
