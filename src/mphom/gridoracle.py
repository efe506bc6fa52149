"""Brute-force oracle: modules as explicit functors on a finite grid.

A presentation is realized as vector spaces and structure maps on the
product grid of its degree coordinates; Hom(X, Y) is then computed as the
space of natural transformations by solving one global dense linear
system, one equation block per grid edge.

Everything here is deliberately redundant with the sparse engine: ranks
and nullspaces come from an independent dense row-echelon routine on
numpy arrays (leftmost-pivot convention), so a bug in the sparse column
reduction cannot confirm itself.

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
from dataclasses import dataclass

from .errors import (
    CheckMismatchError,
    DimensionMismatchError,
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


def _dense_slice(matrix, point):
    """Dense N_{<=alpha} plus the original row indices it keeps."""
    rows = [
        i
        for i, r in enumerate(matrix.rows)
        if all(a <= b for a, b in zip(r, point))
    ]
    cols = [
        j
        for j, c in enumerate(matrix.cols)
        if all(a <= b for a, b in zip(c, point))
    ]
    pos = {i: k for k, i in enumerate(rows)}
    dense = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for k, j in enumerate(cols):
        for i, v in matrix.columns[j]:
            dense[pos[i], k] = v
    return dense, rows


@dataclass
class GridModule:
    """A module realized pointwise on a finite product grid.

    The basis of the slice at each point consists of the classes of the
    unit vectors at `free_rows[point]` (original generator indices, the
    "basis provenance"); `functionals[point]` evaluates a coefficient
    vector over the local generators in that basis.  maps[(point, axis)]
    is the dense matrix of the structure map from `point` to its
    successor along `axis`; square-commutativity of the grid diagram is
    validated at construction.
    """

    p: int
    axes: tuple
    dims: dict
    gen_rows: dict
    free_rows: dict
    functionals: dict
    maps: dict

    def points(self):
        return itertools.product(*self.axes)

    def dimension_at(self, point):
        return self.dims[tuple(point)]


def realize_grid(presentation, axes=None, cap=GRID_CAP_DEFAULT):
    """Realize coker(N) as spaces and maps on a product grid.

    `axes` defaults to the per-axis sorted coordinate values of the
    presentation's own degrees; Hom computations pass the combined axes
    of both operands.  Raises ResourceCapError when the grid has more
    than `cap` points.
    """
    matrix = _matrix_of(presentation)
    p = matrix.field.p
    if axes is None:
        axes = grid_axes(matrix)
    axes = tuple(tuple(sorted(set(a))) for a in axes)
    n_points = 1
    for a in axes:
        n_points *= max(len(a), 1)
    if n_points > cap:
        raise ResourceCapError(
            f"oracle grid has {n_points} points, cap is {cap}"
        )
    dims, gen_rows, free_rows, functionals = {}, {}, {}, {}
    for point in itertools.product(*axes):
        dense, rows = _dense_slice(matrix, point)
        if rows:
            w, free = nullspace_with_free(dense.T, p)
        else:
            w, free = np.zeros((0, 0), dtype=np.int64), []
        dims[point] = w.shape[1]
        gen_rows[point] = tuple(rows)
        free_rows[point] = tuple(rows[k] for k in free)
        functionals[point] = w.T  # one row of functionals per basis element
    maps = {}
    for point in itertools.product(*axes):
        for axis, coords in enumerate(axes):
            if point[axis] == coords[-1]:
                continue
            maps[(point, axis)] = _edge_map(
                p, gen_rows, free_rows, functionals, point,
                _successor(axes, point, axis),
            )
    module = GridModule(p, axes, dims, gen_rows, free_rows, functionals, maps)
    _validate_squares(module)
    return module


def grid_axes(*matrices):
    """Per-axis sorted unique coordinates across all degree decorations."""
    return evaluation_grid(*matrices)


def _edge_map(p, gen_rows, free_rows, functionals, point, succ):
    """Matrix of the structure map between two comparable grid points.

    The basis vector k at `point` is the class of the unit vector at the
    generator free_rows[point][k]; its coordinate inclusion into the
    successor slice is evaluated by the successor's functionals, so the
    edge map consists of the successor functional columns at those
    generators.
    """
    w_b = functionals[succ]
    dim_a = len(free_rows[point])
    dim_b = w_b.shape[0]
    if dim_a == 0 or dim_b == 0:
        return np.zeros((dim_b, dim_a), dtype=np.int64)
    pos_b = {r: k for k, r in enumerate(gen_rows[succ])}
    out = np.zeros((dim_b, dim_a), dtype=np.int64)
    for k, r in enumerate(free_rows[point]):
        out[:, k] = w_b[:, pos_b[r]]
    return out % p


def _validate_squares(module):
    axes, p = module.axes, module.p
    for point in module.points():
        for ax1 in range(len(axes)):
            for ax2 in range(ax1 + 1, len(axes)):
                e1 = module.maps.get((point, ax1))
                e2 = module.maps.get((point, ax2))
                if e1 is None or e2 is None:
                    continue
                succ1 = _successor(axes, point, ax1)
                succ2 = _successor(axes, point, ax2)
                top = module.maps[(succ1, ax2)]
                right = module.maps[(succ2, ax1)]
                if (_matmul_mod(top, e1, p) != _matmul_mod(right, e2, p)).any():
                    raise CheckMismatchError(
                        f"grid square at {point} does not commute"
                    )


def _successor(axes, point, axis):
    coords = axes[axis]
    k = coords.index(point[axis])
    return tuple(
        coords[k + 1] if a == axis else point[a] for a in range(len(axes))
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
    f_beta . X_edge = Y_edge . f_alpha.
    """
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
            succ = _successor(gx.axes, point, axis)
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
    basis = nullspace(a, p) if total else np.zeros((0, 0), dtype=np.int64)
    elapsed = time.perf_counter() - t0
    vectors = tuple(map(tuple, basis.T.tolist()))
    return OracleResult(
        dim=basis.shape[1] if total else 0,
        vectors=vectors,
        variables=total,
        equations=n_eqs,
        solve_seconds=elapsed,
        var_layout=tuple(layout),
    )


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
        succ = _successor(gx.axes, point, axis)
        ymap = gy.maps[(point, axis)]
        lhs = _matmul_mod(f[succ], xmap, p)
        rhs = _matmul_mod(ymap, f[point], p)
        if lhs.size:
            worst = max(worst, int(np.abs(lhs - rhs).max()))
    return worst
