"""Brute-force oracle: modules as explicit functors on a finite grid.

A presentation is realized as vector spaces and structure maps on the
product grid of its degree coordinates; Hom(X, Y) is then computed as the
space of natural transformations by solving one global linear system,
one equation block per grid edge.

Everything here is deliberately redundant with the sparse engine: ranks
and nullspaces come from one independent dense row-echelon routine,
`_rref_rows` (leftmost-pivot convention, on lists of Python ints), which
shares no arithmetic with `graded`, so a bug in the sparse column
reduction cannot confirm itself.  `rref`, `rank` and `nullspace` are its
public entry points; they read every entry of their input as an exact
int mod p.

Three things keep the dense work small.  Many grid points share the same
slice N_{<=alpha} (the same rows and columns of N lie below them), and
`realize_grid` reduces each distinct slice once, read from N's sparse
columns, and builds the edge maps between two slices once.  Points with
the same slices of X and of Y are joined by identity maps, so
`hom_oracle` gives each such class one block of variables and each pair
of adjacent classes one block of equations, built row by row as sparse
(variable, value) terms rather than a dense array.  Nearly every
naturality equation has one or two terms, so it substitutes those first,
writing each variable as a multiple of a root variable, and row-reduces
only the longer equations over the roots; its basis spans the same space
as the plain nullspace but is not the RREF one.

The arithmetic is exact for every prime: every value is a Python int,
which cannot overflow, and every stored value is reduced mod p.
Matrices are lists of rows, and a matrix with no rows does not show its
width, so the shapes are read from the modules' `dims`.
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

GRID_CAP_DEFAULT = 10_000
# Largest grid naturality system hom_oracle accepts, counted in cells of
# the dense equations x variables matrix; the solve works on a sparse
# quotient and never allocates it.  The benchmark pools ask for at most
# 17.9 M cells; the test suite's largest system, 30 059 x 15 109 at
# p = 65521, has 454 M.
SYSTEM_CELLS_CAP = 768 << 20


def rref(matrix, p):
    """Reduced row echelon form over GF(p) with leftmost pivots.

    `matrix` is a sequence of equal-length rows whose entries `int`
    converts exactly (ints, bools, integer-valued floats, or array
    scalars of those); each entry is read as int(v) mod p, so no float
    product can round.  Returns (rows, pivot_cols), rows a fresh list of
    lists of ints in [0, p), one per input row.
    """
    rows = [[int(v) % p for v in row] for row in matrix]
    pivot_cols = _rref_rows(rows, len(rows[0]) if rows else 0, p)
    return rows, pivot_cols


def _rref_rows(r, n_cols, p):
    """Reduce `r`, a list of rows of n_cols ints in [0, p), in place to
    the leftmost-pivot RREF over GF(p); returns the pivot columns.

    Each pivot row is the first row at or below the current echelon
    position that is nonzero in its column; it is swapped into that
    position, scaled to 1 by its Fermat inverse, and its column is cleared
    from every other row that is nonzero there.  The update touches only
    the columns where the pivot row is nonzero, all at or right of the
    pivot, since the pivot row is zero to its left.
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
        piv = row[col]
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
    return len(rref(matrix, p)[1])


def nullspace_with_free(matrix, p, n_cols):
    """Nullspace basis plus the free-column indices that label it.

    `matrix` has n_cols columns, passed because a matrix with no rows does
    not show them.  Each basis vector, a list of n_cols ints in [0, p),
    solves matrix @ x = 0 mod p; vector k carries a 1 at free column k and
    0 at the other free columns.
    """
    return _kernel([[int(v) % p for v in row] for row in matrix], n_cols, p)


def _kernel(r, n_cols, p):
    """`nullspace_with_free` of `r`, a list of rows of n_cols ints in
    [0, p), which it reduces in place."""
    pivot_cols = _rref_rows(r, n_cols, p)
    pivots = set(pivot_cols)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        x = [0] * n_cols
        x[f] = 1
        for row, c in zip(r, pivot_cols):
            x[c] = -row[f] % p
        basis.append(x)
    return basis, free


def nullspace(matrix, p, n_cols):
    """A basis of {x : matrix @ x = 0 mod p}, one list per vector."""
    return nullspace_with_free(matrix, p, n_cols)[0]


@dataclass
class GridModule:
    """A module realized pointwise on a finite product grid.

    The basis of the slice at each point consists of the classes of the
    unit vectors at `free_rows[point]` (original generator indices, the
    "basis provenance"); `functionals[point]` evaluates a coefficient
    vector over the local generators in that basis, one row (a list of
    ints) per basis element.  maps[(point, axis)] is the matrix of the
    structure map from `point` to its successor along `axis`, as
    dims[successor] rows of dims[point] ints; square-commutativity of the
    grid diagram is validated at construction.  `slice_index[point]`
    numbers the distinct slices N_{<=point} in grid order.  Points with
    the same slice share its functionals, and edges between the same two
    slices share one edge-map list, so treat them as read-only.
    `_degrees` holds the generator degrees of the realized presentation,
    against which `push_to_grid` checks a map.
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
            slices[k]
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
    """(dim, gen_rows, free_rows, functionals) of the cokernel of the
    slice of N, given by its sparse `columns`, on the masked rows and
    columns.

    The slice is reduced transposed, one row per column of N; the
    functionals are its nullspace basis, one row per basis element.  With
    no column of N the generators are a basis, and the functionals are
    the identity.
    """
    rows = _bits(row_mask)
    n = len(rows)
    pos = {r: k for k, r in enumerate(rows)}
    t = []
    for j in _bits(col_mask):
        line = [0] * n
        for i, v in columns[j]:
            if i in pos:
                line[pos[i]] = v % p
        t.append(line)
    w, free = _kernel(t, n, p)
    return len(free), tuple(rows), tuple(rows[k] for k in free), w


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
    rows_b, w_b = target[1], target[3]
    pos_b = {r: k for k, r in enumerate(rows_b)}
    at = [pos_b[r] for r in source[2]]
    return [[line[k] for k in at] for line in w_b]


def _sparse(matrix):
    """The nonzeros of each row of `matrix`, as (column, value) pairs."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in matrix]


def _cached(cache, matrix):
    """`_sparse(matrix)`, kept in `cache` by the identity of `matrix`."""
    key = id(matrix)
    if key not in cache:
        cache[key] = _sparse(matrix)
    return cache[key]


def _product(a, b, n_cols, p):
    """a @ b mod p, for a and b given by their `_sparse` rows and b of
    n_cols columns, as dense rows."""
    out = []
    for row in a:
        acc = [0] * n_cols
        for k, v in row:
            for j, x in b[k]:
                acc[j] += v * x
        out.append([x % p for x in acc])
    return out


def _validate_squares(module):
    """Raise CheckMismatchError unless every grid square commutes.

    Edge maps are shared lists, so each is read into sparse rows once, a
    square is keyed by the identities of its four maps, and each distinct
    square is multiplied out once.  A square whose source point or far
    corner is zero has nothing to compare and is skipped.
    """
    p, maps = module.p, module.maps
    points = list(module.points())
    dims = [module.dims[point] for point in points]
    d, strides = len(module.axes), _strides(module.axes)
    # out[axis][i]: the sparse rows of the map out of the i-th point along
    # `axis`, None past the last coordinate.
    sparse = {}
    out = [[None if m is None else _cached(sparse, m)
            for m in (maps.get((point, axis)) for point in points)]
           for axis in range(d)]
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
            n = dims[i]
            if n and top and not _commutes(top, e1, right, e2, n, p):
                raise CheckMismatchError(
                    f"grid square at {point} does not commute"
                )


def _commutes(a, b, c, e, n_cols, p):
    """Whether a @ b == c @ e mod p, for matrices given by their `_sparse`
    rows, b and e of n_cols columns."""
    for row_a, row_c in zip(a, c):
        acc = [0] * n_cols
        for k, v in row_a:
            for j, x in b[k]:
                acc[j] += v * x
        for k, v in row_c:
            for j, x in e[k]:
                acc[j] -= v * x
        for x in acc:
            if x % p:
                return False
    return True


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
    `var_layout` and SYSTEM_CELLS_CAP (against equations x variables)
    count that grid system, but it is solved over the slice quotient:
    points with the same pair of slices (X's and Y's) form a convex class
    holding its least element, and consecutive points of a class are
    joined by identity edge maps, so f is constant on a class.  Each class
    gets one variable block and each distinct pair of adjacent classes
    one equation block, built row by row as sparse (variable, value)
    terms; `_presolved_nullspace` then substitutes the one- and two-term
    rows, so `vectors` (the class blocks copied back to every point, one
    tuple of ints per basis element) is a basis of the solution space but
    not the RREF one.  `solve_seconds` times building and solving the
    quotient system, since its rows are built as the solve reads them.
    """
    if gx.p != gy.p:
        raise FieldMismatchError("oracle modules over different fields")
    if gx.axes != gy.axes:
        raise DimensionMismatchError("oracle modules live on different grids")
    p = gx.p
    # offset[point]: the first variable of the block of the point's class;
    # gather[v]: the class variable that grid variable v copies.
    layout, offset, classes, gather, n_vars = [], {}, {}, [], 0
    for point in gx.points():
        dx, dy = gx.dims[point], gy.dims[point]
        if dx and dy:
            key = (gx.slice_index[point], gy.slice_index[point])
            if key not in classes:
                classes[key] = n_vars
                n_vars += dx * dy
            offset[point] = base = classes[key]
            gather.extend(range(base, base + dx * dy))
            layout.append((point, dy, dx))
    total = len(gather)
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
    if n_eqs * total > SYSTEM_CELLS_CAP:
        raise ResourceCapError(
            f"oracle system of {n_eqs} equations x {total} variables has "
            f"{n_eqs * total} cells, cap is {SYSTEM_CELLS_CAP}"
        )
    t0 = time.perf_counter()
    quotient = _presolved_nullspace(
        _naturality_lines(gx, gy, blocks.values(), offset), n_vars, p)
    elapsed = time.perf_counter() - t0
    return OracleResult(
        dim=len(quotient),
        vectors=tuple(tuple(map(y.__getitem__, gather)) for y in quotient),
        variables=total,
        equations=n_eqs,
        solve_seconds=elapsed,
        var_layout=tuple(layout),
    )


def _naturality_lines(gx, gy, blocks, offset):
    """The rows of the equation blocks, one list of (variable, value)
    terms per row, yielded block by block so that no more than one block
    is held at a time.

    Row t * dxa + s of a block equates entry (t, s) of f_succ . X_edge
    and of Y_edge . f_point, so the block is -kron(Y_edge, I_dxa) on the
    variables of f_point and kron(I_dyb, X_edge^T) on those of f_succ.
    Edge maps are shared lists, so each is read into sparse rows once.
    """
    p, sparse = gx.p, {}
    for point, succ, axis in blocks:
        dxa, dxb, dyb = gx.dims[point], gx.dims[succ], gy.dims[succ]
        block = [[] for _ in range(dyb * dxa)]
        if point in offset:
            base = offset[point]
            for t, row in enumerate(_cached(sparse, gy.maps[(point, axis)])):
                lines = block[t * dxa:(t + 1) * dxa]
                for b, v in row:
                    col, v = base + b * dxa, -v % p
                    for line, c in zip(lines, range(col, col + dxa)):
                        line.append((c, v))
        if succ in offset:
            base = offset[succ]
            for b, row in enumerate(_cached(sparse, gx.maps[(point, axis)])):
                cols = range(base + b, base + b + dyb * dxb, dxb)
                for s, v in row:
                    for line, c in zip(block[s::dxa], cols):
                        line.append((c, v))
        yield from block


def _presolved_nullspace(lines, n, p):
    """Nullspace basis mod p, one list of n ints per vector, of the
    system whose equations are `lines`, each a list of (variable, value)
    terms with distinct variables in [0, n) and values in [1, p).

    Nearly every naturality equation has one or two terms.  A row
    c_u x_u + c_v x_v = 0, read with u < v, fixes x_u as a multiple of x_v
    and a row c_u x_u = 0 fixes x_u = 0, so a weighted union-find over
    those rows, taken in order, writes every variable as weight * root;
    forced-zero variables hang below an extra "zero" node with weight 0.
    A row that closes a cycle either holds under the weights or forces its
    component to zero.  The resulting map P satisfies every short row, and
    every solution of the system `a` is P y for exactly one y, so
    null(a) = P null(a_long P), with a_long the rows of three or more
    terms.  Column r of a_long P is the weighted sum of the columns of `a`
    whose root is r; its nonzero rows are then row-reduced.
    """
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

    long = []
    for line in lines:
        if len(line) == 2:  # x_u = -c_v / c_u * x_v
            (u, cu), (v, cv) = line
            if u > v:
                u, cu, v, cv = v, cv, u, cu
            ratio = -cv * pow(cu, p - 2, p) % p
        elif len(line) == 1:  # x_u = 0 * x_zero
            u, v, ratio = line[0][0], n, 0
        else:  # an empty row, or a long one, read once P is known
            if line:
                long.append(line)
            continue
        (ru, wu), (rv, wv) = find(u), find(v)
        if ru == rv:
            if (wu - ratio * wv) % p:  # an inconsistent cycle: x_ru = 0
                parent[ru], weight[ru] = n, 0
        elif wu:
            parent[ru], weight[ru] = rv, ratio * wv * pow(wu, p - 2, p) % p
        else:  # u is forced zero, hence so is v
            parent[rv], weight[rv] = ru, 0
    # P as one (root index, weight) per variable, and as the (variable,
    # weight) pairs below each root; index -1 where x_u = 0.
    root_ids, index, weights = {}, [], []
    for u in range(n):
        r, w = find(u)
        index.append(-1 if r == n else root_ids.setdefault(r, len(root_ids)))
        weights.append(w)
    n_roots = len(root_ids)
    members = [[] for _ in range(n_roots)]
    for u, r in enumerate(index):
        if r >= 0:
            members[r].append((u, weights[u]))
    reduced = []
    for line in long:
        sums = {}
        for u, v in line:
            r = index[u]
            if r >= 0:
                sums[r] = sums.get(r, 0) + v * weights[u]
        row = [0] * n_roots
        for r, x in sums.items():
            row[r] = x % p
        if any(row):
            reduced.append(row)
    basis = []
    for y in _kernel(reduced, n_roots, p)[0]:
        x = [0] * n
        for r, c in enumerate(y):
            if c:
                for u, w in members[r]:
                    x[u] = w * c % p
        basis.append(x)
    return basis

def push_to_grid(q, gx, gy):
    """Evaluate a graded matrix Q: A[G] -> A[G'] pointwise on the grid.

    Returns {point: dy x dx matrix as a list of rows} mapping the oracle
    basis of X_alpha to the oracle basis of Y_alpha.  Raises
    FieldMismatchError unless Q and both grids share one field,
    DimensionMismatchError unless the grids are one grid and Q has Y's
    generator degrees as rows and X's as columns, and GradingError for an
    entry of Q against the grading.
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
        pos_y = {r: k for k, r in enumerate(gy.gen_rows[point])}
        # images[k]: Q's column at the k-th free generator of X, over the
        # local generators of Y.
        images = [[(pos_y[gp], v) for gp, v in q.columns[g]]
                  for g in gx.free_rows[point]]
        out[point] = [[sum(line[i] * v for i, v in image) % p
                       for image in images]
                      for line in gy.functionals[point]]
    return out


def naturality_residual(q, gx, gy):
    """Maximum absolute residual of the pushed map over all grid edges."""
    p = gx.p
    f = push_to_grid(q, gx, gy)
    worst = 0
    for (point, axis), xmap in gx.maps.items():
        succ = gx.successor(point, axis)
        n = gx.dims[point]
        lhs = _product(_sparse(f[succ]), _sparse(xmap), n, p)
        rhs = _product(_sparse(gy.maps[(point, axis)]), _sparse(f[point]),
                       n, p)
        worst = max([worst, *(abs(u - v) for a, b in zip(lhs, rhs)
                              for u, v in zip(a, b))])
    return worst
