"""Bases of Hom(X, Y) between finitely presented graded modules.

Four routes to the same vector space, given minimal presentations
M: A[R] -> A[G] of X and N: A[R'] -> A[G'] of Y:

* hom_direct      solves Q M = N P over all degree-admissible entries and
                  quotients by null-homotopies (columns of N placed into
                  the generator blocks they can hit).
* hom_restricted  restricts Q to the distinguished generator subsets of Y
                  and P to the distinguished relation subsets of the first
                  syzygy of Y; lifts are then unique and no homotopy
                  quotient is needed.
* hom_mixed       restricts Q only; P stays free; homotopy quotient as in
                  the direct route.
* hom_exact       assembles the block matrix with (r, g) block
                  M_{g,r} * (structure map of Y from deg g to deg r) and
                  reads Hom off its nullspace.

The three equation-based routes share one sparse linear-system builder
that differs only in the variable-admissibility masks, so their reported
system statistics are directly comparable.

They also share one flat pipeline after the solve.  `LinearSystem.solve`
returns each solution's Q part as a single sparse column indexed by the
admissible Q entries in `_flat_index` order, and `_reduce_flat`
column-reduces those columns once: after the flattened null-homotopies
for `direct` and `mixed`, on their own for `a`, whose lifts are unique.
Only the surviving columns are turned back into graded matrices.  The
rank that `homotopy_killed` needs is read off the same flat columns.
The public `homotopy_reduce` flattens its Q matrices and calls the same
reducer.

Every route's basis is audited before it is returned (`_audit`): each
element must respect the grading and pass `verify_hom`.  Basis elements
are sparse, so the audit forms Q M only in the relations that Q's nonzero
columns reach, through a generator-to-relations index of M built once per
audit, and reduces only the nonzero products, against spans of N built
once per relation degree.  The zero products it skips pass trivially, so
the audit is exactly as strong as checking every relation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import DimensionMismatchError, FieldMismatchError, GradingError
from .graded import (
    ColumnSpan,
    GradedMatrix,
    _axpy,
    _slice_at_most,
    column_reduce,
    deg_sub,
    nullspace_of_columns,
    validate_grading,
)
from .localalg import CokernelCache, restriction_system, structure_map
from .presentations import Presentation, kernel, minimize


@dataclass(frozen=True)
class SolveStats:
    """Shape of the linear system an algorithm solved, plus wall time.

    `solution_dim` counts presentation-morphism solutions before any
    homotopy quotient; `homotopy_killed` how many independent directions
    the quotient removed.
    """

    algorithm: str
    variables: int
    equations: int
    entries: int
    solve_seconds: float
    solution_dim: int
    homotopy_killed: int = 0

    @property
    def avg_entries(self):
        return self.entries / self.equations if self.equations else 0.0


@dataclass(frozen=True)
class HomBasis:
    """Ordered basis of Hom(X, Y) as graded matrices in K^{G' x G}."""

    elements: tuple
    coords: str
    algorithm: str
    stats: SolveStats

    @property
    def dim(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _require_minimal(pres, name):
    if not isinstance(pres, Presentation):
        raise TypeError(f"{name} must be a Presentation")
    if not pres.minimal:
        raise ValueError(
            f"{name} must be a minimal presentation; call minimize() first"
        )


def _check_pair(xp, yp):
    """Validate a route's operands; True when either module is zero."""
    _require_minimal(xp, "domain")
    _require_minimal(yp, "target")
    if xp.field != yp.field:
        raise FieldMismatchError("presentations over different fields")
    dx, dy = xp.matrix.dim, yp.matrix.dim
    if dx and dy and dx != dy:
        raise DimensionMismatchError("presentations graded over different posets")
    return xp.is_zero_module() or yp.is_zero_module()


class LinearSystem:
    """The sparse system Q M = N P with pluggable admissibility masks.

    Variables are the admissible entries of Q and P; there is one
    equation per pair (g', r) with deg(g') <= deg(r).  Masks map a
    generator (relation) index of X to the tuple of allowed Y-side row
    indices; `None` means every degree-admissible index is allowed.
    Degrees are compared without arity checks: callers pass a pair that
    `_check_pair` accepted.
    """

    def __init__(self, xp, yp, q_mask=None, p_mask=None):
        m, n = xp.matrix, yp.matrix
        self.field = m.field
        self.m = m
        self.n = n
        p = self.field.p

        # Flat positions of the admissible Q entries; solve() and the
        # homotopy quotient share this order.
        self.q_index = _flat_index(n.rows, m.rows)
        if q_mask is None:
            self.q_vars = [(gp, g) for g, gp in self.q_index]
        else:
            self.q_vars = [(gp, g) for g in range(m.nrows) for gp in q_mask[g]]
        self.p_vars = []
        for r, rdeg in enumerate(m.cols):
            allowed = (
                p_mask[r]
                if p_mask is not None
                else [
                    rp
                    for rp, rpdeg in enumerate(n.cols)
                    if all(a <= b for a, b in zip(rpdeg, rdeg))
                ]
            )
            self.p_vars.extend((rp, r) for rp in allowed)

        self.equations = []
        eq_pos = {}
        for r, rdeg in enumerate(m.cols):
            for gp, gpdeg in enumerate(n.rows):
                if all(a <= b for a, b in zip(gpdeg, rdeg)):
                    eq_pos[(gp, r)] = len(self.equations)
                    self.equations.append((gp, r))

        nq = len(self.q_vars)
        columns = [[] for _ in range(nq + len(self.p_vars))]
        # Q-variable (g', g) hits equation (g', r) with coefficient M_{g,r}.
        q_of = [[] for _ in range(m.nrows)]
        for k, (gp, g) in enumerate(self.q_vars):
            q_of[g].append((gp, k))
        for r in range(m.ncols):
            for g, mv in m.columns[r]:
                for gp, k in q_of[g]:
                    eq = eq_pos.get((gp, r))
                    if eq is not None:
                        columns[k].append((eq, mv))
        # P-variable (r', r) hits equation (g', r) with coefficient -N_{g',r'}.
        for k, (rp, r) in enumerate(self.p_vars, start=nq):
            for gp, nv in n.columns[rp]:
                eq = eq_pos.get((gp, r))
                if eq is not None:
                    columns[k].append((eq, (-nv) % p))
        self.columns = [tuple(sorted(col)) for col in columns]
        self.entries = sum(len(c) for c in self.columns)

    @property
    def n_variables(self):
        return len(self.q_vars) + len(self.p_vars)

    @property
    def n_equations(self):
        return len(self.equations)

    def solve(self):
        """Q parts of a basis of the solution space, as flat columns.

        Each solution's Q part is one sparse column sorted by its position
        in `q_index` (the `_flat_index(n.rows, m.rows)` order), ready for
        the homotopy quotient without building a matrix per solution.  The
        P parts are dropped.  Solutions with Q = 0 give empty columns, so
        the list length is the dimension of the solution space.  The
        nullspace call alone is timed into `solve_seconds`.
        """
        t0 = time.perf_counter()
        combos = nullspace_of_columns(self.columns, self.field)
        self.solve_seconds = time.perf_counter() - t0
        nq = len(self.q_vars)
        index = self.q_index
        flat = [index[(g, gp)] for gp, g in self.q_vars]
        return [
            tuple(sorted((flat[k], v) for k, v in combo.items() if k < nq))
            for combo in combos
        ]


def _flat_index(q_rows, q_cols):
    """Order on the admissible Q entries {(g, g') : deg g' <= deg g}."""
    index = {}
    for g, gdeg in enumerate(q_cols):
        for gp, gpdeg in enumerate(q_rows):
            if all(a <= b for a, b in zip(gpdeg, gdeg)):
                index[(g, gp)] = len(index)
    return index


def _flatten_q(qmat, index):
    col = []
    for g, entries in enumerate(qmat.columns):
        for gp, v in entries:
            col.append((index[(g, gp)], v))
    return tuple(sorted(col))


def _homotopy_columns(n, q_cols, index):
    """Flattened columns of N placed into each generator block they reach.

    One column per pair (r', g) with deg(r') <= deg(g): the g-block holds
    the r'-th column of N, every other block is zero.  These span exactly
    the flattened null-homotopies N H.
    """
    cols = []
    for g, gdeg in enumerate(q_cols):
        for rp, rpdeg in enumerate(n.cols):
            if all(a <= b for a, b in zip(rpdeg, gdeg)):
                col = tuple(
                    (index[(g, gp)], v) for gp, v in n.columns[rp]
                )
                cols.append(tuple(sorted(col)))
    return cols


def _reduce_flat(cols, index, q_rows, q_cols, fld, homotopies=()):
    """Column-reduce flat Q columns after the given homotopy columns.

    Returns the surviving reduced columns as graded matrices; only they
    are unflattened, through one reverse index.
    """
    span = ColumnSpan(fld)
    for col in homotopies:
        span.insert(col, source=-1)
    keys = list(index)  # keys[k] is the (g, g') entry at flat position k
    survivors = []
    for j, col in enumerate(cols):
        entry = span.insert(col, source=j)
        if entry is None:
            continue
        blocks = [[] for _ in q_cols]
        for k, v in entry.column:
            g, gp = keys[k]
            blocks[g].append((gp, v))
        survivors.append(
            GradedMatrix(
                fld, q_rows, q_cols, [tuple(sorted(c)) for c in blocks],
                validate=False,
            )
        )
    return survivors


def homotopy_reduce(qs, yp):
    """Quotient a family of Q matrices by null-homotopies.

    Column-reduces [N-bar | flattened Qs] and returns the surviving,
    reduced Q columns as graded matrices.  Idempotent: the survivors have
    pivots distinct from the homotopy columns and from each other, so a
    second pass returns them unchanged.
    """
    if not qs:
        return []
    n = yp.matrix if isinstance(yp, Presentation) else yp
    q_rows, q_cols = qs[0].rows, qs[0].cols
    for q in qs:
        if q.rows != q_rows or q.cols != q_cols:
            raise DimensionMismatchError("Q matrices with mixed decorations")
    if len({len(deg) for deg in q_rows + q_cols + n.rows + n.cols}) > 1:
        raise DimensionMismatchError(
            "Q matrices and target graded over different posets"
        )
    index = _flat_index(q_rows, q_cols)
    return _reduce_flat(
        [_flatten_q(q, index) for q in qs],
        index,
        q_rows,
        q_cols,
        n.field,
        _homotopy_columns(n, q_cols, index),
    )


class _AuditCache:
    """What the `verify_hom` calls of one audit share.

    `rels_of[g]` lists the relations (r, M_{g,r}) that generator g of X
    appears in, by increasing r; `spans` maps a relation degree to the
    column span of N_{<=deg}, built the first time a nonzero product at
    that degree needs it.
    """

    __slots__ = ("rels_of", "spans")

    def __init__(self, m):
        self.rels_of = [[] for _ in range(m.nrows)]
        for r, col in enumerate(m.columns):
            for g, mv in col:
                self.rels_of[g].append((r, mv))
        self.spans = {}


def verify_hom(q, xp, yp, cache=None):
    """Does Q descend to a homomorphism coker M -> coker N?

    True iff every column of Q M lies in the column span of N at the
    corresponding relation degree (so that some P with Q M = N P exists).

    Only the relations that Q reaches are formed: each nonzero column g of
    Q is added, scaled by M_{g,r}, into column r of Q M for every relation
    r that g appears in, over increasing g.  Zero products pass without
    being reduced; nonzero ones are reduced against the span of N at
    their relation degree, which `cache` shares across the calls of one
    audit.  Raises DimensionMismatchError unless Q has the generator
    degrees of Y as rows and those of X as columns.
    """
    m = xp.matrix if isinstance(xp, Presentation) else xp
    n = yp.matrix if isinstance(yp, Presentation) else yp
    if q.rows != n.rows or q.cols != m.rows:
        raise DimensionMismatchError(
            "Q must have the target's generator degrees as rows and the "
            f"domain's as columns; got a {q.nrows}x{q.ncols} matrix for "
            f"{n.nrows} and {m.nrows} generators"
        )
    audit = cache if cache is not None else _AuditCache(m)
    fld = n.field
    p = fld.p
    products = {}
    for g, qcol in enumerate(q.columns):
        if qcol:
            for r, mv in audit.rels_of[g]:
                products[r] = _axpy(products.get(r, ()), qcol, mv, p)
    for r in sorted(products):
        product = products[r]
        if not product:
            continue
        rdeg = m.cols[r]
        span = audit.spans.get(rdeg)
        if span is None:
            _, col_idx, _ = _slice_at_most(n, rdeg)
            span = column_reduce([n.columns[j] for j in col_idx], fld)
            audit.spans[rdeg] = span
        if not span.contains(product):
            return False
    return True


def _audit(basis_elements, xp, yp, algorithm):
    """Check every returned element: graded, and a homomorphism.

    The elements share one `_AuditCache`, so the generator-to-relation
    index and the span at each relation degree are built once per call.
    """
    cache = _AuditCache(xp.matrix)
    for q in basis_elements:
        if not validate_grading(q):
            raise GradingError(
                f"{algorithm}: returned matrix violates the grading"
            )
        if not verify_hom(q, xp, yp, cache):
            raise GradingError(
                f"{algorithm}: returned matrix fails the homomorphism test"
            )


def _audited(elements, stats, xp, yp):
    basis = HomBasis(tuple(elements), "generators", stats.algorithm, stats)
    _audit(basis.elements, xp, yp, stats.algorithm)
    return basis


def _free_domain_basis(algorithm, xp, yp, cache):
    """Hom(free X, Y): one basis element per generator g and per element
    of the distinguished subset of Y at deg(g)."""
    m, n = xp.matrix, yp.matrix
    elements = []
    for g, gdeg in enumerate(m.rows):
        for gp in cache.at(gdeg).subset:
            elements.append(
                GradedMatrix(
                    m.field,
                    n.rows,
                    m.rows,
                    [((gp, 1),) if k == g else () for k in range(m.nrows)],
                    validate=False,
                )
            )
    stats = SolveStats(algorithm, len(elements), 0, 0, 0.0, len(elements))
    return _audited(elements, stats, xp, yp)


def _empty_basis(algorithm, coords="generators"):
    stats = SolveStats(algorithm, 0, 0, 0, 0.0, 0)
    return HomBasis((), coords, algorithm, stats)


def _primal_basis(algorithm, xp, yp, system, quotient):
    """Solve a route's system and reduce the Q parts of its solutions.

    With `quotient` the Q parts are reduced modulo null-homotopies and
    `homotopy_killed` counts the directions that removed; without it
    (unique lifts) a plain column reduction drops dependent solutions.
    """
    qcols = system.solve()
    n, fld = yp.matrix, xp.field
    q_rows, q_cols, index = n.rows, xp.matrix.rows, system.q_index
    homotopies = _homotopy_columns(n, q_cols, index) if quotient else ()
    survivors = _reduce_flat(qcols, index, q_rows, q_cols, fld, homotopies)
    killed = 0
    if quotient:
        rank = ColumnSpan(fld)
        for col in qcols:
            rank.insert(col)
        killed = rank.rank - len(survivors)
    stats = SolveStats(
        algorithm,
        system.n_variables,
        system.n_equations,
        system.entries,
        system.solve_seconds,
        solution_dim=len(qcols),
        homotopy_killed=killed,
    )
    return _audited(survivors, stats, xp, yp)


def _q_mask(xp, yp, cache):
    """Distinguished generator subsets of Y at the generator degrees of X."""
    rs0 = restriction_system(xp.matrix, yp.matrix, 0, cache)
    return [rs0.subset(gdeg) for gdeg in xp.matrix.rows]


def hom_direct(xp, yp):
    """Direct computation: full system, then the homotopy quotient."""
    if _check_pair(xp, yp):
        return _empty_basis("direct")
    return _primal_basis("direct", xp, yp, LinearSystem(xp, yp), True)


def hom_restricted(xp, yp):
    """Algorithm A: sharp restriction systems at both stages.

    Q entries live only on the distinguished generator subsets of Y at
    the generator degrees of X; P entries only on the distinguished
    relation subsets of the first syzygy of Y at the relation degrees of
    X.  Lifts are unique, so the solution space maps isomorphically onto
    Hom(X, Y) and only a plain column reduction is applied.
    """
    if _check_pair(xp, yp):
        return _empty_basis("a")
    cache = CokernelCache(yp.matrix)
    if xp.n_relations == 0:
        return _free_domain_basis("a", xp, yp, cache)
    q_mask = _q_mask(xp, yp, cache)
    rs1 = restriction_system(xp.matrix, kernel(yp.matrix), 1)
    p_mask = [rs1.subset(rdeg) for rdeg in xp.matrix.cols]
    system = LinearSystem(xp, yp, q_mask=q_mask, p_mask=p_mask)
    return _primal_basis("a", xp, yp, system, False)


def hom_mixed(xp, yp):
    """Algorithm A-1/2: restrict Q only, keep P free, quotient at the end."""
    if _check_pair(xp, yp):
        return _empty_basis("mixed")
    cache = CokernelCache(yp.matrix)
    if xp.n_relations == 0:
        return _free_domain_basis("mixed", xp, yp, cache)
    system = LinearSystem(xp, yp, q_mask=_q_mask(xp, yp, cache))
    return _primal_basis("mixed", xp, yp, system, True)


def hom_exact(xp, yp):
    """Algorithm B: nullspace of the tensored presentation matrix.

    Builds the block matrix from ⊕_g Y_{deg g} to ⊕_r Y_{deg r} whose
    (r, g) block is M_{g,r} times the structure map of Y, computes its
    nullspace with the sparse engine, and re-expresses each nullvector's
    g-component as column g of a graded matrix via the distinguished
    generator subsets.
    """
    if _check_pair(xp, yp):
        return _empty_basis("b")
    m, n = xp.matrix, yp.matrix
    fld = m.field
    p = fld.p
    cache = CokernelCache(n)
    col_offsets = []
    total = 0
    for gdeg in m.rows:
        col_offsets.append(total)
        total += cache.at(gdeg).dim
    row_offsets = []
    rows_total = 0
    for rdeg in m.cols:
        row_offsets.append(rows_total)
        rows_total += cache.at(rdeg).dim
    columns = [[] for _ in range(total)]
    entries = 0
    for r, rdeg in enumerate(m.cols):
        dim_r = cache.at(rdeg).dim
        if dim_r == 0:
            continue
        for g, mv in m.columns[r]:
            gdeg = m.rows[g]
            block = structure_map(n, gdeg, rdeg, cache)
            dim_g = cache.at(gdeg).dim
            for s in range(dim_g):
                col = columns[col_offsets[g] + s]
                for t in range(dim_r):
                    val = (mv * block[t][s]) % p
                    if val:
                        col.append((row_offsets[r] + t, val))
                        entries += 1
    sys_columns = [tuple(sorted(c)) for c in columns]
    t0 = time.perf_counter()
    combos = nullspace_of_columns(sys_columns, fld)
    elapsed = time.perf_counter() - t0
    # Re-express nullvectors as graded matrices.
    var_info = []
    for g, gdeg in enumerate(m.rows):
        for s, gp in enumerate(cache.at(gdeg).subset):
            var_info.append((g, gp))
    elements = []
    for combo in combos:
        cols = [[] for _ in range(m.nrows)]
        for k, v in combo.items():
            g, gp = var_info[k]
            cols[g].append((gp, v))
        elements.append(
            GradedMatrix(
                fld,
                n.rows,
                m.rows,
                [tuple(sorted(c)) for c in cols],
                validate=False,
            )
        )
    stats = SolveStats(
        "b", total, rows_total, entries, elapsed, solution_dim=len(combos)
    )
    return _audited(elements, stats, xp, yp)


def _block_diagonal(n, shifts, fld):
    """Presentation of ⊕_k Y[shift_k]: one copy of N per shift, with all
    degrees translated down by the shift.  Returns (rows, cols, columns)
    where basis indices are (k, original index) pairs flattened k-major."""
    rows, cols, columns = [], [], []
    for k, shift in enumerate(shifts):
        row_base = len(rows)
        for gdeg in n.rows:
            rows.append(deg_sub(gdeg, shift))
        for rdeg, col in zip(n.cols, n.columns):
            cols.append(deg_sub(rdeg, shift))
            columns.append(tuple((row_base + i, v) for i, v in col))
    return rows, cols, columns


def hom_module_presentation(xp, yp):
    """Presentation of the graded module Hom(X, Y).

    The Hilbert value at alpha is dim Hom(X, Y[alpha]); at the origin it
    is dim Hom(X, Y).  Built from the left-exact sequence
    0 -> Hom(X, Y) -> ⊕_g Y[deg g] -> ⊕_r Y[deg r]: the block map is
    lifted to the free covers, its preimage of the relation submodule is
    generated by a kernel computation, and a second kernel yields the
    relations among those generators.
    """
    if _check_pair(xp, yp):
        return Presentation(
            GradedMatrix(xp.field, [], [], [], validate=False), minimal=True
        )
    fld = xp.field
    m, n = xp.matrix, yp.matrix
    # Free cover of ⊕_g Y[deg g] and its relation columns.
    f1_rows, n1_cols, n1_columns = _block_diagonal(n, m.rows, fld)
    f2_rows, n2_cols, n2_columns = _block_diagonal(n, m.cols, fld)
    ng = n.nrows
    # Lift of the block map: block (r, g) is M_{g,r} times the identity.
    row_hits = [[] for _ in range(m.nrows)]
    for r in range(m.ncols):
        for g, mv in m.columns[r]:
            row_hits[g].append((r, mv))
    qhat_columns = []
    for g in range(m.nrows):
        for gp in range(ng):
            col = [(r * ng + gp, mv) for r, mv in row_hits[g]]
            qhat_columns.append(tuple(sorted(col)))
    combined = GradedMatrix(
        fld,
        f2_rows,
        list(f1_rows) + list(n2_cols),
        list(qhat_columns) + list(n2_columns),
        validate=False,
    )
    k1 = kernel(combined)
    nf1 = len(f1_rows)
    cover_cols, cover_degs = [], []
    for j in range(k1.ncols):
        vpart = tuple((i, v) for i, v in k1.columns[j] if i < nf1)
        if vpart:
            cover_cols.append(vpart)
            cover_degs.append(k1.cols[j])
    second = GradedMatrix(
        fld,
        f1_rows,
        list(cover_degs) + list(n1_cols),
        list(cover_cols) + list(n1_columns),
        validate=False,
    )
    k2 = kernel(second)
    ns = len(cover_degs)
    rel_cols, rel_degs = [], []
    for j in range(k2.ncols):
        spart = tuple((i, v) for i, v in k2.columns[j] if i < ns)
        rel_cols.append(spart)
        rel_degs.append(k2.cols[j])
    raw = GradedMatrix(fld, cover_degs, rel_degs, rel_cols, validate=False)
    return minimize(Presentation(raw, minimal=False, label="hom-module"))
