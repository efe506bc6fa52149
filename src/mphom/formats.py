"""Text formats: the `pmod` presentation format, Hom-basis files, and a
firep import shim.

pmod layout (canonical form: entries sorted by row, coefficients in
[1, p), no zeros)::

    pmod <d> <p>
    gens <count>
    <d integers per line>
    rels <count>
    <d integers> ; <row>:<coeff> <row>:<coeff> ...

Signed coefficient literals are accepted and reduced mod p (-1 becomes
p-1); values >= p are rejected.  serialize(parse(text)) == text on
canonical input.

The firep shim reads the two-parameter chain-complex format used by
minimal-presentation tools (header ``firep``, two label lines, a counts
line ``t s r``, then t rows presenting the top boundary and s rows the
middle one, each ``x y ; <column indices>`` over GF(2)); the represented
module ker(d1)/im(d2) is converted to an honest presentation by lifting
the top boundary through the kernel of the middle one.
"""

from __future__ import annotations

from .errors import (
    CoefficientRangeError,
    DegreeArityError,
    FieldMismatchError,
    GradingParseError,
    HeaderError,
    ParseError,
    UnsortedRowsError,
    ZeroCoefficientError,
)
from .graded import (
    GradedMatrix,
    PrimeField,
    _lift_through,
    column_reduce,
    deg_leq,
)
from .presentations import Presentation, kernel, minimize


def _parse_degree(tokens, d, lineno):
    if len(tokens) != d:
        raise DegreeArityError(
            f"expected {d} coordinates, got {len(tokens)}", line=lineno
        )
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise DegreeArityError(f"bad coordinate: {exc}", line=lineno)


def _parse_count(token, what, lineno):
    try:
        count = int(token)
    except ValueError:
        raise HeaderError(f"{what} count {token!r} is not an integer",
                          line=lineno)
    if count < 0:
        raise HeaderError(f"{what} count {count} is negative", line=lineno)
    return count


def parse_pmod(text, field=None):
    """Parse a pmod document into a Presentation (not yet minimized)."""
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(lines):
            raise HeaderError("unexpected end of file", line=pos + 1)
        pos += 1
        return lines[pos - 1].strip(), pos

    header, lineno = next_line()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "pmod":
        raise HeaderError("expected header 'pmod <d> <p>'", line=lineno)
    try:
        d, p = int(parts[1]), int(parts[2])
    except ValueError:
        raise HeaderError("non-integer header fields", line=lineno)
    if d < 1:
        raise HeaderError(f"number of parameters must be >= 1, got {d}",
                          line=lineno)
    try:
        fld = PrimeField(p)
    except ValueError as exc:
        raise HeaderError(str(exc), line=lineno)
    if field is not None and field != fld:
        raise FieldMismatchError(
            f"file is over GF({p}), expected GF({field.p})"
        )

    gens_line, lineno = next_line()
    parts = gens_line.split()
    if len(parts) != 2 or parts[0] != "gens":
        raise HeaderError("expected 'gens <count>'", line=lineno)
    n_gens = _parse_count(parts[1], "gens", lineno)
    rows = []
    for _ in range(n_gens):
        line, lineno = next_line()
        rows.append(_parse_degree(line.split(), d, lineno))

    rels_line, lineno = next_line()
    parts = rels_line.split()
    if len(parts) != 2 or parts[0] != "rels":
        raise HeaderError("expected 'rels <count>'", line=lineno)
    n_rels = _parse_count(parts[1], "rels", lineno)
    cols, columns = [], []
    for _ in range(n_rels):
        line, lineno = next_line()
        if ";" not in line:
            raise ParseError("relation line lacks ';'", line=lineno)
        deg_part, _, entry_part = line.partition(";")
        rdeg = _parse_degree(deg_part.split(), d, lineno)
        cols.append(rdeg)
        entries = []
        last_row = -1
        for token in entry_part.split():
            if ":" not in token:
                raise ParseError(f"bad entry token {token!r}", line=lineno)
            row_s, _, coeff_s = token.partition(":")
            try:
                row, coeff = int(row_s), int(coeff_s)
            except ValueError:
                raise ParseError(f"bad entry token {token!r}", line=lineno)
            if row <= last_row:
                raise UnsortedRowsError(
                    f"row {row} after {last_row}", line=lineno
                )
            last_row = row
            if not 0 <= row < n_gens:
                raise ParseError(f"row index {row} out of range", line=lineno)
            if coeff >= p:
                raise CoefficientRangeError(
                    f"coefficient {coeff} >= {p}", line=lineno
                )
            coeff %= p
            if coeff == 0:
                raise ZeroCoefficientError(
                    f"coefficient {token!r} is zero mod {p}", line=lineno
                )
            if not deg_leq(rows[row], rdeg):
                raise GradingParseError(
                    f"entry at row {row} violates the grading", line=lineno
                )
            entries.append((row, coeff))
        columns.append(tuple(entries))
    while pos < len(lines):
        if lines[pos].strip():
            raise ParseError("trailing content", line=pos + 1)
        pos += 1
    matrix = GradedMatrix(fld, rows, cols, columns)
    return Presentation(matrix, minimal=False)


def serialize_pmod(presentation, d=None):
    """Canonical pmod text for a presentation.

    `d` only matters for empty matrices, whose arity cannot be read off
    the (absent) degrees.
    """
    m = presentation.matrix
    if d is None:
        d = m.dim if m.dim else 1
    out = [f"pmod {d} {m.field.p}", f"gens {m.nrows}"]
    for deg in m.rows:
        out.append(" ".join(str(c) for c in deg))
    out.append(f"rels {m.ncols}")
    for deg, col in zip(m.cols, m.columns):
        head = " ".join(str(c) for c in deg)
        entries = " ".join(f"{i}:{v}" for i, v in col)
        out.append(f"{head} ;" + (f" {entries}" if entries else ""))
    return "\n".join(out) + "\n"


def write_hom_basis(basis, d, p):
    """Serialize a HomBasis: header with dim and coords, one graded matrix
    block per basis element."""
    out = [
        f"hombasis {d} {p}",
        f"algorithm {basis.algorithm}",
        f"dim {basis.dim}",
        f"coords {basis.coords}",
    ]
    for q in basis.elements:
        out.append("matrix")
        out.append(f"rows {q.nrows}")
        for deg in q.rows:
            out.append(" ".join(str(c) for c in deg))
        out.append(f"cols {q.ncols}")
        for deg in q.cols:
            out.append(" ".join(str(c) for c in deg))
        total = q.nnz()
        out.append(f"entries {total}")
        for j, col in enumerate(q.columns):
            for i, v in col:
                out.append(f"{i} {j} {v}")
    return "\n".join(out) + "\n"


def write_oracle_result(result, d, p):
    """Header-only document for oracle runs: the oracle works in grid
    coordinates and produces no generator-coordinate matrices."""
    return (
        f"hombasis {d} {p}\n"
        "algorithm oracle\n"
        f"dim {result.dim}\n"
        "coords grid\n"
    )


def parse_firep(text, field=None):
    """Convert a two-parameter firep chain complex into a Presentation.

    The module is ker(d1)/im(d2): the kernel of the middle boundary is
    computed as a graded matrix, the top boundary is lifted through it
    column by column, and the lifted matrix (rows: kernel generators)
    presents the homology module.  Only d = 2 inputs are supported.
    """
    fld = field or PrimeField(2)
    # (source line number, text) of every line that is not blank or a
    # comment, so errors point at the line in the file.
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0][1] != "firep":
        raise HeaderError("expected 'firep' header",
                          line=lines[0][0] if lines else 1)
    if len(lines) < 4:
        raise HeaderError("truncated firep file", line=lines[-1][0])
    lineno, counts = lines[3][0], lines[3][1].split()
    if len(counts) != 3:
        raise HeaderError("expected counts line 't s r'", line=lineno)
    t, s, r = (_parse_count(c, "firep", lineno) for c in counts)
    body = lines[4:]
    if len(body) != t + s:
        raise ParseError(
            f"expected {t + s} generator rows, got {len(body)}",
            line=body[0][0] if body else lineno,
        )

    def parse_row(lineno, line, n_targets):
        if ";" not in line:
            raise ParseError("row lacks ';'", line=lineno)
        deg_part, _, entry_part = line.partition(";")
        deg = _parse_degree(deg_part.split(), 2, lineno)
        entries = {}
        for token in entry_part.split():
            try:
                idx = int(token)
            except ValueError:
                raise ParseError(f"bad index token {token!r}", line=lineno)
            if not 0 <= idx < n_targets:
                raise ParseError(f"index {idx} out of range", line=lineno)
            # GF(2) incidence: repeated indices cancel.
            entries[idx] = (entries.get(idx, 0) + 1) % fld.p
        col = tuple(sorted((i, v) for i, v in entries.items() if v))
        return deg, col

    top = [(line[0], *parse_row(*line, s)) for line in body[:t]]
    mid = [parse_row(*line, r) for line in body[t:]]
    # Degrees of the bottom generators are not part of the format; the
    # kernel computation only consumes column degrees, so placeholders
    # are fine (hence validate=False).
    d1 = GradedMatrix(
        fld,
        [(0, 0)] * r,
        [deg for deg, _ in mid],
        [col for _, col in mid],
        validate=False,
    )
    k1 = kernel(d1)
    # Lift each top column through the kernel generators of degree <= its
    # own degree; only those may legally carry a coefficient.  A column
    # that does not lift is no cycle at its degree: either its boundary
    # is nonzero or it hits middle rows of a higher degree.
    lifted_cols = []
    for lineno, deg, col in top:
        usable = [j for j in range(k1.ncols) if deg_leq(k1.cols[j], deg)]
        span = column_reduce([k1.columns[j] for j in usable], fld,
                             record=True)
        combo = _lift_through(span, col)
        if combo is None:
            raise GradingParseError(
                f"top boundary does not land in ker(d1) at degree {deg}",
                line=lineno,
            )
        lifted_cols.append(tuple((usable[k], v) for k, v in combo))
    pres = GradedMatrix(
        fld,
        k1.cols,
        [deg for _, deg, _ in top],
        lifted_cols,
    )
    return minimize(Presentation(pres, minimal=False, label="firep"))
