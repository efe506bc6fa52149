"""pmod round-trips, named parse errors, firep import, random generator."""

import random

import pytest

from mphom import (
    CoefficientRangeError,
    CoordinateRangeError,
    DegreeArityError,
    FieldMismatchError,
    GradedMatrix,
    GradingParseError,
    HeaderError,
    ParseError,
    UnsortedRowsError,
    ZeroCoefficientError,
    hilbert_at,
    Presentation,
    PrimeField,
    column_reduce,
    deg_leq,
    kernel,
    minimize,
    parse_firep,
    parse_pmod,
    serialize_pmod,
    thickness,
)
from mphom.generators import random_module

from conftest import red_blue
from test_graded import lift_through

FIG_N = """pmod 2 3
gens 2
0 1
1 0
rels 3
2 2 ; 0:1 1:2
5 0 ; 1:1
5 1 ; 0:1
"""


def test_parse_fig_example_matches_printed_matrix():
    pres = parse_pmod(FIG_N)
    _, blue = red_blue()
    assert pres.matrix == blue.matrix


def test_serialize_round_trip_is_identity():
    assert serialize_pmod(parse_pmod(FIG_N)) == FIG_N


def test_parse_empty_module():
    text = "pmod 2 5\ngens 0\nrels 0\n"
    pres = parse_pmod(text)
    assert pres.matrix.nrows == 0 and pres.matrix.ncols == 0
    assert serialize_pmod(pres, d=2) == text


def test_fuzzed_round_trips_are_byte_identical():
    for seed in range(25):
        pres = random_module(seed, gens=6, rels=6, coord_range=7,
                             p=3 if seed % 2 else 2)
        text = serialize_pmod(pres)
        assert serialize_pmod(parse_pmod(text)) == text


def test_negative_coefficients_are_reduced():
    text = "pmod 2 3\ngens 1\n0 0\nrels 1\n1 1 ; 0:-1\n"
    pres = parse_pmod(text)
    assert pres.matrix.entry(0, 0) == 2


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pmod 2\ngens 0\nrels 0\n", HeaderError),
        ("pmod 2 4\ngens 0\nrels 0\n", HeaderError),
        ("pmod 2 3\ngens 1\n0 1 2\nrels 0\n", DegreeArityError),
        ("pmod 2 3\ngens 1\n0 0\nrels 1\n1 1 ; 0:3\n", CoefficientRangeError),
        ("pmod 2 3\ngens 1\n0 0\nrels 1\n1 1 ; 0:0\n", ZeroCoefficientError),
        (
            "pmod 2 3\ngens 2\n0 0\n0 1\nrels 1\n1 1 ; 1:1 0:1\n",
            UnsortedRowsError,
        ),
        ("pmod 2 3\ngens 1\n2 2\nrels 1\n1 1 ; 0:1\n", GradingParseError),
        ("pmod 2 3\ngens 1\n0 0\nrels 1\n1 1 0:1\n", ParseError),
    ],
)
def test_named_parse_errors(text, expected):
    with pytest.raises(expected):
        parse_pmod(text)


def test_parse_errors_carry_line_numbers():
    try:
        parse_pmod("pmod 2 3\ngens 1\n0 1 2\nrels 0\n")
    except DegreeArityError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected a DegreeArityError")


BEYOND = 1 << 62


@pytest.mark.parametrize("text,line", [
    (f"pmod 2 3\ngens 1\n{BEYOND} 0\nrels 0\n", 3),
    (f"pmod 2 3\ngens 2\n0 0\n0 {-BEYOND - 1}\nrels 0\n", 4),
    (f"pmod 2 3\ngens 1\n0 0\nrels 1\n0 {BEYOND} ; 0:1\n", 5),
    (f"pmod 2 3\ngens 1\n0 0\nrels 1\n{-BEYOND} 0 ; 0:1\n", 5),
])
def test_pmod_coordinate_at_or_beyond_2_to_62_names_its_line(text, line):
    with pytest.raises(CoordinateRangeError, match="below 2\\^62") as info:
        parse_pmod(text)
    assert info.value.line == line


def test_pmod_coordinates_just_inside_2_to_62_parse():
    edge = BEYOND - 1
    pres = parse_pmod(f"pmod 2 3\ngens 1\n{-edge} {-edge}\nrels 1\n"
                      f"{edge} {edge} ; 0:1\n")
    assert pres.matrix.rows == ((-edge, -edge),)
    assert pres.matrix.cols == ((edge, edge),)


FIREP_RECTANGLE = """firep
x-axis
y-axis
1 2 1
2 2 ; 0 1
1 0 ; 0
0 1 ; 0
"""

FIREP_FREE_KERNEL = """firep
x-axis
y-axis
0 2 1
1 0 ; 0
0 1 ; 0
"""

FIREP_TWO_CIRCLES = """firep
x-axis
y-axis
1 3 1
3 3 ; 0 1
1 0 ; 0
0 1 ; 0
1 1 ; 0
"""


def test_firep_rectangle_module():
    # d1 kills the single bottom generator from (1,0) and (0,1); its
    # kernel is the syzygy at (1,1), and the top row kills that class at
    # (2,2): the homology is an interval supported on [1,1] .. (2,2).
    pres = parse_firep(FIREP_RECTANGLE)
    assert pres.matrix.nrows == 1
    assert pres.matrix.rows == ((1, 1),)
    assert pres.matrix.cols == ((2, 2),)
    assert hilbert_at(pres, (1, 1)) == 1
    assert hilbert_at(pres, (2, 2)) == 0


def test_firep_free_kernel():
    # No top generators: the homology is the free syzygy module itself.
    pres = parse_firep(FIREP_FREE_KERNEL)
    assert pres.matrix.nrows == 1
    assert pres.matrix.rows == ((1, 1),)
    assert pres.matrix.ncols == 0


def test_firep_two_relations():
    # Three middle generators map onto a single bottom one, so the kernel
    # is two-dimensional from (1,1) on; the top row at (3,3) kills one
    # combination, leaving Hilbert value 1 there.
    pres = parse_firep(FIREP_TWO_CIRCLES)
    assert pres.matrix.nrows == 2
    assert sorted(pres.matrix.rows) == [(1, 1), (1, 1)]
    assert pres.matrix.ncols == 1
    assert hilbert_at(pres, (2, 2)) == 2
    assert hilbert_at(pres, (3, 3)) == 1


@pytest.mark.parametrize("r", ["99999999999999999999", str(1 << 62)])
def test_firep_huge_bottom_count_sizes_nothing(r):
    """The bottom count r bounds the middle rows' indices and allocates
    nothing: a count past any index-sized integer, or one that fits but
    whose placeholder list would not, reads as the fixture does."""
    text = FIREP_RECTANGLE.replace("1 2 1\n", f"1 2 {r}\n")
    assert text != FIREP_RECTANGLE
    assert serialize_pmod(parse_firep(text)) == \
        serialize_pmod(parse_firep(FIREP_RECTANGLE))


@pytest.mark.parametrize("row,line", [
    ("2 2 ; 0 1", 5),
    ("1 0 ; 0", 6),
    ("0 1 ; 0", 7),
])
def test_firep_coordinate_at_or_beyond_2_to_62_names_its_line(row, line):
    """A top row (line 5) or a middle row (lines 6 and 7) of the
    rectangle, its first coordinate replaced by +-2^62, is refused with
    its line."""
    rest = row.split(" ", 1)[1]
    for c in (BEYOND, -BEYOND):
        text = FIREP_RECTANGLE.replace(row, f"{c} {rest}")
        with pytest.raises(CoordinateRangeError) as info:
            parse_firep(text)
        assert info.value.line == line


def test_firep_coordinate_just_inside_2_to_62_parses():
    edge = BEYOND - 1
    pres = parse_firep(FIREP_RECTANGLE.replace("2 2 ; 0 1", f"{edge} 2 ; 0 1"))
    assert pres.matrix.cols == ((edge, 2),)


def test_firep_is_read_over_gf2_only():
    with pytest.raises(FieldMismatchError, match=r"over GF\(2\), expected GF\(5\)"):
        parse_firep(FIREP_RECTANGLE, PrimeField(5))
    # The field is checked before anything is parsed.
    with pytest.raises(FieldMismatchError):
        parse_firep("nope\n", PrimeField(3))
    assert parse_firep(FIREP_RECTANGLE, PrimeField(2)).matrix == \
        parse_firep(FIREP_RECTANGLE).matrix


def reference_firep(top, mid, r):
    """The firep conversion with one recorded reduction per top row, over
    the kernel generators of degree <= the row's degree.

    Returns the minimized presentation, or the index of the first top row
    that does not lift."""
    fld = PrimeField(2)
    d1 = GradedMatrix(fld, [(0, 0)] * r, [deg for deg, _ in mid],
                      [col for _, col in mid], validate=False)
    k1 = kernel(d1)
    lifted = []
    for i, (deg, col) in enumerate(top):
        usable = [j for j in range(k1.ncols) if deg_leq(k1.cols[j], deg)]
        span = column_reduce([k1.columns[j] for j in usable], fld,
                             record=True)
        combo = lift_through(span, col)
        if combo is None:
            return i
        lifted.append(tuple((usable[k], v) for k, v in combo))
    pres = GradedMatrix(fld, k1.cols, [deg for deg, _ in top], lifted)
    return minimize(Presentation(pres, minimal=False))


def gf2_sum(columns):
    total = {}
    for col in columns:
        for i, _ in col:
            total[i] = total.get(i, 0) ^ 1
    return tuple((i, 1) for i in sorted(total) if total[i])


def random_firep(seed):
    """(text, top, mid, r): a random firep complex whose top rows are
    mostly cycles, some declared below the kernel generators they use,
    and, on odd seeds, a last row whose boundary is nonzero."""
    rng = random.Random(seed)
    r = rng.randint(1, 3)
    mid = []
    for _ in range(rng.randint(2, 6)):
        deg = (rng.randint(0, 4), rng.randint(0, 4))
        rows = sorted(rng.sample(range(r), rng.randint(0, r)))
        mid.append((deg, tuple((i, 1) for i in rows)))
    k1 = kernel(GradedMatrix(PrimeField(2), [(0, 0)] * r,
                             [deg for deg, _ in mid],
                             [col for _, col in mid], validate=False))
    top = []
    for _ in range(rng.randint(1, 4)):
        deg = (rng.randint(0, 6), rng.randint(0, 6))
        pool = [j for j in range(k1.ncols)
                if rng.random() < 0.2 or deg_leq(k1.cols[j], deg)]
        top.append((deg, gf2_sum(k1.columns[j] for j in pool
                                 if rng.random() < 0.6)))
    if seed % 2:
        picks = rng.sample(range(len(mid)), rng.randint(1, len(mid)))
        col = tuple((j, 1) for j in sorted(picks))
        if gf2_sum(mid[j][1] for j in picks):
            top.append(((6, 6), col))
    lines = ["firep", "x", "y", f"{len(top)} {len(mid)} {r}"]
    for deg, col in top + mid:
        indices = " ".join(str(i) for i, _ in col)
        lines.append(f"{deg[0]} {deg[1]} ; {indices}")
    return "\n".join(lines) + "\n", top, mid, r


def test_firep_lift_matches_the_per_row_reference():
    lifted = rejected = not_a_cycle = 0
    for seed in range(60):
        text, top, mid, r = random_firep(seed)
        expected = reference_firep(top, mid, r)
        if isinstance(expected, int):
            rejected += 1
            not_a_cycle += bool(
                gf2_sum(mid[i][1] for i, _ in top[expected][1]))
            with pytest.raises(GradingParseError) as err:
                parse_firep(text)
            assert err.value.line == 5 + expected, seed
        else:
            lifted += 1
            assert parse_firep(text).matrix == expected.matrix, seed
    # Both outcomes, and both kinds of rejection, occur.
    assert lifted and not_a_cycle and rejected > not_a_cycle


def test_firep_rejects_bad_header():
    with pytest.raises(HeaderError):
        parse_firep("nope\n")


def test_firep_errors_report_source_lines():
    # Comments and blank lines still count: the bad index is on line 7.
    text = "# comment\n\nfirep\nx-axis\ny-axis\n1 2 1\n2 2 ; 0 7\n" \
        "1 0 ; 0\n# another\n0 1 ; 0\n"
    with pytest.raises(ParseError) as err:
        parse_firep(text)
    assert err.value.line == 7
    assert str(err.value).startswith("line 7:")
    text = text.replace("0 7", "0 1").replace("0 1 ; 0\n", "0 1 ; x\n")
    with pytest.raises(ParseError) as err:
        parse_firep(text)
    assert err.value.line == 10
    with pytest.raises(HeaderError) as err:
        parse_firep("\n# c\nfirep\nx\ny\n1 2\n")
    assert err.value.line == 6


def test_random_module_deterministic_bytes():
    a = serialize_pmod(random_module(42, gens=6, rels=6, p=2))
    b = serialize_pmod(random_module(42, gens=6, rels=6, p=2))
    assert a == b


def test_random_module_free_case():
    pres = random_module(3, gens=1, rels=0, p=2)
    assert pres.matrix.nrows == 1
    assert pres.matrix.ncols == 0
    assert pres.minimal


def test_random_module_thickness_hint_report():
    # Report-only distribution sanity: mean thickness should not fall as
    # the hint grows; record means rather than asserting hard bounds.
    means = {}
    for hint in (1, 3):
        values = [
            thickness(random_module(seed, gens=8, rels=6, coord_range=6,
                                    p=2, thickness_hint=hint))
            for seed in range(25)
        ]
        means[hint] = sum(values) / len(values)
    print(f"thickness-by-hint means: {means}")
    assert all(v > 0 for v in means.values())
