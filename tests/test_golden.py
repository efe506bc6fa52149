"""Golden outputs: SHA-256 digests of CLI and presentation outputs.

`tests/golden.json` holds one digest per output (it sits outside
`tests/fixtures`, whose every file the CLI tests read as a module):

- `hom`: `mphom hom <domain> <target> --alg <alg>` run in-process on every
  ordered pair of the `.pmod` and `.firep` files in `tests/fixtures`, for
  every `--alg` choice; the digest covers the exit code and stdout;
- `presentations`: `serialize_pmod` of `hom_module_presentation` and of
  every differential of `free_resolution` of both modules, on a few seeded
  d=2 `random_pair`s;
- `other_d`: `serialize_pmod` of every differential of `free_resolution`
  of both modules, and `write_hom_basis` of the `a-star` and `b-star`
  routes, on a few seeded d=1 and d=3 `random_pair`s;
- `dual`: `serialize_pmod` of the Matlis duals `dual_x` and `dual_y` of
  `dual_context` and of every differential of its two resolutions (of
  the truncated operands), on seeded d=1, 2 and 3 `random_pair`s over
  GF(2), GF(5) and GF(65521);
- `primal`: `write_hom_basis` of the four primal routes (`direct`, `a`,
  `mixed`, `b`) on seeded d=2 `random_pair`s of `ladder` size (40 and 60
  generators and relations, `coord_range=1.5n`), over GF(2) and GF(5);
- `stats`: the `SolveStats` counts `variables equations entries
  solution_dim homotopy_killed`, as one line of numbers (not a digest),
  of the four primal routes on the pairs of `primal` and of `a-star` and
  `b-star` on the pairs of `dual`; `hombasis` files carry no stats;
- `modules`: `mphom minimize`, `sparsify` and `thickness` run in-process
  on every file in `tests/fixtures` (exit code and stdout);
- `reducers`: `serialize_pmod` of `minimize` on seeded non-minimal graded
  matrices with equal-degree units and redundant relations, and of
  `sparsify` on seeded `random_module`s over several d, p and thickness
  hints.

Any change to these outputs fails here.  To list the entries a change
alters, one `section key` line each (nothing is written; exit 1 when any
entry differs), run

    PYTHONPATH=src python tests/test_golden.py --diff

A change meant to alter them regenerates the file from a commit whose
answers are trusted with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mphom import (
    Presentation,
    dual_context,
    free_resolution,
    hom_direct,
    hom_exact,
    hom_exact_dual,
    hom_mixed,
    hom_module_presentation,
    hom_restricted,
    hom_restricted_dual,
)
from mphom.cli import ALGORITHM_CHOICES, main
from mphom.formats import serialize_pmod, write_hom_basis
from mphom.generators import random_module, random_pair
from mphom.graded import GradedMatrix, PrimeField, deg_join
from mphom.presentations import minimize, sparsify

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden.json"

# (seed, gens = rels, coord_range, p) of the seeded d=2 pairs.
RANDOM_PAIRS = [
    (0, 6, 8, 2),
    (1, 7, 10, 2),
    (2, 7, 10, 5),
    (3, 8, 12, 65521),
    (4, 10, 15, 2),
]


# (d, seed, gens = rels, coord_range, p) of the seeded d != 2 pairs.
OTHER_D_PAIRS = [
    (1, 0, 6, 8, 2),
    (1, 1, 7, 10, 5),
    (1, 2, 8, 12, 65521),
    (3, 0, 4, 4, 2),
    (3, 1, 5, 4, 3),
    (3, 2, 5, 5, 65521),
    (3, 3, 6, 5, 2),
]


# (d, seed, gens = rels, coord_range) of the seeded pairs of `dual`, each
# taken at every prime of DUAL_PRIMES.
DUAL_PAIRS = [
    (1, 0, 6, 8),
    (2, 1, 6, 8),
    (3, 2, 4, 4),
]
DUAL_PRIMES = (2, 5, 65521)


# (seed, gens = rels, p) of the seeded d=2 pairs of the primal routes.
PRIMAL_PAIRS = [
    (0, 40, 2),
    (1, 60, 2),
    (2, 40, 5),
]

PRIMAL_ROUTES = (
    ("direct", hom_direct),
    ("a", hom_restricted),
    ("mixed", hom_mixed),
    ("b", hom_exact),
)


# Subcommands that read one module, digested on every fixture.
MODULE_COMMANDS = ("minimize", "sparsify", "thickness")

# Sweep of the seeded reducer inputs.
REDUCER_DIMS = (1, 2, 3)
REDUCER_PRIMES = (2, 3, 5, 65521)
THICKNESS_HINTS = (None, 2, 3, 4)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _module_files():
    return sorted(
        path for path in FIXTURES.iterdir()
        if path.suffix in (".pmod", ".firep")
    )


def hom_digests(alg):
    """Digest of exit code and stdout of `hom` on every ordered pair."""
    files = _module_files()
    out = {}
    for x in files:
        for y in files:
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(["hom", str(x), str(y), "--alg", alg])
            out[f"{x.name} {y.name} {alg}"] = _sha(f"{code}\n{stdout.getvalue()}")
    return out


def _add_resolution_digests(out, tag, x, y, d):
    """Digest every differential of `free_resolution` of x and of y."""
    for name, pres in (("x", x), ("y", y)):
        res = free_resolution(pres)
        for k, diff in enumerate(res.differentials, start=1):
            out[f"{tag} {name} d_{k}"] = _sha(
                serialize_pmod(Presentation(diff), d=d)
            )


def presentation_digests():
    """Digests of Hom-module presentations and resolution differentials."""
    out = {}
    for seed, size, coord_range, p in RANDOM_PAIRS:
        x, y = random_pair(seed, d=2, gens=size, rels=size,
                           coord_range=coord_range, p=p)
        tag = f"seed={seed} n={size} p={p}"
        out[f"{tag} hom-module"] = _sha(
            serialize_pmod(hom_module_presentation(x, y), d=2)
        )
        _add_resolution_digests(out, tag, x, y, d=2)
    return out


def other_d_digests():
    """Digests of d != 2 resolution differentials and dual-route bases."""
    out = {}
    for d, seed, size, coord_range, p in OTHER_D_PAIRS:
        x, y = random_pair(seed, d=d, gens=size, rels=size,
                           coord_range=coord_range, p=p)
        tag = f"d={d} seed={seed} n={size} p={p}"
        _add_resolution_digests(out, tag, x, y, d)
        ctx = dual_context(x, y)
        for alg, route in (("a-star", hom_restricted_dual),
                           ("b-star", hom_exact_dual)):
            out[f"{tag} {alg}"] = _sha(
                write_hom_basis(route(x, y, context=ctx), d, p)
            )
    return out


def dual_digests():
    """Digests of `dual_context`'s duals and resolutions."""
    out = {}
    for d, seed, size, coord_range in DUAL_PAIRS:
        for p in DUAL_PRIMES:
            x, y = random_pair(seed, d=d, gens=size, rels=size,
                               coord_range=coord_range, p=p)
            tag = f"d={d} seed={seed} n={size} p={p}"
            ctx = dual_context(x, y)
            for name, dual in (("x", ctx.dual_x), ("y", ctx.dual_y)):
                out[f"{tag} dual {name}"] = _sha(serialize_pmod(dual, d=d))
            for name, res in (("x", ctx.resolution_x),
                              ("y", ctx.resolution_y)):
                for k, diff in enumerate(res.differentials, start=1):
                    out[f"{tag} truncated {name} d_{k}"] = _sha(
                        serialize_pmod(Presentation(diff), d=d)
                    )
    return out


def primal_digests():
    """Digests of the primal routes' bases on `ladder`-sized pairs."""
    out = {}
    for seed, size, p in PRIMAL_PAIRS:
        x, y = random_pair(seed, d=2, gens=size, rels=size,
                           coord_range=3 * size // 2, p=p)
        tag = f"seed={seed} n={size} p={p}"
        for alg, route in PRIMAL_ROUTES:
            out[f"{tag} {alg}"] = _sha(write_hom_basis(route(x, y), 2, p))
    return out


STATS_FIELDS = ("variables", "equations", "entries", "solution_dim",
                "homotopy_killed")


def _stats_line(basis):
    return " ".join(str(getattr(basis.stats, name)) for name in STATS_FIELDS)


def stats_lines():
    """System counts of the primal routes and of both dual routes."""
    out = {}
    for seed, size, p in PRIMAL_PAIRS:
        x, y = random_pair(seed, d=2, gens=size, rels=size,
                           coord_range=3 * size // 2, p=p)
        tag = f"seed={seed} n={size} p={p}"
        for alg, route in PRIMAL_ROUTES:
            out[f"{tag} {alg}"] = _stats_line(route(x, y))
    for d, seed, size, coord_range in DUAL_PAIRS:
        for p in DUAL_PRIMES:
            x, y = random_pair(seed, d=d, gens=size, rels=size,
                               coord_range=coord_range, p=p)
            tag = f"d={d} seed={seed} n={size} p={p}"
            ctx = dual_context(x, y)
            for alg, route in (("a-star", hom_restricted_dual),
                               ("b-star", hom_exact_dual)):
                out[f"{tag} {alg}"] = _stats_line(route(x, y, context=ctx))
    return out


def module_digests():
    """Digest of exit code and stdout of each one-module subcommand."""
    out = {}
    for path in _module_files():
        for command in MODULE_COMMANDS:
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main([command, str(path)])
            out[f"{path.name} {command}"] = _sha(f"{code}\n{stdout.getvalue()}")
    return out


def raw_matrix(seed, d, p):
    """Seeded non-minimal graded matrix.

    Besides relations above the join of their support, about half the
    columns sit at the degree of one of their rows with a unit there (so
    `minimize` cancels them), and some repeat an earlier column scaled
    (so `minimize` drops them as redundant).
    """
    rng = random.Random(f"golden-raw:{seed}:{d}:{p}")
    gens = rng.randint(2, 9)
    rows = [tuple(rng.randint(0, 5) for _ in range(d)) for _ in range(gens)]
    cols, columns = [], []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.15 and columns:
            k = rng.randrange(len(columns))
            scale = rng.randint(1, p - 1)
            cdeg = tuple(c + rng.randint(0, 1) for c in cols[k])
            col = tuple((i, v * scale % p) for i, v in columns[k])
        else:
            if kind < 0.6:
                g = rng.randrange(gens)
                cdeg = rows[g]
            else:
                g = rng.randrange(gens)
                cdeg = rows[g]
                for h in rng.sample(range(gens), rng.randint(1, 2)):
                    cdeg = deg_join(cdeg, rows[h])
                cdeg = tuple(c + rng.randint(0, 1) for c in cdeg)
            below = [i for i, r in enumerate(rows)
                     if all(a <= b for a, b in zip(r, cdeg))]
            support = set(rng.sample(below, rng.randint(1, min(3, len(below)))))
            support.add(g)
            col = tuple((i, rng.randint(1, p - 1)) for i in sorted(support))
        cols.append(cdeg)
        columns.append(col)
    return GradedMatrix(PrimeField(p), rows, cols, columns)


def reducer_digests():
    """Digests of `minimize` and `sparsify` on seeded inputs."""
    out = {}
    for d in REDUCER_DIMS:
        for p in REDUCER_PRIMES:
            for seed in range(8):
                pres = Presentation(raw_matrix(seed, d, p))
                out[f"minimize seed={seed} d={d} p={p}"] = _sha(
                    serialize_pmod(minimize(pres), d=d)
                )
            for hint in THICKNESS_HINTS:
                for seed in range(3):
                    x = random_module(seed, d=d, gens=10, rels=10,
                                      coord_range=6, thickness_hint=hint, p=p)
                    key = f"sparsify seed={seed} d={d} p={p} hint={hint}"
                    out[key] = _sha(serialize_pmod(sparsify(x), d=d))
    return out


def all_digests():
    hom = {}
    for alg in ALGORITHM_CHOICES:
        hom.update(hom_digests(alg))
    return {
        "dual": dual_digests(),
        "hom": hom,
        "modules": module_digests(),
        "other_d": other_d_digests(),
        "presentations": presentation_digests(),
        "primal": primal_digests(),
        "reducers": reducer_digests(),
        "stats": stats_lines(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _mismatches(got, expected):
    return sorted(k for k in expected.keys() | got.keys()
                  if got.get(k) != expected.get(k))


def golden_diff(got, expected):
    """(section, key) of every entry that differs between two digest sets."""
    return [(section, key)
            for section in sorted(expected.keys() | got.keys())
            for key in _mismatches(got.get(section, {}),
                                   expected.get(section, {}))]


def test_golden_covers_every_pair_and_algorithm(golden):
    n = len(_module_files())
    assert len(golden["hom"]) == n * n * len(ALGORITHM_CHOICES)


@pytest.mark.parametrize("alg", ALGORITHM_CHOICES)
def test_hom_cli_outputs_match_golden(golden, alg):
    got = hom_digests(alg)
    expected = {k: v for k, v in golden["hom"].items()
                if k.rsplit(" ", 1)[1] == alg}
    assert not _mismatches(got, expected)


def test_presentations_match_golden(golden):
    got = presentation_digests()
    assert not _mismatches(got, golden["presentations"])


def test_other_d_match_golden(golden):
    got = other_d_digests()
    assert not _mismatches(got, golden["other_d"])


def test_dual_contexts_match_golden(golden):
    got = dual_digests()
    assert not _mismatches(got, golden["dual"])


def test_primal_bases_match_golden(golden):
    assert len(golden["primal"]) == len(PRIMAL_PAIRS) * len(PRIMAL_ROUTES)
    assert not _mismatches(primal_digests(), golden["primal"])


def test_solve_stats_match_golden(golden):
    expected = golden["stats"]
    assert len(expected) == len(PRIMAL_PAIRS) * len(PRIMAL_ROUTES) + (
        2 * len(DUAL_PAIRS) * len(DUAL_PRIMES))
    assert not _mismatches(stats_lines(), expected)


def test_module_cli_outputs_match_golden(golden):
    assert len(golden["modules"]) == len(_module_files()) * len(MODULE_COMMANDS)
    assert not _mismatches(module_digests(), golden["modules"])


def test_reducers_match_golden(golden):
    assert not _mismatches(reducer_digests(), golden["reducers"])


def test_raw_matrices_exercise_both_minimize_sweeps():
    """The seeded inputs contain units to cancel and relations to drop."""
    units = redundant = 0
    for d in REDUCER_DIMS:
        for p in REDUCER_PRIMES:
            for seed in range(8):
                m = raw_matrix(seed, d, p)
                out = minimize(Presentation(m)).matrix
                units += m.nrows - out.nrows
                redundant += (m.ncols - out.ncols) - (m.nrows - out.nrows)
    assert units > 0 and redundant > 0


def test_golden_diff_lists_changed_entries(golden):
    got = {section: dict(entries) for section, entries in golden.items()}
    key = sorted(got["presentations"])[0]
    got["presentations"][key] = _sha("changed")
    got["modules"]["new.pmod minimize"] = _sha("added")
    del got["reducers"][sorted(got["reducers"])[0]]
    assert golden_diff(golden, golden) == []
    assert golden_diff(got, golden) == [
        ("modules", "new.pmod minimize"),
        ("presentations", key),
        ("reducers", sorted(golden["reducers"])[0]),
    ]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(
            json.dumps(all_digests(), indent=1, sort_keys=True) + "\n"
        )
    elif sys.argv[1:] == ["--diff"]:
        changed = golden_diff(all_digests(), json.loads(GOLDEN.read_text()))
        for section, key in changed:
            print(section, key)
        sys.exit(1 if changed else 0)
    else:
        sys.exit("usage: python tests/test_golden.py --write | --diff")
