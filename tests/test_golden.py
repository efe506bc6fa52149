"""Golden outputs: SHA-256 digests of CLI and presentation outputs.

`tests/golden.json` holds one digest per output (it sits outside
`tests/fixtures`, whose every file the CLI tests read as a module):

- `hom`: `mphom hom <domain> <target> --alg <alg>` run in-process on every
  ordered pair of the `.pmod` and `.firep` files in `tests/fixtures`, for
  every `--alg` choice; the digest covers the exit code and stdout;
- `presentations`: `serialize_pmod` of `hom_module_presentation` and of
  every differential of `free_resolution` of both modules, on a few seeded
  d=2 `random_pair`s;
- `modules`: `mphom minimize`, `sparsify` and `thickness` run in-process
  on every file in `tests/fixtures` (exit code and stdout);
- `reducers`: `serialize_pmod` of `minimize` on seeded non-minimal graded
  matrices with equal-degree units and redundant relations, and of
  `sparsify` on seeded `random_module`s over several d, p and thickness
  hints.

Any change to these outputs fails here.  A change meant to alter them
regenerates the file from a commit whose answers are trusted with

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

from mphom import Presentation, free_resolution, hom_module_presentation
from mphom.cli import ALGORITHM_CHOICES, main
from mphom.formats import serialize_pmod
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
        for name, pres in (("x", x), ("y", y)):
            res = free_resolution(pres)
            for k, diff in enumerate(res.differentials, start=1):
                out[f"{tag} {name} d_{k}"] = _sha(
                    serialize_pmod(Presentation(diff), d=2)
                )
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
        "hom": hom,
        "modules": module_digests(),
        "presentations": presentation_digests(),
        "reducers": reducer_digests(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _mismatches(got, expected):
    return sorted(k for k in expected.keys() | got.keys()
                  if got.get(k) != expected.get(k))


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
