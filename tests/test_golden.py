"""Golden outputs: SHA-256 digests of CLI and presentation outputs.

`tests/golden.json` holds one digest per output (it sits outside
`tests/fixtures`, whose every file the CLI tests read as a module):

- `hom`: `mphom hom <domain> <target> --alg <alg>` run in-process on every
  ordered pair of the `.pmod` and `.firep` files in `tests/fixtures`, for
  every `--alg` choice; the digest covers the exit code and stdout;
- `presentations`: `serialize_pmod` of `hom_module_presentation` and of
  every differential of `free_resolution` of both modules, on a few seeded
  d=2 `random_pair`s.

Any change to these outputs fails here.  A change meant to alter them
regenerates the file from a commit whose answers are trusted with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mphom import Presentation, free_resolution, hom_module_presentation
from mphom.cli import ALGORITHM_CHOICES, main
from mphom.formats import serialize_pmod
from mphom.generators import random_pair

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


def all_digests():
    hom = {}
    for alg in ALGORITHM_CHOICES:
        hom.update(hom_digests(alg))
    return {"hom": hom, "presentations": presentation_digests()}


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
