"""Command-line interface.

Subcommands: hom, end, thickness, minimize, sparsify, bench, random.
Presentations are read from pmod files (firep files are detected by
their header and converted); inputs are minimized, since every algorithm
expects minimal presentations: pmod files after parsing, firep files by
their converter.

Exit codes: 0 success, 2 file error, 3 parse error, 4 resource cap
exceeded, 5 cross-check mismatch, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys

from .benchmarks import (
    DUAL_ALGORITHMS,
    PRIMAL_ALGORITHMS,
    record_from_basis,
    run_bench,
    write_csv,
    write_rows,
)
from .dualhom import dual_context
from .errors import (
    CheckMismatchError,
    DimensionMismatchError,
    FieldArgumentError,
    FlagConflictError,
    ParseError,
    ResourceCapError,
    SizeArgumentError,
)
from .formats import (
    parse_firep,
    parse_pmod,
    serialize_pmod,
    write_hom_basis,
    write_oracle_result,
)
from .generators import random_module
from .gridoracle import GRID_CAP_DEFAULT, grid_axes, hom_oracle, realize_grid
from .graded import PrimeField
from .localalg import thickness
from .presentations import minimize, sparsify

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_FILE = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4
EXIT_CHECK = 5

ALGORITHM_CHOICES = (*PRIMAL_ALGORITHMS, *DUAL_ALGORITHMS, "oracle")


def _read_text(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from None


def _field_arg(args, default=None):
    """The --field value as a PrimeField; `default` when it was not given."""
    if args.field is None:
        return default
    try:
        return PrimeField(args.field)
    except ValueError as exc:
        raise FieldArgumentError(f"--field {args.field}: {exc}") from None


def _size_args(args, **least):
    """Reject size flags below their least value, naming the flag."""
    for name, bound in least.items():
        value = getattr(args, name)
        if value < bound:
            flag = "--" + name.replace("_", "-")
            raise SizeArgumentError(f"{flag} {value}: must be >= {bound}")


def _load_presentation(path, field=None):
    """The file's minimized presentation and the d of its header (2 for
    firep), which an empty presentation's degrees cannot show."""
    text = _read_text(path)
    head = text.lstrip().split("\n", 1)[0].strip()
    if head == "firep":
        return parse_firep(text, field), 2  # already minimal
    return minimize(parse_pmod(text, field)), int(head.split()[1])


def _write_output(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _oracle(xp, yp, cap):
    """The oracle's OracleResult for Hom(X, Y) on the pair's joint grid."""
    axes = grid_axes(xp.matrix, yp.matrix)
    gx = realize_grid(xp, axes, cap=cap)
    # `hom_oracle` only reads its grids, so End(X) shares one.
    gy = gx if yp is xp else realize_grid(yp, axes, cap=cap)
    return hom_oracle(gx, gy)


def _compute(alg, xp, yp):
    if alg in PRIMAL_ALGORITHMS:
        return PRIMAL_ALGORITHMS[alg](xp, yp)
    return DUAL_ALGORITHMS[alg](xp, yp)


def _run_check(xp, yp, cap):
    """Run every algorithm plus the oracle and require equal dimensions.

    Returns the bases per algorithm (the duals share one `dual_context`)
    and the oracle's result.
    """
    bases = {name: func(xp, yp) for name, func in PRIMAL_ALGORITHMS.items()}
    # A dual route returns the empty basis of a zero module without
    # reading its context.
    zero = xp.is_zero_module() or yp.is_zero_module()
    ctx = None if zero else dual_context(xp, yp)
    for name, func in DUAL_ALGORITHMS.items():
        bases[name] = func(xp, yp, context=ctx)
    oracle = _oracle(xp, yp, cap)
    dims = {name: basis.dim for name, basis in bases.items()}
    dims["oracle"] = oracle.dim
    if len(set(dims.values())) != 1:
        raise CheckMismatchError(f"algorithms disagree: {dims}")
    return bases, oracle


def _cmd_hom(args, endo=False):
    _size_args(args, grid_cap=1)
    if args.stats and args.alg == "oracle":
        raise FlagConflictError(
            "--stats with --alg oracle: the oracle has no bench CSV row"
        )
    field = _field_arg(args)
    xp, d = _load_presentation(args.domain, field)
    yp, dy = (xp, d) if endo else _load_presentation(args.target, field)
    if dy != d:
        raise DimensionMismatchError(
            "presentations graded over different posets")
    bases, oracle = {}, None
    if args.check:
        bases, oracle = _run_check(xp, yp, args.grid_cap)
        sys.stderr.write(f"check ok: dim {oracle.dim}\n")
    if args.alg == "oracle":
        oracle = oracle or _oracle(xp, yp, args.grid_cap)
        _write_output(write_oracle_result(oracle, d, xp.field.p), args.out)
        return EXIT_OK
    basis = bases[args.alg] if args.check else _compute(args.alg, xp, yp)
    _write_output(write_hom_basis(basis, d, xp.field.p), args.out)
    if args.stats:
        name = args.domain if endo else f"{args.domain}->{args.target}"
        with open(args.stats, "a", newline="") as handle:
            write_rows(handle, [record_from_basis(name, basis, xp, yp)])
    return EXIT_OK


def _cmd_module(args):
    """thickness, minimize or sparsify: the text each writes for its
    minimized input."""
    transform = {
        "thickness": lambda pres, d: f"{thickness(pres)}\n",
        "minimize": serialize_pmod,
        "sparsify": lambda pres, d: serialize_pmod(sparsify(pres), d),
    }[args.command]
    pres, d = _load_presentation(args.module, _field_arg(args))
    _write_output(transform(pres, d), args.out)
    return EXIT_OK


def _cmd_random(args):
    _size_args(args, d=1, gens=0, rels=0, coord_range=0)
    pres = random_module(
        args.seed,
        d=args.d,
        gens=args.gens,
        rels=args.rels,
        coord_range=args.coord_range,
        thickness_hint=args.thickness_hint,
        p=_field_arg(args, PrimeField(2)).p,
    )
    _write_output(serialize_pmod(pres, d=args.d), args.out)
    return EXIT_OK


def _cmd_bench(args):
    _size_args(args, count=0, d=1, gens=0, rels=0, coord_range=0, jobs=1)
    records = run_bench(
        args.count,
        seed=args.seed,
        d=args.d,
        gens=args.gens,
        rels=args.rels,
        coord_range=args.coord_range,
        thickness_hint=args.thickness_hint,
        p=_field_arg(args, PrimeField(2)).p,
        with_duals=args.duals,
        jobs=args.jobs,
    )
    write_csv(records, args.out or "bench.csv")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mphom",
        description="Bases of Hom(X, Y) between finitely presented "
        "multiparameter persistence modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_alg=False):
        p.add_argument("--field", type=int, default=None,
                       help="expected/used field characteristic")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if needs_alg:
            p.add_argument("--alg", choices=ALGORITHM_CHOICES, default="a")
            p.add_argument("--check", action="store_true",
                           help="run all algorithms plus the oracle and "
                           "require dimension agreement")
            p.add_argument("--stats", default=None,
                           help="append a bench CSV row to this path")
            p.add_argument("--grid-cap", type=int, default=GRID_CAP_DEFAULT)

    p_hom = sub.add_parser("hom", help="basis of Hom(X, Y)")
    p_hom.add_argument("domain")
    p_hom.add_argument("target")
    common(p_hom, needs_alg=True)

    p_end = sub.add_parser("end", help="basis of End(X)")
    p_end.add_argument("domain")
    common(p_end, needs_alg=True)

    for name, text in (("thickness", "maximum pointwise dimension"),
                       ("minimize", "write a minimal presentation"),
                       ("sparsify", "thin out relation columns")):
        p_mod = sub.add_parser(name, help=text)
        p_mod.add_argument("module")
        common(p_mod)

    p_rand = sub.add_parser("random", help="write a random module")
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--d", type=int, default=2)
    p_rand.add_argument("--gens", type=int, default=6)
    p_rand.add_argument("--rels", type=int, default=6)
    p_rand.add_argument("--coord-range", type=int, default=8)
    p_rand.add_argument("--thickness-hint", type=int, default=None)
    common(p_rand)

    p_bench = sub.add_parser("bench", help="End(X) benchmark CSV")
    p_bench.add_argument("--count", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--d", type=int, default=2)
    p_bench.add_argument("--gens", type=int, default=8)
    p_bench.add_argument("--rels", type=int, default=8)
    p_bench.add_argument("--coord-range", type=int, default=8)
    p_bench.add_argument("--thickness-hint", type=int, default=None)
    p_bench.add_argument("--duals", action="store_true")
    p_bench.add_argument("--jobs", type=int, default=1)
    common(p_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "hom": _cmd_hom,
        "end": lambda args: _cmd_hom(args, endo=True),
        "thickness": _cmd_module,
        "minimize": _cmd_module,
        "sparsify": _cmd_module,
        "random": _cmd_random,
        "bench": _cmd_bench,
    }
    try:
        return commands[args.command](args)
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return EXIT_FILE
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ResourceCapError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return EXIT_RESOURCE
    except CheckMismatchError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return EXIT_CHECK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
