"""Command-line interface.

Subcommands: hom, end, thickness, minimize, sparsify, bench, random.
Presentations are read from pmod files (firep files are detected by
their header and converted); inputs are minimized after parsing, since
every algorithm expects minimal presentations.

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
)
from .dualhom import dual_context
from .errors import (
    CheckMismatchError,
    FieldArgumentError,
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

ALGORITHM_CHOICES = ("direct", "a", "mixed", "b", "a-star", "b-star", "oracle")


def _read_text(path):
    with open(path) as handle:
        return handle.read()


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
    text = _read_text(path)
    head = text.lstrip().split("\n", 1)[0].strip()
    if head == "firep":
        pres = parse_firep(text, field)
    else:
        pres = parse_pmod(text, field)
    return minimize(pres)


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
    gy = realize_grid(yp, axes, cap=cap)
    return hom_oracle(gx, gy)


def _compute(alg, xp, yp):
    if alg in PRIMAL_ALGORITHMS:
        return PRIMAL_ALGORITHMS[alg](xp, yp)
    return DUAL_ALGORITHMS[alg](xp, yp)


def _run_check(xp, yp, cap):
    """Run every algorithm plus the oracle and require equal dimensions.

    Returns the dimensions per algorithm and the oracle's result.
    """
    dims = {}
    for name, func in PRIMAL_ALGORITHMS.items():
        dims[name] = func(xp, yp).dim
    if not (xp.is_zero_module() or yp.is_zero_module()):
        ctx = dual_context(xp, yp)
        for name, func in DUAL_ALGORITHMS.items():
            dims[name] = func(xp, yp, context=ctx).dim
    else:
        dims["a-star"] = dims["b-star"] = 0
    oracle = _oracle(xp, yp, cap)
    dims["oracle"] = oracle.dim
    if len(set(dims.values())) != 1:
        raise CheckMismatchError(f"algorithms disagree: {dims}")
    return dims, oracle


def _append_stats(path, instance, basis, xp, yp):
    import csv
    import os

    from .benchmarks import CSV_COLUMNS

    record = record_from_basis(instance, basis, xp, yp)
    new = not os.path.exists(path)
    with open(path, "a", newline="") as handle:
        writer = csv.writer(handle)
        if new:
            writer.writerow(CSV_COLUMNS)
        writer.writerow(record.row())


def _cmd_hom(args, endo=False):
    field = _field_arg(args)
    xp = _load_presentation(args.domain, field)
    yp = xp if endo else _load_presentation(args.target, field)
    oracle = None
    if args.check:
        dims, oracle = _run_check(xp, yp, args.grid_cap)
        sys.stderr.write(f"check ok: dim {next(iter(dims.values()))}\n")
    d = xp.matrix.dim or yp.matrix.dim or 1
    if args.alg == "oracle":
        oracle = oracle or _oracle(xp, yp, args.grid_cap)
        _write_output(write_oracle_result(oracle, d, xp.field.p), args.out)
        return EXIT_OK
    basis = _compute(args.alg, xp, yp)
    _write_output(write_hom_basis(basis, d, xp.field.p), args.out)
    if args.stats:
        name = args.domain if endo else f"{args.domain}->{args.target}"
        _append_stats(args.stats, name, basis, xp, yp)
    return EXIT_OK


def _cmd_thickness(args):
    field = _field_arg(args)
    pres = _load_presentation(args.module, field)
    _write_output(f"{thickness(pres)}\n", args.out)
    return EXIT_OK


def _cmd_minimize(args):
    field = _field_arg(args)
    pres = _load_presentation(args.module, field)
    _write_output(serialize_pmod(pres), args.out)
    return EXIT_OK


def _cmd_sparsify(args):
    field = _field_arg(args)
    pres = _load_presentation(args.module, field)
    _write_output(serialize_pmod(sparsify(pres)), args.out)
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

    p_thick = sub.add_parser("thickness", help="maximum pointwise dimension")
    p_thick.add_argument("module")
    common(p_thick)

    p_min = sub.add_parser("minimize", help="write a minimal presentation")
    p_min.add_argument("module")
    common(p_min)

    p_sp = sub.add_parser("sparsify", help="thin out relation columns")
    p_sp.add_argument("module")
    common(p_sp)

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
    try:
        if args.command == "hom":
            return _cmd_hom(args)
        if args.command == "end":
            return _cmd_hom(args, endo=True)
        if args.command == "thickness":
            return _cmd_thickness(args)
        if args.command == "minimize":
            return _cmd_minimize(args)
        if args.command == "sparsify":
            return _cmd_sparsify(args)
        if args.command == "random":
            return _cmd_random(args)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command}")
    except (FileNotFoundError, IsADirectoryError) as exc:
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
