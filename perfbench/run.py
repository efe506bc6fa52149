"""Wall-time benchmark of the mphom Hom routes.

    python3 perfbench/run.py --workload check --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (the directory holding `src/mphom`).
The measured loop is one process and one thread, closed-loop: it builds
the workload's seeded pool of module pairs, then takes pairs one after the
other, running every operation of the pair's class and checking the
answers, until `--seconds` have passed and at least one whole cycle of the
pool is done.  Each operation is one public mphom call, timed from
outside.  Times are divided by the machine's slowdown, measured with a
calibration kernel around every pair (see README.md, "Reference seconds").

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the layer modules are wrapped by `tracer.py` and the last line
carries the per-layer metrics.  End-to-end numbers come only from untraced
runs.  Earlier stdout lines hold a readable table, run metadata and the
SHA-256 digests of the `write_hom_basis` outputs.  Full results (and, when
traced, the span file) are written under `.perfbench/` in the checkout.

The exit code is 0 when every operation ran and every check passed, 1 when
some operation failed (the result line still prints, with `correct`
false), and 2 without a result when the checkout holds no mphom sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# The metrics of the --trace 0 result line (BENCHMARK.json end_to_end):
# those that every workload has and that are never 0.  The others are
# printed in the table above it.
GATED_OPS = ("direct", "a", "mixed", "b")
END_TO_END = ("setup_s", "pairs_per_s") + tuple(f"{op}_s" for op in GATED_OPS)
# Seconds the calibration kernel takes on the reference machine, one 2.1 GHz
# Xeon virtual CPU; reported times are scaled to that machine speed.
CALIBRATION_REF_S = 0.0008


def _fail_without_result(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_mphom():
    if not os.path.isfile(os.path.join(SRC, "mphom", "__init__.py")):
        _fail_without_result(f"no mphom sources under {SRC}")
    sys.path.insert(0, SRC)
    import mphom  # noqa: F401  (loads every layer module)
    from mphom import dualhom, formats, generators, gridoracle, homspace
    from mphom import localalg

    return {
        "dualhom": dualhom, "formats": formats, "generators": generators,
        "gridoracle": gridoracle, "homspace": homspace, "localalg": localalg,
    }


# -- inputs ------------------------------------------------------------------


def build_pool(m, workload, seed):
    """Generate (and, inside random_pair, minimize) every pair of the pool."""
    gen = m["generators"]
    pool = []
    for spec in wl.pair_specs(workload, seed):
        x, y = gen.random_pair(spec.seed, d=spec.d, gens=spec.gens,
                               rels=spec.rels, coord_range=spec.coord_range,
                               p=spec.p)
        pool.append((spec, x, y))
    return pool


def measure_setup(workload, seed):
    """Median, over fresh interpreters, of process start to pool ready, in
    reference seconds; also the raw wall seconds of each try."""
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup child exited with {code}")
        walls.append(elapsed)
        times.append(elapsed / slowdown(before, calibrate()))
    return statistics.median(times), walls


# -- operations --------------------------------------------------------------


def make_operations(m):
    """Operation name -> callable(x, y, ctx).  Module attributes are looked
    up at call time so that a tracer's rebinding takes effect."""
    hs, dh, go = m["homspace"], m["dualhom"], m["gridoracle"]

    def oracle(x, y, ctx):
        axes = go.grid_axes(x.matrix, y.matrix)
        gx = go.realize_grid(x, axes)
        gy = go.realize_grid(y, axes)
        return go.hom_oracle(gx, gy)

    return {
        "direct": lambda x, y, ctx: hs.hom_direct(x, y),
        "a": lambda x, y, ctx: hs.hom_restricted(x, y),
        "mixed": lambda x, y, ctx: hs.hom_mixed(x, y),
        "b": lambda x, y, ctx: hs.hom_exact(x, y),
        "dual-context": lambda x, y, ctx: dh.dual_context(x, y),
        "a-star": lambda x, y, ctx: dh.hom_restricted_dual(x, y, context=ctx),
        "b-star": lambda x, y, ctx: dh.hom_exact_dual(x, y, context=ctx),
        "oracle": oracle,
        "hom-module": lambda x, y, ctx: hs.hom_module_presentation(x, y),
    }


class PairOutcome:
    __slots__ = ("seconds", "op_seconds", "dims", "failed", "attempted",
                 "bases", "errors")

    def __init__(self):
        self.seconds = 0.0
        self.op_seconds = {}
        self.dims = {}
        self.failed = []
        self.attempted = 0
        self.bases = {}
        self.errors = {}


def run_pair(m, ops, spec, x, y, reference=None, span=None):
    """Run every operation of the pair's class, then check the answers.

    `span(name, func)` wraps each operation when tracing.  A failure is an
    operation that raises or whose dimension disagrees with the recorded
    reference (when given) or with the majority of the routes and oracle.
    """
    out = PairOutcome()
    zero = x.is_zero_module() or y.is_zero_module()
    ctx = None
    start = time.perf_counter()
    for op in spec.ops:
        if zero and op in wl.DUAL:
            # No dual context exists for a zero module; the CLI check path
            # records both dual dimensions as 0.
            if op != "dual-context":
                out.dims[op] = 0
            continue
        if op in ("a-star", "b-star") and ctx is None:
            out.attempted += 1
            out.failed.append(op)
            out.errors[op] = "no dual context"
            continue
        call = ops[op]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = (call(x, y, ctx) if span is None
                      else span("op." + op, lambda: call(x, y, ctx)))
        except Exception as exc:  # a failing operation is counted, not fatal
            out.op_seconds[op] = time.perf_counter() - t0
            out.failed.append(op)
            out.errors[op] = f"{type(exc).__name__}: {exc}"
            continue
        out.op_seconds[op] = time.perf_counter() - t0
        if op == "dual-context":
            ctx = result
        elif op == "hom-module":
            origin = (0,) * (x.matrix.dim or y.matrix.dim or spec.d)
            out.dims[op] = m["localalg"].hilbert_at(result, origin)
        else:
            out.dims[op] = result.dim
            if op != "oracle":
                out.bases[op] = result
    if reference is not None:
        expected = reference
    elif out.dims:
        expected = Counter(out.dims.values()).most_common(1)[0][0]
    else:
        expected = None
    for op, dim in out.dims.items():
        if dim != expected and op not in out.failed:
            out.failed.append(op)
            out.errors[op] = f"dimension {dim}, expected {expected}"
    out.seconds = time.perf_counter() - start
    return out, expected


def digest_of(m, basis, x, y):
    d = x.matrix.dim or y.matrix.dim or 1
    text = m["formats"].write_hom_basis(basis, d, x.field.p)
    return hashlib.sha256(text.encode()).hexdigest()


# -- the measured loop -------------------------------------------------------


def _calibration_kernel():
    """Fixed pure-Python work in the style of the sparse engine's loops."""
    p = 65521
    col = [(i, (i * 7919) % p) for i in range(0, 300, 3)]
    acc = {}
    for r in range(1, 40):
        for i, v in col:
            acc[i] = (acc.get(i, 0) + v * r) % p
    return acc


def calibrate(repeats=3):
    """Seconds the calibration kernel takes now (best of a few tries)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def slowdown(before, after):
    """How much slower than the reference machine this one ran between two
    calibrations (1.0: reference speed; 1.2: 20 % slower)."""
    return (before + after) / 2 / CALIBRATION_REF_S


def iqm(values):
    """Interquartile mean: the mean of the middle half of the values."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


class ClassStats:
    """One row per pair of a class: its wall time and what it spent where."""

    def __init__(self):
        self.rows = []

    @property
    def pairs(self):
        return len(self.rows)

    def add(self, outcome, layer_self=None):
        row = {"pair_s": outcome.seconds}
        for op, seconds in outcome.op_seconds.items():
            row[op + "_s"] = seconds
        for name, seconds in (layer_self or {}).items():
            row[name] = seconds
        self.rows.append(row)
        return row


def mix(per_class, weights, key, center=iqm, corrected=True):
    """Sum over classes of the class's share times the center of `key` over
    its pairs (0 where a pair lacks `key`), in reference seconds unless
    `corrected` is false.

    The default center, the interquartile mean, keeps one slow input or a
    short burst of load from other processes from moving the figure.
    Weighting by the class shares keeps the workload's mix when a run
    stops mid-cycle.
    """
    def value(row):
        return row.get(key, 0.0) / (row["slowdown"] if corrected else 1.0)

    return sum(
        weight * center([value(row) for row in per_class[name].rows])
        for name, weight in weights.items()
    )


def run_loop(m, pool, workload, deadline, reference, tracer=None):
    """Run pairs until the deadline has passed and one cycle is done."""
    ops = make_operations(m)
    cycle = wl.cycle_length(workload)
    per_class = defaultdict(ClassStats)
    rows = []  # in run order
    cals = []  # calibration before each pair, and one after the last
    first_cycle = {"routes": defaultdict(int), "digests": {}, "counts": None,
                   "closure_points": 0, "calls": Counter(), "seconds": 0.0,
                   "spans": 0}
    attempted = failed = 0
    failures = []
    span = tracer.span if tracer is not None else None
    i = 0
    while i < cycle or time.perf_counter() < deadline:
        index = i % len(pool)
        spec, x, y = pool[index]
        ref = reference[index] if reference is not None else None
        cals.append(calibrate())
        mark = tracer.mark() if tracer is not None else 0
        outcome, _ = run_pair(m, ops, spec, x, y, ref, span)
        layer_self = calls = None
        if tracer is not None:
            layer_self, calls = tracer.self_times(mark)
        rows.append(per_class[spec.cls].add(outcome, layer_self))
        attempted += outcome.attempted
        failed += len(outcome.failed)
        for op in outcome.failed:
            failures.append({"pair": index, "class": spec.cls, "op": op,
                             "error": outcome.errors[op]})
        if i < cycle:
            _record_first_cycle(m, first_cycle, index, outcome, x, y,
                                tracer, mark, calls)
            if i == cycle - 1 and tracer is not None:
                first_cycle["counts"] = dict(tracer.counts)
        i += 1
    cals.append(calibrate())
    for j, row in enumerate(rows):
        row["slowdown"] = slowdown(cals[j], cals[j + 1])
    return {
        "per_class": per_class, "rows": rows,
        "attempted": attempted, "failed": failed, "failures": failures,
        "first_cycle": first_cycle, "pairs": i,
    }


def _record_first_cycle(m, fc, index, outcome, x, y, tracer, mark, calls):
    """Deterministic facts of cycle 0: digests, system sizes, counts."""
    fc["seconds"] += outcome.seconds
    fc["digests"][index] = {
        op: digest_of(m, basis, x, y) for op, basis in outcome.bases.items()
    }
    for basis in outcome.bases.values():
        for field in ("variables", "equations", "entries", "solution_dim",
                      "homotopy_killed"):
            fc["routes"][field] += getattr(basis.stats, field)
    if tracer is not None:
        fc["calls"].update(calls)
        fc["closure_points"] += tracer.children_of(
            "presentations.kernel", "graded.nullspace_of_columns", mark)
        fc["spans"] += tracer.mark() - mark


# -- metrics -----------------------------------------------------------------


def _percentile(values, q):
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[k]


def end_to_end(workload, loop, setup_s):
    """Every end-to-end metric that applies to the workload, gated or not."""
    weights = wl.class_weights(workload)
    per_class = loop["per_class"]
    pair_times = [row["pair_s"] / row["slowdown"] for row in loop["rows"]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pairs_per_s": (1.0 / mix(per_class, weights, "pair_s"), "1/s"),
        "pair_s.p50": (statistics.median(pair_times), "s"),
    }
    if len(pair_times) >= 100:
        metrics["pair_s.p90"] = (_percentile(pair_times, 0.9), "s")
    run_ops = {op for c in wl.WORKLOADS[workload].classes for op in c.ops}
    for op in wl.OPERATIONS:
        if op in run_ops:
            metrics[f"{op}_s"] = (mix(per_class, weights, f"{op}_s"), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["fail_frac"] = (loop["failed"] / max(loop["attempted"], 1),
                            "ratio")
    # The gated figures again in uncorrected wall time, and the slowdown.
    metrics["wall.pairs_per_s"] = (
        1.0 / mix(per_class, weights, "pair_s", corrected=False), "1/s")
    for op in GATED_OPS:
        metrics[f"wall.{op}_s"] = (
            mix(per_class, weights, f"{op}_s", corrected=False), "s")
    metrics["machine.slowdown"] = (
        statistics.median(row["slowdown"] for row in loop["rows"]), "ratio")
    return metrics


def per_layer(workload, loop, setup_self, overhead):
    """Per-layer metrics of a traced run."""
    weights = wl.class_weights(workload)
    per_class = loop["per_class"]
    fc = loop["first_cycle"]
    calls, counts = fc["calls"], fc["counts"] or {}

    def self_s(name):
        return mix(per_class, weights, name, center=statistics.fmean)

    def ratio(num, den):
        return num / den if den else 0.0

    cells = counts.get("gridoracle.rref.cells", 0)
    closure = fc["closure_points"]
    routes = fc["routes"]
    metrics = {
        "gridoracle.rref.calls": (calls["gridoracle.rref"], "count"),
        "gridoracle.rref.self_s": (self_s("gridoracle.rref"), "s"),
        "gridoracle.rref.cells": (cells, "count"),
        "gridoracle.rref.bytes_computed": (8 * cells, "B"),
        "gridoracle.realize_grid.self_s": (self_s("gridoracle.realize_grid"),
                                           "s"),
        "gridoracle.hom_oracle.self_s": (self_s("gridoracle.hom_oracle"),
                                         "s"),
        "gridoracle.grid_points": (counts.get("gridoracle.grid_points", 0),
                                   "count"),
        "presentations.kernel.calls": (calls["presentations.kernel"],
                                       "count"),
        "presentations.kernel.self_s": (self_s("presentations.kernel"), "s"),
        "presentations.kernel.closure_points": (closure, "count"),
        "presentations.kernel.useful_point_ratio": (
            ratio(counts.get("presentations.kernel.generator_degrees", 0),
                  closure), "ratio"),
    }
    for name in ("presentations.free_resolution", "presentations.truncate",
                 "presentations.matlis_transpose_shift",
                 "presentations.minimize", "homspace.LinearSystem.build",
                 "homspace.LinearSystem.solve", "homspace.homotopy_reduce",
                 "homspace.verify_hom", "homspace.hom_direct",
                 "homspace.hom_restricted", "homspace.hom_mixed",
                 "homspace.hom_exact", "homspace.hom_module_presentation",
                 "dualhom.dual_context", "dualhom.hom_restricted_dual",
                 "dualhom.hom_exact_dual", "localalg.local_cokernel",
                 "localalg.structure_map", "graded.column_reduce",
                 "graded.nullspace_of_columns", "graded.submatrix_at_most"):
        metrics[name + ".self_s"] = (self_s(name), "s")
    for name in ("homspace.verify_hom", "localalg.local_cokernel",
                 "graded.column_reduce"):
        metrics[name + ".calls"] = (calls[name], "count")
    metrics["graded.ColumnSpan.insert.calls"] = (
        counts.get("graded.ColumnSpan.insert.calls", 0), "count")
    metrics["localalg.cache_hit_ratio"] = (
        1.0 - ratio(counts.get("localalg.CokernelCache.misses", 0),
                    counts.get("localalg.CokernelCache.at.calls", 0)),
        "ratio")
    metrics["homspace.variables"] = (routes["variables"], "count")
    metrics["homspace.equations"] = (routes["equations"], "count")
    metrics["homspace.entries"] = (routes["entries"], "count")
    metrics["homspace.homotopy_waste_ratio"] = (
        ratio(routes["homotopy_killed"], routes["solution_dim"]), "ratio")
    metrics["generators.random_module.self_s"] = (
        setup_self.get("generators.random_module", 0.0), "s")
    metrics["presentations.minimize.setup_s"] = (
        setup_self.get("presentations.minimize", 0.0), "s")
    unattributed = sum(self_s(f"op.{op}") for op in wl.OPERATIONS)
    traced_pair = self_s("pair_s")
    metrics["trace.unattributed_frac"] = (ratio(unattributed, traced_pair),
                                          "ratio")
    metrics["trace.overhead_s"] = (overhead[0], "s")
    metrics["trace.overhead_frac"] = (overhead[1], "ratio")
    metrics["trace.spans"] = (fc["spans"], "count")
    return metrics


# -- reporting ---------------------------------------------------------------


def _print_op_coverage(workload, loop):
    """Per operation: traced wall time per pair, and the share of it spent
    outside every traced layer function (the benchmark's own call glue)."""
    weights = wl.class_weights(workload)
    for op in wl.OPERATIONS:
        wall = mix(loop["per_class"], weights, f"{op}_s",
                   center=statistics.fmean)
        if wall:
            glue = mix(loop["per_class"], weights, f"op.{op}",
                       center=statistics.fmean)
            print(f"trace op {op:12s} wall/pair {wall:12.6g} s   "
                  f"outside traced layers {glue / wall:8.2%}")


def _git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mphom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def metadata(args, pool, loop):
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpus,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_pairs": len(pool),
        "cycle_pairs": wl.cycle_length(args.workload),
        "pairs_run": loop["pairs"],
        "pairs_per_class": {k: v.pairs for k, v in loop["per_class"].items()},
        "reference_checked": args.seed == REFERENCE_SEED,
    }


def output_digests(loop):
    """One SHA-256 per route over its cycle-0 outputs, in pool order."""
    per_route = defaultdict(hashlib.sha256)
    for index in sorted(loop["first_cycle"]["digests"]):
        for op, hexdigest in sorted(loop["first_cycle"]["digests"][index]
                                    .items()):
            per_route[op].update(bytes.fromhex(hexdigest))
    return {op: h.hexdigest() for op, h in sorted(per_route.items())}


def _load_reference(workload, seed, pool):
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE) as handle:
        dims = json.load(handle)[workload]
    if len(dims) != len(pool):
        raise RuntimeError("reference.json does not match the pool size")
    return dims


def write_reference(m):
    """Record the agreed dimension of every pair of the default-seed pools."""
    ops = make_operations(m)
    out = {}
    for workload in wl.WORKLOADS:
        dims = []
        for spec, x, y in build_pool(m, workload, REFERENCE_SEED):
            outcome, expected = run_pair(m, ops, spec, x, y)
            if outcome.failed:
                raise RuntimeError(f"{workload}: {outcome.errors}")
            dims.append(expected)
        out[workload] = dims
        print(f"{workload}: {len(dims)} pairs", flush=True)
    with open(REFERENCE, "w") as handle:
        json.dump(out, handle, separators=(",", ":"))
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the pool, print 'ready' and exit "
                             "(used to time set-up in a fresh process)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed dimensions and exit")
    args = parser.parse_args(argv)

    if args.write_reference:
        write_reference(_import_mphom())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        build_pool(_import_mphom(), args.workload, args.seed)
        print("ready", flush=True)
        return 0

    m = _import_mphom()
    if not args.trace:
        setup_s, setup_runs = measure_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    setup_mark = tracer.mark() if tracer else 0
    pool = build_pool(m, args.workload, args.seed)
    setup_self = tracer.self_times(setup_mark)[0] if tracer else {}
    reference = _load_reference(args.workload, args.seed, pool)
    # The pool is the benchmark's, not the program's: keep the cyclic
    # garbage collector from rescanning it during every full collection.
    gc.collect()
    gc.freeze()

    overhead = None
    deadline = time.perf_counter() + args.seconds
    if tracer is not None:
        # Time cycle 0 untraced twice (the first pass warms up), so that the
        # traced loop, which starts with the same cycle, gives the tracing
        # overhead on identical inputs.
        tracer.uninstall()
        for _ in range(2):
            untraced = run_loop(m, pool, args.workload, 0.0, reference)
        tracer.install()
        tracer.counts.clear()  # drop what set-up counted
        loop = run_loop(m, pool, args.workload, deadline, reference, tracer)
        base = untraced["first_cycle"]["seconds"]
        extra = loop["first_cycle"]["seconds"] - base
        overhead = (extra, extra / base)
        tracer.uninstall()
    else:
        loop = run_loop(m, pool, args.workload, deadline, reference)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"spans-{stem}.json"))
        metrics = per_layer(args.workload, loop, setup_self, overhead)
    else:
        metrics = end_to_end(args.workload, loop, setup_s)

    meta = metadata(args, pool, loop)
    if tracer is None:
        meta["setup_runs_s"] = setup_runs
    digests = output_digests(loop)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    if tracer is not None:
        _print_op_coverage(args.workload, loop)
    for op, hexdigest in digests.items():
        print(f"digest {op:12s} {hexdigest}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for failure in loop["failures"][:20]:
        print("FAILED " + json.dumps(failure), file=sys.stderr)

    result = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items() if args.trace or k in END_TO_END},
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as handle:
        json.dump({"result": result, "meta": meta, "digests": digests,
                   "output_digests": loop["first_cycle"]["digests"],
                   "pairs": {k: v.rows for k, v in loop["per_class"].items()},
                   "failures": loop["failures"]}, handle, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
