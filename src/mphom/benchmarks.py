"""Benchmark harness: system sizes and wall times over a seeded corpus.

Each record captures, for one instance/algorithm pair, the linear-system
shape (variables, equations, average entries per equation), the wall time
of the solver call alone, the computed dimension, and context about the
operands (thickness of the target, its Betti-restricted variant, and the
Betti numbers of both sides).  Rows are plain CSV with a fixed column
order; timing fields are the only nondeterministic ones.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

from .dualhom import dual_context, hom_exact_dual, hom_restricted_dual
from .generators import random_module
from .homspace import hom_direct, hom_exact, hom_mixed, hom_restricted
from .localalg import CokernelCache, thickness, thickness_at_degrees

PRIMAL_ALGORITHMS = {
    "direct": hom_direct,
    "a": hom_restricted,
    "mixed": hom_mixed,
    "b": hom_exact,
}

DUAL_ALGORITHMS = {
    "a-star": hom_restricted_dual,
    "b-star": hom_exact_dual,
}


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row: its fields, in order, with their `format` specs."""

    instance: str
    algorithm: str
    variables: int
    equations: int
    avg_entries: float = field(metadata={"format": ".4f"})
    time_s: float = field(metadata={"format": ".6f"})
    dim_hom: int
    thick_target: int
    thick_target_betti: int
    b0_source: int
    b1_source: int
    b0_target: int
    b1_target: int

    def row(self):
        return [format(getattr(self, f.name), f.metadata.get("format", ""))
                for f in fields(self)]


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def record_from_basis(instance, basis, xp, yp, target_cache=None):
    """Assemble one BenchRecord from a finished Hom computation."""
    cache = target_cache or CokernelCache(yp.matrix)
    betti_degrees = set(xp.matrix.rows) | set(xp.matrix.cols)
    stats = basis.stats
    return BenchRecord(
        instance=instance,
        algorithm=basis.algorithm,
        variables=stats.variables,
        equations=stats.equations,
        avg_entries=stats.avg_entries,
        time_s=stats.solve_seconds,
        dim_hom=basis.dim,
        thick_target=thickness(yp, cache),
        thick_target_betti=thickness_at_degrees(yp, betti_degrees, cache),
        b0_source=xp.n_generators,
        b1_source=xp.n_relations,
        b0_target=yp.n_generators,
        b1_target=yp.n_relations,
    )


def _bench_one(args):
    (seed, d, gens, rels, coord_range, thickness_hint, p,
     algorithms, with_duals) = args
    xp = random_module(seed, d, gens, rels, coord_range, thickness_hint, p)
    records = []
    cache = CokernelCache(xp.matrix)
    instance = f"end-{seed}"
    for name in algorithms:
        basis = PRIMAL_ALGORITHMS[name](xp, xp)
        records.append(record_from_basis(instance, basis, xp, xp, cache))
    if with_duals and not xp.is_zero_module():
        ctx = dual_context(xp, xp)
        for name, func in DUAL_ALGORITHMS.items():
            basis = func(xp, xp, context=ctx)
            records.append(record_from_basis(instance, basis, xp, xp, cache))
    return records


def run_bench(
    count,
    seed=0,
    d=2,
    gens=8,
    rels=8,
    coord_range=8,
    thickness_hint=None,
    p=2,
    algorithms=("b", "a", "mixed", "direct"),
    with_duals=False,
    jobs=1,
):
    """End(X) benchmark over `count` seeded instances; returns records.

    With jobs > 1 the instances run in parallel workers, at most one per
    instance and per CPU; records are collected and ordered by instance
    before writing, so the CSV layout is deterministic up to the timing
    fields.
    """
    tasks = [
        (seed + k, d, gens, rels, coord_range, thickness_hint, p,
         tuple(algorithms), with_duals)
        for k in range(count)
    ]
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_bench_one, tasks))
    else:
        chunks = [_bench_one(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.instance, r.algorithm))
    return records


def write_rows(handle, records):
    """Write the records as CSV rows to an open text handle, after the
    header when the handle is at the start of its file (so a handle
    opened for appending gets the header only in a new or empty file)."""
    writer = csv.writer(handle)
    if handle.tell() == 0:
        writer.writerow(CSV_COLUMNS)
    writer.writerows(rec.row() for rec in records)


def write_csv(records, path):
    with open(path, "w", newline="") as handle:
        write_rows(handle, records)
