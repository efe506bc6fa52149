"""Seeded inputs of the benchmark workloads.

A workload is a pool of module pairs laid out in cycles.  Every cycle
holds the same mix of pair classes; a class fixes the `random_pair` shapes
and the operations run on its pairs.  A run that stops part way through a
cycle still measures the workload's mix, because metrics are per-class
figures weighted by each class's share of a cycle.  Only the `random_pair`
seeds depend on the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRIMAL = ("direct", "a", "mixed", "b")
DUAL = ("dual-context", "a-star", "b-star")
OPERATIONS = PRIMAL + DUAL + ("oracle", "hom-module")


@dataclass(frozen=True)
class PairClass:
    """Pairs of one size family and the operations run on each.

    `shapes` lists (generators, relations) counts; the k-th pair of the
    class in the pool takes shape k modulo their number, so every seed
    draws the same shapes and only the random presentations differ.
    """

    name: str
    per_cycle: int
    ops: tuple
    d: int
    shapes: tuple
    coord_range: object  # an int, or "1.5n" for 1.5 times the generators
    p: int


@dataclass(frozen=True)
class Workload:
    """The pair classes of one cycle; BENCHMARK.json says why each exists."""

    classes: tuple
    cycles: int  # cycles in the pool; a run that exhausts them starts over


@dataclass(frozen=True)
class PairSpec:
    cls: str
    ops: tuple
    seed: int
    d: int
    gens: int
    rels: int
    coord_range: int
    p: int


CHECK_OPS = PRIMAL + DUAL + ("oracle",)
SYZYGY_OPS = PRIMAL + DUAL


def _square(*sizes):
    return tuple((n, n) for n in sizes)


# The acceptance-2 corpus shapes: gens 3 + k % 5 with two relation patterns.
SMALL_P2 = tuple((3 + k % 5, 3 + (k * 7) % 5) for k in range(5))
SMALL_P5 = tuple((3 + k % 5, 3 + (k * 3) % 5) for k in range(5))

WORKLOADS = {
    "check": Workload(
        (
            PairClass("small-p2", 10, CHECK_OPS, 2, SMALL_P2, 8, 2),
            PairClass("small-p5", 10, CHECK_OPS, 2, SMALL_P5, 8, 5),
            PairClass("mid-p2", 3, CHECK_OPS, 2, _square(9, 10, 11), 8, 2),
            PairClass("mid-p5", 3, CHECK_OPS, 2, _square(9, 10, 11), 8, 5),
            PairClass("large-p2", 2, CHECK_OPS, 2, _square(14, 15), 8, 2),
            PairClass("large-p5", 2, CHECK_OPS, 2, _square(14, 15), 8, 5),
            # Four generators on a 0..1 coordinate range give an (almost
            # always) full 4x4 oracle grid, so the per-rref inverse-table
            # cost at this prime is paid a steady number of times.
            PairClass("p65521", 1, CHECK_OPS, 2, _square(4), 1, 65521),
        ),
        cycles=10,
    ),
    "ladder": Workload(
        (
            PairClass("n40", 1, PRIMAL, 2, _square(40), "1.5n", 2),
            PairClass("n50", 1, PRIMAL, 2, _square(50), "1.5n", 2),
            PairClass("n60", 1, PRIMAL, 2, _square(60), "1.5n", 2),
        ),
        cycles=27,
    ),
    "syzygy": Workload(
        (
            PairClass("d3-n5", 3, SYZYGY_OPS, 3, _square(5), 9, 2),
            PairClass("d2-n12", 2, SYZYGY_OPS, 2, _square(12), "1.5n", 2),
            PairClass("hom-module-n7", 3, SYZYGY_OPS + ("hom-module",), 2,
                      _square(7), 10, 2),
        ),
        cycles=30,
    ),
}


def pair_specs(workload, seed):
    """The workload's pool for one seed, cycle after cycle.

    The order of pairs inside a cycle is fixed (classes interleaved), so
    a run cut at the deadline stops at the same place of the mix for every
    seed.
    """
    wl = WORKLOADS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    taken = {cls.name: 0 for cls in wl.classes}
    slots = sorted(
        ((j + 0.5) / cls.per_cycle, idx)
        for idx, cls in enumerate(wl.classes)
        for j in range(cls.per_cycle)
    )
    specs = []
    for _ in range(wl.cycles):
        for _, idx in slots:
            cls = wl.classes[idx]
            k = taken[cls.name]
            taken[cls.name] += 1
            gens, rels = cls.shapes[k % len(cls.shapes)]
            coord = (int(1.5 * gens) if cls.coord_range == "1.5n"
                     else cls.coord_range)
            specs.append(PairSpec(cls.name, cls.ops, rng.randrange(1 << 30),
                                  cls.d, gens, rels, coord, cls.p))
    return specs


def cycle_length(workload):
    return sum(c.per_cycle for c in WORKLOADS[workload].classes)


def class_weights(workload):
    """Each class's share of the pairs in one cycle."""
    classes = WORKLOADS[workload].classes
    total = sum(c.per_cycle for c in classes)
    return {c.name: c.per_cycle / total for c in classes}
