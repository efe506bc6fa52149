"""Seeded random presentations for the cross-validation and bench corpora.

The generator is deterministic in its seed: generator degrees are drawn
first (optionally stacked into comparable towers to steer thickness),
then each relation picks a degree at or above the join of a few
generators and a sparse set of admissible entries.  The result is
minimized, so callers always receive a minimal, grading-valid
presentation.
"""

from __future__ import annotations

import random
from operator import le

from .graded import GradedMatrix, PrimeField, deg_join
from .presentations import Presentation, minimize


def random_module(
    seed,
    d=2,
    gens=6,
    rels=6,
    coord_range=8,
    thickness_hint=None,
    p=2,
):
    """Deterministic random minimal presentation over GF(p).

    `thickness_hint` steers (does not fix) the maximum pointwise
    dimension by stacking roughly that many comparable generators per
    tower before relations trim them.
    """
    if d < 1:
        raise ValueError(f"number of parameters must be >= 1, got {d}")
    if gens < 0 or rels < 0:
        raise ValueError("generator and relation counts must be >= 0")
    rng = random.Random(
        f"mphom-random:{seed}:{d}:{gens}:{rels}:{coord_range}"
        f":{thickness_hint}:{p}"
    )
    fld = PrimeField(p)

    rows = []
    if thickness_hint and thickness_hint > 1 and gens:
        towers = max(1, (gens + thickness_hint - 1) // thickness_hint)
        anchors = []
        for _ in range(towers):
            anchors.append(tuple(
                rng.randint(0, max(coord_range - 2, 0)) for _ in range(d)
            ))
        for k in range(gens):
            base = anchors[k % towers]
            rows.append(tuple(
                min(c + rng.randint(0, 1), coord_range) for c in base
            ))
    else:
        for _ in range(gens):
            rows.append(tuple(
                rng.randint(0, coord_range) for _ in range(d)
            ))

    cols, columns = [], []
    if gens:
        for _ in range(rels):
            support_size = rng.randint(1, min(3, gens))
            picked = rng.sample(range(gens), support_size)
            rdeg = rows[picked[0]]
            for g in picked[1:]:
                rdeg = deg_join(rdeg, rows[g])
            rdeg = tuple(
                min(c + rng.randint(0, 2), coord_range + 2) for c in rdeg
            )
            admissible = [
                g for g in range(gens) if all(map(le, rows[g], rdeg))
            ]
            k = rng.randint(1, min(4, len(admissible)))
            support = sorted(rng.sample(admissible, k))
            col = tuple(
                (g, rng.randint(1, p - 1)) for g in support
            )
            cols.append(rdeg)
            columns.append(col)
    matrix = GradedMatrix(fld, rows, cols, columns)
    return minimize(Presentation(matrix, label=f"rand-{seed}"))


def random_pair(seed, d=2, gens=6, rels=6, coord_range=8,
                thickness_hint=None, p=2):
    """Two independent random modules sharing size parameters."""
    x = random_module(seed * 2 + 1, d, gens, rels, coord_range,
                      thickness_hint, p)
    y = random_module(seed * 2 + 2, d, gens, rels, coord_range,
                      thickness_hint, p)
    return x, y
