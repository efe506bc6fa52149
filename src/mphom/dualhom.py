"""Hom computation through injective co-presentations (dual algorithms).

When the domain is thin but the target is thick, the primal algorithms
look at the wrong module.  Matlis duality swaps the roles:
Hom(X, Y) ~ Hom(DY, DX), and a presentation of the dual of a bounded
module falls out of the last differential of a full projective
resolution, transposed with degrees negated and shifted by the all-ones
vector.  Both operands are truncated at a shared bound first so that the
duality applies; truncation does not change the Hom space.

`dual_context` builds that scaffolding once per pair: `truncate` widens
each operand by one unit relation per generator and axis and minimizes
it, `free_resolution` computes kernels up to the syzygy bound and ends
with one independence sweep over the last stage's columns (a bounded
module's resolution has all d stages, so no last kernel is computed only
to be found empty), `Resolution` checks d_k d_{k+1} = 0 column by column
in the field's column form, and `matlis_transpose_shift` is applied once
more to each dual to check that it inverts to the last stage.

The returned matrices are coordinatised in the cogenerators of X and Y
(bases of the injective envelopes), never converted back to generator
coordinates; the `coords` tag on the result makes this explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import CheckMismatchError
from .graded import GradedMatrix, _transpose, deg_neg
from .homspace import (
    HomBasis,
    _check_pair,
    _empty_basis,
    hom_exact,
    hom_restricted,
)
from .presentations import (
    Presentation,
    free_resolution,
    matlis_transpose_shift,
    minimize,
    truncate,
    truncation_bound,
)


@dataclass(frozen=True)
class DualContext:
    """Shared scaffolding of one dual computation.

    Holds the common truncation bound, the completed resolutions of the
    truncated operands, and minimal presentations of the Matlis duals
    built from the transposed-shifted last differentials.
    """

    omega: tuple
    resolution_x: object
    resolution_y: object
    dual_x: Presentation
    dual_y: Presentation
    truncated_x: Presentation
    truncated_y: Presentation


def dual_context(xp, yp):
    """Truncate at a shared bound and complete both resolutions."""
    omega = truncation_bound(xp, yp)
    tx = truncate(xp if xp.minimal else minimize(xp), omega)
    ty = truncate(yp if yp.minimal else minimize(yp), omega)
    rx = free_resolution(tx)
    ry = free_resolution(ty)
    dx = matlis_transpose_shift(rx.last)
    dy = matlis_transpose_shift(ry.last)
    for original, dual in ((rx.last, dx), (ry.last, dy)):
        if matlis_transpose_shift(dual) != original:
            raise CheckMismatchError(
                "transpose-shift does not invert to the original stage"
            )
    return DualContext(
        omega=omega,
        resolution_x=rx,
        resolution_y=ry,
        dual_x=Presentation(dx, minimal=True, label="dual-x"),
        dual_y=Presentation(dy, minimal=True, label="dual-y"),
        truncated_x=tx,
        truncated_y=ty,
    )


def _dual_basis(route, algorithm, xp, yp, context):
    """Run a primal route on the transposed duals and transpose back.

    The operands are checked as the primal routes check theirs (both
    minimal, one field, one arity) before anything else, so a zero module
    on either side gives the empty basis only for a valid pair.  The
    inner run computes Hom(DY, DX); transposing each matrix yields
    elements of K^{S' x S}, where the cogenerator of X behind a dual
    generator of degree delta sits at -delta in the original poset.
    """
    if _check_pair(xp, yp):
        return _empty_basis(algorithm, "cogenerators")
    ctx = context or dual_context(xp, yp)
    inner = route(ctx.dual_y, ctx.dual_x)
    cogen_x = tuple([deg_neg(d) for d in ctx.dual_x.matrix.rows])
    cogen_y = tuple([deg_neg(d) for d in ctx.dual_y.matrix.rows])
    elements = tuple(
        GradedMatrix._trusted(q.field, cogen_y, cogen_x,
                              tuple(_transpose(q.columns, len(cogen_x))))
        for q in inner.elements
    )
    stats = replace(inner.stats, algorithm=algorithm)
    return HomBasis(elements, "cogenerators", algorithm, stats)


def hom_restricted_dual(xp, yp, context=None):
    """Algorithm A*: restricted computation on the transposed duals."""
    return _dual_basis(hom_restricted, "a-star", xp, yp, context)


def hom_exact_dual(xp, yp, context=None):
    """Algorithm B*: hom-exactness on the transposed duals."""
    return _dual_basis(hom_exact, "b-star", xp, yp, context)
