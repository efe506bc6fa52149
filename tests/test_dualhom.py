"""Dual algorithms: Matlis transposition, truncation, cogenerator output."""

import pytest

from mphom import (
    CheckMismatchError,
    EmptyPresentationError,
    FieldMismatchError,
    GradedMatrix,
    MphomError,
    Presentation,
    PrimeField,
    dual_context,
    graded_matrix_from_entries,
    hom_exact,
    hom_exact_dual,
    hom_restricted,
    hom_restricted_dual,
    minimize,
    thickness,
    truncate,
    truncation_bound,
    validate_grading,
)
from mphom import dualhom
from mphom.generators import random_module, random_pair

from conftest import zero_module


def box_interval(p=3):
    fld = PrimeField(p)
    return minimize(Presentation(graded_matrix_from_entries(
        fld, [(0, 0)], [(2, 0), (0, 2)], {(0, 0): 1, (0, 1): 1})))


def test_dual_dims_match_primal_after_shared_truncation():
    for seed in range(8):
        x, y = random_pair(seed, gens=4, rels=4, coord_range=5, p=2)
        if x.is_zero_module() or y.is_zero_module():
            continue
        ctx = dual_context(x, y)
        primal_a = hom_restricted(ctx.truncated_x, ctx.truncated_y).dim
        primal_b = hom_exact(ctx.truncated_x, ctx.truncated_y).dim
        assert hom_restricted_dual(x, y, context=ctx).dim == primal_a, seed
        assert hom_exact_dual(x, y, context=ctx).dim == primal_b, seed
        assert primal_a == primal_b


def test_dual_context_checks_the_transpose_inverts(monkeypatch):
    """`dual_context` transposes each dual back and compares it with the
    last stage; a transpose that loses a column fails that check."""
    x, y = random_pair(1, gens=4, rels=4, coord_range=5, p=5)
    real = dualhom.matlis_transpose_shift

    def lossy(m):
        t = real(m)
        return GradedMatrix._trusted(t.field, t.rows, t.cols[:-1],
                                     t.columns[:-1])

    monkeypatch.setattr(dualhom, "matlis_transpose_shift", lossy)
    with pytest.raises(CheckMismatchError, match="does not invert"):
        dual_context(x, y)


def test_dual_on_running_example(fig_pair):
    x, y = fig_pair
    assert hom_restricted_dual(x, y).dim == 1
    assert hom_exact_dual(x, y).dim == 1


def test_box_interval_self_hom_identity_in_cogenerators():
    box = box_interval()
    basis = hom_restricted_dual(box, box)
    assert basis.dim == 1
    assert basis.coords == "cogenerators"
    (q,) = basis.elements
    assert q.to_dense() == [[1]]
    # The single cogenerator of the box [0,2)x[0,2) sits at its socle.
    assert q.rows == ((1, 1),)
    assert q.cols == ((1, 1),)


def test_dual_into_zero_module(fig_pair):
    x, _ = fig_pair
    z = zero_module()
    assert hom_restricted_dual(x, z).dim == 0
    assert hom_exact_dual(z, x).dim == 0


def test_dual_context_of_two_empty_presentations_is_a_typed_error():
    """Two zero modules with no relations have no degree to bound; the
    routes return the empty basis before asking, `dual_context` raises
    a typed error (an MphomError, still a ValueError)."""
    z = zero_module()
    assert hom_restricted_dual(z, z).dim == 0
    for call in (lambda: dual_context(z, z), lambda: truncation_bound(z)):
        with pytest.raises(EmptyPresentationError) as info:
            call()
        assert isinstance(info.value, MphomError)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("route", [hom_restricted_dual, hom_exact_dual])
def test_dual_rejects_a_zero_module_over_another_field(fig_pair, route):
    x, _ = fig_pair
    z = zero_module(p=2)
    assert x.field != z.field
    with pytest.raises(FieldMismatchError):
        route(x, z)
    with pytest.raises(FieldMismatchError):
        route(z, x)


def test_dual_context_validates_involution(fig_pair):
    x, y = fig_pair
    ctx = dual_context(x, y)
    assert ctx.omega == truncation_bound(x, y)
    assert ctx.dual_x.minimal and ctx.dual_y.minimal
    assert validate_grading(ctx.dual_x.matrix)
    assert validate_grading(ctx.dual_y.matrix)
    # Last resolution stages are injective: completing them further adds
    # nothing (their kernels vanish), which free_resolution guarantees.
    from mphom import kernel

    assert kernel(ctx.resolution_x.last).ncols == 0
    assert kernel(ctx.resolution_y.last).ncols == 0


def test_dual_output_grading_is_valid(fig_pair):
    x, y = fig_pair
    for basis in (hom_restricted_dual(x, y), hom_exact_dual(x, y)):
        for q in basis:
            assert validate_grading(q)


def test_dual_system_size_tracks_domain_thickness():
    # Thin domain, thick target: the dual route should assemble a system
    # whose variable count reflects the thin side only.
    thin = random_module(11, gens=6, rels=6, coord_range=6, p=2,
                         thickness_hint=1)
    thick = random_module(12, gens=6, rels=4, coord_range=3, p=2,
                          thickness_hint=3)
    if thickness(thin) >= thickness(thick):
        pytest.skip("generator did not separate the thickness values")
    primal = hom_exact(thin, thick)
    dual = hom_exact_dual(thin, thick)
    assert dual.dim == hom_exact(
        truncate(thin, truncation_bound(thin, thick)),
        truncate(thick, truncation_bound(thin, thick)),
    ).dim
    assert dual.stats.variables < primal.stats.variables
