"""Bases of Hom(X, Y) between finitely presented Z^d-graded modules.

The package computes the vector space of degree-0 homomorphisms between
multiparameter persistence modules given by minimal presentations, via
four mutually cross-validating algorithms plus their duals, together with
the supporting graded linear algebra (local cokernels, structure maps,
thickness, sparsification, truncation, Matlis transposition) and a
brute-force grid oracle used to validate everything else.
"""

from .errors import (
    CheckMismatchError,
    CoefficientRangeError,
    DegreeArityError,
    DegreeOverflowError,
    DimensionMismatchError,
    EmptyPresentationError,
    FieldArgumentError,
    FieldMismatchError,
    FlagConflictError,
    GradingError,
    GradingParseError,
    HeaderError,
    MphomError,
    NonMinimalPresentationError,
    ParseError,
    ResourceCapError,
    SizeArgumentError,
    UnsortedRowsError,
    ZeroCoefficientError,
)
from .graded import (
    ColumnSpan,
    GradedMatrix,
    PrimeField,
    column_reduce,
    deg_add,
    deg_join,
    deg_leq,
    deg_neg,
    deg_sub,
    graded_matrix_from_entries,
    matmul,
    nullspace_of_columns,
    submatrix_at_most,
    validate_grading,
)
from .localalg import (
    CokernelCache,
    LocalCokernel,
    RestrictionSystem,
    evaluation_grid,
    grid_points,
    hilbert_at,
    local_cokernel,
    restriction_system,
    structure_map,
    thickness,
    thickness_at_degrees,
)
from .presentations import (
    Presentation,
    Resolution,
    free_resolution,
    kernel,
    matlis_transpose_shift,
    minimize,
    sparsify,
    truncate,
    truncation_bound,
)
from .homspace import (
    HomBasis,
    LinearSystem,
    SolveStats,
    hom_direct,
    hom_exact,
    hom_mixed,
    hom_module_presentation,
    hom_restricted,
    homotopy_reduce,
    verify_hom,
)
from .dualhom import DualContext, dual_context, hom_exact_dual, hom_restricted_dual
from .gridoracle import (
    GRID_CAP_DEFAULT,
    GridModule,
    grid_axes,
    hom_oracle,
    naturality_residual,
    push_to_grid,
    realize_grid,
)
from .formats import parse_firep, parse_pmod, serialize_pmod, write_hom_basis
from .generators import random_module, random_pair

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
