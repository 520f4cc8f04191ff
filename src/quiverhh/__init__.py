"""Exact Hochschild cohomology of bound quiver algebras."""

from .errors import (
    CompletionError,
    ConsistencyError,
    EngineError,
    FieldError,
    InfiniteDimensionalError,
    ParseError,
)
from .fields import Field, PrimeField, Rationals, field_parse, primitive_root_of_unity
from .quiver import (
    AlgebraElement,
    BoundQuiverPresentation,
    Path,
    Quiver,
    arrow_path,
    compose,
    enumerate_paths,
    path_from_names,
    trivial_path,
)
from .dsl import parse_presentation, serialize_presentation
from .rewrite import QuotientAlgebra, ReductionSystem, quotient_algebra
from .linalg import SparseMatrix, SubspaceBasis, echelon
from .hochschild import (
    CohomologyClass,
    HHReport,
    HochschildCohomology,
    RelativeBarComplex,
    SmallComplex,
    SmallComplexUnavailable,
    build_small_complex,
    d_squared_zero,
    hh_classes,
    hh_report,
)
from .sl2 import (
    KernelModelReport,
    PsiTensor,
    contract,
    format_psi,
    jj_dim,
    kernel_model_dims,
    killing,
    orbit_conjugate,
    parse_psi,
    psi_dagger_psi,
    stab_dim,
)
from .families import (
    CellComplexData,
    FAMILY_NAMES,
    angle_functional_check,
    angle_label_assignment,
    family_presentation,
    incidence_presentation,
    kronecker_presentation,
    p1p1_presentation,
    pi_presentation,
    random_monomial_presentation,
    torus_cubical_complex,
    torus_simplicial_complex,
)

__version__ = "0.1.0"
