"""Curvature-operator laboratory for 4-dimensional Riemannian geometry.

Algebra on 2-forms over R^4, the invariant decomposition of curvature
operators, Kaehler curvature identities, diagonal-metric curvature with an
independent Christoffel oracle, and executable obstructions to frames
arising from orthogonal coordinates.
"""

__version__ = "0.1.0"

from .bivectors import (
    ADAPTED_IDENTITY,
    HODGE_MATRIX,
    LEX_PAIRS,
    PAIR_FIRST,
    PAIR_SECOND,
    FrameRotation,
    hodge_star,
    induced_map,
    induced_rotation,
    sd_project,
    wedge,
)
from .operators import (
    CurvatureOperator,
    Decomposition,
    adapted_form,
    bianchi_defect,
    conjugate,
    decompose,
    distinct_index_components,
    from_components,
    operator_from_dict,
    ricci,
    s_map,
    scalar_curvature,
    weyl_block,
)
from .kahler import (
    STANDARD_J,
    ComplexStructure,
    KahlerBlockForm,
    NonKahlerError,
    build_const_hol_sec,
    build_surface_product,
    coeffs_in_frame,
    extend_to_bivectors,
    from_unitary_frame,
    kaehler_block_form,
    kaehler_residuals,
    scalar_from_kaehler,
    structure_from_coeffs,
    structure_from_dict,
)
from .metrics import (
    DiagonalMetric,
    JField,
    MetricDomainError,
    ParseError,
    ScalarField,
    UnitaryProductReport,
    christoffel_oracle,
    connection_coeffs,
    curvature_at,
    frame_curvature_raw,
    metric_from_dict,
    nabla_J_residuals,
    unitary_product_check,
)
from .obstructions import (
    CSystemCase,
    FrameSearchResult,
    NullspaceCertificate,
    ObstructionReport,
    ScalarSignReport,
    c_system_solve,
    cp2_example_frame,
    distinct_index_residual,
    exact_determinant,
    exact_nullspace,
    frame_search,
    ricciflat_nullspace,
    run_obstruction_suite,
    scalar_sign_check,
    selfdual_classify,
)
