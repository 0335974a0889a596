"""Exact symbolic and numeric toolkit for the soliton vector fields of the
hyperbolic upper half-space: Killing and soliton residuals, dual-form
calculus, contact criteria, Lie-algebra closure, and closed-form flows."""

from .errors import (
    BoundaryEscape,
    BoundaryPoint,
    DimensionMismatch,
    ExponentOverflow,
    FlowEscape,
    GradeOverflow,
    IndexOutOfRange,
    NonFinite,
    NotClosed,
    OddSize,
    ParseError,
    RBKitError,
)
from .exterior import (
    KForm,
    VectorField,
    ext_d,
    interior,
    lie_derivative_form,
    power_wedge,
    wedge,
)
from .flows import (
    FlowSpec,
    FlowState,
    integrate,
    isometry_check,
    write_trajectory_csv,
)
from .halfspace import (
    SolitonParams,
    SymTensor2,
    christoffel,
    flat,
    hyp_distance,
    inverse_metric,
    lie_derivative_metric,
    metric,
    random_params,
    rb_residual,
    ricci,
    scalar_curvature,
    soliton_lambda,
)
from .ratlaurent import LaurentPoly, parse_rational
from .solitons import (
    AlgebraSpan,
    ContactReport,
    algebra_closure,
    build_field,
    contact_matrix,
    contact_report,
    contact_top_form,
    det_bareiss,
    generator,
    generator_names,
    generators,
    lie_bracket,
    pfaffian,
    sl2_check,
    structure_constants,
)

__version__ = "0.1.0"
