"""Interpolation by piecewise exponential splines with certified error bounds."""

from .errbound2 import (
    IntervalBoundData,
    M_constant,
    green_eval,
    interp2_error_bound,
    mstar,
    omega_eval,
    omega_via_green,
)
from .expcore import (
    TransformRule,
    as_frequency_vector,
    convolution_check,
    fundamental_derivative,
    fundamental_eval,
    integrate_fundamental,
    operator_apply,
    transform,
    weighted_cross_integral,
    weighted_square_integrals,
)
from .harness import (
    CATALOG,
    ConfigError,
    ConvergenceStudy,
    CriterionResult,
    TestFunction,
    VerifyReport,
    acceptance_criteria,
    convergence_study,
    emit,
    error_grid,
    get_test_function,
    max_abs_L,
    measure_error,
    render_csv,
    render_json,
    run_verify,
)
from .hatbasis import (
    HatBasis,
    Partition,
    SplineOrder2,
    build_hat_basis,
    hat_eval,
    interpolate2,
    monotone_radius,
    sum_hats,
)
from .l2proj import (
    DominanceError,
    GramSystem,
    ProjectionResult,
    dominance_factor,
    gram_assemble,
    inner_product_p,
    lemma_constant,
    operator_norm_bound,
    operator_norm_bound_rowratio,
    project,
    sfunc,
    tfunc,
    tridiag_solve,
)
from .quadrature import QuadratureError, integrate
from .spline4 import (
    BoundCertificate,
    QuadFrequencySet,
    SplineOrder4,
    build_interpolant4,
    error_bound4,
    quad_frequency_set,
    residual_orthogonality,
    resolve_weight,
    second_order_error_bound,
    smoothness_report,
    spline4_eval,
    spline_from_coefficients,
)

__version__ = "0.1.0"
