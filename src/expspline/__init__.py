"""Interpolation by piecewise exponential splines with certified error bounds.

The package exports the calls that its users make and the exception types
they raise; everything else is imported from its module.
"""

from .errbound2 import interp2_error_bound
from .expcore import fundamental_derivative, fundamental_eval
from .harness import ConfigError, get_test_function, max_abs_L, measure_error
from .hatbasis import Partition, build_hat_basis, interpolate2, monotone_radius
from .l2proj import DominanceError, project
from .quadrature import QuadratureError, integrate
from .spline4 import (
    build_interpolant4,
    error_bound4,
    quad_frequency_set,
    resolve_weight,
    spline4_eval,
)

__version__ = "0.1.0"
