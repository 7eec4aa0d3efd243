"""rzero: evaluation of Riemann's auxiliary function R(s), argument-principle
zero counting with Backlund-lemma certificates, zero location, and numerical
validation of the counting formula

    N(T) = T/(4 pi) log(T/(2 pi)) - T/(4 pi) - (1/2) sqrt(T/(2 pi)) + error.
"""

from .auxiliary import (
    EvaluationResult,
    r_asymptotic,
    r_derivative,
    r_eval,
    r_eval_many,
    r_value,
    zeta_from_r,
    zeta_reference,
)
from .counting import (
    ArgTrace,
    Box,
    CountResult,
    PathSegment,
    arg_variation,
    backlund_bound,
    main_term,
    residual_table,
    unit_params,
)
from .special_functions import (
    chi,
    eta,
    log_chi,
    log_gamma,
)
from .zeros import (
    Zero,
    ZeroStatistics,
    isolate_zeros,
    locate_zeros,
    refine_zero,
    refine_zeros,
    zero_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "ArgTrace", "Box", "CountResult", "EvaluationResult", "PathSegment",
    "Zero", "ZeroStatistics", "arg_variation", "backlund_bound", "chi",
    "eta", "isolate_zeros", "locate_zeros", "log_chi", "log_gamma",
    "main_term", "r_asymptotic",
    "r_derivative", "r_eval", "r_eval_many", "r_value",
    "refine_zero", "refine_zeros",
    "residual_table", "unit_params", "zero_statistics", "zeta_from_r",
    "zeta_reference",
]
