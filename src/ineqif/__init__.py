"""Inequality measures, influence functions, and their numerical verification.

The library evaluates a family of inequality indices (generalized entropy,
Theil, mean logarithmic deviation, Atkinson, Champernowne, Kolm, Gini,
quintile share ratio) on parametric, empirical and contaminated income
models; derives their closed-form influence functions; checks every closed
form against an independent Gateaux-derivative oracle built on
eps-contaminated distributions; and estimates asymptotic variances both by
quadrature and by Monte Carlo.
"""

from .distributions import (
    Contaminated,
    Dirac,
    Distribution,
    Empirical,
    Exponential,
    LogNormal,
    Pareto,
    SinghMaddala,
    Uniform,
    contaminate,
    make_distribution,
    scaled,
    translated,
)
from .errors import (
    DegenerateDenominator,
    DomainError,
    EmptyInput,
    IneqError,
    InvalidInterval,
    InvalidParameter,
    KinkPoint,
    MomentDiverges,
    NegativeIncome,
    NoisyLimit,
    NonConvergence,
    ParseError,
)
from .estimation import MCReport, RngStream, draw_sample, mc_variance_study, sensitivity_curve
from .influence import (
    IFCurve,
    PrintedVariant,
    asymptotic_variance,
    default_grid,
    gateaux_if,
    if_curve,
    if_special,
    printed_variants,
)
from .measures import (
    DEFAULT_MEASURE_IDS,
    REGISTRY_VERSION,
    FunctionalValue,
    MeasureFunctional,
    TheilLikeSpec,
    atkinson_from_appendix_parameter,
    functional_value,
    gini,
    lorenz_area,
    make_spec,
    mean_functional,
    parse_measure_id,
    qsr,
    qsr_components,
)
from .numeric import (
    DEFAULT_DERIVATIVE_STEPS,
    DerivativeEstimate,
    derivative_at_zero_plus,
    integrate,
)

__version__ = "0.1.0"
