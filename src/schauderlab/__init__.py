"""schauderlab: a desk-scale numerical laboratory for interior estimates of
second-order divergence-form elliptic equations.

The package turns the classical interior regularity toolkit into executable
measurements on uniform grids: energy (Caccioppoli) inequalities, difference-
quotient Sobolev estimates, the De Giorgi truncation iteration, the
polynomial Liouville decay chain, blow-up rescalings around Holder-seminorm
maximizers, mollification-approximation, and a priori / a posteriori Holder
estimate ratios with their sharp exponent thresholds.
"""

from .domain_grid import (
    Grid,
    Region,
    ball_region,
    box_region,
    cutoff,
    make_grid,
    nested_radii,
    truncation_levels,
)
from .field_calculus import (
    Field,
    VecField,
    central_difference,
    difference_quotient,
    divergence,
    gradient,
    mollifier_weights,
    mollify,
    summation_by_parts_residual,
)
from .norm_engine import (
    NormValue,
    ck_alpha_norm,
    hk_norm,
    holder_seminorm,
    lp_norm,
)
from .elliptic_solver import (
    CoefficientField,
    DiscreteSolution,
    EllipticProblem,
    assemble,
    solve_dirichlet,
    validate_ellipticity,
    weak_residual,
)
from .caccioppoli import (
    EstimateReport,
    caccioppoli_check,
    empirical_constant,
    truncated_caccioppoli,
)
from .degiorgi import (
    DeGiorgiParams,
    IterationTrace,
    calibrate_delta,
    data_norm,
    gamma_exponent,
    linf_bound,
    no_spike_verify,
    normalize_solution,
    training_ratio,
    truncation_sequence,
)
from .liouville_lab import (
    GrowthFamily,
    derivative_energy_scan,
    harmonic_residual,
    polynomial_degree_detect,
    verify_growth,
)
from .schauder_harness import (
    BlowupRecord,
    SchauderConfig,
    admissible_alpha,
    blowup_sequence,
    bootstrap_ckalpha,
    growth_fit,
    measure_pointwise_exponent,
    regularize_approximate,
    rescale_estimate,
    schauder_ratio,
)

__version__ = "0.1.0"
