"""Max-stable process simulation, D-norms, and hitting probabilities.

Simulates standard max-stable processes from a catalogue of generator
processes via the Poisson spectral construction (exact on the grid),
estimates D-norm functionals and level-hitting probabilities by
reproducible Monte Carlo, and ships a verification suite tying every
closed form and bound the library claims to a named, seeded check.
"""

from .dnorm import (
    LevelFunction,
    dnorm_estimate,
    dnorm_estimates,
    survivor_lower_bound,
    takahashi_check,
)
from .errors import (
    BoundTooLooseError,
    InvalidSpecError,
    MaxhitError,
    OffGridError,
    UnknownCheckError,
)
from .estimates import Estimate, binomial_estimate, rule_of_three, wilson_interval
from .generators import (
    NONLINEAR_DEFAULTS,
    CompleteDependence,
    GeneratorMoments,
    GeneratorSpec,
    NonlinearExample,
    PiecewiseExample,
    SineBump,
    TwoBranch,
    closed_form_m,
    closed_form_m_tilde,
    generator_blocks,
    generator_bound,
    generator_corpus,
    generator_from_json,
    generator_moments,
    generator_to_json,
    sup_equals_max_rate,
    validate_spec,
)
from .hitting import (
    HittingCurve,
    curve_hit_prob,
    down_up_down_prob,
    hitting_bound,
    hitting_curve,
    hitting_integral,
    hitting_prob,
    multi_hit_prob,
    two_hit_prob,
)
from .msp import (
    joint_cdf_estimates,
    marginal_gof,
    msp_corpus,
    msp_path_blocks,
    stopping_exactness_violations,
)
from .paths import Interval, SubGrid, TimeGrid, make_grid
from .verify import (
    CheckReport,
    CheckResult,
    check_ids,
    final_example_integral_below,
    final_example_reference,
    final_example_two_hit,
    ks_band,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
    "BoundTooLooseError",
    "CheckReport",
    "CheckResult",
    "CompleteDependence",
    "Estimate",
    "GeneratorMoments",
    "GeneratorSpec",
    "HittingCurve",
    "Interval",
    "InvalidSpecError",
    "LevelFunction",
    "MaxhitError",
    "OffGridError",
    "NONLINEAR_DEFAULTS",
    "NonlinearExample",
    "PiecewiseExample",
    "SineBump",
    "SubGrid",
    "TimeGrid",
    "TwoBranch",
    "UnknownCheckError",
    "binomial_estimate",
    "check_ids",
    "closed_form_m",
    "closed_form_m_tilde",
    "curve_hit_prob",
    "dnorm_estimate",
    "dnorm_estimates",
    "down_up_down_prob",
    "final_example_integral_below",
    "final_example_reference",
    "final_example_two_hit",
    "generator_blocks",
    "generator_bound",
    "generator_corpus",
    "generator_from_json",
    "generator_moments",
    "generator_to_json",
    "hitting_bound",
    "hitting_curve",
    "hitting_integral",
    "hitting_prob",
    "joint_cdf_estimates",
    "ks_band",
    "make_grid",
    "marginal_gof",
    "msp_corpus",
    "msp_path_blocks",
    "multi_hit_prob",
    "rule_of_three",
    "run_checks",
    "stopping_exactness_violations",
    "sup_equals_max_rate",
    "survivor_lower_bound",
    "takahashi_check",
    "two_hit_prob",
    "validate_spec",
    "wilson_interval",
]
