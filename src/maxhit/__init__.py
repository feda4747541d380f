"""Max-stable process simulation, D-norms, and hitting probabilities.

Simulates standard max-stable processes from a catalogue of generator
processes via the Poisson spectral construction (exact on the grid),
estimates D-norm functionals and level-hitting probabilities by
reproducible Monte Carlo, and ships a verification suite tying every
closed form and bound the library claims to a named, seeded check.
"""

from .dnorm import LevelFunction, dnorm_estimates
from .errors import (
    BoundTooLooseError,
    InvalidArgumentError,
    InvalidSpecError,
    MaxhitError,
    OffGridError,
    UnknownCheckError,
)
from .estimates import Estimate, binomial_estimate, rule_of_three, wilson_interval
from .generators import (
    NONLINEAR_DEFAULTS,
    CompleteDependence,
    GeneratorSpec,
    NonlinearExample,
    PiecewiseExample,
    SineBump,
    TwoBranch,
    closed_form_m,
    closed_form_m_tilde,
    generator_blocks,
    generator_bound,
    generator_from_json,
    generator_to_json,
)
from .hitting import (
    hitting_bound,
    hitting_curve,
    hitting_integral,
    two_hit_prob,
)
from .msp import msp_corpus, msp_path_blocks, stopping_exactness_violations
from .paths import Interval, TimeGrid, make_grid
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
    "GeneratorSpec",
    "Interval",
    "InvalidArgumentError",
    "InvalidSpecError",
    "LevelFunction",
    "MaxhitError",
    "OffGridError",
    "NONLINEAR_DEFAULTS",
    "NonlinearExample",
    "PiecewiseExample",
    "SineBump",
    "TimeGrid",
    "TwoBranch",
    "UnknownCheckError",
    "binomial_estimate",
    "check_ids",
    "closed_form_m",
    "closed_form_m_tilde",
    "dnorm_estimates",
    "final_example_integral_below",
    "final_example_reference",
    "final_example_two_hit",
    "generator_blocks",
    "generator_bound",
    "generator_from_json",
    "generator_to_json",
    "hitting_bound",
    "hitting_curve",
    "hitting_integral",
    "ks_band",
    "make_grid",
    "msp_corpus",
    "msp_path_blocks",
    "rule_of_three",
    "run_checks",
    "stopping_exactness_violations",
    "two_hit_prob",
    "wilson_interval",
]
