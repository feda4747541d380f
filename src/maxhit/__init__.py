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
from .estimates import Estimate, binomial_estimate
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
    generator_bound,
    generator_from_json,
)
from .hitting import (
    hitting_bound,
    hitting_curve,
    two_hit_prob,
)
from .msp import msp_corpus, msp_path_blocks
from .paths import Interval, TimeGrid, make_grid
from .verify import (
    CheckReport,
    CheckResult,
    check_ids,
    final_example_reference,
    final_example_two_hit,
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
    "final_example_reference",
    "final_example_two_hit",
    "generator_bound",
    "generator_from_json",
    "hitting_bound",
    "hitting_curve",
    "make_grid",
    "msp_corpus",
    "msp_path_blocks",
    "run_checks",
    "two_hit_prob",
]
