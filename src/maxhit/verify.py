"""Named verification checks over the whole model catalogue.

Every closed form, bound, and equivalence the library claims is wired to
one check id here; ``run_checks`` executes a suite deterministically from
a master seed and emits a machine-readable report. The companion document
``docs/verification_matrix.md`` lists each id with the mathematical claim
it certifies.

Tolerance policy: each claim is an ``Assertion`` of an estimate
(observed), its reference (expected), a sense and the estimate's se, and
``Assertion`` alone decides the tolerance ``tol = z * se + slack`` and the
verdict (``VERDICTS``). The senses are ``==`` (within tol of the
reference), ``<=`` and ``>=`` (a bound, up to tol) and ``gap`` (above the
reference by at least tol). Statistical tolerances use z = ``Z_STAT`` = 3
unless a check states otherwise; probabilities of path functionals (hits
anywhere in an interval) get a slack of ``GRID_ALLOWANCE`` = 0.005 at the
default 1001-point grid for sub-grid excursions; probabilities of finitely
many coordinates are grid-exact. A hitting integral is the mean of a
per-path range (Fubini) and carries its se and no flat slack: a bound on
it holds on any grid, and an equality is tested against the grid-exact
mean. A KS distance is bounded by ``ks_band``. A null probability is zero
observed successes with rule-of-three CI upper bound 3/n, a positive one
at least one success. Exact quantities carry se 0. A reference from eta's finite-dimensional law (``expected_max``) is
exact up to rounding, so its tolerance adds ``SUP_EQ_TOL``. A claim that
such a value is nonzero is certified by arithmetic: it is a ``gap`` of se 0
over ``SUP_EQ_TOL``, and no sampled gap from 0 is needed.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .dnorm import LevelFunction, dnorm_estimates
from .errors import InvalidArgumentError, UnknownCheckError
from .estimates import (
    Estimate,
    binomial_estimate,
    count_events,
    mean_estimate_from_sums,
    per_path,
    rule_of_three,
    stack_blocks,
    stream_means,
)
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
    expected_max,
    generator_blocks,
    shape_blocks,
)
from .hitting import (
    _checked_levels,
    down_up_down_mask,
    hit_mask,
    hitting_bound,
    hitting_curve,
    two_hit_prob,
)
from .msp import (
    ks_distance_neg_exponential,
    msp_corpus,
    msp_path_blocks,
    stopping_exactness_violations,
)
from .paths import Interval, TimeGrid, make_grid
from .streams import Seed, as_seedseq, label_key, substream

DEFAULT_N = 100_000
#: The smallest n every check runs at: max-stability needs one group of 5.
MIN_N = 5
DEFAULT_GRID_POINTS = 1001
Z_STAT = 3.0
GRID_ALLOWANCE = 0.005
#: Kolmogorov one-sample critical value of the band used throughout:
#: D_n <= KS_CRITICAL / sqrt(n).
KS_CRITICAL = 1.63
#: Tolerance for "supremum equals endpoint maximum" tests and for exact
#: references from ``expected_max``. Linear interpolation is evaluated
#: pointwise, so a monotone segment can overshoot its endpoint by ulps.
SUP_EQ_TOL = 1e-12


def ks_band(n: int) -> float:
    """Acceptance band for a KS distance at ``n`` >= 1 samples."""
    if not n >= 1:
        raise InvalidArgumentError(f"need n >= 1 samples, got {n}")
    return KS_CRITICAL / np.sqrt(n)


#: The catalogue swept by generator-generic checks, in report order.
CATALOGUE: list[tuple[str, GeneratorSpec]] = [
    ("complete_dependence", CompleteDependence()),
    ("piecewise_example", PiecewiseExample(n=2, a=0.25, b=0.75)),
    ("nonlinear_example", NonlinearExample(**NONLINEAR_DEFAULTS)),
    ("two_branch", TwoBranch()),
    ("sine_bump", SineBump(amp=0.5)),
]


# --- closed forms of the two-branch model -----------------------------------


def final_example_reference(x: float) -> float:
    """Two-branch hitting probability h(x) = (1 - e^x - x) e^x at a level
    x < 0."""
    _checked_levels([x])
    return (1.0 - math.exp(x) - x) * math.exp(x)


def final_example_two_hit(x: float, t0: float) -> float:
    """Two-branch probability of hitting x < 0 in both [0, t0] and [t0, 1],
    (e^{x(1-t0)} - e^x)(e^{x t0} - e^x), for an interior split t0."""
    _checked_levels([x])
    if not 0.0 < t0 < 1.0:
        raise InvalidArgumentError(f"split must be interior to (0, 1), got {t0}")
    return (math.exp(x * (1.0 - t0)) - math.exp(x)) * (math.exp(x * t0) - math.exp(x))


def _final_example_grid_range(times) -> float:
    """Exact E[max_T eta - min_T eta] of the two-branch model over a finite
    set of times T that holds 0 and 1: 3/2 - sum over T's cells [a, b] of
    (b - a)^2 / (1 + b - a), which is 3/2 - 1/len(T) on a uniform grid.

    -eta(t) = min(E1/(1-t), E2/t) with E1, E2 iid Exp(1). Its minimum
    over T is min(E1, E2), at t = 0 or 1, and its maximum over [0, 1] is
    S = E1 + E2, at t = U = E2/S; S and U are independent and U is
    uniform. In the cell [a, b] that holds U the maximum over T falls
    short of S by S min((U-a)/(1-a), (b-U)/b), a triangle in U whose
    integral over the cell is (b - a)^2 / (2 (1 + b - a)). With E S = 2
    and E min(E1, E2) = 1/2, the mean range is 3/2 less twice the sum of
    the triangles; over all of [0, 1] it is the paper's integral 3/2.
    """
    t = TimeGrid(times).points
    if not (t[0] == 0.0 and t[-1] == 1.0):
        raise InvalidArgumentError(f"T must hold 0 and 1, got {t[0]} to {t[-1]}")
    d = np.diff(t)
    return 1.5 - float(np.sum(d * d / (1.0 + d)))


# --- check plumbing ----------------------------------------------------------

#: Per sense, the verdict on (observed, expected, tol).
VERDICTS = {
    "==": lambda obs, ref, tol: abs(obs - ref) <= tol,
    "<=": lambda obs, ref, tol: obs <= ref + tol,
    ">=": lambda obs, ref, tol: obs >= ref - tol,
    "gap": lambda obs, ref, tol: obs - ref >= tol,
}


@dataclass(frozen=True)
class Assertion:
    """An estimate, its reference and its se: the one place a tolerance
    and a verdict are decided (see the module docstring)."""

    name: str
    observed: float
    expected: float
    sense: str = "=="
    _: KW_ONLY
    se: float = 0.0
    z: float = 0.0
    slack: float = 0.0

    def __post_init__(self):
        if self.sense not in VERDICTS:
            raise ValueError(f"unknown sense {self.sense!r}")
        for name in ("observed", "expected", "se"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def tol(self) -> float:
        return self.z * self.se + self.slack

    @property
    def passed(self) -> bool:
        return VERDICTS[self.sense](self.observed, self.expected, self.tol)


def _null_probability(
    est: Estimate, prefix: str = "", value: str = "estimate"
) -> list[Assertion]:
    """Probability zero: no success, so the CI ends at the rule of three."""
    return [
        Assertion(prefix + value, est.value, 0.0, se=est.se),
        Assertion(prefix + "ci_hi", est.ci[1], rule_of_three(est.n), "<="),
    ]


def _positive_probability(name: str, est: Estimate) -> Assertion:
    """A strictly positive probability: at least one success, an estimate
    of at least 1/n (exactly when the Wilson interval excludes 0)."""
    return Assertion(name, est.value, 1.0 / est.n, ">=", se=est.se)


@dataclass(frozen=True)
class CheckContext:
    check_id: str
    master_seed: int
    n: int
    grid: TimeGrid

    def seed(self, k: int) -> np.random.SeedSequence:
        """Substream k of this check: (master seed, crc32(check id), k)."""
        return substream(self.master_seed, label_key(self.check_id), k)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    assertions: list[Assertion]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def as_dict(self, runtime: bool = True) -> dict:
        return {
            "id": self.check_id,
            "observed": [a.observed for a in self.assertions],
            "expected": [a.expected for a in self.assertions],
            "tol": [a.tol for a in self.assertions],
            "se": [a.se for a in self.assertions],
            "pass": self.passed,
            "seconds": self.seconds if runtime else 0.0,
            "parts": [a.name for a in self.assertions],
        }


@dataclass(frozen=True)
class CheckReport:
    suite: str | list[str]
    seed: int
    n_default: int
    checks: list[CheckResult]
    generated_at: str | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def as_dict(self, runtime: bool = True) -> dict:
        """``runtime=False`` zeroes per-check seconds (byte-stable reports)."""
        doc = {
            "suite": self.suite,
            "seed": self.seed,
            "n_default": self.n_default,
            "checks": [c.as_dict(runtime) for c in self.checks],
            "pass": self.passed,
        }
        if self.generated_at is not None:
            doc["generated_at"] = self.generated_at
        return doc

    def summary_lines(self, runtime: bool = True) -> list[str]:
        """One line per check, then the verdict; ``runtime=False`` leaves
        out the seconds (byte-stable output)."""
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            seconds = f"({c.seconds:.2f}s)  " if runtime else ""
            lines.append(f"{status}  {c.check_id}  {seconds}{c.description}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    description: str
    runner: object = field(repr=False)


#: The registry, in suite and report order.
_CHECKS: dict[str, CheckDef] = {}


def check(check_id: str, description: str):
    """Register the decorated ``ctx -> list[Assertion]`` function as a check."""

    def register(runner):
        _CHECKS[check_id] = CheckDef(check_id, description, runner)
        return runner

    return register


# --- the checks ---------------------------------------------------------------


@check("eq1-moments", "unit mean of Z at every grid point")
def _check_eq1_moments(ctx: CheckContext) -> list[Assertion]:
    """Per catalogue generator, the grid point whose mean uses the largest
    share of its tolerance, 4 se plus 1e-12: a point of zero variance must
    match to within the float accumulation error of the sums."""
    out = []
    for gi, (name, spec) in enumerate(CATALOGUE):
        acc = stream_means(
            generator_blocks(spec, ctx.grid, ctx.n, ctx.seed(gi)), lambda z: z
        )
        mean = acc.total[0] / ctx.n
        var = np.maximum(0.0, acc.total_sq[0] / ctx.n - mean * mean)
        se = np.sqrt(var / ctx.n)
        worst = np.argmax(np.abs(mean - 1.0) / (4.0 * se + 1e-12))
        out.append(Assertion(f"{name}:mean", mean[worst], 1.0,
                             se=se[worst], z=4.0, slack=1e-12))
    return out


def _criterion2_functions(grid: TimeGrid) -> list[tuple[str, LevelFunction]]:
    return [
        ("const_-1", LevelFunction.constant(grid, -1.0)),
        (
            "step",
            LevelFunction.indicator_step(
                grid, Interval(0.5, 1.0), inside=-1.01, outside=-0.01
            ),
        ),
        (
            "linear",
            LevelFunction.piecewise_linear(grid, [0.0, 1.0], [-0.5, -1.5]),
        ),
    ]


@check("eq2-roundtrip", "joint cdf equals exp(-D-norm)")
def _check_eq2_roundtrip(ctx: CheckContext) -> list[Assertion]:
    """For three functions and every generator; the se combines the joint
    cdf's with the delta-method se of exp(-D-norm). Both sides share draws
    across the functions: the D-norms one set of Z paths, the joint cdfs
    (rows with eta <= f at every grid point) one set of eta paths."""
    names, fs = zip(*_criterion2_functions(ctx.grid))
    out = []
    for gi, (name, spec) in enumerate(CATALOGUE):
        dns = dnorm_estimates(spec, list(fs), ctx.n, ctx.seed(2 * gi))
        below = count_events(
            msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(2 * gi + 1)),
            *(lambda eta, fv=f.values: np.all(eta <= fv, axis=1) for f in fs),
        )
        for fname, dn, count in zip(names, dns, below):
            joint = binomial_estimate(int(count), ctx.n)
            target = math.exp(-dn.value)
            se = math.sqrt(joint.se**2 + (target * dn.se) ** 2)
            out.append(Assertion(f"{name}:{fname}", joint.value, target,
                                 se=se, z=Z_STAT))
    return out


@check("eq3-negative-paths", "simulated paths are strictly negative")
def _check_eq3_negative_paths(ctx: CheckContext) -> list[Assertion]:
    out = []
    for gi, (name, spec) in enumerate(CATALOGUE):
        blocks = msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(gi))
        bad = int(count_events(blocks, lambda eta: eta >= 0.0)[0].sum())
        out.append(Assertion(f"{name}:nonnegative_values", bad, 0.0))
    return out


_MARGIN_TIMES = (0.0, 0.37, 1.0)


@check("margins-ks", "standard negative exponential margins (KS)")
def _check_margins_ks(ctx: CheckContext) -> list[Assertion]:
    """KS distance of each margin column against exp(x), x <= 0; the
    columns of one generator come from one set of paths."""
    band = ks_band(ctx.n)
    cols = [ctx.grid.index_of(t) for t in _MARGIN_TIMES]
    out = []
    for gi, (name, spec) in enumerate(CATALOGUE):
        blocks = msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(gi))
        samples = stack_blocks((eta[:, cols] for eta in blocks), ctx.n)
        for t, column in zip(_MARGIN_TIMES, samples.T):
            d = ks_distance_neg_exponential(column)
            out.append(Assertion(f"{name}:t={t}", d, band, "<="))
    return out


@check("max-stability", "k x (max of k paths) keeps the margins")
def _check_max_stability(ctx: CheckContext) -> list[Assertion]:
    """KS distance of k times the pointwise max of k paths, k = 2, 5."""
    out = []
    col_t = 0.37
    for gi, (name, spec) in enumerate([CATALOGUE[3], CATALOGUE[4]]):
        col = ctx.grid.index_of(col_t)
        blocks = msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(gi))
        vals = stack_blocks((eta[:, [col]] for eta in blocks), ctx.n)[:, 0]
        for k in (2, 5):
            groups = ctx.n // k
            scaled = k * vals[: groups * k].reshape(groups, k).max(axis=1)
            d = ks_distance_neg_exponential(scaled)
            out.append(Assertion(f"{name}:k={k}", d, ks_band(groups), "<="))
    return out


@check("takahashi", "m = 1 iff D-norm equals sup-norm")
def _check_takahashi(ctx: CheckContext) -> list[Assertion]:
    """Complete dependence is decided as every probe's D-norm within
    3 se + 1e-12 of its sup-norm, all D-norms from one shared set of
    paths; the absolute term absorbs float accumulation when they are equal."""
    probes = [f for _, f in _criterion2_functions(ctx.grid)]
    expected = {"complete_dependence": 1.0, "piecewise_example": 0.0, "two_branch": 0.0}
    out = []
    for gi, (name, spec) in enumerate(CATALOGUE):
        if name not in expected:
            continue
        dns = dnorm_estimates(spec, probes, ctx.n, ctx.seed(gi))
        complete = all(
            abs(est.value - float(np.max(np.abs(f.values)))) <= 3.0 * est.se + 1e-12
            for est, f in zip(dns, probes)
        )
        out.append(Assertion(f"{name}:complete_dependence",
                             1.0 if complete else 0.0, expected[name]))
    return out


@check("example1-complete-dependence",
       "constant paths miss fixed levels, meet sloped curves")
def _check_example1_complete_dependence(ctx: CheckContext) -> list[Assertion]:
    """A path meets the sloped curve f when eta - f changes sign or touches
    zero on the grid."""
    spec = CompleteDependence()
    unit = [Interval(0.0, 1.0)]
    (est,) = hitting_curve(spec, [-1.0], unit, ctx.grid, ctx.n, ctx.seed(0))
    out = _null_probability(est, "fixed_level:")
    f = LevelFunction.piecewise_linear(ctx.grid, [0.0, 1.0], [-1.0, -2.0])
    (met,) = count_events(
        msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(1)),
        lambda eta: hit_mask(eta - f.values[None, :], slice(None), 0.0),
    )
    curve_est = binomial_estimate(int(met), ctx.n)
    target = math.exp(-1.0) - math.exp(-2.0)
    out.append(Assertion("sloped_curve:estimate", curve_est.value, target,
                         se=curve_est.se, z=Z_STAT))
    return out


@check("prop2-null-on-constant-interval", "no hits where the generator is degenerate")
def _check_prop2_null(ctx: CheckContext) -> list[Assertion]:
    spec = PiecewiseExample(n=2, a=0.25, b=0.75)
    plateau = [Interval(0.25, 0.75)]
    (est,) = hitting_curve(spec, [-1.0], plateau, ctx.grid, ctx.n, ctx.seed(0))
    return _null_probability(est)


@check("prop2-positive-when-norm-gt-1",
       "positive hitting probability when ||1_I||_D > 1")
def _check_prop2_positive(ctx: CheckContext) -> list[Assertion]:
    spec = PiecewiseExample(n=2, a=0.25, b=0.75)
    full = Interval(0.0, 1.0)
    indicator = LevelFunction.indicator_step(ctx.grid, full, inside=-1.0)
    (norm,) = dnorm_estimates(spec, [indicator], ctx.n, ctx.seed(0))
    (est,) = hitting_curve(spec, [-1.0], [full], ctx.grid, ctx.n, ctx.seed(1))
    return [
        Assertion("indicator_norm_gt_1", norm.value, 1.0, "gap",
                  se=norm.se, z=Z_STAT),
        _positive_probability("hitting_positive", est),
    ]


@check("survivor-bound", "survivor probability lower bound")
def _check_survivor_bound(ctx: CheckContext) -> list[Assertion]:
    """Survivor probability dominates the bound 1 - exp(-v), v = E inf |f| Z,
    whose se is the delta-method exp(-v) se(v); the assertion's se is the
    sum of both estimates' se (independent draws, a conservative bound)."""
    out = []
    gens = [CATALOGUE[0], CATALOGUE[1], CATALOGUE[4]]
    f = LevelFunction.constant(ctx.grid, -1.0)
    absf = np.abs(f.values)
    for gi, (name, spec) in enumerate(gens):
        v = stream_means(
            shape_blocks(spec, ctx.grid, ctx.n, ctx.seed(2 * gi)),
            per_path(lambda z: np.min(z * absf[None, :], axis=1)),
        ).estimate(0)
        bound, bound_se = 1.0 - math.exp(-v.value), math.exp(-v.value) * v.se
        (survived,) = count_events(
            msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(2 * gi + 1)),
            lambda eta: np.all(eta > f.values, axis=1),
        )
        surv = binomial_estimate(int(survived), ctx.n)
        out.append(Assertion(f"{name}:survivor_ge_bound", surv.value, bound,
                             ">=", se=surv.se + bound_se, z=Z_STAT))
    return out


@check("example2-m", "ramp-plateau generator constant (3n^2+n)/(n+1)^2")
def _check_example2_m(ctx: CheckContext) -> list[Assertion]:
    """Generator constants of the ramp-plateau model at n = 2.

    ``closed_form_m`` derives m from the atom table, so its exact match
    with the paper's 14/9 checks the table, not a restated formula.
    """
    spec = PiecewiseExample(n=2, a=0.25, b=0.75)
    acc = stream_means(
        shape_blocks(spec, ctx.grid, ctx.n, ctx.seed(0)),
        per_path(lambda z: z.max(axis=1)),
        per_path(lambda z: z.min(axis=1)),
    )
    m_hat, m_tilde_hat = acc.estimate(0), acc.estimate(1)
    m_exact = 14.0 / 9.0
    mt_exact = 5.0 / 9.0
    return [
        Assertion("m_hat", m_hat.value, m_exact, se=m_hat.se, z=Z_STAT),
        Assertion("m_tilde_hat", m_tilde_hat.value, mt_exact,
                  se=m_tilde_hat.se, z=Z_STAT),
        Assertion("closed_form_m", closed_form_m(spec), m_exact),
    ]


@check("hcurve-bound", "hitting curve under exp(x m~) - exp(x m)")
def _check_hcurve_bound(ctx: CheckContext) -> list[Assertion]:
    """At 4 se plus the grid allowance."""
    spec = SineBump(amp=0.5)
    levels = np.array([-0.25, -1.0, -4.0])
    ests = hitting_curve(
        spec, levels, [Interval(0.0, 1.0)], ctx.grid, ctx.n, ctx.seed(0)
    )
    m, m_tilde = closed_form_m(spec), closed_form_m_tilde(spec)
    return [
        Assertion(f"x={lvl}", est.value, hitting_bound(m, m_tilde, lvl), "<=",
                  se=est.se, z=4.0, slack=GRID_ALLOWANCE)
        for lvl, est in zip(levels, ests)
    ]


def _mean_range(spec: GeneratorSpec, ctx: CheckContext) -> tuple[Estimate, Assertion]:
    """The mean per-path range max eta - min eta over the grid, which is
    the hitting integral over the grid (Fubini, as eta < 0), and the
    assertion that the mean of -max eta, an Exp(m_T) variable with
    m_T = ``expected_max`` over the grid, is exactly 1/m_T."""
    acc = stream_means(
        msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(0)),
        lambda eta: eta.max(axis=1) - eta.min(axis=1),
        lambda eta: -eta.max(axis=1),
    )
    minus_max = acc.estimate(1)
    exact = 1.0 / expected_max(spec, ctx.grid.points)
    return acc.estimate(0), Assertion("mean_minus_max", minus_max.value, exact,
                                      se=minus_max.se, z=Z_STAT, slack=SUP_EQ_TOL)


@check("hintegral-bound", "hitting integral within (m - m~)/(m m~)")
def _check_hintegral_bound(ctx: CheckContext) -> list[Assertion]:
    """The hitting integral is the mean range; a grid range never exceeds
    the path's, so the paper's bound holds on any grid."""
    spec = SineBump(amp=0.5)
    m = closed_form_m(spec)
    mt = closed_form_m_tilde(spec)
    span, minus_max = _mean_range(spec, ctx)
    return [
        Assertion("mean_range_le_bound", span.value, (m - mt) / (m * mt), "<=",
                  se=span.se, z=Z_STAT),
        Assertion("mean_range_positive", span.value, 0.0, "gap", se=span.se, z=Z_STAT),
        minus_max,
    ]


@check("lemma31-closedform", "down-up-down probabilities match closed forms")
def _check_lemma31(ctx: CheckContext) -> list[Assertion]:
    """P(eta_t' <= x0, eta_t0 > x0, eta_t'' <= x0) at (t', t0, t'') =
    (0, 0.25, 0.5): three grid coordinates, so no grid allowance."""
    cols = tuple(ctx.grid.index_of(t) for t in (0.0, 0.25, 0.5))

    def down_up_down(spec: GeneratorSpec, seed: Seed) -> Estimate:
        (count,) = count_events(
            msp_path_blocks(spec, ctx.grid, ctx.n, seed),
            lambda eta: down_up_down_mask(eta, cols, -1.0),
        )
        return binomial_estimate(int(count), ctx.n)

    sine = SineBump(amp=0.5)
    est = down_up_down(sine, ctx.seed(0))
    # P(ends <= -1) - P(all <= -1), by P(eta <= x on T) = exp(x m_T)
    t = ctx.grid.points[list(cols)]
    target = math.exp(-expected_max(sine, t[[0, 2]])) - math.exp(-expected_max(sine, t))
    out = [Assertion("sine_bump:closed_form", est.value, target, se=est.se, z=Z_STAT)]
    est_nl = down_up_down(NonlinearExample(**NONLINEAR_DEFAULTS), ctx.seed(1))
    return out + _null_probability(est_nl, "nonlinear:")


@check("prop32-two-hit", "two-hit events contain down-up-down events")
def _check_prop32_two_hit(ctx: CheckContext) -> list[Assertion]:
    spec = SineBump(amp=0.5)
    i0 = ctx.grid.index_of(0.25)  # split; also the middle of the triple
    i_end = ctx.grid.index_of(0.5)
    x0 = -1.0

    def events(eta: np.ndarray) -> np.ndarray:
        two = hit_mask(eta, slice(0, i0 + 1), x0) & hit_mask(eta, slice(i0, None), x0)
        dud = down_up_down_mask(eta, (0, i0, i_end), x0)
        return np.column_stack([dud & ~two, dud, two])

    blocks = msp_path_blocks(spec, ctx.grid, ctx.n, ctx.seed(0))
    violations, dud_hits, two_hits = (int(c) for c in count_events(blocks, events)[0])
    return [
        Assertion("containment_violations", violations, 0.0),
        _positive_probability("dud_positive", binomial_estimate(dud_hits, ctx.n)),
        Assertion("two_hit_ge_dud", two_hits / ctx.n, dud_hits / ctx.n, ">="),
    ]


def _sup_equals_max_rate(
    spec: GeneratorSpec, interval: Interval, grid: TimeGrid, n: int, seed: Seed
) -> float:
    """Share of ``n`` generator paths whose sup over ``interval`` equals
    the larger of its two endpoint values, to ``SUP_EQ_TOL``."""
    sl = grid.slice_of(interval)

    def sup_at_endpoint(z: np.ndarray) -> np.ndarray:
        zi = z[:, sl]
        gap = zi.max(axis=1) - np.maximum(zi[:, 0], zi[:, -1])
        return np.abs(gap) <= SUP_EQ_TOL

    (hits,) = count_events(
        shape_blocks(spec, grid, n, seed), per_path(sup_at_endpoint)
    )
    return int(hits) / n


_COR33_WINDOW = (0.2, 0.9)
_COR33_LEVELS = (-0.5, -2.0)


@check("cor33-equivalences", "five-way equivalence holds/fails as one")
def _check_cor33(ctx: CheckContext) -> list[Assertion]:
    """All five items hold for the nonlinear generator and all fail for
    the sine bump, on the window T = (0.2, 0.9). Item (3) reduces Z
    paths; items (1), (4) and (5) one eta stream on T per generator.
    By P(eta <= x on T) = exp(x m_T), m_T = ``expected_max`` over T, and
    m_E over T's endpoints, the item-5 residual P(all <= x) - P(ends > x)
    - (2e^x - 1) is exactly d = exp(x m_T) - exp(x m_E), and the item-4
    rate P(ends <= x, not all <= x) is -d: both are tested two-sided at
    4 se + ``SUP_EQ_TOL``. d is 0 to ``SUP_EQ_TOL`` where the items hold;
    where they fail, a ``gap`` of se 0 certifies by arithmetic that it is not.
    """
    window = Interval(*_COR33_WINDOW)
    window_grid = TimeGrid(ctx.grid.points[ctx.grid.slice_of(window)])
    levels = np.array(_COR33_LEVELS)
    nl = NonlinearExample(**NONLINEAR_DEFAULTS)
    sine = SineBump(amp=0.5)
    out = [
        Assertion("nonlinear:item3_rate",
                  _sup_equals_max_rate(nl, window, ctx.grid, ctx.n, ctx.seed(0)), 1.0),
        Assertion("sine_bump:item3_rate",
                  _sup_equals_max_rate(sine, window, ctx.grid, ctx.n, ctx.seed(1)),
                  0.01, "<="),
    ]

    def items_4_and_5(eta: np.ndarray) -> np.ndarray:
        """Per level: ends <= x but not all; all <= x; both ends > x."""
        below = eta.max(axis=1)[:, None] <= levels
        ends_below = (eta[:, :1] <= levels) & (eta[:, -1:] <= levels)
        ends_above = (eta[:, :1] > levels) & (eta[:, -1:] > levels)
        return np.hstack([ends_below & ~below, below, ends_above])

    for name, spec, k, dud_t0, sense in (("nonlinear", nl, 2, 0.5, "=="),
                                         ("sine_bump", sine, 3, 0.25, "gap")):
        cols = (0, window_grid.index_of(dud_t0), len(window_grid) - 1)
        dud, counts = count_events(
            msp_path_blocks(spec, window_grid, ctx.n, ctx.seed(k)),
            lambda eta: down_up_down_mask(eta, cols, -1.0),
            items_4_and_5,
        )
        dud_est = binomial_estimate(int(dud), ctx.n)
        if sense == "==":
            out += _null_probability(dud_est, f"{name}:item1_", "dud")
        else:
            out.append(_positive_probability(f"{name}:item1_dud_positive", dud_est))
        m_t = expected_max(spec, window_grid.points)
        m_e = expected_max(spec, window_grid.points[[0, -1]])
        viol, below, above = np.reshape(counts, (3, -1))
        for x, v, a, b in zip(_COR33_LEVELS, viol, below, above):
            d = math.exp(x * m_t) - math.exp(x * m_e)
            rate = binomial_estimate(int(v), ctx.n)
            # a and b are disjoint, so 1{a} - 1{b} sums to a - b, squared to a + b
            res = mean_estimate_from_sums(float(a - b), float(a + b), ctx.n)
            out += [
                Assertion(f"{name}:item4_viol_x={x}", rate.value, -d,
                          se=rate.se, z=4.0, slack=SUP_EQ_TOL),
                Assertion(f"{name}:item5_residual_x={x}",
                          res.value - (2.0 * math.exp(x) - 1.0), d,
                          se=res.se, z=4.0, slack=SUP_EQ_TOL),
                Assertion(f"{name}:item45_exact_x={x}", abs(d), 0.0, sense,
                          slack=SUP_EQ_TOL),
            ]
    return out


@check("nonlinear-supmax", "nonlinear paths peak at window endpoints")
def _check_nonlinear_supmax(ctx: CheckContext) -> list[Assertion]:
    spec = NonlinearExample(**NONLINEAR_DEFAULTS)
    out = []
    for k, (lo, hi) in enumerate([(0.0, 1.0), (0.1, 0.6), (0.5, 0.9)]):
        window = Interval(lo, hi)
        rate = _sup_equals_max_rate(spec, window, ctx.grid, ctx.n, ctx.seed(k))
        out.append(Assertion(f"I=[{lo},{hi}]", rate, 1.0))
    return out


@check("final-h", "two-branch hitting curve matches (1-e^x-x)e^x")
def _check_final_h(ctx: CheckContext) -> list[Assertion]:
    levels = np.array([-0.5, -1.0, -2.0, -4.0])
    ests = hitting_curve(
        TwoBranch(), levels, [Interval(0.0, 1.0)], ctx.grid, ctx.n, ctx.seed(0)
    )
    return [
        Assertion(f"x={lvl}", est.value, final_example_reference(float(lvl)),
                  se=est.se, z=Z_STAT, slack=GRID_ALLOWANCE)
        for lvl, est in zip(levels, ests)
    ]


@check("final-integral-3/2", "two-branch hitting integral equals 3/2")
def _check_final_integral(ctx: CheckContext) -> list[Assertion]:
    """The mean range against its grid-exact value (3/2 on [0, 1])."""
    span, minus_max = _mean_range(TwoBranch(), ctx)
    exact = _final_example_grid_range(ctx.grid.points)
    return [
        Assertion("mean_range", span.value, exact,
                  se=span.se, z=Z_STAT, slack=SUP_EQ_TOL),
        minus_max,
    ]


@check("final-two-hit", "two-branch two-hit probability closed form")
def _check_final_two_hit(ctx: CheckContext) -> list[Assertion]:
    est = two_hit_prob(TwoBranch(), -1.0, 0.5, ctx.grid, ctx.n, ctx.seed(0))
    target = final_example_two_hit(-1.0, 0.5)
    return [Assertion("two_hit", est.value, target,
                      se=est.se, z=Z_STAT, slack=GRID_ALLOWANCE)]


@check("final-no-three-hit", "no level is hit in three disjoint intervals")
def _check_final_no_three_hit(ctx: CheckContext) -> list[Assertion]:
    intervals = [Interval(0.0, 0.3), Interval(0.4, 0.6), Interval(0.7, 1.0)]
    (est,) = hitting_curve(TwoBranch(), [-1.0], intervals, ctx.grid, ctx.n, ctx.seed(0))
    return _null_probability(est)


_SHARED_DRAW_N = 1_000


@check("shared-draw-invariants", "per-draw monotonicity and containment")
def _check_shared_draw_invariants(ctx: CheckContext) -> list[Assertion]:
    grid = ctx.grid
    n = _SHARED_DRAW_N
    sl_inner = grid.slice_of(Interval(0.25, 0.75))
    i_q, i_h = grid.index_of(0.25), grid.index_of(0.5)
    out = []
    for gi, (name, spec) in enumerate(CATALOGUE):
        z = stack_blocks(generator_blocks(spec, grid, n, ctx.seed(2 * gi)), n)
        eta = msp_corpus(spec, grid, n, ctx.seed(2 * gi + 1))
        bad = 0

        # D-norm monotonicity: |f| <= |g| pointwise dominates per draw.
        small = np.max(z * 0.5, axis=1)
        big = np.max(z * 1.0, axis=1)
        bad += int(np.count_nonzero(small > big))
        # positive homogeneity with an exact binary factor
        bad += int(np.count_nonzero(np.max(z * 2.0, axis=1) != 2.0 * big))
        # indicator monotonicity in the interval
        bad += int(
            np.count_nonzero(z[:, sl_inner].max(axis=1) > z.max(axis=1))
        )
        # hit-set monotonicity for eta at x = -1
        x = -1.0
        hit_full = hit_mask(eta, slice(None), x)
        bad += int(np.count_nonzero(hit_mask(eta, sl_inner, x) & ~hit_full))
        # two-hit contains down-up-down (split at 0.25 over [0, 0.5])
        two = hit_mask(eta, slice(0, i_q + 1), x) & hit_mask(eta, slice(i_q, None), x)
        dud = down_up_down_mask(eta, (0, i_q, i_h), x)
        bad += int(np.count_nonzero(dud & ~two))
        # decomposition: 1{hit} = 1{min <= x} - 1{all < x}
        mn = eta.min(axis=1)
        mx = eta.max(axis=1)
        lhs = hit_full.astype(int)
        rhs = (mn <= x).astype(int) - (mx < x).astype(int)
        bad += int(np.count_nonzero(lhs != rhs))

        out.append(Assertion(f"{name}:violations", bad, 0.0))
    return out


_EXACTNESS_PATHS = 100


@check("stopping-exactness", "extra arrivals never change stopped paths")
def _check_stopping_exactness(ctx: CheckContext) -> list[Assertion]:
    out = []
    for gi, (name, spec) in enumerate(CATALOGUE):
        v = stopping_exactness_violations(
            spec, ctx.grid, _EXACTNESS_PATHS, ctx.seed(gi)
        )
        out.append(Assertion(f"{name}:changed_paths", v, 0.0))
    return out


# --- runner -------------------------------------------------------------------

def check_ids() -> list[str]:
    return list(_CHECKS)


def run_checks(
    suite: str | list[str],
    master_seed: int,
    n_default: int = DEFAULT_N,
    grid_points: int = DEFAULT_GRID_POINTS,
    threads: int = 1,
    timestamp: bool = True,
) -> CheckReport:
    """Run a suite of checks deterministically from one master seed.

    ``suite`` is "paper" (everything) or an explicit list of ids; an
    unknown or repeated id, an empty list, a master seed that is not an
    integer >= 0 (numpy integers are recorded as Python ints) or
    ``n_default < MIN_N`` fails before anything executes. Checks derive
    independent substreams from (master seed, check id) and may run in parallel;
    report contents are independent of ``threads``. The first check that
    raises ends the run: the checks that have not started never do.
    """
    as_seedseq(master_seed)
    if isinstance(master_seed, np.random.SeedSequence):
        raise InvalidArgumentError("a report's master seed must be an integer >= 0")
    master_seed = int(master_seed)
    if n_default < MIN_N:
        raise InvalidArgumentError(f"checks need n_default >= {MIN_N}, got {n_default}")
    if isinstance(suite, str):
        if suite != "paper":
            raise UnknownCheckError(suite)
        ids = check_ids()
    else:
        ids = list(suite)
        if not ids:
            raise UnknownCheckError("", "the suite names no check")
        for cid in ids:
            if cid not in _CHECKS:
                raise UnknownCheckError(cid)
            if ids.count(cid) > 1:
                raise UnknownCheckError(cid, "check id listed twice")
    grid = make_grid(grid_points)
    failed = threading.Event()

    def run_one(cid: str) -> CheckResult:
        if failed.is_set():
            raise CancelledError(cid)
        ctx = CheckContext(
            check_id=cid, master_seed=master_seed, n=n_default, grid=grid
        )
        start = time.perf_counter()
        try:
            assertions = _CHECKS[cid].runner(ctx)
        except BaseException:
            failed.set()
            raise
        seconds = time.perf_counter() - start
        return CheckResult(
            check_id=cid,
            description=_CHECKS[cid].description,
            assertions=assertions,
            seconds=seconds,
        )

    if threads > 1:
        # checks start in suite order, so the first error in that order is
        # a real one, never the CancelledError of a check that started later
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, ids))
    else:
        results = [run_one(cid) for cid in ids]
    generated_at = (
        time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()) if timestamp else None
    )
    return CheckReport(
        suite=suite if isinstance(suite, str) else ids,
        seed=master_seed,
        n_default=n_default,
        checks=results,
        generated_at=generated_at,
    )
