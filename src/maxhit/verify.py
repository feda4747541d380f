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

Draw plan: every sample of a run is a stream that ``run_checks`` opens
and feeds once (``feed_stream``). A check (see ``check``) asks its
``CheckContext`` for reducers of streams: event counts, running means,
or stacked columns (``estimates.EventCounts``, ``StatMeans``,
``RowStack``). ``eta(name, reducer)`` reads the shared eta stream of
catalogue generator g, its index in ``CATALOGUE``: n full-grid paths
seeded (master seed, crc32("margins-ks"), g). Every eta statistic is
row-wise (hit masks, ``all(eta <= f)``, per-path ranges, columns, and a
window's columns, an exact path on the window's points), so any number
of checks can read one stream. ``own(k, spec, reducer)`` reads a stream
of the check alone, seeded (master seed, crc32(check id), k): its
generator (Z) paths, and ``stopping-exactness``'s arrival loop, so eta
and Z estimates stay independent. Checks that share a stream are
dependent; a check's entry is the same whichever checks run beside it.

An eta block reaches its reducers as one ``paths.RowExtremes``, so the
per-row min and max over a grid slice are computed once per block
whichever events read them: hit masks, mean ranges, survivor-bound's
min > -1, the shared-draw invariants and cor33's window max. Events that
would scan the block point by point use exact extreme forms: eq2's
eta <= f over each run of equal values v of f is max eta <= v
(``_below``), and eq3 reads only the rows whose max is >= 0. What stays
point by point (eq2's linear f, example1's sloped curve as eta <= f
somewhere and eta >= f somewhere) runs a row tile at a time (``_tiled``),
as do the statistics of built SineBump Z blocks, so no reducer allocates
a temporary the size of its block. Every per-path value and every block
sum is the float it was.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Generator, Iterator
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import KW_ONLY, dataclass, field
from functools import partial

import numpy as np

from .dnorm import LevelFunction
from .errors import InvalidArgumentError, UnknownCheckError
from .estimates import (
    Estimate,
    EventCounts,
    RowStack,
    StatMeans,
    binomial_estimate,
    mean_estimate_from_sums,
    per_path,
    rule_of_three,
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
    shape_blocks,
)
from .hitting import (
    _checked_levels,
    curve_event,
    down_up_down_mask,
    hit_mask,
    hitting_bound,
)
from .msp import (
    _tile_rows,
    ks_distance_neg_exponential,
    msp_path_blocks,
    stopping_exactness_violations,
)
from .paths import Interval, RowExtremes, TimeGrid, make_grid
from .streams import _is_count, as_seedseq, label_key, substream

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

#: The shared eta stream of catalogue generator g is substream
#: (crc32(this label), g) of the master seed. The label is margins-ks's
#: check id, so that check draws what it drew on streams of its own and
#: keeps its verdicts, the suite's most frequent chance reds.
ETA_STREAM_LABEL = "margins-ks"


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


@dataclass
class CheckContext:
    check_id: str
    master_seed: int
    n: int
    grid: TimeGrid
    #: The run's streams by seed key, shared by the contexts of one run:
    #: each a call that draws its blocks and the reducers they are fed to.
    streams: dict = field(default_factory=dict, compare=False, repr=False)
    #: The check's plan, which ``run_checks`` runs to its yield.
    pending: Generator | None = field(default=None, compare=False, repr=False)

    def eta(self, name: str, reducer: Callable) -> Callable:
        """``reducer``, fed catalogue generator ``name``'s shared eta stream,
        each block as its ``RowExtremes``."""
        g = _ALL.index(name)
        return self.own(g, CATALOGUE[g][1], reducer, sampler=_eta_blocks,
                        label=ETA_STREAM_LABEL)

    def own(self, k: int, spec: GeneratorSpec, reducer: Callable, n: int | None = None,
            sampler: Callable | None = None, label: str | None = None) -> Callable:
        """``reducer``, fed this check's stream k: ``n`` (default ``self.n``)
        paths of ``spec`` drawn by ``sampler`` (default ``shape_blocks``),
        seeded (master seed, crc32(``label``, default the check id), k)."""
        key = (label_key(label or self.check_id), k)
        draw = partial(sampler or shape_blocks, spec, self.grid, n or self.n,
                       substream(self.master_seed, *key))
        self.streams.setdefault(key, (draw, []))[1].append(reducer)
        return reducer


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
    #: ``ctx -> list[Assertion]``, the step ``run_checks`` times.
    runner: object = field(repr=False)
    #: The check's plan, the generator function ``check`` registers.
    plan: object = field(repr=False)


#: The registry, in suite and report order.
_CHECKS: dict[str, CheckDef] = {}


def _finish(ctx: CheckContext) -> list[Assertion]:
    """The runner of a ``check``: its plan, resumed after the streams were
    fed, to the assertions it returns."""
    try:
        next(ctx.pending)
    except StopIteration as done:
        return done.value
    raise RuntimeError(f"check {ctx.check_id} yields more than once")


def check(check_id: str, description: str):
    """Register the decorated generator of a ``CheckContext`` as a check: it
    registers its reducers, yields once while ``run_checks`` feeds every
    stream, then returns its assertions, the part its runner times."""

    def register(plan):
        _CHECKS[check_id] = CheckDef(check_id, description, _finish, plan)
        return plan

    return register


# --- streams and their reducers -------------------------------------------------


def _eta_blocks(spec: GeneratorSpec, grid: TimeGrid, n: int, seed) -> Iterator[RowExtremes]:
    """``msp_path_blocks``, each block as its ``RowExtremes``: the events of
    every check read one per-row min and max per grid slice, which go with
    the block."""
    return map(RowExtremes, msp_path_blocks(spec, grid, n, seed))


def _tiled(stat: Callable) -> Callable:
    """A row-wise ``stat`` of a path array, evaluated per row tile of the
    sampler's size (``msp._tile_rows``) and concatenated: the same values,
    with the temporaries of a tile instead of a block."""

    def tiled(paths: np.ndarray) -> np.ndarray:
        step = _tile_rows(paths)
        return np.concatenate([stat(paths[i:i + step]) for i in range(0, len(paths), step)])

    return tiled


def _column_square_sums(paths: np.ndarray) -> np.ndarray:
    """``np.square(paths).sum(axis=0)`` bit for bit, squaring a row tile at
    a time: a sum over axis 0 adds the rows in order, so each tile's first
    row is given the sum so far."""
    step = _tile_rows(paths)
    total = None
    for i in range(0, len(paths), step):
        sq = np.square(paths[i:i + step])
        if total is not None:
            sq[0] += total
        total = sq.sum(axis=0)
    return total


def feed_stream(draw: Callable, reducers: list[Callable], failed: threading.Event) -> None:
    """Feed every block of the stream ``draw()`` to each reducer in turn. An
    error sets ``failed``; once it is set, the stream stops before its next
    block with ``CancelledError``."""
    try:
        if failed.is_set():
            raise CancelledError(draw)
        for block in draw():
            for reduce in reducers:
                reduce(block)
            if failed.is_set():
                raise CancelledError(draw)
    except BaseException:
        failed.set()
        raise


class _ZSums:
    """Sums of z and of z^2 over the generator paths fed, per grid point.

    An atom spec's paths are its K basis rows b_k, so with shape counts c_k
    the sums are sum_k c_k b_k and sum_k c_k b_k^2, and no path is built;
    SineBump's are summed over its built rows, squared a tile at a time.
    """

    n = counts = total = total_sq = 0

    def __call__(self, block) -> None:
        rows, index = block
        if isinstance(index, slice):
            self.total = self.total + rows.sum(axis=0)
            self.total_sq = self.total_sq + _column_square_sums(rows)
            self.n += len(rows)
            return
        self.rows, self.counts = rows, self.counts + np.bincount(index, minlength=len(rows))

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n:
            return self.total, self.total_sq
        weighted = self.counts[:, None] * self.rows
        return weighted.sum(axis=0), (weighted * self.rows).sum(axis=0)


def _sup_means(fs: list[LevelFunction]) -> StatMeans:
    """Per level function f, the running mean of sup |f| Z over the
    generator paths fed: the D-norm of f, as ``dnorm_estimates`` gives it."""
    return StatMeans(*(per_path(_tiled(lambda z, af=np.abs(f.values): np.max(z * af, axis=1)))
                       for f in fs))


def _sup_at_endpoint(grid: TimeGrid, interval: Interval) -> EventCounts:
    """Counts the generator paths whose sup over ``interval`` equals the
    larger of its two endpoint values, to ``SUP_EQ_TOL``."""
    sl = grid.slice_of(interval)
    return EventCounts(per_path(lambda z: np.abs(
        z[:, sl].max(axis=1) - np.maximum(z[:, sl.start], z[:, sl.stop - 1])) <= SUP_EQ_TOL))


def _hits(ctx: CheckContext, name: str, levels, intervals: list[Interval]) -> EventCounts:
    """Counts of ``hitting_curve``'s event (``curve_event``) on generator
    ``name``'s eta stream."""
    return ctx.eta(name, EventCounts(curve_event(levels, intervals, ctx.grid)))


def _hit_estimates(ctx: CheckContext, hits: EventCounts) -> list[Estimate]:
    """Per level, the frequency ``hitting_curve`` gives, from fed ``_hits``."""
    return [binomial_estimate(int(c), ctx.n) for c in hits.counts[0]]


_ALL = tuple(name for name, _ in CATALOGUE)


# --- the checks ---------------------------------------------------------------


@check("eq1-moments", "unit mean of Z at every grid point")
def _check_eq1_moments(ctx: CheckContext):
    """Per catalogue generator, the grid point whose mean uses the largest
    share of its tolerance, 4 se plus 1e-12: a point of zero variance must
    match to within the float accumulation error of the sums."""
    accs = [ctx.own(gi, spec, _ZSums()) for gi, (_, spec) in enumerate(CATALOGUE)]
    yield
    out = []
    for name, acc in zip(_ALL, accs):
        total, total_sq = acc.sums()
        mean = total / ctx.n
        var = np.maximum(0.0, total_sq / ctx.n - mean * mean)
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


#: A level function of at most this many runs of equal values is compared
#: with eta run by run (``_below``), from the block's row maxima.
_MAX_RUNS = 8


def _below(f: LevelFunction) -> Callable:
    """The event eta <= f at every grid point. Over a run of equal values v
    of f it is max eta <= v, exactly, so a function of at most ``_MAX_RUNS``
    runs reads the block's row maxima over its runs; any other is compared
    point by point, a row tile at a time."""
    v = f.values
    edges = [0, *(np.flatnonzero(v[1:] != v[:-1]) + 1), len(v)]
    if len(edges) - 1 > _MAX_RUNS:
        compare = _tiled(lambda eta: np.all(eta <= v, axis=1))
        return lambda ext: compare(ext.paths)
    runs = [(slice(a, b), v[a]) for a, b in zip(edges, edges[1:])]

    def below(ext: RowExtremes) -> np.ndarray:
        (sl, level), *rest = runs
        inside = ext.row_max(sl) <= level
        for sl, level in rest:
            inside &= ext.row_max(sl) <= level
        return inside

    return below


@check("eq2-roundtrip", "joint cdf equals exp(-D-norm)")
def _check_eq2_roundtrip(ctx: CheckContext):
    """For three functions and every generator; the se combines the joint
    cdf's with the delta-method se of exp(-D-norm). The D-norms share one
    set of Z paths per generator, drawn apart from the eta stream."""
    names, fs = zip(*_criterion2_functions(ctx.grid))
    joints = [ctx.eta(name, EventCounts(*map(_below, fs))) for name in _ALL]
    dnorms = [ctx.own(2 * gi, spec, _sup_means(fs)) for gi, (_, spec) in enumerate(CATALOGUE)]
    yield
    out = []
    for name, joint_counts, dns in zip(_ALL, joints, dnorms):
        for i, (fname, count) in enumerate(zip(names, joint_counts.counts)):
            dn = dns.estimate(i)
            joint = binomial_estimate(int(count), ctx.n)
            target = math.exp(-dn.value)
            se = math.sqrt(joint.se**2 + (target * dn.se) ** 2)
            out.append(Assertion(f"{name}:{fname}", joint.value, target,
                                 se=se, z=Z_STAT))
    return out


def _nonnegative_values(ext: RowExtremes) -> np.ndarray:
    """The values eta >= 0 of a block (counted per column), read only in the
    rows whose max is >= 0: the other rows have none."""
    return ext[ext.row_max() >= 0.0] >= 0.0


@check("eq3-negative-paths", "simulated paths are strictly negative")
def _check_eq3_negative_paths(ctx: CheckContext):
    counts = [ctx.eta(name, EventCounts(_nonnegative_values)) for name in _ALL]
    yield
    return [Assertion(f"{name}:nonnegative_values", int(c.counts[0].sum()), 0.0)
            for name, c in zip(_ALL, counts)]


_MARGIN_TIMES = (0.0, 0.37, 1.0)


@check("margins-ks", "standard negative exponential margins (KS)")
def _check_margins_ks(ctx: CheckContext):
    """KS distance of each margin column against exp(x), x <= 0; the
    columns of one generator come from one set of paths."""
    cols = [ctx.grid.index_of(t) for t in _MARGIN_TIMES]
    stacks = [ctx.eta(name, RowStack(ctx.n, cols)) for name in _ALL]
    yield
    band = ks_band(ctx.n)
    return [Assertion(f"{name}:t={t}", ks_distance_neg_exponential(column), band, "<=")
            for name, stack in zip(_ALL, stacks)
            for t, column in zip(_MARGIN_TIMES, stack.rows.T)]


@check("max-stability", "k x (max of k paths) keeps the margins")
def _check_max_stability(ctx: CheckContext):
    """KS distance of k times the pointwise max of k paths, k = 2, 5."""
    col = [ctx.grid.index_of(0.37)]
    stacks = {name: ctx.eta(name, RowStack(ctx.n, col)) for name in ("two_branch", "sine_bump")}
    yield
    out = []
    for name, stack in stacks.items():
        vals = stack.rows[:, 0]
        for k in (2, 5):
            groups = ctx.n // k
            scaled = k * vals[: groups * k].reshape(groups, k).max(axis=1)
            d = ks_distance_neg_exponential(scaled)
            out.append(Assertion(f"{name}:k={k}", d, ks_band(groups), "<="))
    return out


@check("takahashi", "m = 1 iff D-norm equals sup-norm")
def _check_takahashi(ctx: CheckContext):
    """Complete dependence is decided as every probe's D-norm within
    3 se + 1e-12 of its sup-norm, all D-norms from one shared set of
    paths; the absolute term absorbs float accumulation when they are equal."""
    probes = [f for _, f in _criterion2_functions(ctx.grid)]
    expected = {"complete_dependence": 1.0, "piecewise_example": 0.0, "two_branch": 0.0}
    dnorms = {name: ctx.own(gi, spec, _sup_means(probes))
              for gi, (name, spec) in enumerate(CATALOGUE) if name in expected}
    yield
    out = []
    for name, dns in dnorms.items():
        complete = all(
            abs(est.value - float(np.max(np.abs(f.values)))) <= 3.0 * est.se + 1e-12
            for est, f in zip(map(dns.estimate, range(len(probes))), probes)
        )
        out.append(Assertion(f"{name}:complete_dependence",
                             1.0 if complete else 0.0, expected[name]))
    return out


@check("example1-complete-dependence",
       "constant paths miss fixed levels, meet sloped curves")
def _check_example1_complete_dependence(ctx: CheckContext):
    """A fixed level's hits, and the paths meeting the sloped curve f: those
    where eta - f changes sign or touches zero on the grid, which is
    eta <= f somewhere and eta >= f somewhere (fl(a - b) has the sign of
    a - b)."""
    fv = LevelFunction.piecewise_linear(ctx.grid, [0.0, 1.0], [-1.0, -2.0]).values
    meets = _tiled(lambda eta: np.any(eta <= fv, axis=1) & np.any(eta >= fv, axis=1))
    acc = ctx.eta("complete_dependence", EventCounts(
        curve_event([-1.0], [Interval(0.0, 1.0)], ctx.grid),
        lambda ext: meets(ext.paths)))
    yield
    (fixed,), met = acc.counts
    out = _null_probability(binomial_estimate(int(fixed), ctx.n), "fixed_level:")
    curve_est = binomial_estimate(int(met), ctx.n)
    target = math.exp(-1.0) - math.exp(-2.0)
    out.append(Assertion("sloped_curve:estimate", curve_est.value, target,
                         se=curve_est.se, z=Z_STAT))
    return out


@check("prop2-null-on-constant-interval", "no hits where the generator is degenerate")
def _check_prop2_null(ctx: CheckContext):
    hits = _hits(ctx, "piecewise_example", [-1.0], [Interval(0.25, 0.75)])
    yield
    (est,) = _hit_estimates(ctx, hits)
    return _null_probability(est)


@check("prop2-positive-when-norm-gt-1",
       "positive hitting probability when ||1_I||_D > 1")
def _check_prop2_positive(ctx: CheckContext):
    spec = PiecewiseExample(n=2, a=0.25, b=0.75)
    indicator = LevelFunction.indicator_step(ctx.grid, Interval(0.0, 1.0), inside=-1.0)
    dns = ctx.own(0, spec, _sup_means([indicator]))
    hits = _hits(ctx, "piecewise_example", [-1.0], [Interval(0.0, 1.0)])
    yield
    norm = dns.estimate(0)
    (est,) = _hit_estimates(ctx, hits)
    return [
        Assertion("indicator_norm_gt_1", norm.value, 1.0, "gap",
                  se=norm.se, z=Z_STAT),
        _positive_probability("hitting_positive", est),
    ]


_SURVIVOR_GENERATORS = ("complete_dependence", "piecewise_example", "sine_bump")


@check("survivor-bound", "survivor probability lower bound")
def _check_survivor_bound(ctx: CheckContext):
    """Survivor probability of f = -1 dominates the bound 1 - exp(-v),
    v = E inf |f| Z, whose se is the delta-method exp(-v) se(v); the
    assertion's se is the sum of both estimates' se (independent draws, a
    conservative bound)."""
    specs = dict(CATALOGUE)
    absf = np.abs(LevelFunction.constant(ctx.grid, -1.0).values)
    vs = [ctx.own(2 * gi, specs[name],
                  StatMeans(per_path(_tiled(lambda z: np.min(z * absf, axis=1)))))
          for gi, name in enumerate(_SURVIVOR_GENERATORS)]
    # eta > -1 at every grid point: min eta > -1
    survived = [ctx.eta(name, EventCounts(lambda ext: ext.row_min() > -1.0))
                for name in _SURVIVOR_GENERATORS]
    yield
    out = []
    for name, v_acc, surv_acc in zip(_SURVIVOR_GENERATORS, vs, survived):
        v = v_acc.estimate(0)
        bound, bound_se = 1.0 - math.exp(-v.value), math.exp(-v.value) * v.se
        surv = binomial_estimate(int(surv_acc.counts[0]), ctx.n)
        out.append(Assertion(f"{name}:survivor_ge_bound", surv.value, bound,
                             ">=", se=surv.se + bound_se, z=Z_STAT))
    return out


@check("example2-m", "ramp-plateau generator constant (3n^2+n)/(n+1)^2")
def _check_example2_m(ctx: CheckContext):
    """Generator constants of the ramp-plateau model at n = 2.

    ``closed_form_m`` derives m from the atom table, so its exact match
    with the paper's 14/9 checks the table, not a restated formula.
    """
    spec = PiecewiseExample(n=2, a=0.25, b=0.75)
    acc = ctx.own(0, spec, StatMeans(per_path(lambda z: z.max(axis=1)),
                                     per_path(lambda z: z.min(axis=1))))
    yield
    m_hat, m_tilde_hat = acc.estimate(0), acc.estimate(1)
    m_exact = 14.0 / 9.0
    mt_exact = 5.0 / 9.0
    return [
        Assertion("m_hat", m_hat.value, m_exact, se=m_hat.se, z=Z_STAT),
        Assertion("m_tilde_hat", m_tilde_hat.value, mt_exact,
                  se=m_tilde_hat.se, z=Z_STAT),
        Assertion("closed_form_m", closed_form_m(spec), m_exact),
    ]


_HCURVE_LEVELS = (-0.25, -1.0, -4.0)


@check("hcurve-bound", "hitting curve under exp(x m~) - exp(x m)")
def _check_hcurve_bound(ctx: CheckContext):
    """At 4 se plus the grid allowance."""
    hits = _hits(ctx, "sine_bump", _HCURVE_LEVELS, [Interval(0.0, 1.0)])
    yield
    spec = SineBump(amp=0.5)
    m, m_tilde = closed_form_m(spec), closed_form_m_tilde(spec)
    return [
        Assertion(f"x={lvl}", est.value, hitting_bound(m, m_tilde, lvl), "<=",
                  se=est.se, z=4.0, slack=GRID_ALLOWANCE)
        for lvl, est in zip(_HCURVE_LEVELS, _hit_estimates(ctx, hits))
    ]


def _range_means() -> StatMeans:
    """Per-path range max eta - min eta over the grid, and -max eta, from
    the block's row extremes."""

    return StatMeans(lambda ext: ext.row_max() - ext.row_min(), lambda ext: -ext.row_max())


def _mean_range(
    spec: GeneratorSpec, acc: StatMeans, grid: TimeGrid
) -> tuple[Estimate, Assertion]:
    """The mean per-path range, which is the hitting integral over the grid
    (Fubini, as eta < 0), and the assertion that the mean of -max eta, an
    Exp(m_T) variable with m_T = ``expected_max`` over the grid, is exactly
    1/m_T; ``acc`` is a fed ``_range_means``."""
    minus_max = acc.estimate(1)
    exact = 1.0 / expected_max(spec, grid.points)
    return acc.estimate(0), Assertion("mean_minus_max", minus_max.value, exact,
                                      se=minus_max.se, z=Z_STAT, slack=SUP_EQ_TOL)


@check("hintegral-bound", "hitting integral within (m - m~)/(m m~)")
def _check_hintegral_bound(ctx: CheckContext):
    """The hitting integral is the mean range; a grid range never exceeds
    the path's, so the paper's bound holds on any grid."""
    acc = ctx.eta("sine_bump", _range_means())
    yield
    spec = SineBump(amp=0.5)
    m = closed_form_m(spec)
    mt = closed_form_m_tilde(spec)
    span, minus_max = _mean_range(spec, acc, ctx.grid)
    return [
        Assertion("mean_range_le_bound", span.value, (m - mt) / (m * mt), "<=",
                  se=span.se, z=Z_STAT),
        Assertion("mean_range_positive", span.value, 0.0, "gap", se=span.se, z=Z_STAT),
        minus_max,
    ]


_LEMMA31_TIMES = (0.0, 0.25, 0.5)


@check("lemma31-closedform", "down-up-down probabilities match closed forms")
def _check_lemma31(ctx: CheckContext):
    """P(eta_t' <= x0, eta_t0 > x0, eta_t'' <= x0) at (t', t0, t'') =
    (0, 0.25, 0.5): three grid coordinates, so no grid allowance."""
    cols = tuple(ctx.grid.index_of(t) for t in _LEMMA31_TIMES)
    sine_acc, nl_acc = (ctx.eta(name, EventCounts(lambda eta: down_up_down_mask(eta, cols, -1.0)))
                        for name in ("sine_bump", "nonlinear_example"))
    yield
    est = binomial_estimate(int(sine_acc.counts[0]), ctx.n)
    sine = SineBump(amp=0.5)
    # P(ends <= -1) - P(all <= -1), by P(eta <= x on T) = exp(x m_T)
    t = ctx.grid.points[list(cols)]
    target = math.exp(-expected_max(sine, t[[0, 2]])) - math.exp(-expected_max(sine, t))
    out = [Assertion("sine_bump:closed_form", est.value, target, se=est.se, z=Z_STAT)]
    return out + _null_probability(binomial_estimate(int(nl_acc.counts[0]), ctx.n), "nonlinear:")


@check("prop32-two-hit", "two-hit events contain down-up-down events")
def _check_prop32_two_hit(ctx: CheckContext):
    i0 = ctx.grid.index_of(0.25)  # split; also the middle of the triple
    i_end = ctx.grid.index_of(0.5)
    x0 = -1.0

    def events(ext: RowExtremes) -> np.ndarray:
        two = hit_mask(ext, slice(0, i0 + 1), x0) & hit_mask(ext, slice(i0, None), x0)
        dud = down_up_down_mask(ext, (0, i0, i_end), x0)
        return np.column_stack([dud & ~two, dud, two])

    acc = ctx.eta("sine_bump", EventCounts(events))
    yield
    violations, dud_hits, two_hits = (int(c) for c in acc.counts[0])
    return [
        Assertion("containment_violations", violations, 0.0),
        _positive_probability("dud_positive", binomial_estimate(dud_hits, ctx.n)),
        Assertion("two_hit_ge_dud", two_hits / ctx.n, dud_hits / ctx.n, ">="),
    ]


_COR33_WINDOW = (0.2, 0.9)
_COR33_LEVELS = (-0.5, -2.0)
#: Per generator: the middle time of its down-up-down triple on the window.
_COR33_DUD_T0 = {"nonlinear_example": 0.5, "sine_bump": 0.25}


def _cor33_events(ctx: CheckContext, name: str) -> EventCounts:
    """Items 1, 4 and 5 on the window T's columns of the full-grid block,
    an exact path on T."""
    sl = ctx.grid.slice_of(Interval(*_COR33_WINDOW))
    cols = (sl.start, ctx.grid.index_of(_COR33_DUD_T0[name]), sl.stop - 1)
    levels = np.array(_COR33_LEVELS)

    def items_4_and_5(ext: RowExtremes) -> np.ndarray:
        """Per level: ends <= x but not all; all <= x; both ends > x."""
        below = ext.row_max(sl)[:, None] <= levels
        first, last = ext[:, sl.start, None], ext[:, sl.stop - 1, None]
        ends_below = (first <= levels) & (last <= levels)
        ends_above = (first > levels) & (last > levels)
        return np.hstack([ends_below & ~below, below, ends_above])

    return EventCounts(lambda eta: down_up_down_mask(eta, cols, -1.0), items_4_and_5)


@check("cor33-equivalences", "five-way equivalence holds/fails as one")
def _check_cor33(ctx: CheckContext):
    """All five items hold for the nonlinear generator and all fail for
    the sine bump, on the window T = (0.2, 0.9). Item (3) reduces Z
    paths; items (1), (4) and (5) the window's columns of each generator's
    eta stream. By P(eta <= x on T) = exp(x m_T), m_T = ``expected_max``
    over T, and m_E over T's endpoints, the item-5 residual P(all <= x) -
    P(ends > x) - (2e^x - 1) is exactly d = exp(x m_T) - exp(x m_E), and
    the item-4 rate P(ends <= x, not all <= x) is -d: both are tested
    two-sided at 4 se + ``SUP_EQ_TOL``. d is 0 to ``SUP_EQ_TOL`` where the
    items hold; where they fail, a ``gap`` of se 0 certifies by arithmetic
    that it is not.
    """
    window = Interval(*_COR33_WINDOW)
    nl = NonlinearExample(**NONLINEAR_DEFAULTS)
    sine = SineBump(amp=0.5)
    item3 = [ctx.own(k, spec, _sup_at_endpoint(ctx.grid, window))
             for k, spec in enumerate((nl, sine))]
    items145 = [ctx.eta(key, _cor33_events(ctx, key)) for key in _COR33_DUD_T0]
    yield
    t = ctx.grid.points[ctx.grid.slice_of(window)]
    nl_rate, sine_rate = (int(acc.counts[0]) / ctx.n for acc in item3)
    out = [
        Assertion("nonlinear:item3_rate", nl_rate, 1.0),
        Assertion("sine_bump:item3_rate", sine_rate, 0.01, "<="),
    ]
    for name, spec, acc, sense in (("nonlinear", nl, items145[0], "=="),
                                   ("sine_bump", sine, items145[1], "gap")):
        dud, counts = acc.counts
        dud_est = binomial_estimate(int(dud), ctx.n)
        if sense == "==":
            out += _null_probability(dud_est, f"{name}:item1_", "dud")
        else:
            out.append(_positive_probability(f"{name}:item1_dud_positive", dud_est))
        m_t = expected_max(spec, t)
        m_e = expected_max(spec, t[[0, -1]])
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


_SUPMAX_WINDOWS = ((0.0, 1.0), (0.1, 0.6), (0.5, 0.9))


@check("nonlinear-supmax", "nonlinear paths peak at window endpoints")
def _check_nonlinear_supmax(ctx: CheckContext):
    spec = NonlinearExample(**NONLINEAR_DEFAULTS)
    accs = [ctx.own(k, spec, _sup_at_endpoint(ctx.grid, Interval(lo, hi)))
            for k, (lo, hi) in enumerate(_SUPMAX_WINDOWS)]
    yield
    return [Assertion(f"I=[{lo},{hi}]", int(acc.counts[0]) / ctx.n, 1.0)
            for (lo, hi), acc in zip(_SUPMAX_WINDOWS, accs)]


_FINAL_H_LEVELS = (-0.5, -1.0, -2.0, -4.0)


@check("final-h", "two-branch hitting curve matches (1-e^x-x)e^x")
def _check_final_h(ctx: CheckContext):
    hits = _hits(ctx, "two_branch", _FINAL_H_LEVELS, [Interval(0.0, 1.0)])
    yield
    return [
        Assertion(f"x={lvl}", est.value, final_example_reference(lvl),
                  se=est.se, z=Z_STAT, slack=GRID_ALLOWANCE)
        for lvl, est in zip(_FINAL_H_LEVELS, _hit_estimates(ctx, hits))
    ]


@check("final-integral-3/2", "two-branch hitting integral equals 3/2")
def _check_final_integral(ctx: CheckContext):
    """The mean range against its grid-exact value (3/2 on [0, 1])."""
    acc = ctx.eta("two_branch", _range_means())
    yield
    span, minus_max = _mean_range(TwoBranch(), acc, ctx.grid)
    exact = _final_example_grid_range(ctx.grid.points)
    return [
        Assertion("mean_range", span.value, exact,
                  se=span.se, z=Z_STAT, slack=SUP_EQ_TOL),
        minus_max,
    ]


@check("final-two-hit", "two-branch two-hit probability closed form")
def _check_final_two_hit(ctx: CheckContext):
    """The two-hit event of ``two_hit_prob`` at the split 0.5."""
    hits = _hits(ctx, "two_branch", [-1.0], [Interval(0.0, 0.5), Interval(0.5, 1.0)])
    yield
    (est,) = _hit_estimates(ctx, hits)
    target = final_example_two_hit(-1.0, 0.5)
    return [Assertion("two_hit", est.value, target,
                      se=est.se, z=Z_STAT, slack=GRID_ALLOWANCE)]


@check("final-no-three-hit", "no level is hit in three disjoint intervals")
def _check_final_no_three_hit(ctx: CheckContext):
    hits = _hits(ctx, "two_branch", [-1.0],
                 [Interval(0.0, 0.3), Interval(0.4, 0.6), Interval(0.7, 1.0)])
    yield
    (est,) = _hit_estimates(ctx, hits)
    return _null_probability(est)


#: Generator paths per catalogue spec that shared-draw-invariants reduces.
_SHARED_DRAW_N = 1_000
_INNER = Interval(0.25, 0.75)


def _eta_invariant_violations(ctx: CheckContext) -> EventCounts:
    """Per path, the hit-set invariants at x = -1 that fail."""
    sl_inner = ctx.grid.slice_of(_INNER)
    i_q, i_h = ctx.grid.index_of(0.25), ctx.grid.index_of(0.5)
    x = -1.0

    def violations(ext: RowExtremes) -> np.ndarray:
        hit_full = hit_mask(ext, slice(None), x)
        two = hit_mask(ext, slice(0, i_q + 1), x) & hit_mask(ext, slice(i_q, None), x)
        dud = down_up_down_mask(ext, (0, i_q, i_h), x)
        # decomposition: 1{hit} = 1{min <= x} - 1{all < x}
        rhs = (ext.row_min() <= x).astype(int) - (ext.row_max() < x).astype(int)
        return np.column_stack([
            hit_mask(ext, sl_inner, x) & ~hit_full,  # hit-set monotonicity
            dud & ~two,  # two-hit (split at 0.25) contains down-up-down
            hit_full.astype(int) != rhs,
        ])

    return EventCounts(violations)


@check("shared-draw-invariants", "per-draw monotonicity and containment")
def _check_shared_draw_invariants(ctx: CheckContext):
    """Per generator, the D-norm invariants that fail on any of
    ``_SHARED_DRAW_N`` generator paths plus the hit-set invariants that
    fail on any eta path of the shared stream."""
    sl_inner = ctx.grid.slice_of(_INNER)

    def z_violations(z: np.ndarray) -> np.ndarray:
        big = np.max(z * 1.0, axis=1)
        return np.column_stack([
            # D-norm monotonicity: |f| <= |g| pointwise dominates per draw
            np.max(z * 0.5, axis=1) > big,
            # positive homogeneity with an exact binary factor
            np.max(z * 2.0, axis=1) != 2.0 * big,
            # indicator monotonicity in the interval
            z[:, sl_inner].max(axis=1) > z.max(axis=1),
        ])

    z_bad = [ctx.own(2 * gi, spec, EventCounts(per_path(_tiled(z_violations))), n=_SHARED_DRAW_N)
             for gi, (_, spec) in enumerate(CATALOGUE)]
    eta_bad = [ctx.eta(name, _eta_invariant_violations(ctx)) for name in _ALL]
    yield
    return [Assertion(f"{name}:violations", int(z.counts[0].sum() + e.counts[0].sum()), 0.0)
            for name, z, e in zip(_ALL, z_bad, eta_bad)]


_EXACTNESS_PATHS = 100


@check("stopping-exactness", "extra arrivals never change stopped paths")
def _check_stopping_exactness(ctx: CheckContext):
    # per block, the mask of its paths that extra arrivals change
    changed = [ctx.own(gi, spec, EventCounts(lambda mask: mask), n=_EXACTNESS_PATHS,
                       sampler=stopping_exactness_violations)
               for gi, (_, spec) in enumerate(CATALOGUE)]
    yield
    return [Assertion(f"{name}:changed_paths", c.counts[0], 0.0)
            for name, c in zip(_ALL, changed)]


# --- runner -------------------------------------------------------------------

def check_ids() -> list[str]:
    return list(_CHECKS)


def _results(futures: list[Future]) -> list:
    """Each future's result, once all are done; if any raised, the first
    error that is not the ``CancelledError`` of a task that saw the run had
    failed."""
    errors = [f.exception() for f in futures if f.exception() is not None]
    if errors:
        raise next((e for e in errors if not isinstance(e, CancelledError)), errors[0])
    return [f.result() for f in futures]


def checked_threads(threads) -> None:
    """Refuse a ``threads`` that is not an integer >= 1 (a bool is not)."""
    if not (_is_count(threads) and threads >= 1):
        raise InvalidArgumentError(f"threads must be an integer >= 1, got {threads!r}")


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
    integer >= 0, an ``n_default`` that is not an integer >= ``MIN_N``
    (numpy integers are recorded as Python ints), a ``threads`` that is
    not an integer >= 1 or a bad grid fails before anything executes.
    Each check's plan registers its reducers, every stream feeds them, then
    each check's runner builds its assertions (see the module docstring).
    With ``threads`` > 1 the streams go to a pool; report contents are
    independent of ``threads`` and of which checks run. The first stream
    that raises ends the run: the others stop at their next block.
    """
    as_seedseq(master_seed)
    if isinstance(master_seed, np.random.SeedSequence):
        raise InvalidArgumentError("a report's master seed must be an integer >= 0")
    master_seed = int(master_seed)
    if not _is_count(n_default):
        raise InvalidArgumentError(f"n_default must be an integer, got {n_default!r}")
    n_default = int(n_default)
    if n_default < MIN_N:
        raise InvalidArgumentError(f"checks need n_default >= {MIN_N}, got {n_default}")
    checked_threads(threads)
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
    streams = {}
    contexts = [CheckContext(cid, master_seed, n_default, grid, streams) for cid in ids]
    for ctx in contexts:
        ctx.pending = _CHECKS[ctx.check_id].plan(ctx)
        next(ctx.pending)
    failed = threading.Event()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            _results([pool.submit(feed_stream, *stream, failed) for stream in streams.values()])
    else:
        for stream in streams.values():
            feed_stream(*stream, failed)
    results = []
    for ctx in contexts:
        defn = _CHECKS[ctx.check_id]
        start = time.perf_counter()
        assertions = defn.runner(ctx)
        results.append(CheckResult(ctx.check_id, defn.description, assertions,
                                   time.perf_counter() - start))
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
