"""Catalogue of generator processes for standard max-stable simulation.

A generator is a nonnegative continuous process Z on [0, 1] with unit mean
at every time and integrable supremum. The catalogue:

======================  ====================================================
CompleteDependence      Z = 1 identically (one path, no randomness).
PiecewiseExample        random two-point endpoints Z_0, Z_1 in {1/n, n},
                        linear ramps to a flat unit plateau on [a, b].
NonlinearExample        two-segment linear interpolation through random
                        Z_0, 1, Z_1 driven by two Bernoulli draws; every
                        path is monotone or convex, so the supremum over
                        any subinterval sits at an endpoint.
TwoBranch               Z = 2(1-t) or Z = 2t with probability 1/2 each;
                        spectrally equivalent to the two-spike process
                        eta_t = max(eta_0/(1-t), eta_1/t).
SineBump                Z = 1 + sin(2*pi*t) W with W uniform on
                        [-amp/2, amp/2]; its supremum over any window
                        containing an interior peak strictly exceeds the
                        endpoint maximum, the witness used for the
                        multiple-hit checks. E sup Z = 1 + amp/4.
======================  ====================================================

Shape tables: every generator but SineBump is a finite mixture of K fixed
paths, and ``shape_table(spec, grid_points)`` builds them once as a
(K, len(grid_points)) array. ``atom_index(spec, uniforms)`` names the row
each uniform row selects, and ``sample_paths`` gathers those rows.

======================  ==  ================================================
CompleteDependence       1  the constant 1
TwoBranch                2  2(1-t), drawn when u0 < 1/2, and 2t
PiecewiseExample         4  (Z_0, Z_1) in (1/n, 1/n), (1/n, n), (n, 1/n),
                            (n, n); u < n/(n+1) draws 1/n
NonlinearExample         4  the (Y, Yt) outcomes (1, 1), (1, 0), (0, 1),
                            (0, 0), in the order of ``_atoms``
======================  ==  ================================================

Draw layout (fixed; regression tests rely on it): sampling one path
consumes exactly ``UNIFORMS_PER_PATH[type(spec)]`` uniforms from the
stream, in the documented per-variant order. Batched sampling draws the
``(count, k)`` uniform block row-major, so replica ``i`` of a block owns
row ``i``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import InvalidSpecError
from .estimates import (
    Estimate, binomial_estimate, count_events, seed_echo, stream_means
)
from .paths import Interval, SamplePath, TimeGrid
from .streams import Seed, block_streams

#: Tolerance for "supremum equals endpoint maximum" equality tests. Linear
#: interpolation is evaluated pointwise, so interior grid values of a
#: monotone segment can overshoot the endpoint by a few ulps.
SUP_EQ_TOL = 1e-12


@dataclass(frozen=True)
class CompleteDependence:
    """Constant generator: the completely dependent max-stable process."""


@dataclass(frozen=True)
class PiecewiseExample:
    """Ramp / plateau / ramp generator with two-point random endpoints.

    Z_0 and Z_1 are independent, equal to 1/n with probability n/(n+1) and
    to n otherwise. The path ramps linearly from Z_0 to 1 on [0, a), is
    exactly 1 on [a, b], and ramps linearly from 1 to Z_1 on (b, 1].
    """

    n: int
    a: float
    b: float

    def violations(self) -> list[str]:
        out = []
        if not (isinstance(self.n, int) and self.n >= 1):
            out.append("n >= 1 violated")
        if not 0.0 < self.a:
            out.append("0 < a violated")
        if not self.a < self.b:
            out.append("a < b violated")
        if not self.b < 1.0:
            out.append("b < 1 violated")
        return out


@dataclass(frozen=True)
class NonlinearExample:
    """Two-segment interpolation through (Z_0, 1, Z_1) with Bernoulli mixing.

    With Y ~ Bernoulli(p), p = (1-b)/(a-b), and an independent
    Yt ~ Bernoulli(pt), pt = (1-e)/(d-e):

        Z_0 = Y a + (1-Y) b
        Z_1 = (1-Y) c + (1 - c(a-1)/(a-b)) (Yt d + (1-Yt) e)

    and Z interpolates linearly (0, Z_0) -> (1/2, 1) -> (1, Z_1). The
    parameter constraints make three of the four paths strictly monotone
    and the fourth strictly convex.
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    def violations(self) -> list[str]:
        out = []
        for name in ("a", "b", "c", "d", "e"):
            if not getattr(self, name) > 0.0:
                out.append(f"{name} > 0 violated")
        if out:
            return out
        a, b, c, d, e = self.a, self.b, self.c, self.d, self.e
        if not 1.0 < a:
            out.append("1 < a violated")
        if not b < 1.0:
            out.append("b < 1 violated")
        if not 1.0 < c:
            out.append("1 < c violated")
        if 1.0 < a and not c < (a - b) / (a - 1.0):
            out.append("c < (a-b)/(a-1) violated")
        if not out:
            if not (a - b) / (a - b - c * (a - 1.0)) < d:
                out.append("(a-b)/(a-b-c(a-1)) < d violated")
        if not e < 1.0:
            out.append("e < 1 violated")
        return out

    @property
    def p(self) -> float:
        return (1.0 - self.b) / (self.a - self.b)

    @property
    def p_tilde(self) -> float:
        return (1.0 - self.e) / (self.d - self.e)

    @property
    def _kappa(self) -> float:
        return 1.0 - self.c * (self.a - 1.0) / (self.a - self.b)

    def _atoms(self) -> list[tuple[float, float, float]]:
        """(probability, Z_0, Z_1) for the four Bernoulli outcomes."""
        out = []
        for y, py in ((1, self.p), (0, 1.0 - self.p)):
            for yt, pyt in ((1, self.p_tilde), (0, 1.0 - self.p_tilde)):
                z0 = self.a if y else self.b
                z1 = (0.0 if y else self.c) + self._kappa * (
                    self.d if yt else self.e
                )
                out.append((py * pyt, z0, z1))
        return out


#: Constraint-satisfying defaults: p = 1/3, p_tilde = 1/13.
NONLINEAR_DEFAULTS = dict(a=2.0, b=0.5, c=1.25, d=7.0, e=0.5)


@dataclass(frozen=True)
class TwoBranch:
    """Z = 2(1-t) or Z = 2t, a fair coin per path.

    Derived, not sampled from any closed-form recipe: its D-norm
    sup|f|(1-t) + sup|f|t reproduces the two-spike max-stable process
    eta_t = max(eta_0/(1-t), eta_1/t), which has generator constant 2.
    The equivalence is validated distributionally by the verification
    suite, not assumed.
    """


@dataclass(frozen=True)
class SineBump:
    """Z = 1 + sin(2*pi*t) W, W uniform on [-amp/2, amp/2].

    The half-width amp/2 makes E sup Z = 1 + amp/4 and
    E max(W, 0) = amp/8; ``amp`` in (0, 1) keeps Z strictly positive.
    """

    amp: float

    def violations(self) -> list[str]:
        if not 0.0 < self.amp < 1.0:
            return ["0 < amp < 1 violated"]
        return []


GeneratorSpec = Union[
    CompleteDependence, PiecewiseExample, NonlinearExample, TwoBranch, SineBump
]

#: Uniform deviates consumed per sampled path, by variant.
UNIFORMS_PER_PATH: dict[type, int] = {
    CompleteDependence: 0,
    PiecewiseExample: 2,  # u0 -> Z_0, u1 -> Z_1
    NonlinearExample: 2,  # u0 -> Y, u1 -> Yt
    TwoBranch: 1,  # u0 < 1/2 picks the 2(1-t) branch
    SineBump: 1,  # W = (amp/2)(2 u0 - 1)
}


def validate_spec(spec: GeneratorSpec) -> None:
    """Raise ``InvalidSpecError`` listing every violated constraint."""
    if not isinstance(spec, GeneratorSpec.__args__):
        raise InvalidSpecError([f"unknown generator type {type(spec).__name__}"])
    if isinstance(spec, (CompleteDependence, TwoBranch)):
        return
    violations = spec.violations()
    if violations:
        raise InvalidSpecError(violations)


def atom_index(spec: GeneratorSpec, uniforms: np.ndarray) -> np.ndarray | None:
    """The shape each uniform row selects, as a row index of ``shape_table``.

    ``uniforms`` has shape (count, UNIFORMS_PER_PATH[variant]). SineBump
    has no shapes and gives None.
    """
    if isinstance(spec, CompleteDependence):
        return np.zeros(uniforms.shape[0], dtype=np.intp)
    if isinstance(spec, PiecewiseExample):
        high = uniforms >= spec.n / (spec.n + 1.0)
        return 2 * high[:, 0] + high[:, 1]
    if isinstance(spec, NonlinearExample):
        return 2 * (uniforms[:, 0] >= spec.p) + (uniforms[:, 1] >= spec.p_tilde)
    if isinstance(spec, TwoBranch):
        return (uniforms[:, 0] >= 0.5).astype(np.intp)
    if isinstance(spec, SineBump):
        return None
    raise InvalidSpecError([f"unknown generator type {type(spec).__name__}"])


def shape_table(spec: GeneratorSpec, grid_points: np.ndarray) -> np.ndarray | None:
    """The K fixed path shapes on the grid; shape (K, len(grid_points)).

    Row k is the path of every uniform row with ``atom_index`` k. SineBump
    has no shapes and gives None.
    """
    t = np.asarray(grid_points, dtype=float)
    if isinstance(spec, CompleteDependence):
        return np.ones((1, t.size))
    if isinstance(spec, PiecewiseExample):
        n, a, b = spec.n, spec.a, spec.b
        levels = np.array([1.0 / n, float(n)])
        z0, z1 = np.repeat(levels, 2), np.tile(levels, 2)
        left = t < a
        right = t > b
        c0 = np.where(left, (a - t) / a, 0.0)
        c1 = np.where(right, (t - b) / (1.0 - b), 0.0)
        const = np.where(left, t / a, np.where(right, (1.0 - t) / (1.0 - b), 1.0))
        return z0[:, None] * c0 + z1[:, None] * c1 + const
    if isinstance(spec, NonlinearExample):
        _, z0, z1 = np.array(spec._atoms()).T
        left = t <= 0.5
        c0 = np.where(left, 1.0 - 2.0 * t, 0.0)
        c1 = np.where(left, 0.0, 2.0 * t - 1.0)
        const = np.where(left, 2.0 * t, 2.0 * (1.0 - t))
        return z0[:, None] * c0 + z1[:, None] * c1 + const
    if isinstance(spec, TwoBranch):
        return np.stack([2.0 * (1.0 - t), 2.0 * t])
    if isinstance(spec, SineBump):
        return None
    raise InvalidSpecError([f"unknown generator type {type(spec).__name__}"])


def sample_paths(
    spec: GeneratorSpec, grid_points: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Build generator paths from uniforms; shape (count, len(grid_points)).

    ``uniforms`` must have shape (count, UNIFORMS_PER_PATH[variant]). This
    is the deterministic core of the sampler: equal uniforms give equal
    paths on every platform.
    """
    t = np.asarray(grid_points, dtype=float)
    table = shape_table(spec, t)
    if table is not None:
        return table[atom_index(spec, uniforms)]
    w = (spec.amp / 2.0) * (2.0 * uniforms[:, 0] - 1.0)
    z = w[:, None] * np.sin(2.0 * np.pi * t)
    z += 1.0
    return z


def _sample_block(
    spec: GeneratorSpec, grid_points: np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Sample ``count`` paths, consuming one (count, k) uniform block."""
    k = UNIFORMS_PER_PATH[type(spec)]
    u = rng.random((count, k)) if k else np.empty((count, 0))
    return sample_paths(spec, grid_points, u)


def sample_generator(
    spec: GeneratorSpec, grid: TimeGrid, stream: np.random.Generator
) -> SamplePath:
    """One realization of Z on the grid."""
    validate_spec(spec)
    values = _sample_block(spec, grid.points, stream, 1)[0]
    return SamplePath(grid, values)


def generator_blocks(
    spec: GeneratorSpec, grid: TimeGrid, n: int, seed: Seed
) -> Iterator[np.ndarray]:
    """Stream blocks of generator paths as (block, len(grid)) arrays.

    Block ``b`` draws from child stream ``b`` of ``seed``, so the
    concatenation over blocks is a deterministic function of (seed, n, grid).
    """
    validate_spec(spec)
    for count, rng in block_streams(seed, n):
        yield _sample_block(spec, grid.points, rng, count)


def generator_corpus(
    spec: GeneratorSpec, grid: TimeGrid, n: int, seed: Seed
) -> np.ndarray:
    """Materialize ``n`` paths as an (n, len(grid)) array.

    Identical draws to the streaming estimators for the same seed; intended
    for shared-draw property checks at moderate n.
    """
    return np.concatenate(list(generator_blocks(spec, grid, n, seed)), axis=0)


@dataclass(frozen=True)
class GeneratorMoments:
    """Monte Carlo estimates of E sup Z (m_hat) and E inf Z (m_tilde_hat)."""

    m_hat: Estimate
    m_tilde_hat: Estimate

    def __post_init__(self):
        if self.m_tilde_hat.value > self.m_hat.value:
            raise ValueError("infimum mean exceeds supremum mean")


def generator_moments(
    spec: GeneratorSpec, grid: TimeGrid, n: int, seed: Seed
) -> GeneratorMoments:
    """Estimate the generator constants m = E sup Z and m~ = E inf Z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = stream_means(
        generator_blocks(spec, grid, n, seed),
        lambda z: z.max(axis=1),
        lambda z: z.min(axis=1),
    )
    return GeneratorMoments(
        m_hat=acc.estimate(0, seed_echo(seed)),
        m_tilde_hat=acc.estimate(1, seed_echo(seed)),
    )


def closed_form_m(spec: GeneratorSpec) -> float | None:
    """Exact generator constant E sup Z where a closed form exists.

    PiecewiseExample: sup Z = max(Z_0, 1, Z_1) = n unless both endpoints
    equal 1/n, so m = (3n^2 + n)/(n+1)^2. NonlinearExample: enumerate the
    four (Z_0, Z_1) atoms. SineBump: sup Z = 1 + |W|, m = 1 + amp/4.
    """
    if isinstance(spec, CompleteDependence):
        return 1.0
    if isinstance(spec, PiecewiseExample):
        n = spec.n
        return (3.0 * n * n + n) / ((n + 1.0) ** 2)
    if isinstance(spec, NonlinearExample):
        return sum(w * max(z0, 1.0, z1) for w, z0, z1 in spec._atoms())
    if isinstance(spec, TwoBranch):
        return 2.0
    if isinstance(spec, SineBump):
        return 1.0 + spec.amp / 4.0
    return None


def closed_form_m_tilde(spec: GeneratorSpec) -> float | None:
    """Exact E inf Z where derivable (same case analysis as closed_form_m).

    PiecewiseExample: inf Z = min(Z_0, 1, Z_1) = 1/n unless both endpoints
    equal n, giving (n+3)/(n+1)^2. TwoBranch paths vanish at an endpoint,
    so the infimum mean is 0.
    """
    if isinstance(spec, CompleteDependence):
        return 1.0
    if isinstance(spec, PiecewiseExample):
        n = spec.n
        return (n + 3.0) / ((n + 1.0) ** 2)
    if isinstance(spec, NonlinearExample):
        return sum(w * min(z0, 1.0, z1) for w, z0, z1 in spec._atoms())
    if isinstance(spec, TwoBranch):
        return 0.0
    if isinstance(spec, SineBump):
        return 1.0 - spec.amp / 4.0
    return None


def sup_equals_max_rate(
    spec: GeneratorSpec,
    interval: Interval,
    grid: TimeGrid,
    n: int,
    seed: Seed,
    tol: float = SUP_EQ_TOL,
) -> Estimate:
    """P(sup of Z over the interval equals the max of its two endpoint values).

    Equality is tested to ``tol``; the Wilson/rule-of-three CI comes from
    the observed frequency.
    """
    sl = grid.slice_of(interval)

    def sup_at_endpoint(z: np.ndarray) -> np.ndarray:
        zi = z[:, sl]
        return np.abs(zi.max(axis=1) - np.maximum(zi[:, 0], zi[:, -1])) <= tol

    (successes,) = count_events(generator_blocks(spec, grid, n, seed), sup_at_endpoint)
    return binomial_estimate(int(successes), n, seed_echo(seed))


# --- JSON interchange ------------------------------------------------------

_VARIANT_TAGS: dict[str, type] = {
    "complete_dependence": CompleteDependence,
    "piecewise_example": PiecewiseExample,
    "nonlinear_example": NonlinearExample,
    "two_branch": TwoBranch,
    "sine_bump": SineBump,
}
_TAG_BY_TYPE = {cls: tag for tag, cls in _VARIANT_TAGS.items()}


def generator_to_json(spec: GeneratorSpec) -> dict:
    """{"variant": <tag>, "params": {...}} document for a spec."""
    params = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return {"variant": _TAG_BY_TYPE[type(spec)], "params": params}


def generator_from_json(doc: dict) -> GeneratorSpec:
    """Parse and validate a generator document."""
    if not isinstance(doc, dict) or "variant" not in doc:
        raise InvalidSpecError(['generator document needs a "variant" field'])
    tag = doc["variant"]
    cls = _VARIANT_TAGS.get(tag)
    if cls is None:
        raise InvalidSpecError(
            [f"unknown variant {tag!r}; expected one of {sorted(_VARIANT_TAGS)}"]
        )
    params = doc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise InvalidSpecError(['"params" must be an object'])
    field_names = {f.name for f in fields(cls)}
    unknown = sorted(set(params) - field_names)
    if unknown:
        raise InvalidSpecError([f"unknown parameter {p!r} for {tag}" for p in unknown])
    missing = sorted(field_names - set(params))
    if missing:
        raise InvalidSpecError([f"missing parameter {p!r} for {tag}" for p in missing])
    try:
        if cls is PiecewiseExample:
            spec = cls(
                n=int(params["n"]), a=float(params["a"]), b=float(params["b"])
            )
        else:
            spec = cls(**{k: float(v) for k, v in params.items()})
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError([f"bad parameters for {tag}: {exc}"]) from exc
    validate_spec(spec)
    return spec
