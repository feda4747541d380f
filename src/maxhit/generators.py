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

Atom tables: every generator but SineBump is a finite mixture of K fixed
piecewise-linear shapes z_k, and ``spec.atoms()`` describes it as data
(``Atoms``): the knot times, each shape's values at the knots, and one
threshold theta_j per uniform. The path draws uniforms u_0, u_1, ...;
shape k is the binary number whose digits, first uniform leading, are
[u_j >= theta_j], so p_k is a product of theta_j and 1 - theta_j. The
uniform count, ``atom_index``, ``shape_table``, the closed forms of
m = E sup Z and m~ = E inf Z, and the a.s. bound ``generator_bound`` all
follow from that table. SineBump, a continuous mixture, has no table
(``atoms()`` is None); its three constants and its path build each sit in
one place below.

Paths on a grid are built from the spec's ``path_basis``: the shape table
of an atom generator, SineBump's row sin(2 pi t). It depends on (spec,
grid) alone, so a sampling call computes it once. ``sample_paths`` builds
rows from it and ``path_maxima`` gives their maxima without building them.

======================  ==  ================================================
CompleteDependence       1  the constant 1; no uniform
TwoBranch                2  2(1-t), drawn when u0 < 1/2, and 2t
PiecewiseExample         4  (Z_0, Z_1) in (1/n, 1/n), (1/n, n), (n, 1/n),
                            (n, n); u < n/(n+1) draws 1/n
NonlinearExample         4  the (Y, Yt) outcomes (1, 1), (1, 0), (0, 1),
                            (0, 0); u0 < p draws Y = 1, u1 < pt Yt = 1
======================  ==  ================================================

Draw layout (fixed; regression tests rely on it): a path consumes one
uniform per threshold of its atom table (SineBump: one, for W), in
threshold order. Batched sampling draws the ``(count, k)`` uniform block
row-major (``draw_uniforms``), so replica ``i`` of a block owns row ``i``.

Shape blocks: an atom generator's block of paths repeats at most K
distinct rows, so ``shape_blocks`` streams each block as ``(rows,
index)``, the K-row shape table and the block's atom index, and
``generator_blocks`` is ``rows[index]`` of that one stream. Estimators
whose statistic is a row max, min or comparison of an elementwise product
with a fixed vector evaluate it on the K rows and gather by index
(``estimates.per_path``): the products are the same floats and a max or
min does not round, so the per-path values, and the sums over them, equal
those of the materialized block bit for bit. SineBump blocks are built in
full, with index ``slice(None)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import Union, get_type_hints

import numpy as np

from .errors import InvalidSpecError
from .estimates import Estimate, binomial_estimate, count_events, per_path, stream_means
from .paths import Interval, TimeGrid
from .streams import Seed, block_streams

#: Tolerance for "supremum equals endpoint maximum" equality tests. Linear
#: interpolation is evaluated pointwise, so interior grid values of a
#: monotone segment can overshoot the endpoint by a few ulps.
SUP_EQ_TOL = 1e-12


@dataclass(frozen=True)
class Atoms:
    """A generator's law as K piecewise-linear shapes with probabilities.

    Shape k takes ``values[k][i]`` at ``knots[i]`` (0 = first < ... <
    last = 1) and interpolates linearly between knots. ``thresholds``
    holds one theta_j per uniform; see the module docstring for the index.
    """

    knots: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    thresholds: tuple[float, ...]

    @property
    def probabilities(self) -> list[float]:
        """p_k in shape order: theta_j for digit 0, 1 - theta_j for 1."""
        p = [1.0]
        for theta in self.thresholds:
            p = [q * r for q in p for r in (theta, 1.0 - theta)]
        return p

    def mean(self, stat) -> float:
        """Sum of p_k stat(knot values of shape k), in shape order."""
        return sum(p * stat(z) for p, z in zip(self.probabilities, self.values))


@dataclass(frozen=True)
class CompleteDependence:
    """Constant generator: the completely dependent max-stable process."""

    def atoms(self) -> Atoms:
        return Atoms(knots=(0.0, 1.0), values=((1.0, 1.0),), thresholds=())


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
        # bool subclasses int, but True is not a valid n
        if not (isinstance(self.n, int) and not isinstance(self.n, bool)
                and self.n >= 1):
            out.append("integer n >= 1 violated")
        if not 0.0 < self.a:
            out.append("0 < a violated")
        if not self.a < self.b:
            out.append("a < b violated")
        if not self.b < 1.0:
            out.append("b < 1 violated")
        return out

    def atoms(self) -> Atoms:
        levels = (1.0 / self.n, float(self.n))
        theta = self.n / (self.n + 1.0)
        return Atoms(
            knots=(0.0, self.a, self.b, 1.0),
            values=tuple((z0, 1.0, 1.0, z1) for z0 in levels for z1 in levels),
            thresholds=(theta, theta),
        )


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

    def atoms(self) -> Atoms:
        kappa = 1.0 - self.c * (self.a - 1.0) / (self.a - self.b)
        return Atoms(
            knots=(0.0, 0.5, 1.0),
            values=tuple(
                (z0, 1.0, shift + kappa * tail)
                for z0, shift in ((self.a, 0.0), (self.b, self.c))
                for tail in (self.d, self.e)
            ),
            thresholds=(self.p, self.p_tilde),
        )


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

    def atoms(self) -> Atoms:
        return Atoms(
            knots=(0.0, 1.0), values=((2.0, 0.0), (0.0, 2.0)), thresholds=(0.5,)
        )


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

    def atoms(self) -> None:
        """None: W is continuous, so there is no finite atom table."""
        return None


GeneratorSpec = Union[
    CompleteDependence, PiecewiseExample, NonlinearExample, TwoBranch, SineBump
]


def validate_spec(spec: GeneratorSpec) -> None:
    """Raise ``InvalidSpecError`` listing every violated constraint."""
    if not isinstance(spec, GeneratorSpec.__args__):
        raise InvalidSpecError([f"unknown generator type {type(spec).__name__}"])
    if isinstance(spec, (CompleteDependence, TwoBranch)):
        return
    violations = spec.violations()
    if violations:
        raise InvalidSpecError(violations)


def generator_bound(spec: GeneratorSpec) -> float:
    """A constant C with sup Z <= C almost surely.

    An atom generator's largest knot value (a polyline peaks at a knot).
    Looser is slower but still exact; SineBump uses 1 + amp even though
    1 + amp/2 would do.
    """
    validate_spec(spec)
    atoms = spec.atoms()
    if atoms is None:
        return 1.0 + spec.amp
    return max(max(z) for z in atoms.values)


def draw_uniforms(
    spec: GeneratorSpec, rng: np.random.Generator, count: int
) -> np.ndarray:
    """The (count, k) uniform block of ``count`` paths, drawn row-major.

    k is the number of atom thresholds; SineBump draws one uniform, for W.
    """
    atoms = spec.atoms()
    k = 1 if atoms is None else len(atoms.thresholds)
    return rng.random((count, k)) if k else np.empty((count, 0))


def atom_index(spec: GeneratorSpec, uniforms: np.ndarray) -> np.ndarray | None:
    """The shape each uniform row selects, as a row index of ``shape_table``.

    ``uniforms`` comes from ``draw_uniforms``. SineBump has no shapes and
    gives None.
    """
    atoms = spec.atoms()
    if atoms is None:
        return None
    k = np.zeros(uniforms.shape[0], dtype=np.intp)
    for j, theta in enumerate(atoms.thresholds):
        k = 2 * k + (uniforms[:, j] >= theta)
    return k


def shape_table(spec: GeneratorSpec, grid_points: np.ndarray) -> np.ndarray | None:
    """The K fixed path shapes on the grid; shape (K, len(grid_points)).

    ``grid_points`` must increase, as those of every ``TimeGrid`` and
    ``SubGrid`` do. Row k is the path of every uniform row with
    ``atom_index`` k. Between knots s < s' the value is
    z(s) (s' - t)/(s' - s) + z(s') (t - s)/(s' - s), which equals z at
    either knot; a flat segment gives its value exactly. SineBump has no
    shapes and gives None.
    """
    atoms = spec.atoms()
    if atoms is None:
        return None
    t = np.asarray(grid_points, dtype=float)
    knots, values = atoms.knots, np.asarray(atoms.values)
    out = np.empty((values.shape[0], t.size))
    cuts = [0, *np.searchsorted(t, knots[1:-1]), t.size]
    for s in range(len(knots) - 1):
        cols = slice(cuts[s], cuts[s + 1])
        lo, hi = knots[s], knots[s + 1]
        z_lo, z_hi = values[:, s], values[:, s + 1]
        ts = t[cols]
        flat = z_lo == z_hi
        if not flat.all():
            out[:, cols] = z_lo[:, None] * ((hi - ts) / (hi - lo))
            out[:, cols] += z_hi[:, None] * ((ts - lo) / (hi - lo))
        out[flat, cols] = z_lo[flat, None]
    return out


def path_basis(spec: GeneratorSpec, grid_points: np.ndarray) -> np.ndarray:
    """The read-only grid rows every path of the spec is built from.

    An atom spec's basis is its (K, len(grid_points)) ``shape_table``;
    SineBump's is the one row sin(2 pi t) that each path scales by W. It
    depends on (spec, grid) alone, so a sampling call computes it once and
    hands it to ``sample_paths`` and ``path_maxima`` for every block.
    """
    t = np.asarray(grid_points, dtype=float)
    basis = shape_table(spec, t)
    if basis is None:
        basis = np.sin(2.0 * np.pi * t)[None, :]
    basis.flags.writeable = False
    return basis


def _sine_weights(spec: SineBump, uniforms: np.ndarray) -> np.ndarray:
    """W = (amp/2)(2u - 1) per uniform row."""
    return (spec.amp / 2.0) * (2.0 * uniforms[:, 0] - 1.0)


def sample_paths(
    spec: GeneratorSpec, basis: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Build generator paths from uniforms; shape (count, len(grid)).

    ``basis`` is ``path_basis(spec, grid_points)`` and ``uniforms`` comes
    from ``draw_uniforms``. An atom path is its shape's basis row; a
    SineBump path is fl(1 + fl(W sin 2 pi t)). This is the deterministic
    core of the sampler: equal uniforms give equal paths on every
    platform, and ``path_maxima`` gives each path's maximum without
    building it.
    """
    index = atom_index(spec, uniforms)
    if index is not None:
        return basis[index]
    z = _sine_weights(spec, uniforms)[:, None] * basis[0]
    z += 1.0
    return z


def path_maxima(
    spec: GeneratorSpec, basis: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """The largest grid value of each path, without building the paths.

    Equal bit for bit to ``sample_paths(spec, basis, uniforms).max(axis=1)``.
    An atom path's maximum is the maximum of its shape's row. A SineBump
    value fl(1 + fl(W s)) is monotone in s under round-to-nearest,
    nondecreasing for W >= 0 and nonincreasing for W < 0, so the path peaks
    where s = sin 2 pi t, read from the same basis row, is largest (W >= 0)
    or smallest (W < 0).
    """
    index = atom_index(spec, uniforms)
    if index is not None:
        return basis.max(axis=1)[index]
    s = basis[0]
    w = _sine_weights(spec, uniforms)
    peak = w * np.where(w >= 0.0, s.max(), s.min())
    peak += 1.0
    return peak


def shape_blocks(
    spec: GeneratorSpec, grid: TimeGrid, n: int, seed: Seed
) -> Iterator[tuple[np.ndarray, np.ndarray | slice]]:
    """Stream blocks of generator paths as ``(rows, index)``; the block's
    paths are ``rows[index]``.

    An atom generator's ``rows`` is its read-only (K, len(grid))
    ``shape_table``, built once per call, and ``index`` is the block's
    ``atom_index``; SineBump's ``rows`` is the built (block, len(grid))
    array and ``index`` is ``slice(None)``. Each block draws the same
    uniforms from the same child stream as ``generator_blocks``, which is
    ``rows[index]`` of these blocks.

    A row-wise statistic (each output row a function of its input row
    alone, such as a row max or min of ``z * v`` for a fixed vector v, or
    a comparison of such values) may be evaluated on ``rows`` and gathered
    by ``index``: ``stat(rows)[index]`` equals ``stat(rows[index])`` bit for
    bit, because the elementwise products are the same floats and a max or
    min does not round. ``estimates.per_path`` does that gather.
    """
    validate_spec(spec)
    basis = path_basis(spec, grid.points)
    for count, rng in block_streams(seed, n):
        u = draw_uniforms(spec, rng, count)
        index = atom_index(spec, u)
        if index is None:
            yield sample_paths(spec, basis, u), slice(None)
        else:
            yield basis, index


def generator_blocks(
    spec: GeneratorSpec, grid: TimeGrid, n: int, seed: Seed
) -> Iterator[np.ndarray]:
    """Stream blocks of generator paths as (block, len(grid)) arrays.

    Block ``b`` draws from child stream ``b`` of ``seed``, so the
    concatenation over blocks is a deterministic function of (seed, n, grid).
    Each block is ``rows[index]`` of the matching ``shape_blocks`` block.
    """
    for rows, index in shape_blocks(spec, grid, n, seed):
        yield rows[index]


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
    acc = stream_means(
        shape_blocks(spec, grid, n, seed),
        per_path(lambda z: z.max(axis=1)),
        per_path(lambda z: z.min(axis=1)),
    )
    return GeneratorMoments(
        m_hat=acc.estimate(0),
        m_tilde_hat=acc.estimate(1),
    )


def closed_form_m(spec: GeneratorSpec) -> float:
    """Exact generator constant m = E sup Z.

    An atom generator's shapes peak at a knot, so m = sum_k p_k max z_k.
    For PiecewiseExample that is the paper's (3n^2 + n)/(n+1)^2, exactly
    14/9 at n = 2; at other n it is the mean under the sampled threshold
    fl(n/(n+1)), within a few ulps of the formula. SineBump:
    sup Z = 1 + |W|, so m = 1 + amp/4.
    """
    atoms = spec.atoms()
    if atoms is None:
        return 1.0 + spec.amp / 4.0
    return atoms.mean(max)


def closed_form_m_tilde(spec: GeneratorSpec) -> float:
    """Exact m~ = E inf Z: sum_k p_k min z_k, as in ``closed_form_m``.

    PiecewiseExample gives (n+3)/(n+1)^2; TwoBranch paths vanish at an
    endpoint, so m~ = 0. SineBump: inf Z = 1 - |W|, so m~ = 1 - amp/4.
    """
    atoms = spec.atoms()
    if atoms is None:
        return 1.0 - spec.amp / 4.0
    return atoms.mean(min)


def sup_equals_max_rate(
    spec: GeneratorSpec, interval: Interval, grid: TimeGrid, n: int, seed: Seed
) -> Estimate:
    """P(sup of Z over the interval equals the max of its two endpoint values).

    Equality is tested to ``SUP_EQ_TOL``; the Wilson/rule-of-three CI comes
    from the observed frequency.
    """
    sl = grid.slice_of(interval)

    def sup_at_endpoint(z: np.ndarray) -> np.ndarray:
        zi = z[:, sl]
        gap = zi.max(axis=1) - np.maximum(zi[:, 0], zi[:, -1])
        return np.abs(gap) <= SUP_EQ_TOL

    (successes,) = count_events(
        shape_blocks(spec, grid, n, seed), per_path(sup_at_endpoint)
    )
    return binomial_estimate(int(successes), n)


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
    cls = _VARIANT_TAGS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise InvalidSpecError(
            [f"unknown variant {tag!r}; expected one of {sorted(_VARIANT_TAGS)}"]
        )
    params = doc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise InvalidSpecError(['"params" must be an object'])
    types = get_type_hints(cls)
    unknown = sorted(set(params) - set(types))
    if unknown:
        raise InvalidSpecError([f"unknown parameter {p!r} for {tag}" for p in unknown])
    missing = sorted(set(types) - set(params))
    if missing:
        raise InvalidSpecError([f"missing parameter {p!r} for {tag}" for p in missing])
    spec = cls(**{k: _coerce(tag, k, v, types[k]) for k, v in params.items()})
    validate_spec(spec)
    return spec


def _coerce(tag: str, name: str, value, kind: type) -> float | int:
    """A JSON number as the field's type, held exactly and finite."""
    exact = False
    if type(value) in (int, float):
        try:
            number = kind(value)
            exact = number == value and math.isfinite(number)
        except (OverflowError, ValueError):
            pass
    if not exact:
        what = "a whole number" if kind is int else "a finite float"
        raise InvalidSpecError([f"{tag} parameter {name!r} must be {what}, got {value!r}"])
    return number
