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

A spec is valid from the moment it exists, built in Python or from a
document: its constructor stores each number as its field's type, then
raises ``InvalidSpecError`` listing every mistyped parameter, or else
every violated constraint, so no library function checks it again.

Atom tables: every generator but SineBump is a finite mixture of K fixed
piecewise-linear shapes z_k, and ``spec.atoms()`` describes it as data
(``Atoms``): the knot times, each shape's values at the knots, and one
threshold theta_j per uniform. The path draws uniforms u_0, u_1, ...;
shape k is the binary number whose digits, first uniform leading, are
[u_j >= theta_j], so p_k is a product of theta_j and 1 - theta_j. The
uniform count, ``atom_index``, the shape rows of ``path_basis``, the
closed forms of m = E sup Z and m~ = E inf Z, E max over a finite set of
times (``expected_max``), and the a.s. bound ``generator_bound`` all
follow from that table. SineBump, a continuous mixture, has no table
(``atoms()`` is None); its constants and its path build each sit in one
place below.

Paths on a grid are built from the spec's ``path_basis``: the shape table
of an atom generator, SineBump's row sin(2 pi t), over a ``TimeGrid``
(``expected_max`` makes one from its times), so no basis is built from
unchecked times. It depends on (spec, grid) alone, so a sampling call
computes it once. ``sample_paths`` builds rows from it and
``path_maxima`` gives their maxima without building them.

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
distinct rows, so ``shape_blocks`` streams each block as a
``paths.RowExtremes`` of the K-row shape table and the atom index. A row
max, min or comparison of an elementwise product with a fixed vector is
evaluated on the K rows and gathered: the products are the same floats
and a max or min does not round, so the per-path values equal those of
the built block bit for bit. SineBump blocks are built in full.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Union

import numpy as np

from .errors import InvalidSpecError
from .paths import RowExtremes, TimeGrid
from .streams import Seed, block_streams

def _store_numbers(spec) -> None:
    """Store each field as the finite number of its type (int or float)
    equal to the value passed and held exactly by a float, or raise
    ``InvalidSpecError`` naming every field with none (not its value: the
    repr of a huge int fails)."""
    bad = []
    for f in fields(spec):
        value, kind = getattr(spec, f.name), int if f.type == "int" else float
        ok = isinstance(value, Real) and not isinstance(value, bool)
        if ok:
            # a Python int meets a float exactly, a numpy int in float64
            value = int(value) if isinstance(value, Integral) else value
            try:
                number = kind(value)
                ok = number == value == float(number) and math.isfinite(number)
            except (OverflowError, ValueError):  # int(nan), float(10**400)
                ok = False
        if ok:
            object.__setattr__(spec, f.name, number)
        else:
            what = "a whole number" if kind is int else "a finite float"
            bad.append(f"{f.name!r} must be {what}")
    if bad:
        raise InvalidSpecError(bad)


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

    def __post_init__(self):
        _store_numbers(self)
        out = []
        if not self.n >= 1:
            out.append("integer n >= 1 violated")
        if not 0.0 < self.a:
            out.append("0 < a violated")
        if not self.a < self.b:
            out.append("a < b violated")
        if not self.b < 1.0:
            out.append("b < 1 violated")
        if out:
            raise InvalidSpecError(out)

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

    def __post_init__(self):
        _store_numbers(self)
        out = [f"{name} > 0 violated" for name in ("a", "b", "c", "d", "e")
               if not getattr(self, name) > 0.0]
        if out:
            raise InvalidSpecError(out)
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
            # positive in exact arithmetic; a rounded 0 puts d's bound at inf
            gap = a - b - c * (a - 1.0)
            if not (gap > 0.0 and (a - b) / gap < d):
                out.append("(a-b)/(a-b-c(a-1)) < d violated")
        if not e < 1.0:
            out.append("e < 1 violated")
        if out:
            raise InvalidSpecError(out)

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

    def __post_init__(self):
        _store_numbers(self)
        if not 0.0 < self.amp < 1.0:
            raise InvalidSpecError(["0 < amp < 1 violated"])

    def atoms(self) -> None:
        """None: W is continuous, so there is no finite atom table."""
        return None


GeneratorSpec = Union[
    CompleteDependence, PiecewiseExample, NonlinearExample, TwoBranch, SineBump
]


def generator_bound(spec: GeneratorSpec) -> float:
    """A constant C with sup Z <= C almost surely.

    An atom generator's largest knot value (a polyline peaks at a knot).
    Looser is slower but still exact; SineBump uses 1 + amp even though
    1 + amp/2 would do.
    """
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
    """The shape each uniform row selects, as a row index of ``path_basis``.

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


def path_basis(spec: GeneratorSpec, grid: TimeGrid) -> np.ndarray:
    """The read-only grid rows every path of the spec is built from.

    SineBump's basis is the one row sin(2 pi t) that each path scales by W.
    An atom spec's basis is its shape table: the K fixed path shapes, of
    shape (K, len(grid)), row k being the path of every uniform row with
    ``atom_index`` k. Between knots s < s' the value is
    z(s) (s' - t)/(s' - s) + z(s') (t - s)/(s' - s), which equals z at
    either knot; a flat segment gives its value exactly. The grid's times
    increase and lie in [0, 1], so each falls in one knot segment.

    The basis depends on (spec, grid) alone, so a sampling call computes it
    once and hands it to ``sample_paths`` and ``path_maxima`` for every
    block.
    """
    t = grid.points
    atoms = spec.atoms()
    if atoms is None:
        basis = np.sin(2.0 * np.pi * t)[None, :]
    else:
        knots, values = atoms.knots, np.asarray(atoms.values)
        basis = np.empty((values.shape[0], t.size))
        cuts = [0, *np.searchsorted(t, knots[1:-1]), t.size]
        for s in range(len(knots) - 1):
            cols = slice(cuts[s], cuts[s + 1])
            lo, hi = knots[s], knots[s + 1]
            z_lo, z_hi = values[:, s], values[:, s + 1]
            ts = t[cols]
            flat = z_lo == z_hi
            if not flat.all():
                basis[:, cols] = z_lo[:, None] * ((hi - ts) / (hi - lo))
                basis[:, cols] += z_hi[:, None] * ((ts - lo) / (hi - lo))
            basis[flat, cols] = z_lo[flat, None]
    basis.flags.writeable = False
    return basis


def _sine_weights(spec: SineBump, uniforms: np.ndarray) -> np.ndarray:
    """W = (amp/2)(2u - 1) per uniform row."""
    return (spec.amp / 2.0) * (2.0 * uniforms[:, 0] - 1.0)


def sample_paths(
    spec: GeneratorSpec,
    basis: np.ndarray,
    uniforms: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Build generator paths from uniforms; shape (count, len(grid)).

    ``basis`` is ``path_basis(spec, grid)`` and ``uniforms`` comes
    from ``draw_uniforms``. An atom path is its shape's basis row; a
    SineBump path is fl(1 + fl(W sin 2 pi t)). This is the deterministic
    core of the sampler: equal uniforms give equal paths on every
    platform, and ``path_maxima`` gives each path's maximum without
    building it.

    ``out``, a float array of the result's shape, receives the paths in
    place of a new array and is returned; the values are the same bits.
    """
    index = atom_index(spec, uniforms)
    if index is not None:
        # the index is in range by construction; mode="raise" would copy
        return np.take(basis, index, axis=0, out=out, mode="clip")
    z = np.multiply(_sine_weights(spec, uniforms)[:, None], basis[0], out=out)
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
) -> Iterator[RowExtremes]:
    """Stream blocks of generator paths as ``RowExtremes``.

    An atom generator's block holds its read-only (K, len(grid))
    ``path_basis``, built once per call, and the block's ``atom_index``;
    a SineBump block holds its built (block, len(grid)) rows. Block ``b``
    draws its uniforms from child stream ``b`` of ``seed``, so the paths
    are a deterministic function of (seed, n, grid).
    """
    basis = path_basis(spec, grid)
    for count, rng in block_streams(seed, n):
        u = draw_uniforms(spec, rng, count)
        index = atom_index(spec, u)
        if index is None:
            yield RowExtremes(sample_paths(spec, basis, u))
        else:
            yield RowExtremes(basis, index)


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


def expected_max(spec: GeneratorSpec, times) -> float:
    """Exact E max_{t in T} Z over a finite set of times T; it fixes eta's
    finite-dimensional laws, P(eta <= x on T) = exp(x E max_T Z).

    ``TimeGrid(times)`` refuses a bad T. Atom generators: sum_k p_k
    max_T z_k over the ``path_basis`` rows (on the knots, ``closed_form_m``
    bit for bit). SineBump, s = sin 2 pi t: max_T (1 + s W) is
    1 + W max_T s for W >= 0, else 1 + W min_T s, and E max(W, 0) = amp/8.
    """
    rows = path_basis(spec, TimeGrid(times))
    atoms = spec.atoms()
    if atoms is None:
        return 1.0 + spec.amp / 8.0 * float(rows.max() - rows.min())
    return sum(p * float(z.max()) for p, z in zip(atoms.probabilities, rows))


# --- JSON interchange ------------------------------------------------------

_VARIANT_TAGS: dict[str, type] = {
    "complete_dependence": CompleteDependence,
    "piecewise_example": PiecewiseExample,
    "nonlinear_example": NonlinearExample,
    "two_branch": TwoBranch,
    "sine_bump": SineBump,
}


def generator_from_json(doc: dict) -> GeneratorSpec:
    """The spec a generator document describes; its constructor refuses
    mistyped parameters and those that violate the variant's constraints."""
    if not isinstance(doc, dict) or "variant" not in doc:
        raise InvalidSpecError(['generator document needs a "variant" field'])
    tag = doc["variant"]
    cls = _VARIANT_TAGS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise InvalidSpecError(
            [f"unknown variant {tag!r}; expected one of {sorted(_VARIANT_TAGS)}"]
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise InvalidSpecError(['"params" must be an object'])
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(params) - names)
    if unknown:
        raise InvalidSpecError([f"unknown parameter {p!r} for {tag}" for p in unknown])
    missing = sorted(names - set(params))
    if missing:
        raise InvalidSpecError([f"missing parameter {p!r} for {tag}" for p in missing])
    return cls(**params)
