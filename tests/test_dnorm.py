import math

import numpy as np
import pytest

from conftest import CATALOGUE
from maxhit import (
    CompleteDependence,
    Estimate,
    Interval,
    InvalidArgumentError,
    LevelFunction,
    PiecewiseExample,
    SineBump,
    TimeGrid,
    TwoBranch,
    dnorm_estimates,
    final_example_two_hit,
    make_grid,
)
from maxhit.estimates import Z95, EventCounts, StatMeans, reduce_blocks
from maxhit.generators import draw_uniforms, path_basis, sample_paths, shape_blocks
from maxhit.streams import block_streams
from maxhit.verify import SUP_EQ_TOL, _sup_at_endpoint, _sup_means, ks_band

_G11 = make_grid(11)
_REFUSALS = {
    "level-positive": lambda: LevelFunction(_G11, np.full(11, 0.5)),
    "level-zero": lambda: LevelFunction(_G11, np.zeros(11)),
    "level-length": lambda: LevelFunction(_G11, np.full(3, -1.0)),
    "level-nan": lambda: LevelFunction(_G11, np.r_[-1.0, np.full(10, np.nan)]),
    "common-grid": lambda: LevelFunction.common_grid(
        [LevelFunction.constant(_G11, -1.0), LevelFunction.constant(make_grid(5), -1.0)]
    ),
    "breakpoints-few": lambda: LevelFunction.piecewise_linear(_G11, [0.0], [-1.0]),
    "breakpoints-order": lambda: LevelFunction.piecewise_linear(
        _G11, [0.0, 0.5, 0.5, 1.0], [-1.0] * 4
    ),
    "breakpoints-span": lambda: LevelFunction.piecewise_linear(
        _G11, [0.0, 0.9], [-1.0, -1.0]
    ),
    "two-hit-split": lambda: final_example_two_hit(-1.0, 1.0),
    "timegrid-empty": lambda: TimeGrid(np.array([])),  # one point is a grid
    "timegrid-order": lambda: TimeGrid(np.array([0.0, 0.6, 0.4, 1.0])),
    "timegrid-outside-unit": lambda: TimeGrid(np.array([0.0, 1.5])),
    "ks-band-n-0": lambda: ks_band(0),
    "ks-band-n-negative": lambda: ks_band(-4),
}


@pytest.mark.parametrize("refusal", _REFUSALS.values(), ids=_REFUSALS)
def test_argument_refusals_are_argument_errors(refusal):
    with pytest.raises(InvalidArgumentError):
        refusal()


class TestLevelFunction:
    def test_rejects_positive_values(self, grid101):
        with pytest.raises(ValueError, match="nonpositive"):
            LevelFunction(grid101, np.full(101, 0.5))

    def test_rejects_identically_zero(self, grid101):
        with pytest.raises(ValueError, match="strictly negative somewhere"):
            LevelFunction(grid101, np.zeros(101))

    def test_rejects_length_mismatch(self, grid101):
        with pytest.raises(ValueError):
            LevelFunction(grid101, np.full(50, -1.0))

    def test_indicator_step(self):
        grid = make_grid(5)
        f = LevelFunction.indicator_step(
            grid, Interval(0.5, 1.0), inside=-1.0, outside=-0.25
        )
        assert f.values.tolist() == [-0.25, -0.25, -1.0, -1.0, -1.0]

    def test_piecewise_linear(self):
        grid = make_grid(5)
        f = LevelFunction.piecewise_linear(grid, [0.0, 1.0], [-0.5, -1.5])
        assert f.values.tolist() == [-0.5, -0.75, -1.0, -1.25, -1.5]

    def test_piecewise_linear_needs_full_span(self, grid101):
        with pytest.raises(ValueError, match="span"):
            LevelFunction.piecewise_linear(grid101, [0.0, 0.5], [-1.0, -2.0])


class TestDnormEstimate:
    def test_complete_dependence_is_exact(self, grid101):
        f = LevelFunction.constant(grid101, -1.0)
        (est,) = dnorm_estimates(CompleteDependence(), [f], 1000, 30)
        assert est.value == 1.0
        assert est.se == 0.0

    def test_piecewise_reproduces_m(self, grid201):
        f = LevelFunction.constant(grid201, -1.0)
        spec = PiecewiseExample(n=2, a=0.25, b=0.75)
        (est,) = dnorm_estimates(spec, [f], 20_000, 31)
        assert abs(est.value - 14.0 / 9.0) <= 3 * est.se

    def test_two_branch_linear_level(self, grid201):
        # |f| Z peaks at 2 t^2 (sup 2) on the rising branch and at
        # 2 t (1 - t) (sup 1/2) on the falling one; the mean is 5/4
        f = LevelFunction.piecewise_linear(grid201, [0.0, 1.0], [0.0, -1.0])
        (est,) = dnorm_estimates(TwoBranch(), [f], 20_000, 32)
        assert abs(est.value - 1.25) <= 3 * est.se + 1e-3

    def test_requires_two_draws(self, grid101):
        f = LevelFunction.constant(grid101, -1.0)
        with pytest.raises(ValueError):
            dnorm_estimates(TwoBranch(), [f], 1, 33)

    def test_shared_draws_are_monotone(self, any_spec, grid101):
        small = LevelFunction.constant(grid101, -0.5)
        big = LevelFunction.constant(grid101, -1.0)
        est_small, est_big = dnorm_estimates(any_spec, [small, big], 2000, 34)
        assert est_small.value <= est_big.value + 1e-15

    def test_positive_homogeneity_with_binary_factor(self, any_spec, grid101):
        f = LevelFunction.constant(grid101, -0.5)
        g = LevelFunction.constant(grid101, -1.0)  # 2 x f
        est_f, est_g = dnorm_estimates(any_spec, [f, g], 2000, 35)
        assert est_g.value == 2.0 * est_f.value

    def test_dominates_sup_norm(self, any_spec, grid101):
        f = LevelFunction.piecewise_linear(grid101, [0.0, 1.0], [-0.2, -1.0])
        (est,) = dnorm_estimates(any_spec, [f], 2000, 36)
        assert est.value >= 1.0 - 3 * est.se - 1e-12  # sup|f| = 1

    def test_bounded_by_sup_bound_times_sup_norm(self, any_spec, grid101):
        from maxhit import generator_bound

        f = LevelFunction.constant(grid101, -0.8)
        (est,) = dnorm_estimates(any_spec, [f], 2000, 77)
        assert est.value <= generator_bound(any_spec) * 0.8 + 3 * est.se + 1e-12


def _indicator_norm(spec, interval, grid, n, seed):
    f = LevelFunction.indicator_step(grid, interval, inside=-1.0)
    (est,) = dnorm_estimates(spec, [f], n, seed)
    return est


def survivor_bound(spec, f, n, seed):
    """The survivor-bound check's 1 - exp(-v), v = E inf |f| Z, with the
    delta-method se exp(-v) se(v) and its normal CI."""
    absf = np.abs(f.values)
    v = reduce_blocks(
        shape_blocks(spec, f.grid, n, seed),
        StatMeans(lambda z: z.rowwise(lambda r: np.min(r * absf[None, :], axis=1))),
    ).estimate(0)
    value = 1.0 - math.exp(-v.value)
    se = math.exp(-v.value) * v.se
    return Estimate(value=value, se=se, ci=(value - Z95 * se, value + Z95 * se), n=n)


def complete_dependence(spec, probes, n, seed):
    """The Takahashi check's verdict: every probe's D-norm within
    3 se + 1e-12 of its sup-norm, all from one shared set of paths."""
    return all(
        abs(est.value - float(np.max(np.abs(f.values)))) <= 3.0 * est.se + 1e-12
        for est, f in zip(dnorm_estimates(spec, probes, n, seed), probes)
    )


class TestDnormIndicator:
    def test_full_interval_equals_moments_bitwise(self, any_spec, grid101):
        norm = _indicator_norm(any_spec, Interval(0.0, 1.0), grid101, 2000, 37)
        m_hat = reduce_blocks(
            shape_blocks(any_spec, grid101, 2000, 37),
            StatMeans(lambda z: z.row_max()),
        ).estimate(0)
        assert norm.value == m_hat.value
        assert norm.se == m_hat.se

    def test_two_branch_upper_half(self, grid201):
        est = _indicator_norm(TwoBranch(), Interval(0.5, 1.0), grid201, 20_000, 38)
        # falling branch sups at 2(1-0.5) = 1, rising at 2; mean 1.5
        assert abs(est.value - 1.5) <= 3 * est.se

    def test_complete_dependence_any_interval(self, grid101):
        est = _indicator_norm(
            CompleteDependence(), Interval(0.25, 0.5), grid101, 500, 39
        )
        assert est.value == 1.0

    def test_monotone_in_interval_shared_draws(self, any_spec, grid101):
        inner = _indicator_norm(any_spec, Interval(0.25, 0.75), grid101, 2000, 40)
        outer = _indicator_norm(any_spec, Interval(0.0, 1.0), grid101, 2000, 40)
        assert inner.value <= outer.value + 1e-15


class TestSurvivorLowerBound:
    def test_complete_dependence_exact(self, grid101):
        f = LevelFunction.constant(grid101, -1.0)
        got = survivor_bound(CompleteDependence(), f, 1000, 41)
        assert got.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert got.se == pytest.approx(0.0, abs=1e-9)
        assert got.n == 1000

    def test_two_branch_vanishing_infimum(self, grid101):
        f = LevelFunction.constant(grid101, -1.0)
        got = survivor_bound(TwoBranch(), f, 1000, 42)
        assert got.value == 0.0 and got.se == 0.0

    def test_sine_bump_matches_m_tilde(self, grid201):
        f = LevelFunction.constant(grid201, -1.0)
        got = survivor_bound(SineBump(amp=0.5), f, 20_000, 43)
        assert got.value == pytest.approx(1.0 - math.exp(-0.875), abs=0.003)
        assert 0.0 < got.se < 0.003
        assert got.ci[0] < got.value < got.ci[1]

    def test_bound_actually_holds(self, grid101, any_spec):
        from maxhit import msp_corpus

        f = LevelFunction.constant(grid101, -1.0)
        bound = survivor_bound(any_spec, f, 5000, 44)
        eta = msp_corpus(any_spec, grid101, 5000, 45)
        survivor = (eta > f.values).all(axis=1).mean()
        assert survivor >= bound.value - 0.02


class TestTakahashi:
    @staticmethod
    def probes(grid):
        return [
            LevelFunction.constant(grid, -1.0),
            LevelFunction.indicator_step(
                grid, Interval(0.5, 1.0), inside=-1.01, outside=-0.01
            ),
            LevelFunction.piecewise_linear(grid, [0.0, 1.0], [-0.5, -1.5]),
        ]

    def test_complete_dependence_true(self, grid101):
        assert complete_dependence(CompleteDependence(), self.probes(grid101), 2000, 46)

    def test_piecewise_false(self, grid101):
        assert not complete_dependence(
            PiecewiseExample(n=2, a=0.25, b=0.75), self.probes(grid101), 5000, 47
        )

    def test_two_branch_false(self, grid101):
        assert not complete_dependence(TwoBranch(), self.probes(grid101), 5000, 48)


class TestPerShapeReductions:
    """Every row-wise statistic the library and its checks reduce on shape
    blocks (``RowExtremes`` extremes, columns and ``rowwise``) against the
    same statistic on materialized paths, field by field with ==."""

    @staticmethod
    def reference_blocks(spec, grid, n, seed):
        """Generator paths built in full per block, as sampled everywhere."""
        basis = path_basis(spec, grid)
        return [
            sample_paths(spec, basis, draw_uniforms(spec, rng, count))
            for count, rng in block_streams(seed, n)
        ]

    @pytest.mark.parametrize("points", [37, 1001])
    @pytest.mark.parametrize(
        "spec", [*CATALOGUE, PiecewiseExample(n=5, a=0.1, b=0.3)], ids=repr
    )
    def test_equal_to_materialized_paths(self, spec, points):
        # n = 4097: a second block of one path runs too
        grid, n, seed = make_grid(points), 4097, 7
        fs = [
            *TestTakahashi.probes(grid),
            LevelFunction.indicator_step(grid, Interval(0.25, 0.75), inside=-1.0),
        ]
        blocks = self.reference_blocks(spec, grid, n, seed)
        sups = [lambda z, af=np.abs(f.values): np.max(z * af[None, :], axis=1)
                for f in fs]
        acc = reduce_blocks(blocks, StatMeans(*sups))
        assert dnorm_estimates(spec, fs, n, seed) == [
            acc.estimate(i) for i in range(len(fs))
        ]
        # the verification suite's D-norm reducer gives the same estimates
        suite = reduce_blocks(shape_blocks(spec, grid, n, seed), _sup_means(fs))
        assert [suite.estimate(i) for i in range(len(fs))] == [
            acc.estimate(i) for i in range(len(fs))
        ]

        # survivor bound (inf |f| Z per f), then m (sup Z) and m~ (inf Z)
        stats = [
            *(lambda z, af=np.abs(f.values): np.min(z * af[None, :], axis=1)
              for f in fs),
            lambda z: z.max(axis=1),
            lambda z: z.min(axis=1),
        ]
        shaped = reduce_blocks(
            shape_blocks(spec, grid, n, seed),
            StatMeans(*(lambda z, stat=stat: z.rowwise(stat) for stat in stats))
        )
        built = reduce_blocks(blocks, StatMeans(*stats))
        for i in range(len(stats)):
            assert shaped.estimate(i) == built.estimate(i)

        window = Interval(0.25, 0.75)
        sl = grid.slice_of(window)
        (hits,) = reduce_blocks(blocks, EventCounts(lambda z: np.abs(
            z[:, sl].max(axis=1) - np.maximum(z[:, sl][:, 0], z[:, sl][:, -1])
        ) <= SUP_EQ_TOL)).counts
        acc = reduce_blocks(shape_blocks(spec, grid, n, seed), _sup_at_endpoint(grid, window))
        assert int(acc.counts[0]) == int(hits)
