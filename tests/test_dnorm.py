import math

import numpy as np
import pytest

from conftest import CATALOGUE
from maxhit import (
    CompleteDependence,
    Estimate,
    GeneratorMoments,
    Interval,
    LevelFunction,
    PiecewiseExample,
    SineBump,
    TwoBranch,
    binomial_estimate,
    dnorm_estimate,
    dnorm_estimates,
    generator_moments,
    make_grid,
    sup_equals_max_rate,
    survivor_lower_bound,
    takahashi_check,
)
from maxhit.estimates import Z95, count_events, stream_means
from maxhit.generators import SUP_EQ_TOL, draw_uniforms, path_basis, sample_paths
from maxhit.streams import block_streams


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
        est = dnorm_estimate(CompleteDependence(), f, 1000, 30)
        assert est.value == 1.0
        assert est.se == 0.0

    def test_piecewise_reproduces_m(self, grid201):
        f = LevelFunction.constant(grid201, -1.0)
        est = dnorm_estimate(PiecewiseExample(n=2, a=0.25, b=0.75), f, 20_000, 31)
        assert abs(est.value - 14.0 / 9.0) <= 3 * est.se

    def test_two_branch_linear_level(self, grid201):
        # |f| Z peaks at 2 t^2 (sup 2) on the rising branch and at
        # 2 t (1 - t) (sup 1/2) on the falling one; the mean is 5/4
        f = LevelFunction.piecewise_linear(grid201, [0.0, 1.0], [0.0, -1.0])
        est = dnorm_estimate(TwoBranch(), f, 20_000, 32)
        assert abs(est.value - 1.25) <= 3 * est.se + 1e-3

    def test_requires_two_draws(self, grid101):
        f = LevelFunction.constant(grid101, -1.0)
        with pytest.raises(ValueError):
            dnorm_estimate(TwoBranch(), f, 1, 33)

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
        est = dnorm_estimate(any_spec, f, 2000, 36)
        assert est.value >= 1.0 - 3 * est.se - 1e-12  # sup|f| = 1

    def test_bounded_by_sup_bound_times_sup_norm(self, any_spec, grid101):
        from maxhit import generator_bound

        f = LevelFunction.constant(grid101, -0.8)
        est = dnorm_estimate(any_spec, f, 2000, 77)
        assert est.value <= generator_bound(any_spec) * 0.8 + 3 * est.se + 1e-12


def _indicator_norm(spec, interval, grid, n, seed):
    f = LevelFunction.indicator_step(grid, interval, inside=-1.0)
    return dnorm_estimate(spec, f, n, seed)


class TestDnormIndicator:
    def test_full_interval_equals_moments_bitwise(self, any_spec, grid101):
        norm = _indicator_norm(any_spec, Interval(0.0, 1.0), grid101, 2000, 37)
        mom = generator_moments(any_spec, grid101, 2000, 37)
        assert norm.value == mom.m_hat.value
        assert norm.se == mom.m_hat.se

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
        got = survivor_lower_bound(CompleteDependence(), f, 1000, 41)
        assert got.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert got.se == pytest.approx(0.0, abs=1e-9)
        assert got.n == 1000

    def test_two_branch_vanishing_infimum(self, grid101):
        f = LevelFunction.constant(grid101, -1.0)
        got = survivor_lower_bound(TwoBranch(), f, 1000, 42)
        assert got.value == 0.0 and got.se == 0.0

    def test_sine_bump_matches_m_tilde(self, grid201):
        f = LevelFunction.constant(grid201, -1.0)
        got = survivor_lower_bound(SineBump(amp=0.5), f, 20_000, 43)
        assert got.value == pytest.approx(1.0 - math.exp(-0.875), abs=0.003)
        assert 0.0 < got.se < 0.003
        assert got.ci[0] < got.value < got.ci[1]

    def test_bound_actually_holds(self, grid101, any_spec):
        from maxhit import msp_corpus

        f = LevelFunction.constant(grid101, -1.0)
        bound = survivor_lower_bound(any_spec, f, 5000, 44)
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
        assert takahashi_check(CompleteDependence(), self.probes(grid101), 2000, 46)

    def test_piecewise_false(self, grid101):
        assert not takahashi_check(
            PiecewiseExample(n=2, a=0.25, b=0.75), self.probes(grid101), 5000, 47
        )

    def test_two_branch_false(self, grid101):
        assert not takahashi_check(TwoBranch(), self.probes(grid101), 5000, 48)

    def test_needs_three_probes(self, grid101):
        with pytest.raises(ValueError, match="3 probe"):
            takahashi_check(TwoBranch(), self.probes(grid101)[:2], 100, 49)


class TestPerShapeReductions:
    """Every estimator that reduces shape blocks row by row against the
    same statistics on materialized paths, field by field with ==."""

    @staticmethod
    def reference_blocks(spec, grid, n, seed):
        """Generator paths built in full per block, as sampled everywhere."""
        basis = path_basis(spec, grid.points)
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
        sup_z = stream_means(blocks, lambda z: z.max(axis=1)).estimate(0)

        acc = stream_means(blocks, *sups)
        want = [acc.estimate(i) for i in range(len(fs))]
        assert dnorm_estimates(spec, fs, n, seed) == want
        assert takahashi_check(spec, fs, n, seed) == all(
            abs(e.value - np.max(np.abs(f.values))) <= 3.0 * e.se + 1e-12
            for e, f in zip(want, fs)
        )

        for f in fs:
            absf = np.abs(f.values)
            v = stream_means(
                blocks, lambda z: np.min(z * absf[None, :], axis=1)
            ).estimate(0)
            value, se = 1.0 - math.exp(-v.value), math.exp(-v.value) * v.se
            assert survivor_lower_bound(spec, f, n, seed) == Estimate(
                value, se, (value - Z95 * se, value + Z95 * se), n
            )

        m_tilde = stream_means(blocks, lambda z: z.min(axis=1)).estimate(0)
        assert generator_moments(spec, grid, n, seed) == GeneratorMoments(
            sup_z, m_tilde
        )

        window = Interval(0.25, 0.75)
        sl = grid.slice_of(window)
        (hits,) = count_events(blocks, lambda z: np.abs(
            z[:, sl].max(axis=1) - np.maximum(z[:, sl][:, 0], z[:, sl][:, -1])
        ) <= SUP_EQ_TOL)
        assert sup_equals_max_rate(spec, window, grid, n, seed) == binomial_estimate(
            int(hits), n
        )
