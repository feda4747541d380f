import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhit import (
    CompleteDependence,
    HittingCurve,
    Interval,
    LevelFunction,
    NonlinearExample,
    NONLINEAR_DEFAULTS,
    PiecewiseExample,
    SineBump,
    TwoBranch,
    binomial_estimate,
    curve_hit_prob,
    down_up_down_prob,
    final_example_reference,
    final_example_two_hit,
    hitting_bound,
    hitting_curve,
    hitting_integral,
    hitting_prob,
    multi_hit_prob,
    two_hit_prob,
)
from maxhit.hitting import down_up_down_mask, hit_mask

GRID_SLACK = 0.02  # discretization allowance at the coarse test grids


class TestHittingBound:
    def test_complete_dependence_corner(self):
        assert hitting_bound(1.0, 1.0, -1.0) == 0.0

    def test_two_branch_profile(self):
        assert hitting_bound(2.0, 0.0, -1.0) == pytest.approx(1.0 - math.exp(-2.0))

    def test_sine_bump_profile(self):
        got = hitting_bound(1.125, 0.875, -1.0)
        assert got == pytest.approx(math.exp(-0.875) - math.exp(-1.125))

    def test_rejects_m_below_m_tilde(self):
        with pytest.raises(ValueError, match="m >= m_tilde"):
            hitting_bound(0.9, 1.0, -1.0)

    def test_rejects_positive_level(self):
        with pytest.raises(ValueError):
            hitting_bound(2.0, 0.5, 0.5)

    @pytest.mark.parametrize("x", [math.nan, -math.inf])
    def test_rejects_non_finite_level(self, x):
        with pytest.raises(ValueError, match="finite"):
            hitting_bound(2.0, 0.0, x)

    def test_rejects_out_of_range_m(self):
        with pytest.raises(ValueError):
            hitting_bound(0.99, 0.5, -1.0)
        with pytest.raises(ValueError):
            hitting_bound(2.0, 1.5, -1.0)


class TestHittingProb:
    def test_complete_dependence_never_hits(self, grid101):
        est = hitting_prob(
            CompleteDependence(), -1.0, Interval(0.0, 1.0), grid101, 5000, 50
        )
        assert est.value == 0.0
        assert est.ci == (0.0, 3.0 / 5000)

    def test_level_must_be_negative(self, grid101):
        with pytest.raises(ValueError, match="negative"):
            hitting_prob(TwoBranch(), 0.0, Interval(0.0, 1.0), grid101, 100, 51)

    def test_two_branch_closed_form(self, grid201):
        est = hitting_prob(TwoBranch(), -1.0, Interval(0.0, 1.0), grid201, 20_000, 52)
        target = final_example_reference(-1.0)
        assert abs(est.value - target) <= 3 * est.se + GRID_SLACK

    def test_piecewise_plateau_interval_never_hits(self, grid201):
        est = hitting_prob(
            PiecewiseExample(n=2, a=0.25, b=0.75), -1.0,
            Interval(0.25, 0.75), grid201, 5000, 53,
        )
        assert est.value == 0.0

    def test_monotone_in_interval(self, grid101):
        inner = hitting_prob(TwoBranch(), -1.0, Interval(0.25, 0.75), grid101, 5000, 54)
        outer = hitting_prob(TwoBranch(), -1.0, Interval(0.0, 1.0), grid101, 5000, 54)
        assert inner.value <= outer.value


class TestCurveHit:
    def test_complete_dependence_meets_sloped_curve(self, grid201):
        f = LevelFunction.piecewise_linear(grid201, [0.0, 1.0], [-1.0, -2.0])
        est = curve_hit_prob(CompleteDependence(), f, 20_000, 55)
        target = math.exp(-1.0) - math.exp(-2.0)
        assert abs(est.value - target) <= 3 * est.se


class TestHittingCurve:
    def test_two_branch_against_closed_form(self, grid201):
        levels = np.array([-0.5, -1.0, -2.0, -4.0])
        curve = hitting_curve(
            TwoBranch(), levels, Interval(0.0, 1.0), grid201, 20_000, 56
        )
        for lvl, est in zip(curve.levels, curve.estimates):
            target = final_example_reference(float(lvl))
            assert abs(est.value - target) <= 3 * est.se + GRID_SLACK

    def test_bounds_use_closed_form_moments(self, grid101):
        levels = np.array([-0.5, -1.0])
        curve = hitting_curve(
            SineBump(amp=0.5), levels, Interval(0.0, 1.0), grid101, 2000, 57
        )
        for lvl, bound in zip(curve.levels, curve.upper_bounds):
            assert bound == pytest.approx(hitting_bound(1.125, 0.875, float(lvl)))

    def test_estimates_respect_bounds(self, grid201):
        levels = np.array([-0.25, -1.0, -4.0])
        curve = hitting_curve(
            SineBump(amp=0.5), levels, Interval(0.0, 1.0), grid201, 10_000, 58
        )
        for est, bound in zip(curve.estimates, curve.upper_bounds):
            assert est.value <= bound + 4 * est.se + GRID_SLACK

    def test_levels_must_decrease(self, grid101):
        with pytest.raises(ValueError, match="decreasing"):
            hitting_curve(
                TwoBranch(), np.array([-2.0, -1.0]), Interval(0.0, 1.0),
                grid101, 100, 59,
            )

    @pytest.mark.parametrize(
        "levels", [[math.nan], [-1.0, math.nan], [-math.inf], [-1.0, -math.inf]]
    )
    def test_levels_must_be_finite(self, grid101, levels):
        with pytest.raises(ValueError, match="finite"):
            hitting_curve(
                TwoBranch(), np.array(levels), Interval(0.0, 1.0), grid101, 100, 61
            )

    @pytest.mark.parametrize(
        "level,bound",
        [(math.nan, 0.0), (-math.inf, math.nan), (-1.0, math.nan), (-1.0, math.inf)],
    )
    def test_direct_construction_needs_finite_values(self, level, bound):
        with pytest.raises(ValueError, match="finite"):
            HittingCurve(
                levels=np.array([level]),
                estimates=[binomial_estimate(0, 10)],
                upper_bounds=np.array([bound]),
            )

    def test_bounds_may_be_a_list(self):
        curve = HittingCurve(
            levels=np.array([-1.0]),
            estimates=[binomial_estimate(0, 10)],
            upper_bounds=[0.0],
        )
        assert isinstance(curve.upper_bounds, np.ndarray)
        with pytest.raises(ValueError, match="finite"):
            HittingCurve(
                levels=np.array([-1.0]),
                estimates=[binomial_estimate(0, 10)],
                upper_bounds=[math.nan],
            )

    def test_levels_must_be_negative(self, grid101):
        with pytest.raises(ValueError, match="negative"):
            hitting_curve(
                TwoBranch(), np.array([0.5, -1.0]), Interval(0.0, 1.0),
                grid101, 100, 60,
            )


class TestHittingIntegral:
    def synthetic_curve(self, levels, values):
        ests = [
            binomial_estimate(int(round(v * 1000)), 1000) for v in values
        ]
        bounds = np.zeros(len(levels))
        return HittingCurve(
            levels=np.asarray(levels), estimates=ests, upper_bounds=bounds
        )

    def test_trapezoid_against_hand_computation(self):
        curve = self.synthetic_curve([-1.0, -2.0, -3.0], [0.4, 0.2, 0.1])
        integral, tail = hitting_integral(curve, m_tilde=0.5)
        # nodes (-3, 0.1), (-2, 0.2), (-1, 0.4), (0, 0)
        by_hand = 0.5 * (0.1 + 0.2) + 0.5 * (0.2 + 0.4) + 0.5 * 0.4
        assert integral == pytest.approx(by_hand)
        assert tail == pytest.approx(math.exp(-1.5) / 0.5)

    def test_zero_m_tilde_gives_infinite_tail(self):
        curve = self.synthetic_curve([-1.0, -2.0, -3.0], [0.4, 0.2, 0.1])
        _, tail = hitting_integral(curve, m_tilde=0.0)
        assert math.isinf(tail)

    def test_needs_three_levels(self):
        curve = self.synthetic_curve([-1.0, -2.0], [0.4, 0.2])
        with pytest.raises(ValueError, match="3 levels"):
            hitting_integral(curve, m_tilde=0.5)

    def test_negative_m_tilde_rejected(self):
        curve = self.synthetic_curve([-1.0, -2.0, -3.0], [0.4, 0.2, 0.1])
        with pytest.raises(ValueError):
            hitting_integral(curve, m_tilde=-0.1)


#: Each event estimator on 100 TwoBranch paths at level x0 on a grid.
EVENT_ESTIMATORS = {
    "hitting_prob": lambda x0, grid: hitting_prob(
        TwoBranch(), x0, Interval(0.0, 1.0), grid, 100, 1),
    "multi_hit_prob": lambda x0, grid: multi_hit_prob(
        TwoBranch(), x0, [Interval(0.0, 0.5), Interval(0.5, 1.0)], grid, 100, 1),
    "two_hit_prob": lambda x0, grid: two_hit_prob(TwoBranch(), x0, 0.5, grid, 100, 1),
    "down_up_down_prob": lambda x0, grid: down_up_down_prob(
        TwoBranch(), x0, (0.0, 0.25, 0.5), grid, 100, 1),
}


@pytest.mark.parametrize("x0", [-math.inf, math.nan, 0.0])
@pytest.mark.parametrize("call", EVENT_ESTIMATORS.values(), ids=EVENT_ESTIMATORS)
def test_event_level_must_be_finite_and_negative(call, x0, grid101):
    with pytest.raises(ValueError, match="levels must be"):
        call(x0, grid101)


class TestMultiHitQuery:
    """The split and triple estimators check their own arguments."""

    def test_level_must_be_negative(self, grid101):
        with pytest.raises(ValueError):
            two_hit_prob(TwoBranch(), 0.0, 0.5, grid101, 100, 1)
        with pytest.raises(ValueError):
            down_up_down_prob(TwoBranch(), 0.0, (0.0, 0.25, 0.5), grid101, 100, 1)

    def test_triple_ordering(self, grid101):
        with pytest.raises(ValueError):
            down_up_down_prob(TwoBranch(), -1.0, (0.5, 0.25, 0.9), grid101, 100, 1)


class TestDownUpDown:
    TRIPLE = (0.0, 0.25, 0.5)

    def test_complete_dependence_zero(self, grid101):
        est = down_up_down_prob(
            CompleteDependence(), -1.0, self.TRIPLE, grid101, 2000, 61
        )
        assert est.value == 0.0

    def test_sine_bump_closed_form(self, grid201):
        est = down_up_down_prob(
            SineBump(amp=0.5), -1.0, self.TRIPLE, grid201, 30_000, 62
        )
        target = math.exp(-1.0) - math.exp(-1.0625)
        assert abs(est.value - target) <= 3 * est.se

    def test_nonlinear_zero(self, grid201):
        est = down_up_down_prob(
            NonlinearExample(**NONLINEAR_DEFAULTS), -1.0, self.TRIPLE, grid201,
            5000, 63,
        )
        assert est.value == 0.0
        assert est.ci[1] == 3.0 / 5000


class TestTwoHit:
    def test_two_branch_closed_form(self, grid201):
        est = two_hit_prob(TwoBranch(), -1.0, 0.5, grid201, 20_000, 64)
        target = final_example_two_hit(-1.0, 0.5)
        assert target == pytest.approx(0.056954, abs=1e-6)
        assert abs(est.value - target) <= 3 * est.se + GRID_SLACK

    def test_complete_dependence_zero(self, grid101):
        est = two_hit_prob(CompleteDependence(), -1.0, 0.5, grid101, 2000, 65)
        assert est.value == 0.0

    def test_dominates_down_up_down_shared_draws(self, grid201):
        from maxhit import msp_corpus

        eta = msp_corpus(SineBump(amp=0.5), grid201, 3000, 66)
        i0 = grid201.index_of(0.25)
        i1 = grid201.index_of(0.5)
        x0 = -1.0
        left, right = eta[:, : i0 + 1], eta[:, i0:]
        two = (
            (left.min(axis=1) <= x0) & (x0 <= left.max(axis=1))
            & (right.min(axis=1) <= x0) & (x0 <= right.max(axis=1))
        )
        dud = (eta[:, 0] <= x0) & (eta[:, i0] > x0) & (eta[:, i1] <= x0)
        assert not (dud & ~two).any()

    def test_split_must_be_interior_grid_point(self, grid101):
        with pytest.raises(ValueError, match="not on the grid"):
            two_hit_prob(TwoBranch(), -1.0, 0.505, grid101, 100, 67)


class TestMultiHit:
    def test_three_disjoint_intervals_never_hit(self, grid201):
        intervals = [Interval(0.0, 0.3), Interval(0.4, 0.6), Interval(0.7, 1.0)]
        est = multi_hit_prob(TwoBranch(), -1.0, intervals, grid201, 10_000, 68)
        assert est.value == 0.0
        assert est.ci[1] == 3.0 / 10_000

    def test_touching_pair_matches_two_hit(self, grid201):
        intervals = [Interval(0.0, 0.5), Interval(0.5, 1.0)]
        est_multi = multi_hit_prob(TwoBranch(), -1.0, intervals, grid201, 5000, 69)
        est_two = two_hit_prob(TwoBranch(), -1.0, 0.5, grid201, 5000, 69)
        assert est_multi.value == est_two.value  # same event, same draws

    def test_overlap_rejected(self, grid101):
        intervals = [Interval(0.0, 0.5), Interval(0.25, 1.0)]
        with pytest.raises(ValueError, match="overlap"):
            multi_hit_prob(TwoBranch(), -1.0, intervals, grid101, 100, 70)

    def test_single_interval_matches_hitting_prob(self, grid101):
        est_multi = multi_hit_prob(
            TwoBranch(), -1.0, [Interval(0.0, 1.0)], grid101, 3000, 72
        )
        est_hit = hitting_prob(TwoBranch(), -1.0, Interval(0.0, 1.0), grid101, 3000, 72)
        assert est_multi.value == est_hit.value


class TestMasks:
    def test_touch_counts_as_hit(self):
        eta = np.array([[-2.0, -1.0, -2.0], [-2.0, -2.0, -2.0], [-1.0, -1.0, -1.0]])
        assert hit_mask(eta, slice(None), -1.0).tolist() == [True, False, True]

    def test_slice_limits_the_window(self):
        eta = np.array([[0.0, -0.5, -2.0]])
        assert hit_mask(eta, slice(0, 2), -1.0).tolist() == [False]
        assert hit_mask(eta, slice(1, 3), -1.0).tolist() == [True]

    def test_down_up_down(self):
        eta = np.array([[-2.0, -0.5, -1.0], [-2.0, -1.0, -2.0], [-0.5, -0.5, -2.0]])
        assert down_up_down_mask(eta, (0, 1, 2), -1.0).tolist() == [True, False, False]


finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_hit_mask_iff_window_extrema_bracket(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    values = data.draw(st.lists(finite_floats, min_size=n, max_size=n))
    i = data.draw(st.integers(min_value=0, max_value=n - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
    x = data.draw(finite_floats)
    window = values[i : j + 1]
    got = hit_mask(np.array([values]), slice(i, j + 1), x)
    assert got.tolist() == [min(window) <= x <= max(window)]
