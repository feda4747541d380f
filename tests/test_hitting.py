import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOGUE
from maxhit import (
    CompleteDependence,
    Interval,
    InvalidArgumentError,
    LevelFunction,
    NonlinearExample,
    NONLINEAR_DEFAULTS,
    PiecewiseExample,
    SineBump,
    TwoBranch,
    binomial_estimate,
    closed_form_m,
    closed_form_m_tilde,
    final_example_reference,
    final_example_two_hit,
    hitting_bound,
    hitting_curve,
    make_grid,
    msp_path_blocks,
    two_hit_prob,
)
from maxhit.estimates import EventCounts, StatMeans, reduce_blocks
from maxhit.hitting import down_up_down_mask, hit_mask
from maxhit.paths import RowExtremes
from maxhit.verify import _mean_range, _range_means

GRID_SLACK = 0.02  # discretization allowance at the coarse test grids


def hits(spec, x0, intervals, grid, n, seed):
    """``hitting_curve`` at the one level ``x0``."""
    (est,) = hitting_curve(spec, [x0], intervals, grid, n, seed)
    return est


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

    @pytest.mark.parametrize(
        "m, m_tilde, x, needle",
        [
            (0.9, 1.0, -1.0, "need m >= m_tilde"),
            (math.nan, 0.5, -1.0, "need m >= m_tilde"),
            (2.0, 1.5, -1.0, "m_tilde must lie in"),
            (2.0, math.nan, -1.0, "need m >= m_tilde"),
            (0.99, 0.5, -1.0, "m must be >= 1"),
            (2.0, 0.5, 0.5, "level must be finite"),
            (2.0, 0.5, math.nan, "level must be finite"),
        ],
    )
    def test_refusals_are_argument_errors(self, m, m_tilde, x, needle):
        # a NaN constant is refused, not turned into a bound of 0
        with pytest.raises(InvalidArgumentError, match=needle):
            hitting_bound(m, m_tilde, x)


class TestHittingProb:
    """The hitting probability of one interval: ``hitting_curve`` with a
    one-interval list."""

    def test_complete_dependence_never_hits(self, grid101):
        est = hits(
            CompleteDependence(), -1.0, [Interval(0.0, 1.0)], grid101, 5000, 50
        )
        assert est.value == 0.0
        assert est.ci == (0.0, 3.0 / 5000)

    def test_level_must_be_negative(self, grid101):
        with pytest.raises(ValueError, match="negative"):
            hits(TwoBranch(), 0.0, [Interval(0.0, 1.0)], grid101, 100, 51)

    def test_two_branch_closed_form(self, grid201):
        unit = [Interval(0.0, 1.0)]
        est = hits(TwoBranch(), -1.0, unit, grid201, 20_000, 52)
        target = final_example_reference(-1.0)
        assert abs(est.value - target) <= 3 * est.se + GRID_SLACK

    def test_piecewise_plateau_interval_never_hits(self, grid201):
        est = hits(
            PiecewiseExample(n=2, a=0.25, b=0.75), -1.0,
            [Interval(0.25, 0.75)], grid201, 5000, 53,
        )
        assert est.value == 0.0

    def test_monotone_in_interval(self, grid101):
        def hit(lo, hi):
            iv = [Interval(lo, hi)]
            return hits(TwoBranch(), -1.0, iv, grid101, 5000, 54)

        assert hit(0.25, 0.75).value <= hit(0.0, 1.0).value


def count_paths(spec, grid, n, seed, event):
    """Frequency of the rows of ``n`` eta paths where ``event`` holds."""
    (count,) = reduce_blocks(msp_path_blocks(spec, grid, n, seed), EventCounts(event)).counts
    return binomial_estimate(int(count), n)


class TestCurveHit:
    def test_complete_dependence_meets_sloped_curve(self, grid201):
        # the path meets f where eta - f changes sign or touches zero
        f = LevelFunction.piecewise_linear(grid201, [0.0, 1.0], [-1.0, -2.0])
        est = count_paths(
            CompleteDependence(), grid201, 20_000, 55,
            lambda eta: hit_mask(eta - f.values[None, :], slice(None), 0.0),
        )
        target = math.exp(-1.0) - math.exp(-2.0)
        assert abs(est.value - target) <= 3 * est.se


class TestHittingCurve:
    def test_two_branch_against_closed_form(self, grid201):
        levels = np.array([-0.5, -1.0, -2.0, -4.0])
        ests = hitting_curve(
            TwoBranch(), levels, [Interval(0.0, 1.0)], grid201, 20_000, 56
        )
        for lvl, est in zip(levels, ests):
            target = final_example_reference(float(lvl))
            assert abs(est.value - target) <= 3 * est.se + GRID_SLACK

    def test_estimates_respect_bounds(self, grid201):
        spec = SineBump(amp=0.5)
        levels = np.array([-0.25, -1.0, -4.0])
        ests = hitting_curve(
            spec, levels, [Interval(0.0, 1.0)], grid201, 10_000, 58
        )
        m, m_tilde = closed_form_m(spec), closed_form_m_tilde(spec)
        for lvl, est in zip(levels, ests):
            bound = hitting_bound(m, m_tilde, lvl)
            assert est.value <= bound + 4 * est.se + GRID_SLACK

    def test_levels_must_decrease(self, grid101):
        with pytest.raises(ValueError, match="decreasing"):
            hitting_curve(
                TwoBranch(), np.array([-2.0, -1.0]), [Interval(0.0, 1.0)],
                grid101, 100, 59,
            )

    @pytest.mark.parametrize(
        "levels", [[math.nan], [-1.0, math.nan], [-math.inf], [-1.0, -math.inf]]
    )
    def test_levels_must_be_finite(self, grid101, levels):
        with pytest.raises(ValueError, match="finite"):
            hitting_curve(
                TwoBranch(), np.array(levels), [Interval(0.0, 1.0)], grid101, 100, 61
            )

    def test_levels_must_be_negative(self, grid101):
        with pytest.raises(ValueError, match="negative"):
            hitting_curve(
                TwoBranch(), np.array([0.5, -1.0]), [Interval(0.0, 1.0)],
                grid101, 100, 60,
            )

    def test_bad_ladder_is_an_argument_error_only_at_entry(self, grid101):
        with pytest.raises(InvalidArgumentError, match="decreasing"):
            hitting_curve(TwoBranch(), [-2.0, -1.0], [Interval(0.0, 1.0)],
                          grid101, 100, 60)


class TestIntegralIsMeanRange:
    """Fubini on the integral checks' own draws: a ladder of step d over
    [x_min, 0) counts each path's range max eta - min eta to within d
    plus the part of the range below x_min, so the mean range and d times
    the ladder's hitting frequencies agree to within that, deterministically."""

    @pytest.mark.parametrize("spec", [TwoBranch(), SineBump(amp=0.5)],
                             ids=lambda s: type(s).__name__)
    def test_ladder_sum_is_the_mean_range(self, spec, grid101):
        d = 0.01
        levels = -d * np.arange(1, 801)
        x_min = levels[-1]
        n, seed = 2000, 7
        acc = _range_means()
        for eta in msp_path_blocks(spec, grid101, n, seed):
            acc(RowExtremes(eta))
        mean_range, _ = _mean_range(spec, acc, grid101)
        ests = hitting_curve(spec, levels, [Interval(0.0, 1.0)], grid101, n, seed)
        below = reduce_blocks(
            msp_path_blocks(spec, grid101, n, seed),
            StatMeans(lambda eta: np.maximum(0.0, np.minimum(eta.max(axis=1), x_min)
                                             - eta.min(axis=1))),
        ).estimate(0).value
        ladder_sum = d * sum(e.value for e in ests)
        assert abs(ladder_sum - mean_range.value) <= d + below + 1e-9
        assert below < d  # the ladder reaches deep enough to matter


#: Each hitting event on 100 TwoBranch paths at level x0 on a grid:
#: "hitting_prob" hits one interval, "multi_hit_prob" two touching ones.
EVENT_ESTIMATORS = {
    "hitting_prob": lambda x0, grid: hits(
        TwoBranch(), x0, [Interval(0.0, 1.0)], grid, 100, 1),
    "multi_hit_prob": lambda x0, grid: hits(
        TwoBranch(), x0, [Interval(0.0, 0.5), Interval(0.5, 1.0)], grid, 100, 1),
    "two_hit_prob": lambda x0, grid: two_hit_prob(TwoBranch(), x0, 0.5, grid, 100, 1),
}


@pytest.mark.parametrize("x0", [-math.inf, math.nan, 0.0])
@pytest.mark.parametrize("call", EVENT_ESTIMATORS.values(), ids=EVENT_ESTIMATORS)
def test_event_level_must_be_finite_and_negative(call, x0, grid101):
    with pytest.raises(ValueError, match="levels must be"):
        call(x0, grid101)


class TestMultiHitQuery:
    """The split estimator checks its own arguments."""

    def test_level_must_be_negative(self, grid101):
        with pytest.raises(ValueError):
            two_hit_prob(TwoBranch(), 0.0, 0.5, grid101, 100, 1)


class TestDownUpDown:
    """P(eta_t' <= -1, eta_t0 > -1, eta_t'' <= -1) at (t', t0, t'') =
    (0, 0.25, 0.5): the lemma31-closedform statistic."""

    @staticmethod
    def estimate(spec, grid, n, seed):
        cols = tuple(grid.index_of(t) for t in (0.0, 0.25, 0.5))
        return count_paths(
            spec, grid, n, seed, lambda eta: down_up_down_mask(eta, cols, -1.0)
        )

    def test_complete_dependence_zero(self, grid101):
        est = self.estimate(CompleteDependence(), grid101, 2000, 61)
        assert est.value == 0.0

    def test_sine_bump_closed_form(self, grid201):
        est = self.estimate(SineBump(amp=0.5), grid201, 30_000, 62)
        target = math.exp(-1.0) - math.exp(-1.0625)
        assert abs(est.value - target) <= 3 * est.se

    def test_nonlinear_zero(self, grid201):
        est = self.estimate(NonlinearExample(**NONLINEAR_DEFAULTS), grid201, 5000, 63)
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

    @pytest.mark.parametrize("split", [0.0, 1.0])
    def test_end_point_split_names_the_value(self, grid101, split):
        with pytest.raises(InvalidArgumentError,
                           match=f"interior grid point, got {split}$"):
            two_hit_prob(TwoBranch(), -1.0, split, grid101, 100, 67)


class TestMultiHit:
    def test_three_disjoint_intervals_never_hit(self, grid201):
        intervals = [Interval(0.0, 0.3), Interval(0.4, 0.6), Interval(0.7, 1.0)]
        est = hits(TwoBranch(), -1.0, intervals, grid201, 10_000, 68)
        assert est.value == 0.0
        assert est.ci[1] == 3.0 / 10_000

    def test_touching_pair_matches_two_hit(self, grid201):
        intervals = [Interval(0.0, 0.5), Interval(0.5, 1.0)]
        est_multi = hits(TwoBranch(), -1.0, intervals, grid201, 5000, 69)
        est_two = two_hit_prob(TwoBranch(), -1.0, 0.5, grid201, 5000, 69)
        assert est_multi.value == est_two.value  # same event, same draws

    def test_needs_an_interval(self, grid101):
        with pytest.raises(InvalidArgumentError, match="at least one interval"):
            hitting_curve(TwoBranch(), [-1.0], [], grid101, 100, 70)

    def test_overlap_rejected(self, grid101):
        intervals = [Interval(0.0, 0.5), Interval(0.25, 1.0)]
        with pytest.raises(ValueError, match="overlap"):
            hits(TwoBranch(), -1.0, intervals, grid101, 100, 70)

    def test_single_interval_matches_hitting_prob(self, grid101):
        est_multi = hits(
            TwoBranch(), -1.0, [Interval(0.0, 1.0)], grid101, 3000, 72
        )
        est_hit = count_paths(
            TwoBranch(), grid101, 3000, 72,
            lambda eta: hit_mask(eta, slice(None), -1.0),
        )
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


GRID11 = make_grid(11)


@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_curve_counts_hits_in_every_interval(data):
    """Per level, ``hitting_curve`` counts the paths that ``hit_mask`` finds
    hitting that level in every listed interval, on the same stream."""
    spec = data.draw(st.sampled_from(CATALOGUE))
    levels = sorted(data.draw(st.lists(
        st.floats(min_value=-6.0, max_value=-0.01), min_size=1, max_size=4,
        unique=True)), reverse=True)
    # consecutive cuts give intervals that touch but never overlap
    cuts = sorted(data.draw(st.sets(st.integers(0, len(GRID11) - 1),
                                    min_size=2, max_size=5)))
    pieces = [Interval(GRID11.points[a], GRID11.points[b])
              for a, b in zip(cuts, cuts[1:])]
    chosen = data.draw(st.lists(st.sampled_from(pieces), min_size=1,
                                max_size=len(pieces), unique=True))
    intervals = data.draw(st.permutations(chosen))
    n, seed = 300, data.draw(st.integers(0, 2**32))

    ests = hitting_curve(spec, levels, intervals, GRID11, n, seed)
    slices = [GRID11.slice_of(iv) for iv in intervals]
    counts = reduce_blocks(
        msp_path_blocks(spec, GRID11, n, seed),
        EventCounts(*(lambda eta, x=x: np.logical_and.reduce(
            [hit_mask(eta, sl, x) for sl in slices]) for x in levels)),
    ).counts
    assert [e.value for e in ests] == [binomial_estimate(int(c), n).value
                                      for c in counts]
