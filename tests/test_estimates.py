import json
import math

import numpy as np
import pytest

from maxhit import (
    Estimate,
    Interval,
    TwoBranch,
    binomial_estimate,
    hitting_curve,
    make_grid,
)
from maxhit.errors import InvalidArgumentError
from maxhit.estimates import (
    EventCounts,
    RowStack,
    StatMeans,
    mean_estimate_from_sums,
    reduce_blocks,
    rule_of_three,
    wilson_interval,
)


class TestWilson:
    def test_contains_phat_in_interior(self):
        lo, hi = wilson_interval(37, 200)
        assert lo < 37 / 200 < hi

    def test_bounds_clamped(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and 0 < hi < 1

    def test_monotone_in_successes(self):
        prev = wilson_interval(0, 50)
        for k in range(1, 51):
            cur = wilson_interval(k, 50)
            assert cur[0] >= prev[0] and cur[1] >= prev[1]
            prev = cur

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize(
        "successes, n, needle",
        [(5, 3, "successes 5 outside"), (-1, 3, "successes -1 outside"),
         (0, 0, "n must be >= 1")],
    )
    def test_refusals_are_argument_errors(self, successes, n, needle):
        with pytest.raises(InvalidArgumentError, match=needle):
            wilson_interval(successes, n)


class TestBinomialEstimate:
    @pytest.mark.parametrize(
        "successes, n, needle",
        [(5, 0, "n must be >= 1"), (-1, 10, "successes -1 outside"),
         (11, 10, "successes 11 outside")],
    )
    def test_refusals_are_argument_errors(self, successes, n, needle):
        with pytest.raises(InvalidArgumentError, match=needle):
            binomial_estimate(successes, n)

    def test_zero_successes_uses_rule_of_three(self):
        est = binomial_estimate(0, 100_000)
        assert est.value == 0.0
        assert est.se == 0.0
        assert est.ci == (0.0, rule_of_three(100_000))
        assert est.ci[1] == pytest.approx(3e-5)

    def test_all_successes_mirrors(self):
        est = binomial_estimate(50, 50)
        assert est.value == 1.0
        assert est.ci == (1.0 - 3.0 / 50, 1.0)

    def test_interior(self):
        est = binomial_estimate(600, 1000)
        assert est.value == 0.6
        assert est.se == pytest.approx(math.sqrt(0.6 * 0.4 / 1000))
        assert est.ci[0] < 0.6 < est.ci[1]
        assert est.n == 1000


@pytest.mark.parametrize("n", [0, -3])
def test_rule_of_three_refuses_no_trials(n):
    with pytest.raises(InvalidArgumentError, match="n must be >= 1"):
        rule_of_three(n)


class TestEstimate:
    def test_value_must_sit_inside_ci(self):
        with pytest.raises(ValueError) as refused:
            Estimate(value=0.9, se=0.01, ci=(0.1, 0.2), n=10)
        # an internal invariant, not a usage error
        assert not isinstance(refused.value, InvalidArgumentError)

    def test_positive_n_required(self):
        with pytest.raises(InvalidArgumentError, match="replication count must be >= 1"):
            Estimate(value=0.0, se=0.0, ci=(0.0, 0.0), n=0)

    def test_numpy_scalars_become_python_numbers(self):
        est = Estimate(value=np.float64(0.5), se=np.float64(0.1),
                       ci=(np.float64(0.3), np.float64(0.7)), n=np.int64(10))
        assert type(est.n) is int
        assert all(type(v) is float for v in (est.value, est.se, *est.ci))
        json.dumps(est.as_dict())

    def test_numpy_integer_n_estimate_serializes(self):
        (est,) = hitting_curve(TwoBranch(), [-1.0], [Interval(0.0, 1.0)],
                               make_grid(11), np.int64(100), 1)
        assert (type(est.n), type(est.value)) == (int, float)
        json.dumps(est.as_dict())

    def test_fractional_n_is_refused(self):
        with pytest.raises(TypeError):
            Estimate(value=0.5, se=0.1, ci=(0.3, 0.7), n=10.5)

    def test_as_dict_round(self):
        est = binomial_estimate(3, 7)
        d = est.as_dict()
        assert set(d) == {"value", "se", "ci", "n"}


class TestMeanEstimate:
    def test_empty_sample_is_an_argument_error(self):
        with pytest.raises(InvalidArgumentError, match="n must be >= 1"):
            mean_estimate_from_sums(0.0, 0.0, 0)

    def test_degenerate_sample_has_small_se(self):
        # cancellation in sumsq/n - mean^2 leaves float noise, nothing more
        vals = np.full(1000, 0.1)
        est = mean_estimate_from_sums(vals.sum(), np.square(vals).sum(), 1000)
        assert est.value == pytest.approx(0.1)
        assert est.se <= 1e-9

    def test_exact_integers_give_exactly_zero_se(self):
        est = mean_estimate_from_sums(1000.0, 1000.0, 1000)
        assert est.value == 1.0
        assert est.se == 0.0

    def test_matches_numpy_moments(self, rng):
        vals = rng.exponential(size=5000)
        est = mean_estimate_from_sums(vals.sum(), np.square(vals).sum(), vals.size)
        assert est.value == pytest.approx(vals.mean())
        assert est.se == pytest.approx(vals.std() / math.sqrt(vals.size), rel=1e-6)


class TestStatMeans:
    def test_blockwise_equals_whole(self, rng):
        vals = rng.normal(size=(1000, 2))
        stats = (lambda b: b[:, 0], lambda b: b[:, 1])
        acc = reduce_blocks(np.array_split(vals, 7), StatMeans(*stats))
        whole = reduce_blocks([vals], StatMeans(*stats))
        for i in range(2):
            assert acc.estimate(i).value == pytest.approx(whole.estimate(i).value)
            assert acc.estimate(i).n == 1000

    def test_sums_do_not_depend_on_the_other_statistics(self, rng):
        blocks = np.array_split(rng.normal(size=(1000, 2)), 7)
        alone = reduce_blocks(blocks, StatMeans(lambda b: b[:, 1]))
        shared = reduce_blocks(blocks, StatMeans(lambda b: b[:, 0], lambda b: b[:, 1]))
        assert (alone.total[0], alone.total_sq[0]) == (shared.total[1], shared.total_sq[1])

    def test_vector_statistic_sums_per_column(self):
        blocks = [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0]])]
        acc = reduce_blocks(blocks, StatMeans(lambda b: b))
        assert acc.n == 3
        assert acc.total[0].tolist() == [9.0, 12.0]
        assert acc.total_sq[0].tolist() == [35.0, 56.0]

    def test_row_counts_must_agree(self):
        acc = StatMeans(lambda b: b, lambda b: b[:-1])
        with pytest.raises(InvalidArgumentError, match="equal row counts"):
            acc(np.zeros(5))


class TestReducers:
    def blocks(self):
        return iter([np.array([[1.0, -1.0], [2.0, 3.0]]), np.array([[-4.0, 0.5]])])

    def test_count_events_per_event(self):
        acc = reduce_blocks(self.blocks(), EventCounts(
            lambda b: b[:, 0] > 0, lambda b: np.all(b > 0, axis=1)))
        assert [int(c) for c in acc.counts] == [2, 1]

    def test_count_events_two_dimensional_mask(self):
        (counts,) = reduce_blocks(self.blocks(), EventCounts(lambda b: b > 0)).counts
        assert counts.tolist() == [2, 2]

    def test_stream_means_equals_one_block(self):
        stats = (lambda b: b[:, 0], lambda b: b.max(axis=1))
        acc = reduce_blocks(self.blocks(), StatMeans(*stats))
        whole = StatMeans(*stats)
        whole(np.concatenate(list(self.blocks())))
        assert acc.n == 3
        for i in range(2):
            assert acc.estimate(i).value == pytest.approx(whole.estimate(i).value)

    def test_stack_blocks_keeps_every_row(self):
        stacked = reduce_blocks(self.blocks(), RowStack(3)).rows
        assert stacked.tolist() == [[1.0, -1.0], [2.0, 3.0], [-4.0, 0.5]]
        assert reduce_blocks(iter([]), RowStack(3)).rows is None

    def test_row_stack_keeps_the_named_columns(self):
        acc = reduce_blocks(self.blocks(), RowStack(3, [1]))
        assert acc.rows.tolist() == [[-1.0], [3.0], [0.5]]

    def test_one_block_feeds_several_accumulators(self):
        """Accumulators fed block by block from one stream end where each
        ends when folded over the stream on its own."""
        counts, stack = EventCounts(lambda b: b[:, 0] > 0), RowStack(3)
        for block in self.blocks():
            counts(block)
            stack(block)
        alone = reduce_blocks(self.blocks(), EventCounts(lambda b: b[:, 0] > 0))
        assert counts.counts == alone.counts
        assert np.array_equal(stack.rows, reduce_blocks(self.blocks(), RowStack(3)).rows)
