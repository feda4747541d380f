import math

import numpy as np
import pytest

from maxhit import Estimate, binomial_estimate, rule_of_three, wilson_interval
from maxhit.estimates import (
    RunningMean,
    count_events,
    mean_estimate_from_sums,
    stream_means,
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


class TestBinomialEstimate:
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


class TestEstimate:
    def test_value_must_sit_inside_ci(self):
        with pytest.raises(ValueError):
            Estimate(value=0.9, se=0.01, ci=(0.1, 0.2), n=10)

    def test_positive_n_required(self):
        with pytest.raises(ValueError):
            Estimate(value=0.0, se=0.0, ci=(0.0, 0.0), n=0)

    def test_as_dict_round(self):
        est = binomial_estimate(3, 7)
        d = est.as_dict()
        assert set(d) == {"value", "se", "ci", "n"}


class TestMeanEstimate:
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


class TestRunningMean:
    def test_blockwise_equals_whole(self, rng):
        vals = rng.normal(size=(1000, 2))
        acc = RunningMean(k=2)
        for chunk in np.array_split(vals, 7):
            acc.add(chunk[:, 0], chunk[:, 1])
        whole = RunningMean(k=2)
        whole.add(vals[:, 0], vals[:, 1])
        for i in range(2):
            assert acc.estimate(i).value == pytest.approx(whole.estimate(i).value)
            assert acc.estimate(i).n == 1000

    def test_column_count_enforced(self):
        acc = RunningMean(k=2)
        with pytest.raises(ValueError):
            acc.add(np.zeros(5))

    def test_vector_statistic_sums_per_column(self):
        acc = RunningMean(k=1)
        acc.add(np.array([[1.0, 2.0], [3.0, 4.0]]))
        acc.add(np.array([[5.0, 6.0]]))
        assert acc.n == 3
        assert acc.total[0].tolist() == [9.0, 12.0]
        assert acc.total_sq[0].tolist() == [35.0, 56.0]

    def test_row_counts_must_agree(self):
        acc = RunningMean(k=2)
        with pytest.raises(ValueError):
            acc.add(np.zeros(5), np.zeros(4))


class TestReducers:
    def blocks(self):
        return iter([np.array([[1.0, -1.0], [2.0, 3.0]]), np.array([[-4.0, 0.5]])])

    def test_count_events_per_event(self):
        counts = count_events(
            self.blocks(), lambda b: b[:, 0] > 0, lambda b: np.all(b > 0, axis=1)
        )
        assert [int(c) for c in counts] == [2, 1]

    def test_count_events_two_dimensional_mask(self):
        (counts,) = count_events(self.blocks(), lambda b: b > 0)
        assert counts.tolist() == [2, 2]

    def test_stream_means_equals_one_block(self):
        acc = stream_means(self.blocks(), lambda b: b[:, 0], lambda b: b.max(axis=1))
        whole = RunningMean(k=2)
        vals = np.concatenate(list(self.blocks()))
        whole.add(vals[:, 0], vals.max(axis=1))
        assert acc.n == 3
        for i in range(2):
            assert acc.estimate(i).value == pytest.approx(whole.estimate(i).value)
