import numpy as np
import pytest

from maxhit import (
    Interval,
    InvalidArgumentError,
    TwoBranch,
    hitting_curve,
    make_grid,
    msp_corpus,
    run_checks,
    two_hit_prob,
)
from maxhit.generators import shape_blocks
from maxhit.streams import as_seedseq, block_streams

GRID = make_grid(11)
SPEC = TwoBranch()
UNIT = Interval(0.0, 1.0)

#: Every call that streams blocks; "multi_hit_prob" hits two touching intervals.
EMPTY_SAMPLE_CALLS = {
    "block_streams": lambda n: list(block_streams(1, n)),
    "shape_blocks": lambda n: list(shape_blocks(SPEC, GRID, n, 1)),
    "hitting_curve": lambda n: hitting_curve(SPEC, np.array([-1.0]), [UNIT], GRID, n, 1),
    "msp_corpus": lambda n: msp_corpus(SPEC, GRID, n, 1),
    "multi_hit_prob": lambda n: hitting_curve(
        SPEC, [-1.0], [Interval(0.0, 0.5), Interval(0.5, 1.0)], GRID, n, 1),
    "two_hit_prob": lambda n: two_hit_prob(SPEC, -1.0, 0.5, GRID, n, 1),
}


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("call", EMPTY_SAMPLE_CALLS.values(), ids=EMPTY_SAMPLE_CALLS)
def test_empty_sample_is_refused(call, n):
    with pytest.raises(ValueError, match="replication count must be >= 1"):
        call(n)


def _no_draws(*args):
    """Stands in for ``numpy.random.default_rng``: a call is a draw."""
    raise AssertionError("a block was drawn")


@pytest.mark.parametrize("n", [2.5, 4096.5, True, "10", None])
def test_fractional_or_non_integer_n_is_refused_before_any_draw(n, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        msp_corpus(SPEC, GRID, n, 1)


@pytest.mark.parametrize("seed", [None, -1, 2.5, True, "7", np.int64(-2)])
def test_bad_seed_is_refused_before_any_draw(seed, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(InvalidArgumentError, match="seed must be an integer >= 0"):
        msp_corpus(SPEC, GRID, 100, seed)
    with pytest.raises(InvalidArgumentError, match="seed must be an integer >= 0"):
        as_seedseq(seed)


def test_numpy_integers_are_the_python_integers():
    assert as_seedseq(np.uint32(7)).entropy == as_seedseq(7).entropy == 7
    a = msp_corpus(SPEC, GRID, np.int64(300), np.int64(7))
    assert np.array_equal(a, msp_corpus(SPEC, GRID, 300, 7))


def test_a_seed_sequence_passes_through():
    root = np.random.SeedSequence(5)
    assert as_seedseq(root) is root


@pytest.mark.parametrize("seed", [None, -1, 2.5])
def test_run_checks_refuses_a_bad_seed_before_any_check(seed, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(InvalidArgumentError, match="seed must be an integer >= 0"):
        run_checks(["eq1-moments"], seed, n_default=1000, grid_points=11)
