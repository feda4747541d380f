import math
import tracemalloc

import numpy as np
import pytest

from conftest import CATALOGUE, DOCUMENTED_UNIFORMS, z_blocks
from maxhit import (
    NONLINEAR_DEFAULTS,
    BoundTooLooseError,
    CompleteDependence,
    Interval,
    InvalidArgumentError,
    LevelFunction,
    NonlinearExample,
    OffGridError,
    PiecewiseExample,
    SineBump,
    TimeGrid,
    TwoBranch,
    binomial_estimate,
    generator_bound,
    hitting_curve,
    make_grid,
    msp_corpus,
    msp_path_blocks,
)
from maxhit import msp
from maxhit.estimates import EventCounts, RowStack, reduce_blocks
from maxhit.generators import path_basis, sample_paths
from maxhit.msp import ks_distance_neg_exponential, stopping_exactness_violations
from maxhit.streams import BLOCK_SIZE, block_streams
from maxhit.verify import ks_band


def _changed_paths(spec, grid, n, seed) -> int:
    """The paths that arrivals past the stopping rule change, folded over
    the ``stopping_exactness_violations`` stream."""
    acc = reduce_blocks(stopping_exactness_violations(spec, grid, n, seed),
                        EventCounts(lambda mask: mask))
    return int(acc.counts[0])


def _dense_paths(spec, t, u):
    """Generator paths built row by row from the uniforms."""
    if isinstance(spec, CompleteDependence):
        return np.ones((u.shape[0], t.size))
    if isinstance(spec, PiecewiseExample):
        n, a, b = spec.n, spec.a, spec.b
        lvl_lo, lvl_hi = 1.0 / n, float(n)
        z0 = np.where(u[:, 0] < n / (n + 1.0), lvl_lo, lvl_hi)
        z1 = np.where(u[:, 1] < n / (n + 1.0), lvl_lo, lvl_hi)
        left = t < a
        right = t > b
        c0 = np.where(left, (a - t) / a, 0.0)
        c1 = np.where(right, (t - b) / (1.0 - b), 0.0)
        const = np.where(left, t / a, np.where(right, (1.0 - t) / (1.0 - b), 1.0))
        return z0[:, None] * c0 + z1[:, None] * c1 + const
    if isinstance(spec, NonlinearExample):
        a, b, c, d, e = spec.a, spec.b, spec.c, spec.d, spec.e
        y = u[:, 0] < (1.0 - b) / (a - b)
        yt = u[:, 1] < (1.0 - e) / (d - e)
        kappa = 1.0 - c * (a - 1.0) / (a - b)
        z0 = np.where(y, a, b)
        z1 = np.where(y, 0.0, c) + kappa * np.where(yt, d, e)
        left = t <= 0.5
        c0 = np.where(left, 1.0 - 2.0 * t, 0.0)
        c1 = np.where(left, 0.0, 2.0 * t - 1.0)
        const = np.where(left, 2.0 * t, 2.0 * (1.0 - t))
        return z0[:, None] * c0 + z1[:, None] * c1 + const
    if isinstance(spec, TwoBranch):
        falling = u[:, 0] < 0.5
        return np.where(falling[:, None], 2.0 * (1.0 - t), 2.0 * t)
    w = (spec.amp / 2.0) * (2.0 * u[:, 0] - 1.0)
    return 1.0 + w[:, None] * np.sin(2.0 * np.pi * t)


def _dense_bound(spec):
    """The largest value a path of the spec takes."""
    if isinstance(spec, PiecewiseExample):
        return float(spec.n)
    if isinstance(spec, NonlinearExample):
        a, b, c, d, e = spec.a, spec.b, spec.c, spec.d, spec.e
        kappa = 1.0 - c * (a - 1.0) / (a - b)
        return max(a, 1.0, *(s + kappa * v for s in (0.0, c) for v in (d, e)))
    if isinstance(spec, SineBump):
        return 1.0 + spec.amp
    return {CompleteDependence: 1.0, TwoBranch: 2.0}[type(spec)]


def _dense_corpus(spec, grid, n, seed):
    """eta paths from the arrival loop that builds, divides and
    max-accumulates every draw, compacting the live block as rows stop."""
    bound = _dense_bound(spec)
    k = DOCUMENTED_UNIFORMS[type(spec)]
    blocks = []
    for count, rng in block_streams(seed, n):
        out = np.empty((count, len(grid)))
        idx = np.arange(count)
        gamma = np.zeros(count)
        xi = np.zeros((count, len(grid)))
        while idx.size:
            gamma += rng.standard_exponential(idx.size)
            u = rng.random((idx.size, k)) if k else np.empty((idx.size, 0))
            z = _dense_paths(spec, grid.points, u)
            z /= gamma[:, None]
            np.maximum(xi, z, out=xi)
            done = bound / gamma < xi.min(axis=1)
            out[idx[done]] = xi[done]
            idx, gamma, xi = idx[~done], gamma[~done], xi[~done]
        blocks.append(-1.0 / out)
    return np.concatenate(blocks)


class TestGeneratorBound:
    def test_values(self):
        assert generator_bound(CompleteDependence()) == 1.0
        assert generator_bound(PiecewiseExample(n=2, a=0.25, b=0.75)) == 2.0
        assert generator_bound(PiecewiseExample(n=5, a=0.25, b=0.75)) == 5.0
        assert generator_bound(TwoBranch()) == 2.0
        assert generator_bound(SineBump(amp=0.5)) == 1.5
        assert generator_bound(
            NonlinearExample(**NONLINEAR_DEFAULTS)
        ) == pytest.approx(29.0 / 12.0)

    def test_bound_dominates_sampled_paths(self, any_spec, grid101):
        corpus = msp_corpus(any_spec, grid101, 500, 13)
        assert corpus.shape == (500, 101)
        # eta = -1/xi with xi <= C / Gamma_1 is not directly checkable here;
        # instead check the defining property on generator paths, exactly:
        # the row-max pretest and the stopping rule rest on it
        bound = generator_bound(any_spec)
        z = reduce_blocks(z_blocks(any_spec, grid101, 2000, 13), RowStack(2000)).rows
        assert z.max() <= bound
        # every shape an atom spec can take; SineBump rows at W = -amp/2,
        # 0 and just below amp/2, plus random ones
        u = np.concatenate([[[0.0], [0.5], [1.0 - 2.0**-53]],
                            np.random.default_rng(13).random((50, 1))])
        for points in [*range(2, 401), 1001, 4097]:
            rows = path_basis(any_spec, make_grid(points))
            if any_spec.atoms() is None:
                rows = sample_paths(any_spec, rows, u)
            assert rows.max() <= bound, points


@pytest.mark.parametrize("spec", CATALOGUE, ids=repr)
def test_first_round_overwrites_every_row(spec):
    # round one into a buffer of NaN gives the bits of the general round
    # merging into +0; grid 1001 splits the block into several tiles
    grid = make_grid(1001)
    basis = path_basis(spec, grid)
    results = []
    for fill, step in ((math.nan, msp._first_round), (0.0, msp._arrival_round)):
        ((count, rng),) = block_streams(39, 4096)
        live = msp._Live(count)
        xi = np.full((count, len(grid)), fill)
        done = step(spec, basis, rng, live, xi, generator_bound(spec))
        results.append((xi, done, live.gamma, live.lo, live.seen))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


#: (grid, n) of the dense-loop cases that are not a whole grid at n 4097:
#: cor33's window (0.2, 0.9) of grid 1001, and a grid so fine that an
#: arrival round's tile holds one row.
_WINDOW_AND_FINE = {
    "cor33-window": (TimeGrid(make_grid(1001).points[200:901]), 4097),
    "40001": (make_grid(40001), 64),
}


@pytest.mark.parametrize("points", [37, 1001, *_WINDOW_AND_FINE])
@pytest.mark.parametrize(
    "spec",
    CATALOGUE + [PiecewiseExample(n=5, a=0.1, b=0.3)],
    ids=repr,
)
def test_corpus_equals_dense_arrival_loop(spec, points):
    # draws whose row max cannot raise min xi, and draws of a shape a
    # replica has already drawn, are never built; n spans two blocks
    if points in _WINDOW_AND_FINE:
        grid, n = _WINDOW_AND_FINE[points]
        assert _changed_paths(spec, grid, n, 31) == 0
    else:
        grid, n = make_grid(points), 4097
    got = msp_corpus(spec, grid, n, 31)
    assert np.array_equal(got, _dense_corpus(spec, grid, n, 31))


@pytest.mark.parametrize("spec", CATALOGUE, ids=repr)
def test_shape_table_built_once_per_call(spec, monkeypatch):
    # one basis serves every round of both blocks
    tables, rounds = [], []

    def counted(fn, log):
        def wrapper(*args):
            log.append(1)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(msp, "path_basis", counted(msp.path_basis, tables))
    monkeypatch.setattr(msp, "draw_uniforms", counted(msp.draw_uniforms, rounds))
    blocks = list(msp_path_blocks(spec, make_grid(101), 4097, 32))
    assert len(blocks) == 2 and len(rounds) > 2
    assert len(tables) == 1


@pytest.mark.parametrize("spec", CATALOGUE, ids=repr)
def test_block_memory_stays_near_the_block(spec):
    # the rows an arrival round builds live one tile at a time, so
    # producing a 4096-path block needs little beyond the block itself
    blocks = msp_path_blocks(spec, make_grid(1001), 4096, 33)
    tracemalloc.start()
    try:
        block = next(blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (4096, 1001)
    assert peak <= 1.25 * block.nbytes


def _peak_bytes(fn):
    """tracemalloc's peak while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("spec", CATALOGUE, ids=repr)
def test_estimator_memory_stays_near_one_block(spec):
    # the stream writes every block into one buffer, so a two-block
    # estimate holds one block of paths, not the last block and the next
    grid = make_grid(1001)
    levels = np.array([-0.5, -1.0, -2.0])
    peak = _peak_bytes(
        lambda: hitting_curve(spec, levels, [Interval(0.0, 1.0)], grid, 8192, 34)
    )
    assert peak <= 1.25 * BLOCK_SIZE * len(grid) * 8


def test_corpus_memory_is_corpus_plus_one_block():
    grid = make_grid(1001)
    peak = _peak_bytes(lambda: msp_corpus(TwoBranch(), grid, 8192, 35))
    assert peak <= 1.6 * 8192 * len(grid) * 8


def test_consecutive_blocks_share_one_buffer():
    blocks = msp_path_blocks(TwoBranch(), make_grid(101), 4097, 36)
    first = next(blocks)
    assert np.shares_memory(first, next(blocks))


def test_interleaved_streams_keep_their_own_buffers():
    # one buffer per call: two streams consumed in turn give the blocks
    # each gives alone
    grid, specs = make_grid(101), (TwoBranch(), SineBump(amp=0.5))
    alone = [msp_corpus(spec, grid, 4097, 37) for spec in specs]
    streams = [msp_path_blocks(spec, grid, 4097, 37) for spec in specs]
    for lo, hi in ((0, 4096), (4096, 4097)):
        pair = [next(s) for s in streams]
        assert not np.shares_memory(*pair)
        for eta, corpus in zip(pair, alone):
            assert np.array_equal(eta, corpus[lo:hi])


def test_stopping_exactness_runs_the_shipped_first_round(monkeypatch):
    # the check covers the round one that msp_path_blocks runs
    first_round, calls = msp._first_round, []

    def counted(*args):
        calls.append(1)
        return first_round(*args)

    monkeypatch.setattr(msp, "_first_round", counted)
    assert _changed_paths(TwoBranch(), make_grid(11), 4097, 38) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("spec", [TwoBranch(), CompleteDependence()], ids=repr)
@pytest.mark.parametrize("seed", [1, 8, 15])
def test_stopping_exactness_catches_a_bound_below_sup_z(spec, seed, monkeypatch):
    # with C at 0.9 sup Z the loop stops paths that later arrivals still
    # raise, and continuing every path from C / min xi finds some of them
    bound = generator_bound(spec)
    monkeypatch.setattr(msp, "generator_bound", lambda _: 0.9 * bound)
    assert _changed_paths(spec, make_grid(101), 300, seed) > 0


class TestSampleMsp:
    def test_complete_dependence_constant_negative_exponential(self, grid101):
        corpus = msp_corpus(CompleteDependence(), grid101, 5, 42)
        assert (corpus == corpus[:, :1]).all()
        # each replica's constant is -Gamma_1, its first arrival in the
        # block's child stream
        ((count, replay),) = block_streams(42, 5)
        gamma1 = replay.standard_exponential(count)
        assert corpus[:, 0] == pytest.approx(-gamma1)

    def test_strictly_negative(self, any_spec, grid101):
        corpus = msp_corpus(any_spec, grid101, 2000, 14)
        assert (corpus < 0.0).all()

    def test_deterministic_in_seed(self, grid101):
        a = msp_corpus(TwoBranch(), grid101, 400, 15)
        b = msp_corpus(TwoBranch(), grid101, 400, 15)
        assert np.array_equal(a, b)

    def test_two_branch_margin(self, grid201):
        # P(eta_t <= -0.5) = exp(-0.5) at every t
        corpus = msp_corpus(TwoBranch(), grid201, 20_000, 16)
        freq = (corpus[:, 100] <= -0.5).mean()
        target = math.exp(-0.5)
        se = math.sqrt(target * (1 - target) / 20_000)
        assert abs(freq - target) <= 3 * se + 0.005

    def test_bound_too_loose_raises(self, grid101, monkeypatch):
        # a two-branch path needs at least two arrivals: one branch alone
        # leaves a zero at an endpoint
        monkeypatch.setattr(msp, "MAX_ARRIVALS", 1)
        with pytest.raises(BoundTooLooseError) as err:
            msp_corpus(TwoBranch(), grid101, 10, 0)
        assert err.value.arrivals == 1
        assert err.value.deficit > 0


def joint_cdf(spec, fs, n, seed):
    """P(eta <= f at every grid point) per function, all from one set of
    paths on the functions' common grid: the eq2-roundtrip reduction."""
    counts = reduce_blocks(
        msp_path_blocks(spec, LevelFunction.common_grid(fs), n, seed),
        EventCounts(*(lambda eta, fv=f.values: np.all(eta <= fv, axis=1) for f in fs)),
    ).counts
    return [binomial_estimate(int(c), n) for c in counts]


class TestJointCdf:
    def test_complete_dependence_constant_level(self, grid101):
        fs = [LevelFunction.constant(grid101, x) for x in (-1.0, -2.0)]
        ests = joint_cdf(CompleteDependence(), fs, 20_000, 17)
        for x, est in zip((-1.0, -2.0), ests):
            assert abs(est.value - math.exp(x)) <= 3 * est.se
            assert est.n == 20_000
        # shared draws: a lower level is never met more often
        assert ests[1].value <= ests[0].value

    def test_two_branch_doubles_the_rate(self, grid201):
        f = LevelFunction.constant(grid201, -1.0)
        (est,) = joint_cdf(TwoBranch(), [f], 20_000, 18)
        assert abs(est.value - math.exp(-2.0)) <= 3 * est.se + 0.002

    def test_grid_mismatch_rejected(self, grid101, grid201):
        fs = [LevelFunction.constant(g, -1.0) for g in (grid101, grid201)]
        with pytest.raises(ValueError, match="common grid"):
            joint_cdf(TwoBranch(), fs, 100, 19)

    def test_positive_level_function_rejected(self, grid101):
        with pytest.raises(ValueError, match="nonpositive"):
            LevelFunction.constant(grid101, 0.5)


def marginal_ks(spec, times, grid, n, seed):
    """KS distances of eta_t against exp(x), x <= 0, per time, all from one
    set of paths: the margins-ks reduction."""
    cols = [grid.index_of(t) for t in times]
    blocks = msp_path_blocks(spec, grid, n, seed)
    samples = reduce_blocks((eta[:, cols] for eta in blocks), RowStack(n)).rows
    return [ks_distance_neg_exponential(column) for column in samples.T]


class TestMarginalGof:
    def test_complete_dependence_within_band(self, grid101):
        (d,) = marginal_ks(CompleteDependence(), [0.5], grid101, 5000, 20)
        assert d <= ks_band(5000)

    def test_two_branch_at_zero(self, grid101):
        ds = marginal_ks(TwoBranch(), [0.0, 0.5, 1.0], grid101, 5000, 21)
        assert len(ds) == 3
        assert all(d <= ks_band(5000) for d in ds)
        # each time sees the same paths as when it is asked for alone
        assert marginal_ks(TwoBranch(), [0.5], grid101, 5000, 21) == ds[1:2]

    def test_nan_time_rejected(self):
        # NaN is on no grid; it must not fall back to column 0 (t = 0)
        with pytest.raises(OffGridError):
            marginal_ks(TwoBranch(), [math.nan], make_grid(11), 200, 1)

    def test_empty_sample_rejected(self, grid101):
        with pytest.raises(ValueError):
            marginal_ks(TwoBranch(), [0.0], grid101, 0, 22)
        with pytest.raises(InvalidArgumentError, match="empty sample"):
            ks_distance_neg_exponential([])

    def test_ks_oracle_detects_wrong_law(self, rng):
        # exact inverse-transform sample passes, a shifted one fails
        u = rng.random(4000)
        good = np.log(u)
        assert ks_distance_neg_exponential(good) <= ks_band(4000)
        assert ks_distance_neg_exponential(good - 0.5) > 10 * ks_band(4000)


class TestStoppingExactness:
    def test_no_changes_after_rule_fires(self, any_spec, grid101):
        assert _changed_paths(any_spec, grid101, 30, 23) == 0

    def test_streams_one_path_mask_per_block(self, grid101):
        masks = list(stopping_exactness_violations(TwoBranch(), grid101, BLOCK_SIZE + 3, 23))
        assert [(m.dtype, m.shape) for m in masks] == [(bool, (BLOCK_SIZE,)), (bool, (3,))]
