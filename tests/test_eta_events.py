"""The paper suite's eta events read each block's row extremes once
(``paths.RowExtremes``); the events rewritten from point-by-point scans
into extreme or compare forms give the same masks bit for bit; and no
reducer of the suite allocates a temporary the size of its block."""

import tracemalloc

import numpy as np
import pytest

from maxhit import verify
from maxhit.dnorm import LevelFunction
from maxhit.generators import SineBump, shape_blocks
from maxhit.hitting import curve_mask, down_up_down_mask, hit_mask
from maxhit.paths import Interval, RowExtremes, make_grid
from maxhit.streams import label_key

#: Holds every time the checks below name (0.2, 0.25, 0.3, 0.4, 0.5, ...).
GRID = make_grid(21)
ETA = label_key(verify.ETA_STREAM_LABEL)


def _plan(check_ids, grid, n=4096):
    """The streams of ``check_ids``, registered as ``run_checks`` does:
    stream key -> (draw, reducers)."""
    streams = {}
    for cid in check_ids:
        ctx = verify.CheckContext(cid, 7, n, grid, streams)
        ctx.pending = verify._CHECKS[cid].plan(ctx)
        next(ctx.pending)
    return streams


def _eta_reducer(check_id, name):
    """The one reducer ``check_id`` registers on ``name``'s eta stream."""
    (reducer,) = _plan([check_id], GRID)[(ETA, list(verify.CATALOGUE).index(name))][1]
    return reducer


def _sloped():
    """example1-complete-dependence's sloped curve."""
    return LevelFunction.piecewise_linear(GRID, [0.0, 1.0], [-1.0, -2.0])


def _curves():
    """Every level function an eta event compares with, as rows."""
    return [f.values for _, f in verify._criterion2_functions(GRID)] + [_sloped().values]


def _adversarial_block(seed=0):
    """Rows on ``GRID`` that sit on the edges of the events: each curve
    exactly, and with one point one ulp above or below it (so step-run
    edges too); rows constant at a level, at its neighbours, at 0, -0 and
    the smallest positive float; and rows whose every value is drawn from
    all of those, or from the standard negative exponential law."""
    rng = np.random.default_rng(seed)
    width = len(GRID)
    levels = np.array([-1.0, -0.5, -2.0, -0.25, -4.0, -0.01, -1.01, -1.5, 0.0])
    levels = np.concatenate([levels, np.nextafter(levels, np.inf),
                             np.nextafter(levels, -np.inf), [-0.0]])
    rows = [np.full(width, v) for v in levels]
    curves = _curves()
    for f in curves:
        rows.append(f.copy())
        for i in range(width):
            for toward in (np.inf, -np.inf):
                row = f.copy()
                row[i] = np.nextafter(f[i], toward)
                rows.append(row)
    pool = np.vstack([*curves, *(np.nextafter(f, s) for f in curves for s in (np.inf, -np.inf)),
                      *(np.full(width, v) for v in levels)])
    picks = rng.integers(len(pool), size=(3000, width))
    rows.extend(pool[picks, np.arange(width)])
    rows.extend(-rng.standard_exponential((1000, width)))
    block = np.array(rows)
    return block[rng.permutation(len(block))]


@pytest.fixture(scope="module")
def block():
    return _adversarial_block()


class TestRowExtremes:
    SLICES = [slice(None), slice(0, len(GRID)), slice(0, 6), slice(5, None),
              slice(5, 16), slice(20, 21), slice(3, 4)]

    def test_extremes_equal_direct_min_and_max(self, block):
        ext = RowExtremes(block)
        for sl in self.SLICES:
            assert np.array_equal(ext.row_min(sl), block[:, sl].min(axis=1))
            assert np.array_equal(ext.row_max(sl), block[:, sl].max(axis=1))

    def test_each_slice_is_reduced_once(self, block):
        ext = RowExtremes(block)
        assert ext.row_max() is ext.row_max(slice(0, len(GRID)))
        assert ext.row_min(slice(5, 16)) is ext.row_min(slice(5, 16, 1))
        assert ext.row_min(slice(5, 16)) is not ext.row_max(slice(5, 16))

    def test_indexing_reads_the_block(self, block):
        ext = RowExtremes(block)
        assert np.array_equal(ext[:, [0, 4]], block[:, [0, 4]])

    def test_hit_rule_is_the_pointwise_bracket(self, block):
        levels = np.array([-0.5, -1.0, -2.0])
        ext = RowExtremes(block)
        for sl in self.SLICES:
            seg = block[:, sl]
            assert np.array_equal(hit_mask(ext, sl, -1.0),
                                  (seg.min(axis=1) <= -1.0) & (-1.0 <= seg.max(axis=1)))
            assert np.array_equal(hit_mask(ext, sl, levels),
                                  np.column_stack([hit_mask(ext, sl, x) for x in levels]))


def _curve_pointwise(eta, levels, slices):
    """``curve_mask`` as it reduced each slice of the block itself."""
    hit = np.ones((eta.shape[0], len(levels)), dtype=bool)
    for sl in slices:
        seg = eta[:, sl]
        hit &= (seg.min(axis=1)[:, None] <= levels) & (levels <= seg.max(axis=1)[:, None])
    return hit


class TestRewrittenEventsArePointwise:
    """Each event equals the point-by-point form it replaced, bit for bit."""

    @pytest.mark.parametrize("name", list(verify.CATALOGUE))
    def test_eq2_below_every_function(self, block, name):
        fs = [f for _, f in verify._criterion2_functions(GRID)]
        ext = RowExtremes(block)
        got = [event(ext) for event in _eta_reducer("eq2-roundtrip", name).events]
        for mask, f in zip(got, fs):
            assert np.array_equal(mask, np.all(block <= f.values, axis=1))
        # the rewrite is not vacuous on this block
        assert all(0 < m.sum() < len(block) for m in got)

    @pytest.mark.parametrize("runs", [1, 2, 3, verify._MAX_RUNS, verify._MAX_RUNS + 1, 21])
    def test_below_by_runs_or_by_points(self, block, runs):
        # a staircase of `runs` runs: run maxima up to _MAX_RUNS runs, tiles after
        values = -1.0 - 0.1 * (np.arange(len(GRID)) * runs // len(GRID))
        f = LevelFunction(GRID, values)
        assert np.array_equal(verify._below(f)(RowExtremes(block)),
                              np.all(block <= values, axis=1))

    def test_eq3_counts_nonnegative_values(self, block):
        (event,) = _eta_reducer("eq3-negative-paths", "two_branch").events
        got = np.count_nonzero(event(RowExtremes(block)), axis=0)
        assert np.array_equal(got, np.count_nonzero(block >= 0.0, axis=0))
        assert got.sum() > 0

    def test_survivor_is_min_above_minus_one(self, block):
        (event,) = _eta_reducer("survivor-bound", "sine_bump").events
        expected = np.all(block > -1.0, axis=1)
        assert np.array_equal(event(RowExtremes(block)), expected)
        assert 0 < expected.sum() < len(block)

    def test_example1_sloped_curve_is_two_compares(self, block):
        fixed, sloped = _eta_reducer("example1-complete-dependence",
                                     "complete_dependence").events
        ext = RowExtremes(block)
        seg = block - _sloped().values
        expected = (seg.min(axis=1) <= 0.0) & (0.0 <= seg.max(axis=1))
        assert np.array_equal(sloped(ext), expected)
        assert 0 < expected.sum() < len(block)
        assert np.array_equal(fixed(ext), _curve_pointwise(block, np.array([-1.0]), [slice(None)]))

    @pytest.mark.parametrize("check_id,name", [("hintegral-bound", "sine_bump"),
                                               ("final-integral-3/2", "two_branch")])
    def test_range_means_sum_the_same_values(self, block, check_id, name):
        acc = _eta_reducer(check_id, name)
        acc(RowExtremes(block))
        span, minus_max = acc.estimate(0), acc.estimate(1)
        ref = verify.StatMeans(lambda eta: eta.max(axis=1) - eta.min(axis=1),
                               lambda eta: -eta.max(axis=1))
        ref(block)
        assert (span, minus_max) == (ref.estimate(0), ref.estimate(1))

    @pytest.mark.parametrize("check_id,name,levels,intervals", [
        ("prop2-null-on-constant-interval", "piecewise_example", [-1.0], [(0.25, 0.75)]),
        ("hcurve-bound", "sine_bump", [-0.25, -1.0, -4.0], [(0.0, 1.0)]),
        ("final-two-hit", "two_branch", [-1.0], [(0.0, 0.5), (0.5, 1.0)]),
        ("final-no-three-hit", "two_branch", [-1.0], [(0.0, 0.3), (0.4, 0.6), (0.7, 1.0)]),
    ])
    def test_hits_are_the_curve_mask(self, block, check_id, name, levels, intervals):
        (event,) = _eta_reducer(check_id, name).events
        slices = [GRID.slice_of(Interval(*iv)) for iv in intervals]
        expected = _curve_pointwise(block, np.array(levels), slices)
        assert np.array_equal(event(RowExtremes(block)), expected)
        assert np.array_equal(curve_mask(RowExtremes(block), np.array(levels), slices),
                              expected)

    @pytest.mark.parametrize("name", ["nonlinear_example", "sine_bump"])
    def test_cor33_window_items(self, block, name):
        dud_event, items = _eta_reducer("cor33-equivalences", name).events
        sl = GRID.slice_of(Interval(*verify._COR33_WINDOW))
        levels = np.array(verify._COR33_LEVELS)
        window = block[:, sl]
        below = window.max(axis=1)[:, None] <= levels
        ends_below = (window[:, :1] <= levels) & (window[:, -1:] <= levels)
        ends_above = (window[:, :1] > levels) & (window[:, -1:] > levels)
        expected = np.hstack([ends_below & ~below, below, ends_above])
        assert np.array_equal(items(RowExtremes(block)), expected)
        cols = (sl.start, GRID.index_of(verify._COR33_DUD_T0[name]), sl.stop - 1)
        assert np.array_equal(dud_event(RowExtremes(block)),
                              down_up_down_mask(block, cols, -1.0))

    def _hits(self, eta, sl, x):
        seg = eta[:, sl]
        return (seg.min(axis=1) <= x) & (x <= seg.max(axis=1))

    def test_prop32_events(self, block):
        (event,) = _eta_reducer("prop32-two-hit", "sine_bump").events
        i0, i_end = GRID.index_of(0.25), GRID.index_of(0.5)
        two = self._hits(block, slice(0, i0 + 1), -1.0) & self._hits(block, slice(i0, None), -1.0)
        dud = down_up_down_mask(block, (0, i0, i_end), -1.0)
        expected = np.column_stack([dud & ~two, dud, two])
        assert np.array_equal(event(RowExtremes(block)), expected)

    @pytest.mark.parametrize("name", list(verify.CATALOGUE))
    def test_shared_draw_invariants(self, block, name):
        (event,) = _eta_reducer("shared-draw-invariants", name).events
        i_q, i_h, x = GRID.index_of(0.25), GRID.index_of(0.5), -1.0
        hit_full = self._hits(block, slice(None), x)
        two = self._hits(block, slice(0, i_q + 1), x) & self._hits(block, slice(i_q, None), x)
        dud = down_up_down_mask(block, (0, i_q, i_h), x)
        rhs = (block.min(axis=1) <= x).astype(int) - (block.max(axis=1) < x).astype(int)
        expected = np.column_stack([
            self._hits(block, GRID.slice_of(verify._INNER), x) & ~hit_full,
            dud & ~two,
            hit_full.astype(int) != rhs,
        ])
        assert np.array_equal(event(RowExtremes(block)), expected)


#: A reducer's extra peak allocation, as a share of its block's bytes. A
#: block-sized temporary is 1/8 of them if boolean and all of them if float.
PEAK_SHARE = 0.1
MEMORY_GRID = make_grid(401)


def _extra_peak(reducers, block) -> int:
    """Peak bytes allocated while ``reducers`` are fed ``block``, over what
    was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for reduce in reducers:
            reduce(block)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestNoBlockSizedTemporary:
    """One 4096-path block fed to every reducer that the paper suite
    registers on it peaks at a small share of the block's bytes."""

    @pytest.fixture(scope="class")
    def plan(self):
        return _plan(verify.check_ids(), MEMORY_GRID)

    @pytest.mark.parametrize("name", list(verify.CATALOGUE))
    def test_eta_reducers(self, plan, name):
        draw, reducers = plan[(ETA, list(verify.CATALOGUE).index(name))]
        block = next(iter(draw()))
        assert block.rows.shape == (4096, len(MEMORY_GRID)) and len(reducers) >= 6
        assert _extra_peak(reducers, block) <= PEAK_SHARE * block.rows.nbytes

    def test_sine_bump_z_reducers(self, plan):
        reducers = [r for key, (draw, rs) in plan.items() if key[0] != ETA
                    and getattr(draw, "func", None) is verify.shape_blocks
                    and isinstance(draw.args[0], SineBump) for r in rs]
        # eq1's sums, eq2's D-norms, survivor's v, cor33's item 3 and the
        # shared-draw invariants
        assert len(reducers) == 5
        block = next(shape_blocks(SineBump(amp=0.5), MEMORY_GRID, 4096, 3))
        assert block.rows.shape == (4096, len(MEMORY_GRID)) and block.index == slice(None)
        assert _extra_peak(reducers, block) <= PEAK_SHARE * block.rows.nbytes
