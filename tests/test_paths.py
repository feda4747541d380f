import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxhit
from maxhit import Interval, InvalidArgumentError, OffGridError, TimeGrid, make_grid
from maxhit.hitting import hit_mask


class TestMakeGrid:
    def test_endpoints_only(self):
        assert make_grid(2).points.tolist() == [0.0, 1.0]

    def test_midpoint(self):
        assert make_grid(3).points.tolist() == [0.0, 0.5, 1.0]

    def test_quarter_spacing(self):
        assert make_grid(5).points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_few_points(self, n):
        with pytest.raises(InvalidArgumentError):
            make_grid(n)

    @pytest.mark.parametrize("n", [3.0, 11.5, True, "11"])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            make_grid(n)

    def test_numpy_integer_size(self):
        assert make_grid(np.int64(3)).points.tolist() == [0.0, 0.5, 1.0]

    def test_default_scale_times_are_exact(self):
        g = make_grid(1001)
        for t in (0.0, 0.2, 0.25, 0.37, 0.5, 0.75, 0.9, 1.0):
            assert g.points[g.index_of(t)] == t


class TestTimeGrid:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            TimeGrid(np.array([0.0, 0.6, 0.5, 1.0]))
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            TimeGrid([0.9, 0.1])

    def test_rejects_points_outside_unit_interval(self):
        for points in ([-0.1, 0.5], [0.5, 1.1], [-5.0, 7.0], [float("inf")],
                       [0.5, float("inf")]):
            with pytest.raises(InvalidArgumentError, match=r"must lie in \[0, 1\]"):
                TimeGrid(points)

    @pytest.mark.parametrize("points", [[float("nan")], [0.2, float("nan")],
                                        [float("nan"), 0.2]])
    def test_rejects_nan(self, points):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(points)

    @pytest.mark.parametrize("points", [[0.2, 0.9], [0.5], [0.0], [1.0]])
    def test_accepts_any_increasing_times_in_unit_interval(self, points):
        # a window's points, or a finite set T: no need to span [0, 1]
        assert TimeGrid(points).points.tolist() == points

    def test_window_refuses_times_off_it(self):
        window = TimeGrid(make_grid(11).points[2:10])  # 0.2, 0.3, ..., 0.9
        assert window.slice_of(Interval(0.3, 0.5)) == slice(1, 4)
        with pytest.raises(OffGridError):
            window.slice_of(Interval(0.0, 0.5))
        with pytest.raises(OffGridError):
            window.index_of(0.25)

    def test_index_of_off_grid(self):
        g = make_grid(3)
        with pytest.raises(ValueError, match="not on the grid"):
            g.index_of(0.1)

    def test_index_of_nan_is_off_grid(self):
        # |points - nan| compares False against any tolerance
        with pytest.raises(OffGridError, match="time nan is not on the grid"):
            make_grid(11).index_of(float("nan"))

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_nearest_index_refuses_non_finite_times(self, t):
        # argmin over |points - nan| would otherwise pick index 0
        with pytest.raises(OffGridError, match=f"time {t!r} is near no grid point"):
            make_grid(11).nearest_index(t)

    def test_nearest_index_rounds_to_nearest(self):
        g = make_grid(11)
        assert [g.nearest_index(t) for t in (-5.0, 0.04, 0.06, 0.5, 7.0)] == [
            0, 0, 1, 5, 10]

    def test_points_are_read_only(self):
        g = make_grid(5)
        with pytest.raises(ValueError):
            g.points[0] = 0.5


def test_subgrid_is_gone():
    # TimeGrid is the one type for a set of times
    assert not hasattr(maxhit, "SubGrid")
    with pytest.raises(ImportError):
        from maxhit.paths import SubGrid  # noqa: F401


class TestInterval:
    @pytest.mark.parametrize("lo,hi", [(0.5, 0.5), (0.7, 0.3), (-0.1, 0.5), (0.5, 1.2)])
    def test_bad_intervals(self, lo, hi):
        with pytest.raises(InvalidArgumentError, match="need 0 <= lo < hi <= 1"):
            Interval(lo, hi)


finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@given(
    values=st.lists(finite_floats, min_size=2, max_size=40),
    x=finite_floats,
)
@settings(max_examples=200, deadline=None)
def test_hit_iff_extrema_bracket(values, x):
    grid = make_grid(len(values))
    sl = grid.slice_of(Interval(0.0, 1.0))
    got = hit_mask(np.array([values]), sl, x)
    assert got.tolist() == [min(values) <= x <= max(values)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_restrict_then_extrema_is_range_extrema(data):
    n = data.draw(st.integers(min_value=3, max_value=30))
    values = data.draw(
        st.lists(finite_floats, min_size=n, max_size=n)
    )
    i = data.draw(st.integers(min_value=0, max_value=n - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
    grid = make_grid(n)
    interval = Interval(float(grid.points[i]), float(grid.points[j]))
    window = np.array(values)[grid.slice_of(interval)]
    got = (float(window.min()), float(window.max()))
    expect = (min(values[i : j + 1]), max(values[i : j + 1]))
    assert got == expect
