import dataclasses
import json
import math
import tracemalloc
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOGUE, DOCUMENTED_UNIFORMS, z_blocks
from maxhit import (
    NONLINEAR_DEFAULTS,
    CompleteDependence,
    InvalidArgumentError,
    InvalidSpecError,
    Interval,
    NonlinearExample,
    PiecewiseExample,
    SineBump,
    TimeGrid,
    TwoBranch,
    closed_form_m,
    closed_form_m_tilde,
    generator_bound,
    generator_from_json,
    make_grid,
    msp_corpus,
)
from maxhit.estimates import RowStack, StatMeans, per_path, reduce_blocks
from maxhit.generators import (
    atom_index, draw_uniforms, expected_max, path_basis, path_maxima,
    sample_paths, shape_blocks,
)
from maxhit.streams import block_streams
from maxhit.verify import CATALOGUE as NAMED_CATALOGUE
from maxhit.verify import _sup_at_endpoint

#: Each variant's document tag: its name in the suite's catalogue.
TAGS = {type(spec): name for name, spec in NAMED_CATALOGUE}


def _document(spec) -> dict:
    """The generator document that describes ``spec``."""
    return {"variant": TAGS[type(spec)], "params": dataclasses.asdict(spec)}


ATOM_SPECS = [
    CompleteDependence(),
    TwoBranch(),
    PiecewiseExample(n=2, a=0.25, b=0.75),
    PiecewiseExample(n=5, a=0.1, b=0.3),
    NonlinearExample(**NONLINEAR_DEFAULTS),
]


class TestValidateSpec:
    """Each spec constructor refuses parameters that violate a constraint."""

    def test_nonlinear_defaults_ok(self):
        # thresholds for these parameters: c < (a-b)/(a-1) = 1.5 and
        # d > (a-b)/(a-b-c(a-1)) = 6
        NonlinearExample(a=2, b=0.5, c=1.25, d=7, e=0.5)

    def test_nonlinear_c_too_large(self):
        with pytest.raises(InvalidSpecError, match=r"c < \(a-b\)/\(a-1\) violated"):
            NonlinearExample(a=2, b=0.5, c=1.6, d=7, e=0.5)

    def test_nonlinear_c_boundary_rejected(self):
        with pytest.raises(InvalidSpecError):
            NonlinearExample(a=2, b=0.5, c=1.5, d=7, e=0.5)

    def test_nonlinear_d_too_small(self):
        with pytest.raises(InvalidSpecError, match="< d violated"):
            NonlinearExample(a=2, b=0.5, c=1.25, d=6, e=0.5)

    def test_nonlinear_several_violations_listed(self):
        with pytest.raises(InvalidSpecError) as err:
            NonlinearExample(a=0.9, b=1.2, c=0.8, d=7, e=1.5)
        assert err.value.violations == [
            "1 < a violated", "b < 1 violated", "1 < c violated", "e < 1 violated"]

    def test_piecewise_ok(self):
        PiecewiseExample(n=2, a=0.25, b=0.75)

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(n=0, a=0.25, b=0.75), "n >= 1"),
            (dict(n=2, a=0.0, b=0.75), "0 < a"),
            (dict(n=2, a=0.8, b=0.75), "a < b"),
            (dict(n=2, a=0.25, b=1.0), "b < 1"),
            pytest.param(dict(n=True, a=0.25, b=0.75), "'n' must be a whole number",
                         id="kwargs4-integer n >= 1"),
            (dict(n=np.True_, a=0.25, b=0.75), "'n' must be a whole number"),
        ],
    )
    def test_piecewise_violations(self, kwargs, needle):
        with pytest.raises(InvalidSpecError, match=needle):
            PiecewiseExample(**kwargs)

    @pytest.mark.parametrize("amp", [0.0, 1.0, -0.3, 2.0])
    def test_sine_bump_amp_range(self, amp):
        with pytest.raises(InvalidSpecError):
            SineBump(amp=amp)

    def test_parameterless_variants_always_valid(self):
        CompleteDependence()
        TwoBranch()

    @pytest.mark.parametrize(
        "make, violations",
        [
            # each was constructible before the constructors checked, and
            # closed_form_m gave 2.25, gave 1.556 or divided by zero
            (lambda: SineBump(amp=5.0), ["0 < amp < 1 violated"]),
            (lambda: PiecewiseExample(n=2, a=0.9, b=0.1), ["a < b violated"]),
            (lambda: PiecewiseExample(n=0, a=0.25, b=0.75),
             ["integer n >= 1 violated"]),
            (lambda: NonlinearExample(a=1.0, b=1.0, c=1.25, d=7.0, e=0.5),
             ["1 < a violated", "b < 1 violated"]),
            # numbers no float holds, so no atom table either
            (lambda: NonlinearExample(**{**NONLINEAR_DEFAULTS, "d": float("inf")}),
             ["'d' must be a finite float"]),
            (lambda: PiecewiseExample(n=2**1024, a=0.25, b=0.75),
             ["'n' must be a whole number"]),
        ],
        ids=["sine-amp-5", "piecewise-a-above-b", "piecewise-n-0", "nonlinear-a-1",
             "nonlinear-d-inf", "piecewise-n-huge"],
    )
    def test_invalid_spec_cannot_be_constructed(self, make, violations):
        with pytest.raises(InvalidSpecError) as err:
            make()
        assert err.value.violations == violations

    def test_rounded_d_threshold_is_refused(self):
        # c sits one ulp below (a-b)/(a-1), so a-b-c(a-1) rounds to 0 and
        # no finite d clears the threshold (this divided by zero before)
        a, b = 2.486305261275823, 0.4494910647887381
        c = np.nextafter((a - b) / (a - 1.0), 0.0)
        assert a - b - c * (a - 1.0) == 0.0
        with pytest.raises(InvalidSpecError) as err:
            NonlinearExample(a=a, b=b, c=float(c), d=1e300, e=0.5)
        assert err.value.violations == ["(a-b)/(a-b-c(a-1)) < d violated"]


class TestSpecNumbers:
    """A spec stores each parameter as the number of its field's type that
    equals the value passed, or refuses it before any constraint."""

    @pytest.mark.parametrize("d", [10**400, 2**127 + 1, np.int64(2**62 + 1)],
                             ids=["10**400", "2**127+1", "numpy-2**62+1"])
    def test_int_no_float_holds_is_refused(self, d):
        # 10**400 built a spec whose closed_form_m overflowed, 2**127+1 one
        # whose own document did not load; a numpy int compares with a
        # float in float64, so 2**62+1 must be compared as a Python int
        with pytest.raises(InvalidSpecError) as err:
            NonlinearExample(**{**NONLINEAR_DEFAULTS, "d": d})
        assert err.value.violations == ["'d' must be a finite float"]

    def test_string_is_refused(self):
        with pytest.raises(InvalidSpecError) as err:
            SineBump(amp="0.5")
        assert err.value.violations == ["'amp' must be a finite float"]

    def test_every_mistyped_field_is_named_before_constraints(self):
        with pytest.raises(InvalidSpecError) as err:
            NonlinearExample(a=0.5, b=None, c=1.25, d=float("inf"), e=float("nan"))
        assert err.value.violations == [
            "'b' must be a finite float", "'d' must be a finite float",
            "'e' must be a finite float"]

    @pytest.mark.parametrize("n", [2.0, np.int64(2)], ids=["float", "numpy-int"])
    def test_whole_n_is_stored_as_int(self, n):
        spec = PiecewiseExample(n=n, a=0.25, b=0.75)
        assert spec == PiecewiseExample(n=2, a=0.25, b=0.75)
        assert type(spec.n) is int

    def test_numpy_float_is_stored_as_float(self):
        spec = SineBump(amp=np.float32(0.5))
        assert type(spec.amp) is float
        assert json.loads(json.dumps(_document(spec)))["params"] == {"amp": 0.5}

    def test_huge_n_is_refused_without_printing_it(self):
        # the repr of an int of more than 4300 digits raises ValueError
        with pytest.raises(InvalidSpecError):
            PiecewiseExample(n=10**5000, a=0.25, b=0.75)


class TestSamplePaths:
    def test_complete_dependence_is_unit(self):
        spec = CompleteDependence()
        z = sample_paths(spec, path_basis(spec, make_grid(5)), np.empty((3, 0)))
        assert (z == 1.0).all()

    def test_piecewise_case_structure(self):
        # u0 >= n/(n+1) draws the high endpoint n, u1 < n/(n+1) draws 1/n
        grid = make_grid(5)
        spec = PiecewiseExample(n=2, a=0.25, b=0.75)
        z = sample_paths(spec, path_basis(spec, grid), np.array([[0.9, 0.1]]))
        assert z[0].tolist() == [2.0, 1.0, 1.0, 1.0, 0.5]

    def test_two_branch_falling(self):
        basis = path_basis(TwoBranch(), make_grid(3))
        z = sample_paths(TwoBranch(), basis, np.array([[0.1]]))
        assert z[0].tolist() == [2.0, 1.0, 0.0]

    def test_two_branch_rising(self):
        basis = path_basis(TwoBranch(), make_grid(3))
        z = sample_paths(TwoBranch(), basis, np.array([[0.9]]))
        assert z[0].tolist() == [0.0, 1.0, 2.0]

    def test_nonlinear_atom_values(self):
        grid = make_grid(5)
        spec = NonlinearExample(**NONLINEAR_DEFAULTS)
        # (Y=1, Yt=1): Z_0 = a = 2, Z_1 = kappa d = 7/6; V-shaped through 1
        z = sample_paths(spec, path_basis(spec, grid), np.array([[0.0, 0.0]]))
        assert z[0, 0] == pytest.approx(2.0)
        assert z[0, 2] == pytest.approx(1.0)
        assert z[0, 4] == pytest.approx(7.0 / 6.0)
        # (Y=0, Yt=0): Z_0 = b, Z_1 = c + kappa e = 4/3; increasing
        z = sample_paths(spec, path_basis(spec, grid), np.array([[0.99, 0.99]]))
        assert z[0, 0] == pytest.approx(0.5)
        assert z[0, 4] == pytest.approx(4.0 / 3.0)

    def test_sine_bump_amplitude_is_half_width(self):
        spec = SineBump(amp=0.5)
        basis = path_basis(spec, make_grid(5))
        z = sample_paths(spec, basis, np.array([[1.0], [0.0]]))
        # u = 1 gives W = +amp/2 = 0.25; peak at t = 0.25
        assert z[0, 1] == pytest.approx(1.25)
        # u = 0 gives W = -0.25
        assert z[1, 1] == pytest.approx(0.75)

    def test_paths_nonnegative(self, any_spec, grid101, rng):
        u = draw_uniforms(any_spec, rng, 500)
        z = sample_paths(any_spec, path_basis(any_spec, grid101), u)
        assert (z >= 0.0).all()

    def test_documented_draw_count(self, any_spec, grid101):
        # a block's paths come from one (count, k) uniform block of its
        # child stream, k the documented count, and nothing else is drawn
        k = DOCUMENTED_UNIFORMS[type(any_spec)]
        (z,) = z_blocks(any_spec, grid101, 300, 123)
        ((count, rng),) = block_streams(123, 300)
        u = rng.random((count, k))
        basis = path_basis(any_spec, grid101)
        assert np.array_equal(z, sample_paths(any_spec, basis, u))
        used = np.random.default_rng(5)
        draw_uniforms(any_spec, used, count)
        assert used.random() == np.random.default_rng(5).random(count * k + 1)[-1]


class TestShapeTable:
    @pytest.mark.parametrize(
        "spec,shapes",
        [
            (CompleteDependence(), 1),
            (TwoBranch(), 2),
            (PiecewiseExample(n=2, a=0.25, b=0.75), 4),
            (PiecewiseExample(n=5, a=0.1, b=0.3), 4),
            (NonlinearExample(**NONLINEAR_DEFAULTS), 4),
        ],
        ids=str,
    )
    def test_rows_are_table_rows(self, spec, shapes, grid101):
        table = path_basis(spec, grid101)
        assert table.shape == (shapes, 101)
        u = draw_uniforms(spec, np.random.default_rng(5), 4000)
        k = atom_index(spec, u)
        assert sorted(set(k.tolist())) == list(range(shapes))
        assert np.array_equal(sample_paths(spec, table, u), table[k])

    def test_nonlinear_endpoints_are_the_atoms(self, grid101):
        # the class docstring's Z_0 and Z_1 for (Y, Yt) = (1, 1), (1, 0),
        # (0, 1), (0, 0)
        spec = NonlinearExample(**NONLINEAR_DEFAULTS)
        a, b, c, d, e = spec.a, spec.b, spec.c, spec.d, spec.e
        kappa = 1.0 - c * (a - 1.0) / (a - b)
        atoms = [
            (y * a + (1 - y) * b, (1 - y) * c + kappa * (yt * d + (1 - yt) * e))
            for y in (1, 0)
            for yt in (1, 0)
        ]
        table = path_basis(spec, grid101)
        assert list(zip(table[:, 0].tolist(), table[:, -1].tolist())) == atoms

    @pytest.mark.parametrize("spec", ATOM_SPECS, ids=repr)
    def test_probabilities_sum_to_one(self, spec):
        p = spec.atoms().probabilities
        assert len(p) == len(spec.atoms().values)
        assert sum(p) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("spec", ATOM_SPECS, ids=repr)
    def test_probabilities_are_draw_frequencies(self, spec):
        u = draw_uniforms(spec, np.random.default_rng(6), 20_000)
        freq = np.bincount(atom_index(spec, u), minlength=4) / 20_000
        p = np.array(spec.atoms().probabilities)
        assert np.all(np.abs(freq[: p.size] - p) <= 4 * np.sqrt(p * (1 - p) / 20_000))

    def test_sine_bump_has_no_shapes(self, grid101):
        spec = SineBump(amp=0.5)
        sin_row = np.sin(2.0 * np.pi * grid101.points)[None, :]
        assert np.array_equal(path_basis(spec, grid101), sin_row)
        assert atom_index(spec, np.zeros((3, 1))) is None


class TestShapeBlocks:
    def test_contract(self, any_spec, grid101):
        # per block: the documented uniforms of the block's child stream
        # build rows[index]; atom specs hand out their K shapes, SineBump
        # its built block
        k = DOCUMENTED_UNIFORMS[type(any_spec)]
        atoms = any_spec.atoms()
        n, seed = 4097, 123
        basis = path_basis(any_spec, grid101)
        blocks = zip(shape_blocks(any_spec, grid101, n, seed),
                     block_streams(seed, n), strict=True)
        for (rows, index), (count, rng) in blocks:
            u = rng.random((count, k))
            assert np.array_equal(rows[index], sample_paths(any_spec, basis, u))
            if atoms is None:
                assert rows.shape == (count, 101) and index == slice(None)
            else:
                assert rows.shape == (len(atoms.values), 101)
                assert index.shape == (count,)


_PRETEST_SPECS = [*CATALOGUE, PiecewiseExample(n=5, a=0.1, b=0.3)]
# W = -amp/2, W = 0 and the largest W a uniform below 1 gives
_EDGE_UNIFORMS = st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53])


@st.composite
def _grids(draw):
    """A random TimeGrid spanning [0, 1], or a window of one."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=60, unique=True))
    points = np.array([0.0, *sorted(inner), 1.0])
    if draw(st.booleans()):
        lo = draw(st.integers(0, points.size - 1))
        hi = draw(st.integers(lo, points.size - 1))
        return TimeGrid(points[lo:hi + 1])
    return TimeGrid(points)


@given(data=st.data(), spec=st.sampled_from(_PRETEST_SPECS), grid=_grids())
@settings(max_examples=300, deadline=None)
def test_path_maxima_are_built_row_maxima(data, spec, grid):
    # the arrival loop's pretest reads these maxima in place of building
    # the rows, so they must agree bit for bit
    k = DOCUMENTED_UNIFORMS[type(spec)]
    value = st.one_of(_EDGE_UNIFORMS, st.floats(0.0, 1.0, exclude_max=True))
    rows = data.draw(st.integers(1, 12))
    u = np.array(data.draw(st.lists(value, min_size=rows * k, max_size=rows * k)),
                 dtype=float).reshape(rows, k)
    basis = path_basis(spec, grid)
    built = sample_paths(spec, basis, u).max(axis=1)
    assert path_maxima(spec, basis, u).tobytes() == built.tobytes()


def moments(spec, grid, n, seed):
    """Estimates of m = E sup Z and m~ = E inf Z from one set of paths: the
    shape-block reduction the example2-m check runs."""
    acc = reduce_blocks(
        shape_blocks(spec, grid, n, seed),
        StatMeans(per_path(lambda z: z.max(axis=1)), per_path(lambda z: z.min(axis=1))),
    )
    return acc.estimate(0), acc.estimate(1)


def corpus(spec, grid, n, seed):
    """``n`` generator paths as one array."""
    return reduce_blocks(z_blocks(spec, grid, n, seed), RowStack(n)).rows


class TestMoments:
    def test_complete_dependence_exact(self, grid101):
        m_hat, m_tilde_hat = moments(CompleteDependence(), grid101, 500, 1)
        assert m_hat.value == 1.0
        assert m_tilde_hat.value == 1.0
        assert m_hat.se == 0.0

    def test_piecewise_matches_closed_form(self, grid201):
        spec = PiecewiseExample(n=2, a=0.25, b=0.75)
        m_hat, m_tilde_hat = moments(spec, grid201, 20_000, 2)
        assert abs(m_hat.value - 14.0 / 9.0) <= 4 * m_hat.se
        assert abs(m_tilde_hat.value - 5.0 / 9.0) <= 4 * m_tilde_hat.se

    def test_sine_bump_matches_closed_form(self, grid201):
        m_hat, m_tilde_hat = moments(SineBump(amp=0.5), grid201, 20_000, 3)
        assert abs(m_hat.value - 1.125) <= 4 * m_hat.se + 1e-4
        assert abs(m_tilde_hat.value - 0.875) <= 4 * m_tilde_hat.se + 1e-4

    def test_sup_dominates_inf(self, any_spec, grid101):
        m_hat, m_tilde_hat = moments(any_spec, grid101, 2000, 4)
        assert m_tilde_hat.value <= m_hat.value

    def test_moments_bracket_the_unit_mean(self, any_spec, grid101):
        # E sup >= E Z_t = 1 >= E inf
        m_hat, m_tilde_hat = moments(any_spec, grid101, 2000, 91)
        assert m_hat.value >= 1.0 - 3 * m_hat.se - 1e-12
        assert m_tilde_hat.value <= 1.0 + 3 * m_tilde_hat.se + 1e-12

    def test_unit_mean_at_grid_points(self, any_spec, grid101):
        z = corpus(any_spec, grid101, 20_000, 5)
        mean = z.mean(axis=0)
        se = z.std(axis=0) / np.sqrt(z.shape[0])
        assert (np.abs(mean - 1.0) <= 4 * se + 1e-12).all()


class TestClosedForms:
    def test_values(self):
        assert closed_form_m(CompleteDependence()) == 1.0
        assert closed_form_m(PiecewiseExample(n=1, a=0.25, b=0.75)) == 1.0
        assert closed_form_m(PiecewiseExample(n=2, a=0.25, b=0.75)) == pytest.approx(
            14.0 / 9.0
        )
        assert closed_form_m(TwoBranch()) == 2.0
        assert closed_form_m(SineBump(amp=0.5)) == pytest.approx(1.125)
        assert closed_form_m(NonlinearExample(**NONLINEAR_DEFAULTS)) == pytest.approx(
            29.0 / 18.0
        )

    def test_m_tilde_values(self):
        assert closed_form_m_tilde(CompleteDependence()) == 1.0
        assert closed_form_m_tilde(
            PiecewiseExample(n=2, a=0.25, b=0.75)
        ) == pytest.approx(5.0 / 9.0)
        assert closed_form_m_tilde(TwoBranch()) == 0.0
        assert closed_form_m_tilde(SineBump(amp=0.5)) == pytest.approx(0.875)
        assert closed_form_m_tilde(
            NonlinearExample(**NONLINEAR_DEFAULTS)
        ) == pytest.approx(5.0 / 13.0)

    def test_closed_form_agrees_with_monte_carlo(self, any_spec, grid201):
        m_hat, _ = moments(any_spec, grid201, 20_000, 6)
        m = closed_form_m(any_spec)
        # grid sup underestimates the path sup slightly for the sine bump
        assert abs(m_hat.value - m) <= 3 * m_hat.se + 1e-3

    def test_piecewise_is_the_paper_formula(self):
        # bit for bit at n = 2 (14/9 and 5/9); elsewhere the derived means
        # use the sampled threshold fl(n/(n+1))
        for n in range(1, 51):
            spec = PiecewiseExample(n=n, a=0.25, b=0.75)
            m = (3.0 * n * n + n) / ((n + 1.0) ** 2)
            mt = (n + 3.0) / ((n + 1.0) ** 2)
            assert closed_form_m(spec) == pytest.approx(m, rel=1e-12, abs=0)
            assert closed_form_m_tilde(spec) == pytest.approx(mt, rel=1e-12, abs=0)
            assert generator_bound(spec) == n
        spec = PiecewiseExample(n=2, a=0.25, b=0.75)
        assert closed_form_m(spec) == 14.0 / 9.0
        assert closed_form_m_tilde(spec) == 5.0 / 9.0


#: Columns of grid 1001: cor33's window (0.2, 0.9) and its two endpoints.
_WINDOW_COLUMNS = {"window": slice(200, 901), "endpoints": [200, 900]}


class TestExpectedMax:
    """E max_{t in T} Z, the exact oracle of eta's finite-dimensional laws."""

    def test_two_branch(self):
        assert expected_max(TwoBranch(), [0.0, 1.0]) == 2.0
        assert expected_max(TwoBranch(), [0.5]) == 1.0

    def test_piecewise_on_two_ramp_times(self):
        # on the ramps, max(Z_0.1, Z_0.9) = 0.4 + 0.6 max(Z_0, Z_1), whose
        # mean is 0.4 + 0.6 (2 (5/9) + (1/2) (4/9)) = 1.2
        spec = PiecewiseExample(n=2, a=0.25, b=0.75)
        assert expected_max(spec, [0.1, 0.9]) == pytest.approx(1.2, abs=1e-15)

    @pytest.mark.parametrize("times", [[0.9, 0.1], [math.nan], [1.5], []],
                             ids=["unsorted", "nan", "above-1", "empty"])
    def test_refuses_a_bad_set_of_times(self, times):
        with pytest.raises(InvalidArgumentError):
            expected_max(PiecewiseExample(n=2, a=0.25, b=0.75), times)

    @pytest.mark.parametrize("spec", ATOM_SPECS, ids=repr)
    def test_own_knots_give_closed_form_m(self, spec):
        assert expected_max(spec, spec.atoms().knots) == closed_form_m(spec)

    @pytest.mark.parametrize("amp", [0.1, 0.5, 0.99])
    @pytest.mark.parametrize("times", [
        [0.25, 0.75], [0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.25, 0.6, 0.75],
        make_grid(101).points, make_grid(1001).points[200:901],
    ], ids=["peaks", "quarters", "uneven", "grid101", "cor33-window"])
    def test_sine_bump_with_both_peaks_is_m(self, amp, times):
        spec = SineBump(amp=amp)
        assert expected_max(spec, times) == 1.0 + amp / 4.0 == closed_form_m(spec)

    @pytest.mark.parametrize("columns", _WINDOW_COLUMNS.values(), ids=list(_WINDOW_COLUMNS))
    def test_agrees_with_monte_carlo(self, any_spec, columns):
        grid, n = make_grid(1001), 20_000
        m = reduce_blocks(
            shape_blocks(any_spec, grid, n, 14),
            StatMeans(per_path(lambda z: z[:, columns].max(axis=1))),
        ).estimate(0)
        exact = expected_max(any_spec, grid.points[columns])
        assert abs(m.value - exact) <= 4 * m.se + 1e-12


def _sup_equals_max_rate(spec, interval, grid, n, seed):
    """The share of ``n`` paths whose sup over ``interval`` is its larger
    endpoint value, as cor33 and nonlinear-supmax reduce it."""
    acc = reduce_blocks(shape_blocks(spec, grid, n, seed), _sup_at_endpoint(grid, interval))
    return int(acc.counts[0]) / n


class TestSupEqualsMaxRate:
    """The cor33 and nonlinear-supmax statistic: the share of paths whose
    sup over a window is its larger endpoint value."""

    def test_nonlinear_always(self, grid201):
        spec = NonlinearExample(**NONLINEAR_DEFAULTS)
        assert _sup_equals_max_rate(spec, Interval(0.0, 1.0), grid201, 5000, 7) == 1.0

    def test_piecewise_plateau(self, grid201):
        spec = PiecewiseExample(n=2, a=0.25, b=0.75)
        assert _sup_equals_max_rate(spec, Interval(0.25, 0.75), grid201, 5000, 8) == 1.0

    def test_sine_bump_half_rate_on_first_half(self, grid201):
        # equality holds exactly when the bump points down (W <= 0): the
        # interior peak then sits below the endpoints' common value 1
        sine, n = SineBump(amp=0.5), 5000
        rate = _sup_equals_max_rate(sine, Interval(0.0, 0.5), grid201, n, 9)
        assert rate == pytest.approx(0.5, abs=4 * math.sqrt(rate * (1 - rate) / n))

    def test_sine_bump_never_on_full_interval(self, grid201):
        sine = SineBump(amp=0.5)
        assert _sup_equals_max_rate(sine, Interval(0.0, 1.0), grid201, 5000, 10) == 0.0


class TestCorpus:
    """``RowStack`` over generator path blocks: n paths as one array."""

    def test_deterministic(self, any_spec, grid101):
        a = corpus(any_spec, grid101, 300, 11)
        b = corpus(any_spec, grid101, 300, 11)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self, grid101):
        a = corpus(TwoBranch(), grid101, 300, 11)
        b = corpus(TwoBranch(), grid101, 300, 12)
        assert not np.array_equal(a, b)

    def test_equals_concatenated_blocks(self, any_spec, grid101):
        n = 2 * 4096 + 5  # three blocks, the last one short
        blocks = list(z_blocks(any_spec, grid101, n, 13))
        assert len(blocks) == 3
        stacked = corpus(any_spec, grid101, n, 13)
        assert np.array_equal(stacked, np.concatenate(blocks))

    def test_memory_is_corpus_plus_one_block(self):
        # the library stacks one stream, msp_corpus's eta paths: each block
        # is copied into the result as it arrives, and the stream builds
        # SineBump's rows into one reused buffer, so no list of blocks is
        # held beside the result
        grid, n = make_grid(1001), 8192
        tracemalloc.start()
        try:
            msp_corpus(SineBump(amp=0.5), grid, n, 14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * n * len(grid) * 8


class TestJson:
    def test_round_trip(self, any_spec):
        doc = _document(any_spec)
        assert generator_from_json(doc) == any_spec

    def test_unknown_variant(self):
        with pytest.raises(InvalidSpecError, match="unknown variant"):
            generator_from_json({"variant": "brownian", "params": {}})

    def test_missing_parameter(self):
        with pytest.raises(InvalidSpecError, match="missing parameter"):
            generator_from_json({"variant": "sine_bump", "params": {}})

    def test_unknown_parameter(self):
        with pytest.raises(InvalidSpecError, match="unknown parameter"):
            generator_from_json(
                {"variant": "two_branch", "params": {"scale": 2.0}}
            )

    def test_constraints_enforced_on_load(self):
        with pytest.raises(InvalidSpecError, match="0 < amp < 1"):
            generator_from_json({"variant": "sine_bump", "params": {"amp": 3.0}})

    @pytest.mark.parametrize("n", [2, 2.0])
    def test_whole_n_loads(self, n):
        spec = generator_from_json(
            {"variant": "piecewise_example", "params": {"n": n, "a": 0.25, "b": 0.75}}
        )
        assert spec.n == 2 and type(spec.n) is int

    @pytest.mark.parametrize("n", [2.5, True, "2"])
    def test_n_must_be_a_whole_number(self, n):
        with pytest.raises(InvalidSpecError, match="'n' must be"):
            generator_from_json(
                {"variant": "piecewise_example",
                 "params": {"n": n, "a": 0.25, "b": 0.75}}
            )


_param_values = st.one_of(
    st.integers(min_value=-3, max_value=60),
    st.integers(),
    st.integers(min_value=2**1020),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)


def _built(make):
    """``make()``, or None if it raises InvalidSpecError."""
    try:
        return make()
    except InvalidSpecError:
        return None


def _draw_params(data, template):
    # keeping some of the template's values makes valid specs common
    return {name: data.draw(st.one_of(st.just(getattr(template, name)),
                                      _param_values), label=name)
            for name in get_type_hints(type(template))}


@given(data=st.data(), template=st.sampled_from(CATALOGUE))
@settings(max_examples=400, deadline=None)
def test_document_loads_exactly_or_is_invalid(data, template):
    # a document and Python construction from the same numbers follow one
    # rule: both are refused, or both give the same spec, holding the
    # numbers passed, typed as the fields are
    kind, tag = type(template), TAGS[type(template)]
    params = _draw_params(data, template)
    spec = _built(lambda: generator_from_json({"variant": tag, "params": params}))
    assert spec == _built(lambda: kind(**params))
    if spec is None:
        return
    for name, t in get_type_hints(kind).items():
        got = getattr(spec, name)
        assert type(got) is t and got == params[name]


@given(data=st.data(), template=st.sampled_from(CATALOGUE))
@settings(max_examples=400, deadline=None)
def test_spec_is_invalid_or_round_trips(data, template):
    # any parameters either fail to construct a spec or give one whose
    # document loads back as the same spec
    spec = _built(lambda: type(template)(**_draw_params(data, template)))
    if spec is not None:
        assert generator_from_json(_document(spec)) == spec
