import dataclasses
import json
import math
import re
import sys
import threading
from concurrent.futures import CancelledError
from pathlib import Path

import numpy as np
import pytest

from conftest import z_blocks
from maxhit import (
    InvalidArgumentError,
    OffGridError,
    SineBump,
    TimeGrid,
    TwoBranch,
    UnknownCheckError,
    check_ids,
    final_example_reference,
    final_example_two_hit,
    msp,
    run_checks,
    verify,
)
from maxhit import generators
from maxhit.estimates import StatMeans, reduce_blocks
from maxhit.generators import expected_max, shape_blocks
from maxhit.msp import msp_path_blocks
from maxhit.streams import label_key
from maxhit.verify import (
    CATALOGUE,
    SUP_EQ_TOL,
    Z_STAT,
    Assertion,
    CheckDef,
    _final_example_grid_range,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestFinalExampleReference:
    def test_hitting_value(self):
        h = final_example_reference(-1.0)
        assert h == pytest.approx((2.0 - math.exp(-1.0)) * math.exp(-1.0))
        assert h == pytest.approx(0.6004236, abs=1e-6)

    def test_two_hit_value(self):
        two_hit = final_example_two_hit(-1.0, 0.5)
        assert two_hit == pytest.approx((math.exp(-0.5) - math.exp(-1.0)) ** 2)
        assert two_hit == pytest.approx(0.056954, abs=1e-6)

    def test_vanishes_at_zero(self):
        # h(x) ~ -2x near 0
        assert final_example_reference(-1e-9) == pytest.approx(0.0, abs=5e-9)

    def test_rejects_nonnegative_level(self):
        with pytest.raises(ValueError):
            final_example_reference(0.0)
        with pytest.raises(ValueError):
            final_example_two_hit(0.5, 0.5)

    @pytest.mark.parametrize("x", [-math.inf, math.nan])
    def test_rejects_non_finite_level(self, x):
        with pytest.raises(ValueError, match="finite"):
            final_example_reference(x)
        with pytest.raises(ValueError, match="finite"):
            final_example_two_hit(x, 0.5)

    def test_rejects_boundary_split(self):
        with pytest.raises(ValueError):
            final_example_two_hit(-1.0, 1.0)


class TestAssertion:
    # (sense, observed that meets the tolerance exactly, direction of the
    # ulp that breaks it); expected 2.0 and tol = 2 * 0.25 + 0 = 0.5, so
    # every difference and bound below is exact in floating point
    @pytest.mark.parametrize("sense, boundary, step", [
        ("==", 2.5, math.inf),
        ("==", 1.5, -math.inf),
        ("<=", 2.5, math.inf),
        (">=", 1.5, -math.inf),
        ("gap", 2.5, -math.inf),
    ])
    def test_tolerance_met_exactly_passes_one_ulp_beyond_fails(
            self, sense, boundary, step):
        def at(observed):
            return Assertion("a", observed, 2.0, sense, se=0.25, z=2.0)

        assert at(boundary).tol == 0.5
        assert at(boundary).passed
        assert not at(math.nextafter(boundary, step)).passed

    def test_slack_adds_to_the_statistical_tolerance(self):
        a = Assertion("a", 1.0, 1.0, se=0.25, z=2.0, slack=0.005)
        assert a.tol == 2.0 * 0.25 + 0.005

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            Assertion("a", 1.0, 1.0, "<")


@pytest.fixture
def registry(monkeypatch):
    """The check registry, as a copy that ``verify.check`` registers into
    for the duration of the test."""
    monkeypatch.setattr(verify, "_CHECKS", dict(verify._CHECKS))


def _records(ran):
    """A check plan that reads no stream and records its check id when
    it starts and when its runner resumes it."""
    def plan(ctx):
        ran.append(ctx.check_id)
        yield
        ran.append(ctx.check_id)
        return []
    return plan


class TestRunChecks:
    def test_first_error_cancels_checks_not_started(self, registry):
        ran = []

        @verify.check("boom", "raises")
        def boom(ctx):
            yield
            raise OffGridError(f"time 0.5 is not on the grid of {len(ctx.grid)} points")

        def record(ctx):
            yield
            ran.append(ctx.check_id)
            return []

        ids = ["boom", "r1", "r2", "r3", "r4"]
        for cid in ids[1:]:
            verify.check(cid, "records")(record)
        with pytest.raises(OffGridError, match="not on the grid"):
            run_checks(ids, master_seed=7, n_default=5, grid_points=11, threads=2)
        # runners run in suite order, so none after boom's starts
        assert ran == []

    def test_unknown_id_fails_before_running(self):
        with pytest.raises(UnknownCheckError, match="no-such-check"):
            run_checks(["no-such-check"], master_seed=7)

    @pytest.mark.parametrize("ids", [[], ["example2-m", "example2-m"]])
    def test_empty_or_repeated_ids_fail_before_running(self, ids, registry):
        ran = []
        verify.check("example2-m", "records")(_records(ran))
        with pytest.raises(UnknownCheckError):
            run_checks(ids, master_seed=7, n_default=5, grid_points=11)
        assert ran == []

    def test_n_below_min_n_fails_before_running(self, registry):
        # max-stability needs one group of MIN_N paths; eq1 must not run first
        ran = []
        for cid in ("eq1-moments", "max-stability"):
            verify.check(cid, "records")(_records(ran))
        with pytest.raises(InvalidArgumentError, match=f">= {verify.MIN_N}, got 4"):
            run_checks(["eq1-moments", "max-stability"], 7, n_default=4,
                       grid_points=101)
        assert ran == []

    @pytest.mark.parametrize("n", [100.0, 100.5, True, "100"])
    def test_non_integer_n_fails_before_running(self, n, registry):
        # eq3 reads a shared stream, whose sampler would refuse the n only
        # after the recording check had run
        ran = []
        verify.check("example2-m", "records")(_records(ran))
        for ids in (["example2-m"], ["example2-m", "eq3-negative-paths"]):
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                run_checks(ids, 7, n_default=n, grid_points=11)
        assert ran == []

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True, "2", None])
    def test_bad_threads_fail_before_any_stream(self, threads, monkeypatch):
        drawn = []
        for name in ("msp_path_blocks", "shape_blocks"):
            monkeypatch.setattr(verify, name, lambda *args: drawn.append(args) or [])
        with pytest.raises(InvalidArgumentError, match="threads must be an integer >= 1"):
            run_checks(["example2-m", "eq3-negative-paths"], 7, n_default=100,
                       grid_points=11, threads=threads)
        assert drawn == []

    def test_non_integer_grid_fails_before_running(self, registry):
        ran = []
        verify.check("example2-m", "records")(_records(ran))
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            run_checks(["example2-m"], 7, n_default=100, grid_points=11.0)
        assert ran == []

    def test_numpy_integer_n_is_recorded_as_an_int(self):
        rep = run_checks(["eq3-negative-paths"], 7, n_default=np.int64(100),
                         grid_points=11)
        assert type(rep.n_default) is int

    def test_unknown_suite_name(self):
        with pytest.raises(UnknownCheckError):
            run_checks("everything", master_seed=7)

    def test_single_check_report_shape(self):
        report = run_checks(["example2-m"], master_seed=7, n_default=4000,
                            grid_points=101)
        assert len(report.checks) == 1
        result = report["example2-m"]
        assert result.passed
        doc = report.as_dict()
        assert set(doc) >= {"suite", "seed", "n_default", "checks", "pass"}
        entry = doc["checks"][0]
        assert set(entry) >= {"id", "observed", "expected", "tol", "se", "pass",
                              "seconds", "parts"}
        assert len(entry["se"]) == len(entry["parts"])
        assert entry["id"] == "example2-m"

    def test_deterministic_given_seed(self):
        kwargs = dict(master_seed=11, n_default=2000, grid_points=101,
                      timestamp=False)
        a = run_checks(["example2-m", "final-two-hit"], **kwargs)
        b = run_checks(["example2-m", "final-two-hit"], **kwargs)
        da, db = a.as_dict(), b.as_dict()
        for d in (da, db):
            for entry in d["checks"]:
                entry.pop("seconds")
        assert json.dumps(da) == json.dumps(db)

    def test_threads_do_not_change_results(self):
        kwargs = dict(master_seed=11, n_default=2000, grid_points=101,
                      timestamp=False)
        seq = run_checks(["eq3-negative-paths", "example2-m"], threads=1, **kwargs)
        par = run_checks(["eq3-negative-paths", "example2-m"], threads=4, **kwargs)
        ds, dp = seq.as_dict(), par.as_dict()
        for d in (ds, dp):
            for entry in d["checks"]:
                entry.pop("seconds")
        assert json.dumps(ds) == json.dumps(dp)

    def test_timestamp_toggle(self):
        rep = run_checks(["example2-m"], master_seed=3, n_default=1000,
                         grid_points=101, timestamp=False)
        assert "generated_at" not in rep.as_dict()
        rep = run_checks(["example2-m"], master_seed=3, n_default=1000,
                         grid_points=101, timestamp=True)
        assert "generated_at" in rep.as_dict()

    def test_numpy_integer_seed_is_recorded_as_an_int(self):
        rep = run_checks(["example2-m"], np.int64(7), n_default=1000, grid_points=101)
        assert type(rep.seed) is int
        json.dumps(rep.as_dict())
        plain = run_checks(["example2-m"], 7, n_default=1000, grid_points=101)
        assert rep["example2-m"].assertions == plain["example2-m"].assertions

    def test_seed_sequence_master_seed_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="integer"):
            run_checks(["example2-m"], np.random.SeedSequence(7), n_default=1000)

    def test_summary_lines(self):
        rep = run_checks(["example2-m"], master_seed=3, n_default=1000,
                         grid_points=101, timestamp=False)
        lines = rep.summary_lines()
        assert any(line.startswith(("PASS", "FAIL")) for line in lines)
        assert lines[-1].startswith("overall:")
        assert "s)  " in lines[0]
        stable = rep.summary_lines(runtime=False)
        assert stable[0] == lines[0].split("  (")[0] + "  " + rep.checks[0].description
        assert stable[1:] == lines[1:]


def test_lemma31_reference_is_the_oracle():
    # P(eta <= -1 at 0, .5) - P(eta <= -1 at 0, .25, .5), each exp(-E max_T Z)
    sine = SineBump(amp=0.5)
    want = (math.exp(-expected_max(sine, [0.0, 0.5]))
            - math.exp(-expected_max(sine, [0.0, 0.25, 0.5])))
    assert want == math.exp(-1.0) - math.exp(-(1.0 + sine.amp / 8.0))
    for points in (101, 1001):
        report = run_checks(["lemma31-closedform"], 7, n_default=500,
                            grid_points=points)
        assert report["lemma31-closedform"].assertions[0].expected == want


#: Irregular times in [0, 1] holding both ends, for the grid-range reference.
_IRREGULAR_T = [0.0, 0.05, 0.3, 0.31, 0.62, 0.9, 1.0]


class TestFinalExampleGridRange:
    """3/2 - sum over cells (b - a)^2 / (1 + b - a), the mean range of the
    two-branch model over times T that hold 0 and 1."""

    @pytest.mark.parametrize("points", [2, 3, 11, 1001])
    def test_uniform_grid_is_three_halves_minus_one_over_points(self, points):
        got = _final_example_grid_range(np.linspace(0.0, 1.0, points))
        assert got == pytest.approx(1.5 - 1.0 / points, rel=1e-14)

    def test_matches_the_exponential_pair(self):
        # -eta(t) = min(E1/(1-t), E2/t); its range over T, by brute force
        rng = np.random.default_rng(5)
        e1, e2 = rng.standard_exponential((2, 400_000, 1))
        t = np.array(_IRREGULAR_T)
        with np.errstate(divide="ignore"):
            minus_eta = np.minimum(e1 / (1.0 - t), e2 / t)
        ranges = minus_eta.max(axis=1) - minus_eta.min(axis=1)
        se = ranges.std() / math.sqrt(ranges.size)
        assert abs(ranges.mean() - _final_example_grid_range(t)) <= Z_STAT * se

    def test_matches_the_sampler(self):
        times = TimeGrid(_IRREGULAR_T)
        acc = reduce_blocks(msp_path_blocks(TwoBranch(), times, 20_000, 3),
                            StatMeans(lambda eta: eta.max(axis=1) - eta.min(axis=1)))
        est = acc.estimate(0)
        assert abs(est.value - _final_example_grid_range(_IRREGULAR_T)) <= Z_STAT * est.se

    @pytest.mark.parametrize("times", [[0.0, 0.5], [0.5, 1.0], [0.5], [0.0]])
    def test_refuses_times_without_both_ends(self, times):
        with pytest.raises(InvalidArgumentError, match="hold 0 and 1"):
            _final_example_grid_range(times)


class TestIntegralChecks:
    """The hitting integrals are mean ranges, with exact references."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_checks(["hintegral-bound", "final-integral-3/2"], 7,
                          n_default=4096, grid_points=1001)

    def test_green_with_no_flat_slack(self, report):
        for result in report.checks:
            assert result.passed, [a.name for a in result.assertions if not a.passed]
            for a in result.assertions:
                assert a.se > 0.0 and a.z == Z_STAT and a.slack <= SUP_EQ_TOL, a.name

    def test_references_are_exact(self, report):
        final = report["final-integral-3/2"].assertions
        assert [a.expected for a in final] == [1.5 - 1.0 / 1001, 0.5]
        sine = SineBump(amp=0.5)
        minus_max = report["hintegral-bound"].assertions[-1]
        assert minus_max.expected == 1.0 / expected_max(sine, np.linspace(0.0, 1.0, 1001))

    def test_no_ladder_is_sampled(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("curve_event called")

        monkeypatch.setattr(verify, "curve_event", refuse)
        run_checks(["hintegral-bound", "final-integral-3/2"], 7, n_default=100,
                   grid_points=101)


class TestCor33:
    """Items 4 and 5 against their exact value exp(x m_T) - exp(x m_E)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_checks(["cor33-equivalences"], 7, n_default=4096)["cor33-equivalences"]

    @staticmethod
    def _part(result, name):
        (a,) = [a for a in result.assertions if a.name == name]
        return a

    def test_green_at_bench_scale(self, result):
        assert result.passed, [a.name for a in result.assertions if not a.passed]

    def test_sine_bump_exact_values(self, result):
        for x, d in ((-0.5, -0.00827), (-2.0, -0.00625)):
            residual = self._part(result, f"sine_bump:item5_residual_x={x}")
            assert residual.expected == pytest.approx(d, abs=1e-5)
            viol = self._part(result, f"sine_bump:item4_viol_x={x}")
            assert viol.expected == -residual.expected
            # the failure is certified by arithmetic, not by a sampled gap
            exact = self._part(result, f"sine_bump:item45_exact_x={x}")
            assert exact.observed == -residual.expected
            assert (exact.sense, exact.se, exact.passed) == ("gap", 0.0, True)

    def test_nonlinear_exact_value_is_zero(self, result):
        for x in (-0.5, -2.0):
            exact = self._part(result, f"nonlinear:item45_exact_x={x}")
            assert abs(exact.observed) <= 1e-12
            residual = self._part(result, f"nonlinear:item5_residual_x={x}")
            assert abs(residual.expected) == exact.observed

    def test_no_high_replication_residual_run(self):
        assert not hasattr(verify, "_COR33_RESIDUAL_FACTOR")
        assert not hasattr(verify, "_cor33_residuals")


#: A small paper run: several checks per stream, one block per stream.
_PLAN = dict(n_default=300, grid_points=101, timestamp=False)


class TestDrawPlan:
    """One full-grid eta stream per catalogue generator feeds every check."""

    @pytest.fixture(scope="class")
    def suite(self):
        return run_checks("paper", 5, **_PLAN)

    def test_every_sample_is_a_stream_of_the_plan(self, monkeypatch):
        # every sampler call, and every block drawn, with the runner that
        # was running then (None between runners)
        calls, running = [], [None]

        def recorded(name, real):
            def sampler(spec, grid, n, seed):
                calls.append((name, spec, len(grid), n, seed.entropy,
                              tuple(seed.spawn_key), running[-1]))
                return real(spec, grid, n, seed)
            return sampler

        def guarded(real):
            def block_streams(seed, n):
                for block in real(seed, n):
                    assert running[-1] is None, f"a block drawn in {running[-1]}"
                    yield block
            return block_streams

        for name in ("msp_path_blocks", "shape_blocks", "stopping_exactness_violations"):
            monkeypatch.setattr(verify, name, recorded(name, getattr(verify, name)))
        for module in (msp, generators):
            monkeypatch.setattr(module, "block_streams", guarded(module.block_streams))
        for cid, defn in list(verify._CHECKS.items()):
            def runner(ctx, inner=defn.runner):
                running.append(ctx.check_id)
                try:
                    return inner(ctx)
                finally:
                    running.pop()
            monkeypatch.setitem(verify._CHECKS, cid, dataclasses.replace(defn, runner=runner))
        run_checks("paper", 5, **_PLAN)

        specs = [spec for _, spec in CATALOGUE]
        own_z = {"eq1-moments": [(g, specs[g]) for g in range(5)],
                 "eq2-roundtrip": [(2 * g, specs[g]) for g in range(5)],
                 "takahashi": [(g, specs[g]) for g in (0, 1, 3)],
                 "prop2-positive-when-norm-gt-1": [(0, specs[1])],
                 "survivor-bound": [(0, specs[0]), (2, specs[1]), (4, specs[4])],
                 "example2-m": [(0, specs[1])],
                 "cor33-equivalences": [(0, specs[2]), (1, specs[4])],
                 "nonlinear-supmax": [(k, specs[2]) for k in range(3)]}
        expected = [("msp_path_blocks", spec, 101, 300, (label_key("margins-ks"), g))
                    for g, spec in enumerate(specs)]
        expected += [("shape_blocks", spec, 101, 300, (label_key(cid), k))
                     for cid, streams in own_z.items() for k, spec in streams]
        shared = label_key("shared-draw-invariants")
        expected += [("shape_blocks", spec, 101, 1000, (shared, 2 * g))
                     for g, spec in enumerate(specs)]
        expected += [("stopping_exactness_violations", spec, 101, 100,
                      (label_key("stopping-exactness"), g)) for g, spec in enumerate(specs)]
        assert len(expected) == 38
        # every stream is drawn from master seed 5 and outside every runner
        assert {(c[4], c[6]) for c in calls} == {(5, None)}
        assert sorted((c[:4] + c[5:6] for c in calls), key=repr) == sorted(expected, key=repr)

    @pytest.mark.parametrize("check_id", check_ids())
    def test_entry_alone_equals_entry_in_suite(self, suite, check_id):
        alone = run_checks([check_id], 5, **_PLAN)
        assert alone.as_dict(runtime=False)["checks"] == [suite[check_id].as_dict(runtime=False)]

    def test_report_independent_of_threads(self):
        # more workers than cores and frequent thread switches: a reducer
        # fed by two streams, or read before its stream ended, would differ
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports = [run_checks("paper", 3, n_default=4500, grid_points=101,
                                  threads=k, timestamp=False).as_dict(runtime=False)
                       for k in (1, 2, 3, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert reports[0] == reports[1] == reports[2] == reports[3]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_stream_error_ends_the_run(self, registry, threads):
        ran = []

        def boom(eta):
            raise OffGridError("reducer failed")

        def reading(*names, reducer=lambda eta: None):
            def plan(ctx):
                for name in names:
                    ctx.eta(name, reducer)
                yield
                ran.append(ctx.check_id)
                return []
            return plan

        # r1 reads the failing stream, r2 also one that succeeds, and
        # example2-m none: no runner starts once the run failed
        verify.check("boom", "raises")(reading("two_branch", reducer=boom))
        verify.check("r1", "records")(reading("two_branch"))
        verify.check("r2", "records")(reading("sine_bump", "two_branch"))
        verify.check("example2-m", "records")(reading())
        ids = ["r1", "boom", "r2", "example2-m"]
        with pytest.raises(OffGridError, match="reducer failed"):
            run_checks(ids, 7, n_default=5, grid_points=11, threads=threads)
        assert ran == []

    def test_stream_stops_once_the_run_failed(self):
        drawn, fed = [], []
        failed = threading.Event()
        failed.set()
        with pytest.raises(CancelledError):
            verify.feed_stream(lambda: drawn.append(1) or [np.zeros(1)], [fed.append], failed)
        assert drawn == fed == []

    @pytest.mark.parametrize("spec", [s for _, s in CATALOGUE],
                             ids=lambda s: type(s).__name__)
    def test_eq1_sums_match_the_built_paths(self, spec):
        # atom specs sum their shape counts, exact up to one rounding per
        # shape; SineBump sums its built rows as StatMeans does
        grid, n, seed = TimeGrid(np.linspace(0.0, 1.0, 101)), 4096 + 300, 9
        total, total_sq = reduce_blocks(shape_blocks(spec, grid, n, seed),
                                        verify._ZSums()).sums()
        built = reduce_blocks(z_blocks(spec, grid, n, seed), StatMeans(lambda z: z))
        if spec.atoms() is None:
            assert np.array_equal(total, built.total[0])
            assert np.array_equal(total_sq, built.total_sq[0])
        np.testing.assert_allclose(total, built.total[0], rtol=1e-12)
        np.testing.assert_allclose(total_sq, built.total_sq[0], rtol=1e-12)


class TestSuiteRegistry:
    def test_a_check_is_a_plan(self):
        # no plain-runner form: every registered check has its plan
        with pytest.raises(TypeError):
            CheckDef("x", "a runner alone", lambda ctx: [])
        assert all(callable(d.plan) for d in verify._CHECKS.values())

    def test_spec_minimum_ids_present(self):
        required = {
            "eq1-moments", "eq2-roundtrip", "eq3-negative-paths", "margins-ks",
            "takahashi", "prop2-null-on-constant-interval",
            "prop2-positive-when-norm-gt-1", "survivor-bound", "hcurve-bound",
            "hintegral-bound", "example2-m", "lemma31-closedform",
            "prop32-two-hit", "cor33-equivalences", "nonlinear-supmax",
            "final-h", "final-integral-3/2", "final-two-hit",
            "final-no-three-hit",
        }
        assert required <= set(check_ids())

    def test_matrix_document_covers_registry(self):
        text = (REPO_ROOT / "docs" / "verification_matrix.md").read_text()
        documented = set(re.findall(r"`([a-z0-9/-]+)`", text)) & set(check_ids())
        missing = set(check_ids()) - documented
        assert not missing, f"checks missing from the matrix: {sorted(missing)}"
        listed = set(re.findall(r"\| `([^`]+)` \|", text))
        unknown = listed - set(check_ids())
        assert not unknown, f"matrix rows without a registered check: {sorted(unknown)}"
