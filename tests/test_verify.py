import json
import math
import re
import time
from pathlib import Path

import pytest

from maxhit import (
    OffGridError,
    UnknownCheckError,
    check_ids,
    final_example_integral_below,
    final_example_reference,
    final_example_two_hit,
    run_checks,
    verify,
)
from maxhit.verify import Assertion, CheckDef

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

    def test_integral_antiderivative(self):
        assert final_example_integral_below(0.0) == pytest.approx(1.5)
        assert final_example_integral_below(-40.0) == pytest.approx(0.0, abs=1e-15)
        # numerical cross-check of d/dx F = h
        x, dx = -1.3, 1e-6
        deriv = (
            final_example_integral_below(x + dx) - final_example_integral_below(x - dx)
        ) / (2 * dx)
        assert deriv == pytest.approx(final_example_reference(x), rel=1e-5)


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


class TestRunChecks:
    def test_first_error_cancels_checks_not_started(self, monkeypatch):
        ran = []

        def boom(ctx):
            raise OffGridError(f"time 0.5 is not on the grid of {len(ctx.grid)} points")

        def record(ctx):
            time.sleep(0.2)  # keeps the second thread busy past the error
            ran.append(ctx.check_id)
            return []

        ids = ["boom", "r1", "r2", "r3", "r4"]
        monkeypatch.setitem(verify._CHECKS, "boom", CheckDef("boom", "raises", boom))
        for cid in ids[1:]:
            monkeypatch.setitem(verify._CHECKS, cid, CheckDef(cid, "records", record))
        with pytest.raises(OffGridError, match="not on the grid"):
            run_checks(ids, master_seed=7, n_default=5, grid_points=11, threads=2)
        # r1 starts beside boom; the checks queued behind them never start
        assert set(ran) <= {"r1"}

    def test_unknown_id_fails_before_running(self):
        with pytest.raises(UnknownCheckError, match="no-such-check"):
            run_checks(["no-such-check"], master_seed=7)

    @pytest.mark.parametrize("ids", [[], ["example2-m", "example2-m"]])
    def test_empty_or_repeated_ids_fail_before_running(self, ids, monkeypatch):
        ran = []
        monkeypatch.setitem(verify._CHECKS, "example2-m", CheckDef(
            "example2-m", "records", lambda ctx: ran.append(ctx.check_id) or []))
        with pytest.raises(UnknownCheckError):
            run_checks(ids, master_seed=7, n_default=5, grid_points=11)
        assert ran == []

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


class TestSuiteRegistry:
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
