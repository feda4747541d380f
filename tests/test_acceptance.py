"""Acceptance gate: the full verification suite at production scale.

Runs the whole `paper` suite once (master seed 7, grid 1001, n = 100000
per estimate) and asserts each acceptance criterion against the mapped
check results, printing one PASS/FAIL line per criterion. Run with
``pytest -s tests/test_acceptance.py`` to see the lines; the whole module
takes a few minutes.
"""

import os

import pytest

from maxhit import run_checks

MASTER_SEED = 7


@pytest.fixture(scope="module")
def report():
    # reports do not depend on the thread count, so use every core
    return run_checks("paper", master_seed=MASTER_SEED, threads=os.cpu_count() or 1)


def _criterion(report, number, label, check_ids):
    by_id = {c.check_id: c for c in report.checks}
    results = [by_id[cid] for cid in check_ids]
    ok = all(r.passed for r in results)
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} — {label}")
    for r in results:
        if not r.passed:
            for a in r.assertions:
                if not a.passed:
                    print(
                        f"    {r.check_id}/{a.name}: observed={a.observed!r} "
                        f"expected={a.expected!r} tol={a.tol!r}"
                    )
    assert ok, f"criterion {number} failed: {[r.check_id for r in results]}"


def test_criterion_01_margins(report):
    _criterion(report, 1, "standard margins within the KS band 1.63/sqrt(n)",
               ["margins-ks"])


def test_criterion_02_joint_cdf_roundtrip(report):
    _criterion(report, 2, "joint cdf equals exp(-D-norm) within 3 se",
               ["eq2-roundtrip"])


def test_criterion_03_ramp_plateau_constant(report):
    _criterion(report, 3, "m = 14/9 for the ramp-plateau model (3 se, exact "
               "closed form)", ["example2-m"])


def test_criterion_04_complete_dependence(report):
    _criterion(report, 4, "complete dependence: fixed levels unhit (CI <= 3e-5), "
               "sloped curve met with p = e^-1 - e^-2 (3 se)",
               ["example1-complete-dependence"])


def test_criterion_05_degenerate_interval_dichotomy(report):
    _criterion(report, 5, "positive hits on [0,1], none on the degenerate "
               "interval", ["prop2-positive-when-norm-gt-1",
                            "prop2-null-on-constant-interval"])


def test_criterion_06_hitting_bound(report):
    _criterion(report, 6, "hitting curve under exp(x m~) - exp(x m) "
               "(4 se + 0.005)", ["hcurve-bound"])


def test_criterion_07_integral_bound(report):
    _criterion(report, 7, "0 < hitting integral (mean range) <= 0.2540 at 3 se; "
               "mean -max = 1/m_T (3 se)", ["hintegral-bound"])


def test_criterion_08_two_branch_curve_and_integral(report):
    _criterion(report, 8, "two-branch curve matches (1-e^x-x)e^x "
               "(3 se + 0.005); integral (mean range) = 3/2 - 1/1001 (3 se)",
               ["final-h", "final-integral-3/2"])


def test_criterion_09_two_hit_and_three_hit(report):
    _criterion(report, 9, "two-hit closed form (3 se + 0.005); no three-hit "
               "(CI <= 3e-5)", ["final-two-hit", "final-no-three-hit"])


def test_criterion_10_down_up_down_identity(report):
    _criterion(report, 10, "down-up-down closed form (3 se, grid-exact); "
               "zero for the nonlinear model", ["lemma31-closedform"])


def test_criterion_11_equivalence_bundle(report):
    _criterion(report, 11, "window cdf and 2e^x - 1 identity within 4 se of "
               "exact exp(x m_T) - exp(x m_E): 0 (nonlinear), nonzero by "
               "arithmetic (sine bump)", ["cor33-equivalences"])


def test_criterion_12_property_suites(report):
    _criterion(report, 12, "per-draw invariants exact on 1000 shared draws; "
               "stopping rule bit-exact with 100 extra arrivals",
               ["shared-draw-invariants", "stopping-exactness"])


def test_remaining_checks_green(report):
    extras = [
        "eq1-moments", "eq3-negative-paths", "max-stability", "takahashi",
        "survivor-bound", "prop32-two-hit", "nonlinear-supmax",
    ]
    _criterion(report, 13, "supporting checks (moments, negativity, "
               "max-stability, takahashi, survivor bound, containment, "
               "endpoint suprema)", extras)


def test_overall(report):
    print(f"ACCEPTANCE OVERALL {'PASS' if report.passed else 'FAIL'}")
    assert report.passed
