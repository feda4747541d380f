import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maxhit import (CompleteDependence, Interval, LevelFunction, SineBump, TwoBranch,
                    cli, closed_form_m, closed_form_m_tilde, dnorm_estimates, errors,
                    hitting_bound, hitting_curve, make_grid, msp, msp_corpus,
                    two_hit_prob, verify)
from maxhit.cli import UsageError, _build_parser, main, parse_invocation
from maxhit.errors import InvalidArgumentError
from maxhit.paths import RowExtremes
from maxhit.verify import check_ids


@pytest.fixture()
def two_branch_json(tmp_path):
    path = tmp_path / "twobranch.json"
    path.write_text(json.dumps({"variant": "two_branch", "params": {}}))
    return str(path)


@pytest.fixture()
def sine_json(tmp_path):
    path = tmp_path / "sine.json"
    path.write_text(json.dumps({"variant": "sine_bump", "params": {"amp": 0.5}}))
    return str(path)


class TestParseInvocation:
    def test_hitting_defaults_filled(self, two_branch_json):
        ns = parse_invocation(
            ["hitting", "--generator", two_branch_json, "--x", "-1", "--seed", "42"]
        )
        assert ns.command == "hitting"
        assert ns.grid == 1001
        assert ns.n == 100_000
        assert ns.seed == 42
        assert ns.x == -1.0 and ns.levels is None
        assert ns.interval == "0,1"

    def test_verify_config(self):
        ns = parse_invocation(
            ["verify", "--suite", "paper", "--seed", "7", "--out", "report.json"]
        )
        assert ns.command == "verify"
        assert ns.suite == "paper"
        assert ns.seed == 7
        assert ns.out == "report.json"
        assert ns.threads == 1 and not ns.no_timestamp

    def test_nonnegative_level_rejected(self, two_branch_json, capsys):
        assert main(["multihit", "--generator", two_branch_json, "--x0", "0.5",
                     "--split", "0.5"]) == 2
        assert "levels must be strictly negative" in capsys.readouterr().err

    def test_unknown_flag(self, two_branch_json):
        with pytest.raises(UsageError):
            parse_invocation(["hitting", "--generator", two_branch_json,
                              "--bogus", "1"])

    def test_missing_generator(self, capsys):
        assert main(["simulate", "--seed", "1"]) == 2
        assert "--generator is required" in capsys.readouterr().err

    def test_malformed_generator_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--generator", str(bad), "--seed", "1"]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_invalid_generator_constraints(self, tmp_path, capsys):
        doc = {"variant": "nonlinear_example",
               "params": {"a": 2, "b": 0.5, "c": 1.6, "d": 7, "e": 0.5}}
        bad = tmp_path / "nl.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--generator", str(bad), "--seed", "1"]) == 2
        assert "c < " in capsys.readouterr().err

    def test_multihit_needs_one_mode(self, two_branch_json, capsys):
        for extra in ([], ["--split", "0.5", "--intervals", "0,0.5"]):
            code = main(["multihit", "--generator", two_branch_json,
                         "--x0", "-1", *extra])
            assert code == 2
            assert "exactly one" in capsys.readouterr().err

    def test_unknown_check_id_rejected(self, capsys):
        assert main(["verify", "--suite", "example2-m,no-such-check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert "no-such-check" in captured.err

    @pytest.mark.parametrize("listing", [[], ["--list"]], ids=["run", "list"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_is_the_library_check_naming_the_flag(self, threads, listing,
                                                              capsys, monkeypatch):
        # one check: run_checks' own, which the CLI makes before --list too
        monkeypatch.setattr(cli, "run_checks", lambda *a, **k: pytest.fail("suite ran"))
        assert main(["verify", "--suite", "example2-m", "--threads", threads, *listing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(InvalidArgumentError) as library:
            verify.checked_threads(int(threads))
        assert captured.err.splitlines() == [f"error: --threads: {library.value}"]


class TestDispatch:
    def test_simulate_csv_shape(self, two_branch_json, tmp_path):
        out = tmp_path / "paths.csv"
        code = main([
            "simulate", "--generator", two_branch_json, "--paths", "3",
            "--grid", "101", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,path_0,path_1,path_2"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 4
        assert all(float(v) < 0 for v in first[1:])

    def test_simulate_byte_identical(self, two_branch_json, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main(["simulate", "--generator", two_branch_json, "--paths", "2",
                  "--grid", "101", "--seed", "4", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_csv_formats_every_value_17g(self, two_branch_json, tmp_path):
        # two blocks of paths; each value as format(v, ".17g") spells it
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--generator", two_branch_json, "--paths", "4097",
                     "--grid", "11", "--seed", "5", "--out", str(out)]) == 0
        grid = make_grid(11)
        paths = msp_corpus(TwoBranch(), grid, 4097, 5)
        lines = ["t," + ",".join(f"path_{j}" for j in range(4097))]
        for i, t in enumerate(grid.points):
            lines.append(",".join(format(float(v), ".17g")
                                  for v in (t, *paths[:, i])))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_simulate_non_finite_path_exits_1(self, two_branch_json, tmp_path,
                                              capsys, monkeypatch):
        def one_nan(spec, grid, n, seed):
            paths = np.full((n, len(grid)), -1.0)
            paths[n - 1, 3] = math.nan
            return paths

        monkeypatch.setattr(cli, "msp_corpus", one_nan)
        out = tmp_path / "paths.csv"
        code = main(["simulate", "--generator", two_branch_json, "--paths", "3",
                     "--grid", "11", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: result is not finite\n"
        assert not out.exists()

    def test_hitting_csv(self, two_branch_json, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "hitting", "--generator", two_branch_json, "--levels", "-0.5,-1",
            "--grid", "101", "--n", "2000", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,estimate,ci_lo,ci_hi,bound"
        assert len(lines) == 3
        row = lines[2].split(",")
        assert float(row[0]) == -1.0
        assert 0.0 <= float(row[1]) <= 1.0
        # two-branch bound at -1 is 1 - e^{-2}
        assert float(row[4]) == pytest.approx(1 - math.exp(-2.0))

    @pytest.mark.parametrize("seed", [1, 6], ids=["no-hit", "hit"])
    def test_hitting_interval_of_one_path_is_a_probability(self, seed, two_branch_json,
                                                           capsys):
        # one path hits or misses: the rule-of-three end clips to [0, 1]
        assert main(["hitting", "--generator", two_branch_json, "--levels=-1",
                     "--n", "1", "--grid", "11", "--seed", str(seed)]) == 0
        x, est, lo, hi, _ = capsys.readouterr().out.splitlines()[1].split(",")
        assert (float(est), float(lo), float(hi)) == (seed == 6, 0.0, 1.0)

    def test_hitting_bound_column_uses_closed_form_moments(self, sine_json, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "hitting", "--generator", sine_json, "--levels", "-0.5,-1",
            "--grid", "101", "--n", "2000", "--seed", "57", "--out", str(out),
        ])
        assert code == 0
        spec = SineBump(amp=0.5)
        m, m_tilde = closed_form_m(spec), closed_form_m_tilde(spec)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [-0.5, -1.0]
        for r in rows:
            assert float(r[4]) == hitting_bound(m, m_tilde, float(r[0]))
        assert float(rows[1][4]) == pytest.approx(hitting_bound(1.125, 0.875, -1.0))

    @pytest.mark.parametrize("size", [["--grid", str(10**14)],
                                      ["--paths", str(10**11), "--grid", "1001"]],
                             ids=["grid", "paths"])
    def test_size_too_large_for_memory_exits_1(self, size, two_branch_json,
                                                tmp_path, capsys):
        # each array would exceed a 2**47-byte address space, so numpy
        # refuses it at once and nothing that size is allocated
        out = tmp_path / "paths.csv"
        code = main(["simulate", "--generator", two_branch_json, *size,
                     "--out", str(out)])
        (line,) = capsys.readouterr().err.splitlines()
        assert code == 1
        assert line.startswith("error: ") and "allocate" in line
        assert not out.exists()

    def test_multihit_split_json(self, two_branch_json, tmp_path, capsys):
        code = main([
            "multihit", "--generator", two_branch_json, "--x0", "-1",
            "--split", "0.5", "--grid", "101", "--n", "2000", "--seed", "3",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["query"] == {"x0": -1.0, "split": 0.5}
        assert set(doc["estimate"]) == {"value", "se", "ci", "n", "seed"}
        assert doc["estimate"]["n"] == 2000
        assert doc["estimate"]["seed"] == 3

    def test_multihit_intervals_json(self, two_branch_json, tmp_path, capsys):
        code = main([
            "multihit", "--generator", two_branch_json, "--x0", "-1",
            "--intervals", "0,0.3;0.4,0.6;0.7,1", "--grid", "101",
            "--n", "2000", "--seed", "3",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["query"]["intervals"] == [[0.0, 0.3], [0.4, 0.6], [0.7, 1.0]]
        assert doc["estimate"]["value"] == 0.0

    def test_dnorm_json(self, sine_json, tmp_path, capsys):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"shape": "constant", "level": -1.0}))
        code = main([
            "dnorm", "--generator", sine_json, "--level-function", str(f),
            "--grid", "101", "--n", "4000", "--seed", "3",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 4000 and doc["seed"] == 3
        assert doc["value"] == pytest.approx(1.125, abs=0.02)

    def test_interval_snapping_reported(self, two_branch_json, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "hitting", "--generator", two_branch_json, "--x", "-1",
            "--interval", "0.101,0.899", "--grid", "11", "--n", "500",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert "snapped" in capsys.readouterr().err

    def test_verify_list(self, capsys):
        # --list returns before run_checks, which refuses n < MIN_N
        assert main(["verify", "--list", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "final-integral-3/2" in out

    def test_verify_small_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--suite", "example2-m,final-two-hit", "--seed", "7",
            "--n", "2000", "--grid", "101", "--out", str(out),
            "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert [c["id"] for c in doc["checks"]] == ["example2-m", "final-two-hit"]
        assert "generated_at" not in doc
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1] == "overall: PASS"

    def test_verify_report_byte_identical_without_timestamp(self, tmp_path,
                                                            capsys):
        outs, stdouts = [], []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["verify", "--suite", "example2-m", "--seed", "7",
                  "--n", "1500", "--grid", "101", "--out", str(out),
                  "--no-timestamp"])
            outs.append(out.read_bytes())
            stdouts.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert stdouts[0] == stdouts[1]
        assert not re.search(r"\(\d+\.\d\ds\)", stdouts[0])

    def test_verify_report_stable_across_threads(self, tmp_path):
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"report{threads}.json"
            main(["verify", "--suite", "example2-m,eq3-negative-paths",
                  "--seed", "7", "--n", "1500", "--grid", "101",
                  "--out", str(out), "--threads", threads, "--no-timestamp"])
            doc = json.loads(out.read_text())
            for c in doc["checks"]:
                c.pop("seconds")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["hitting", "--x", "nan"],
            ["hitting", "--levels=-1,-inf"],
            ["multihit", "--x0", "nan", "--split", "0.5"],
            ["multihit", "--x0", "-1", "--grid", "2", "--intervals", "0,0.5;0.5,1"],
            ["dnorm", "--level-function", "BOGUS_SHAPE"],
            ["hitting", "--x", "-1", "--threads", "2"],
            ["hitting", "--x", "-1", "--seed", "-1"],
            ["verify", "--suite", "example2-m", "--seed", "-3"],
            ["multihit", "--x0", "-1", "--split", "0.01", "--grid", "11"],
            ["multihit", "--x0", "-1", "--intervals", "0,0.5;0.4,1"],
            ["dnorm", "--level-function", "CONSTANT", "--n", "1"],
            ["verify", "--suite", "example2-m", "--n", "4"],
            ["verify", "--suite", "margins-ks", "--grid", "2"],
            ["verify", "--suite", "margins-ks", "--grid", "1000"],
            ["verify", "--suite", "cor33-equivalences", "--grid", "3"],
            ["simulate", "--generator", "NOT_UTF8"],
            ["multihit", "--x0", "-1", "--intervals", "-5,0.5;0.6,7"],
            ["verify", "--suite", ""],
            ["verify", "--suite", ","],
            ["verify", "--suite", "eq1-moments,eq1-moments"],
        ],
        ids=["x-nan", "levels-inf", "x0-nan", "collapsed-interval",
             "bogus-shape", "threads-outside-verify", "hitting-seed-negative",
             "verify-seed-negative", "split-snaps-to-end", "intervals-overlap",
             "dnorm-n-1", "verify-n-4", "margins-grid-2", "margins-grid-1000",
             "cor33-grid-3", "generator-not-utf8", "intervals-outside-unit",
             "suite-empty", "suite-comma", "suite-repeated-id"],
    )
    def test_usage_errors_exit_2_quietly(self, argv, two_branch_json, tmp_path,
                                         capsys):
        files = {"BOGUS_SHAPE": b'{"shape": "bogus"}',
                 "CONSTANT": b'{"shape": "constant", "level": -1}',
                 "NOT_UTF8": b'{"variant": "\xff"}'}
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        # the flags of argv come last, so they override these
        shared = ["--n", "100"]
        if argv[0] != "verify":
            shared += ["--generator", two_branch_json]
        code = main([argv[0], *shared, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1

    def test_off_grid_error_names_time_and_grid(self, capsys):
        assert main(["verify", "--suite", "margins-ks", "--grid", "1000",
                     "--n", "100"]) == 2
        err = capsys.readouterr().err
        assert "time 0.37 " in err and "grid of 1000 points" in err

    def test_non_finite_result_exits_1(self, two_branch_json, tmp_path, capsys,
                                       recwarn):
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"shape": "constant", "level": -1e308}))
        code = main(["dnorm", "--generator", two_branch_json, "--level-function",
                     str(f), "--grid", "11", "--n", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: result is not finite\n"
        assert not recwarn.list

    def test_failed_eq1_still_writes_a_finite_report(self, tmp_path, capsys,
                                                     monkeypatch):
        # a mutant generator whose complete-dependence paths are doubled:
        # every grid point then has mean 2 and se 0
        real = verify.shape_blocks

        def doubled(spec, *args):
            for block in real(spec, *args):
                if isinstance(spec, CompleteDependence):
                    block = RowExtremes(2.0 * block.rows, block.index)
                yield block

        monkeypatch.setattr(verify, "shape_blocks", doubled)
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "eq1-moments", "--n", "500",
                     "--grid", "11", "--out", str(out), "--no-timestamp"])
        assert code == 1
        assert capsys.readouterr().out.startswith("FAIL  eq1-moments")
        (entry,) = json.loads(out.read_text())["checks"]
        assert entry["pass"] is False
        assert entry["parts"][0] == "complete_dependence:mean"
        assert (entry["observed"][0], entry["se"][0]) == (2.0, 0.0)
        for key in ("observed", "expected", "tol", "se"):
            assert len(entry[key]) == len(entry["parts"])
            assert all(math.isfinite(v) for v in entry[key])

    def test_verify_without_fixed_times_runs_on_any_grid(self, capsys):
        code = main(["verify", "--suite", "example2-m", "--grid", "11",
                     "--n", "500", "--no-timestamp"])
        assert code in (0, 1)
        assert capsys.readouterr().out.endswith(("overall: PASS\n",
                                                 "overall: FAIL\n"))

    def test_usage_error_exit_code(self, two_branch_json, capsys):
        assert main(["hitting", "--generator", two_branch_json, "--x", "0.5"]) == 2
        assert "levels must be strictly negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, library_call",
        [
            (["hitting", "--x", "0.5"],
             lambda g: hitting_curve(TwoBranch(), [0.5], [Interval(0.0, 1.0)], g, 100, 0)),
            (["hitting", "--x", "-1", "--interval", "0.5,1.5"],
             lambda g: Interval(0.5, 1.5)),
            (["multihit", "--x0", "-1", "--split", "1"],
             lambda g: two_hit_prob(TwoBranch(), -1.0, 1.0, g, 100, 0)),
            (["multihit", "--x0", "-1", "--intervals", "0,0.5;0.4,1"],
             lambda g: hitting_curve(TwoBranch(), [-1.0], [Interval(0.0, 0.5),
                                                           Interval(0.4, 1.0)],
                                     g, 100, 0)),
            (["simulate", "--paths", "0"],
             lambda g: msp_corpus(TwoBranch(), g, 0, 0)),
            (["dnorm", "--level-function", "CONSTANT", "--n", "1"],
             lambda g: dnorm_estimates(TwoBranch(), [LevelFunction.constant(g, -1.0)],
                                       1, 0)),
        ],
        ids=["level", "interval", "split", "overlap", "paths-0", "dnorm-n-1"],
    )
    def test_refusal_is_the_library_message(self, argv, library_call,
                                            two_branch_json, tmp_path, capsys):
        with pytest.raises(InvalidArgumentError) as refused:
            library_call(make_grid(11))
        constant = tmp_path / "constant.json"
        constant.write_text('{"shape": "constant", "level": -1}')
        argv = [str(constant) if a == "CONSTANT" else a for a in argv]
        code = main([argv[0], "--generator", two_branch_json, "--grid", "11",
                     "--n", "100", *argv[1:]])
        (line,) = [x for x in capsys.readouterr().err.splitlines()
                   if x.startswith("error: ")]
        assert code == 2
        assert str(refused.value) in line

    def test_split_nan_names_the_time(self, two_branch_json, capsys):
        code = main(["multihit", "--generator", two_branch_json, "--x0", "-1",
                     "--split", "nan", "--grid", "11", "--n", "100"])
        assert code == 2
        assert capsys.readouterr().err == "error: time nan is near no grid point\n"

    def test_program_fault_propagates_but_bad_argument_exits_2(
            self, two_branch_json, capsys, monkeypatch):
        argv = ["hitting", "--generator", two_branch_json, "--x", "-1",
                "--grid", "11", "--n", "10"]

        def raises(exc):
            def run(*args):
                raise exc
            return run

        monkeypatch.setattr(cli, "hitting_curve", raises(ValueError("a fault")))
        with pytest.raises(ValueError, match="a fault"):
            main(argv)
        monkeypatch.setattr(cli, "hitting_curve",
                            raises(InvalidArgumentError("a bad argument")))
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: a bad argument\n"

    @pytest.mark.parametrize("n", [2.5, True])
    def test_fractional_or_boolean_n_exits_2(self, n, tmp_path, capsys):
        gen = tmp_path / "pw.json"
        gen.write_text(json.dumps(
            {"variant": "piecewise_example", "params": {"n": n, "a": 0.25, "b": 0.75}}
        ))
        code = main(["hitting", "--generator", str(gen), "--x", "-1", "--n", "10"])
        assert code == 2
        assert "whole number" in capsys.readouterr().err

    def test_bound_too_loose_exit_code(self, two_branch_json, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setattr(msp, "MAX_ARRIVALS", 1)
        code = main([
            "simulate", "--generator", two_branch_json, "--paths", "1",
            "--grid", "101", "--seed", "9", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "stopping rule" in capsys.readouterr().err

    def test_max_points_is_not_an_option(self, two_branch_json, capsys):
        # the arrival cap is msp.MAX_ARRIVALS, not a flag
        code = main(["simulate", "--generator", two_branch_json, "--grid", "11",
                     "--max-points", "5"])
        assert code == 2
        assert "unrecognized arguments: --max-points 5" in capsys.readouterr().err


# --- exit codes per error class ----------------------------------------------

#: One instance of each error class with the exit code the README gives it.
_ERROR_EXIT_CODES = [
    (errors.InvalidArgumentError("bad argument"), 2),
    (errors.InvalidSpecError(["a > 0 violated"]), 2),
    (errors.OffGridError("time 0.3 is not on the grid of 11 points"), 2),
    (errors.UnknownCheckError("bogus"), 2),
    (UsageError("--x0 is required"), 2),
    (errors.BoundTooLooseError(deficit=1.0, arrivals=10), 1),
]


def test_exit_code_table_covers_every_error_class():
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    # MaxhitError is only the common base; nothing raises it
    assert {type(exc) for exc, _ in _ERROR_EXIT_CODES} == (
        classes - {errors.MaxhitError}) | {UsageError}


@pytest.mark.parametrize("exc, code", _ERROR_EXIT_CODES,
                         ids=[type(e).__name__ for e, _ in _ERROR_EXIT_CODES])
def test_error_class_exit_code(exc, code, two_branch_json, capsys, monkeypatch):
    def raises(*args):
        raise exc

    monkeypatch.setattr(cli, "hitting_curve", raises)
    assert main(["hitting", "--generator", two_branch_json, "--x", "-1",
                 "--grid", "11", "--n", "10"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


#: Level-function documents that generator documents' rules refuse: a
#: number given as a string, as a boolean or beyond float range, and a
#: field the shape does not have; each with the field its error names.
_BAD_LEVEL_DOCUMENTS = {
    "string-level": ({"shape": "constant", "level": "-1"}, "level"),
    "boolean-outside": ({"shape": "indicator_step", "interval": [0.5, 1.0],
                         "inside": -1.0, "outside": False}, "outside"),
    "boolean-breakpoint-time": ({"shape": "piecewise_linear",
                                 "breakpoints": [[0.0, -0.5], [True, -1.5]]}, "breakpoints"),
    "unknown-field": ({"shape": "constant", "level": -1, "extra": 3}, "extra"),
    "level-beyond-float-range": ({"shape": "constant", "level": -10**400}, "level"),
}


@pytest.mark.parametrize("doc, field", _BAD_LEVEL_DOCUMENTS.values(),
                         ids=list(_BAD_LEVEL_DOCUMENTS))
def test_level_function_document_refusal_names_the_field(doc, field, two_branch_json,
                                                         tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(doc))
    code = main(["dnorm", "--generator", two_branch_json, "--level-function", str(f),
                 "--grid", "11", "--n", "100"])
    (line,) = capsys.readouterr().err.splitlines()
    assert code == 2
    assert line.startswith("error: ") and repr(field) in line


#: Level-function documents whose structure is wrong, each with the start
#: of the one error line that names its field.
_MALFORMED_LEVEL_DOCUMENTS = {
    "three-number-breakpoint": (
        {"shape": "piecewise_linear", "breakpoints": [[0, -1, 7], [1, -2]]},
        "field 'breakpoints' needs [t, v], a list of two numbers, got [0, -1, 7]"),
    "missing-field": ({"shape": "indicator_step", "inside": -1.0},
                      "missing field 'interval'"),
    "three-number-interval": (
        {"shape": "indicator_step", "interval": [0.1, 0.2, 0.3], "inside": -1.0},
        "field 'interval' needs [lo, hi], a list of two numbers, got [0.1, 0.2, 0.3]"),
    "breakpoints-not-a-list": ({"shape": "piecewise_linear", "breakpoints": 5},
                               "field 'breakpoints' needs a list of [t, v] pairs, got 5"),
    "string-interval": ({"shape": "indicator_step", "interval": "ab", "inside": -1.0},
                        "field 'interval' needs [lo, hi], a list of two numbers, got 'ab'"),
}


@pytest.mark.parametrize("doc, message", _MALFORMED_LEVEL_DOCUMENTS.values(),
                         ids=list(_MALFORMED_LEVEL_DOCUMENTS))
def test_malformed_level_document_names_the_field(doc, message, two_branch_json,
                                                  tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(doc))
    code = main(["dnorm", "--generator", two_branch_json, "--level-function", str(f),
                 "--grid", "11", "--n", "100"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: bad level function document: {message}\n"


# --- argv fuzzing ------------------------------------------------------------


def _vocabulary() -> dict[str, list[str]]:
    """Each subcommand's long flags, read off the parser itself."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return {
        name: [s for a in p._actions for s in a.option_strings
               if s.startswith("--") and s != "--help"]
        for name, p in sub.choices.items()
    }


_VOCABULARY = _vocabulary()
_BOOLEAN_FLAGS = {"--no-timestamp", "--list"}
_FILES = {
    "generator": [json.dumps({"variant": v, "params": p}) for v, p in [
        ("complete_dependence", {}), ("two_branch", {}),
        ("sine_bump", {"amp": 0.5}),
        ("piecewise_example", {"n": 2, "a": 0.25, "b": 0.75}),
        ("nonlinear_example", {"a": 2, "b": 0.5, "c": 0.9, "d": 7, "e": 0.5}),
    ]],
    "level": [json.dumps(d) for d in [
        {"shape": "constant", "level": -1.0},
        {"shape": "constant", "level": -1e308},
        {"shape": "indicator_step", "interval": [0.5, 1.0], "inside": -1.0},
        {"shape": "indicator_step", "interval": [0.3, 0.31], "inside": -2.0},
        {"shape": "piecewise_linear", "breakpoints": [[0, -0.5], [1, -1.5]]},
        {"shape": "piecewise_linear", "breakpoints": [[0.2, -1], [1, -1]]},
        {"shape": "bogus"},
    ]],
    "garbage": ["{not json", "[]", "null", '"text"'],
}

_GARBAGE = st.sampled_from(["abc", "", "-", "1.5.2"])


def _mostly(*valid, bad=_GARBAGE):
    """One of ``valid`` seven times as often as one of ``bad``."""
    return st.integers(0, 7).flatmap(lambda k: st.one_of(*valid) if k < 7 else bad)


_numbers = _mostly(
    st.floats(-5, 1.5, allow_nan=False).map(repr),
    st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "-1e308", "-1e-320"]),
)
_times = _mostly(
    st.floats(-0.5, 1.5, allow_nan=False).map(repr),
    st.sampled_from(["0", "1", "0.5", "0.37", "0.999", "nan"]),
)


def _ints(lo: int, hi: int, *boundary: int):
    return _mostly(st.integers(lo, hi).map(str),
                   st.sampled_from([str(b) for b in (lo, hi, *boundary)]))


def _file(valid: list[str], garbage: list[str]):
    return _mostly(st.sampled_from(valid),
                   bad=st.sampled_from(garbage + ["/nonexistent.json"]))


def _value(flag: str, files: dict[str, list[str]]):
    """Valid, boundary and garbage values for one flag."""
    if flag == "--generator":
        return _file(files["generator"], files["garbage"])
    if flag == "--level-function":
        return _file(files["level"], files["garbage"])
    if flag == "--out":
        return st.sampled_from(files["out"])
    if flag in ("--x", "--x0"):
        return _numbers
    if flag == "--levels":
        return st.lists(_numbers, min_size=1, max_size=4).map(",".join)
    if flag in ("--interval", "--split"):
        return st.one_of(_times, st.lists(_times, min_size=2, max_size=2)
                         .map(",".join))
    if flag == "--intervals":
        pair = st.tuples(_times, _times).map(",".join)
        return st.lists(pair, min_size=0, max_size=3).map(";".join)
    if flag == "--suite":
        ids = st.sampled_from(check_ids() + ["bogus"])
        return _mostly(st.just("paper"), st.lists(ids, min_size=1, max_size=3)
                       .map(",".join))
    return {"--grid": _ints(-1, 1001, 2, 3, 11, 101, 201),
            "--n": _ints(-1, 64, 1, 2, 5), "--seed": _ints(-3, 2**70, 0),
            "--paths": _ints(-1, 50, 1),
            "--threads": st.sampled_from(["-1", "0", "1", "2"])}[flag]


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(sorted(_VOCABULARY)))
    argv = [command]
    flags = draw(st.lists(st.sampled_from(_VOCABULARY[command]), max_size=6))
    # give the flags a command needs more often than chance would
    needed = {"dnorm": ["--generator", "--level-function"],
              "hitting": ["--generator", "--x"],
              "multihit": ["--generator", "--x0"]}.get(command, [])
    flags[:0] = [f for f in needed if draw(st.integers(0, 3))]
    for flag in flags:
        argv.append(flag)
        if flag not in _BOOLEAN_FLAGS:
            argv.append(draw(_value(flag, files)))
    return argv


def _assert_finite_numbers(text: str) -> None:
    """Every number in a CSV, JSON or plain-text output is finite."""
    for token in re.split(r"[\s,:\[\]{}\"]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), f"non-finite number {token!r} in output"


@pytest.fixture()
def fuzz_files(tmp_path, monkeypatch):
    # runs that give no --n stay small
    monkeypatch.setattr(cli, "DEFAULT_N", 64)
    files = {}
    for kind, docs in _FILES.items():
        files[kind] = []
        for i, doc in enumerate(docs):
            path = tmp_path / f"{kind}{i}.json"
            path.write_text(doc)
            files[kind].append(str(path))
    (tmp_path / "latin1.json").write_bytes(b'{"variant": "\xff"}')
    files["garbage"].append(str(tmp_path / "latin1.json"))
    files["out"] = [str(tmp_path / "out.txt"), str(tmp_path),
                    str(tmp_path / "missing" / "out.txt")]
    return files


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_meets_cli_contract(data, fuzz_files, capsys):
    """Any argv exits 0, 1 or 2 without a traceback, and a successful run
    prints only finite numbers."""
    argv = data.draw(_argv(fuzz_files), label="argv")
    out_file = fuzz_files["out"][0]
    if os.path.exists(out_file):
        os.remove(out_file)
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        _assert_finite_numbers(captured.out)
        if os.path.exists(out_file):
            with open(out_file, encoding="utf-8") as fh:
                _assert_finite_numbers(fh.read())
