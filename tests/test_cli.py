import json
import math

import pytest

from maxhit.cli import UsageError, main, parse_invocation


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
    def test_hitting_defaults_filled(self, two_branch_json, monkeypatch):
        monkeypatch.delenv("MSHIT_DEFAULT_N", raising=False)
        cfg = parse_invocation(
            ["hitting", "--generator", two_branch_json, "--x", "-1", "--seed", "42"]
        )
        assert cfg.command == "hitting"
        assert cfg.grid_points == 1001
        assert cfg.n == 100_000
        assert cfg.seed == 42
        assert cfg.levels == (-1.0,)
        assert cfg.interval == (0.0, 1.0)

    def test_verify_config(self):
        cfg = parse_invocation(
            ["verify", "--suite", "paper", "--seed", "7", "--out", "report.json"]
        )
        assert cfg.command == "verify"
        assert cfg.suite == "paper"
        assert cfg.seed == 7
        assert cfg.out == "report.json"

    def test_nonnegative_level_rejected(self):
        with pytest.raises(UsageError, match="level must be negative"):
            parse_invocation(["hitting", "--x", "0.5"])

    def test_unknown_flag(self, two_branch_json):
        with pytest.raises(UsageError):
            parse_invocation(["hitting", "--generator", two_branch_json,
                              "--bogus", "1"])

    def test_missing_generator(self):
        with pytest.raises(UsageError, match="--generator is required"):
            parse_invocation(["simulate", "--seed", "1"])

    def test_malformed_generator_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(UsageError, match="malformed JSON"):
            parse_invocation(["simulate", "--generator", str(bad), "--seed", "1"])

    def test_invalid_generator_constraints(self, tmp_path):
        doc = {"variant": "nonlinear_example",
               "params": {"a": 2, "b": 0.5, "c": 1.6, "d": 7, "e": 0.5}}
        bad = tmp_path / "nl.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(UsageError, match="c < "):
            parse_invocation(["simulate", "--generator", str(bad), "--seed", "1"])

    def test_env_var_overrides_default_n(self, two_branch_json, monkeypatch):
        monkeypatch.setenv("MSHIT_DEFAULT_N", "321")
        cfg = parse_invocation(
            ["hitting", "--generator", two_branch_json, "--x", "-1"]
        )
        assert cfg.n == 321

    def test_explicit_n_beats_env(self, two_branch_json, monkeypatch):
        monkeypatch.setenv("MSHIT_DEFAULT_N", "321")
        cfg = parse_invocation(
            ["hitting", "--generator", two_branch_json, "--x", "-1", "--n", "99"]
        )
        assert cfg.n == 99

    def test_multihit_needs_one_mode(self, two_branch_json):
        with pytest.raises(UsageError, match="exactly one"):
            parse_invocation(["multihit", "--generator", two_branch_json,
                              "--x0", "-1"])
        with pytest.raises(UsageError, match="exactly one"):
            parse_invocation(["multihit", "--generator", two_branch_json,
                              "--x0", "-1", "--split", "0.5",
                              "--intervals", "0,0.5"])

    def test_unknown_check_id_rejected(self):
        with pytest.raises(UsageError, match="no-such-check"):
            parse_invocation(["verify", "--suite", "no-such-check"])


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
        assert main(["verify", "--list"]) == 0
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

    def test_verify_report_byte_identical_without_timestamp(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["verify", "--suite", "example2-m", "--seed", "7",
                  "--n", "1500", "--grid", "101", "--out", str(out),
                  "--no-timestamp"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
        ],
        ids=["x-nan", "levels-inf", "x0-nan", "collapsed-interval",
             "bogus-shape", "threads-outside-verify"],
    )
    def test_usage_errors_exit_2_quietly(self, argv, two_branch_json, tmp_path,
                                         capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"shape": "bogus"}))
        argv = [str(bogus) if a == "BOGUS_SHAPE" else a for a in argv]
        code = main(argv + ["--generator", two_branch_json, "--n", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err

    def test_usage_error_exit_code(self, capsys):
        assert main(["hitting", "--x", "0.5"]) == 2
        assert "level must be negative" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2.5, True])
    def test_fractional_or_boolean_n_exits_2(self, n, tmp_path, capsys):
        gen = tmp_path / "pw.json"
        gen.write_text(json.dumps(
            {"variant": "piecewise_example", "params": {"n": n, "a": 0.25, "b": 0.75}}
        ))
        code = main(["hitting", "--generator", str(gen), "--x", "-1", "--n", "10"])
        assert code == 2
        assert "whole number" in capsys.readouterr().err

    def test_bound_too_loose_exit_code(self, two_branch_json, tmp_path, capsys):
        code = main([
            "simulate", "--generator", two_branch_json, "--paths", "1",
            "--grid", "101", "--seed", "9", "--max-points", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "stopping rule" in capsys.readouterr().err
