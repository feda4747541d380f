"""Smoke test of the benchmark's tracer (``perfbench/tracing.py``).

The tracer finds the functions it counts by name (``sample_paths``,
``block_streams``, ``run_checks``), so renaming one would silently zero its
per-layer counters; this test runs two small CLI calls under a ``Tracer``
and asserts the counters are positive and every binding is restored.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import maxhit.cli
import maxhit.verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _bindings():
    """Every function bound in a ``maxhit`` module, by (module, name)."""
    return {
        (modname, name): obj
        for modname, mod in list(sys.modules.items())
        if modname == "maxhit" or modname.startswith("maxhit.")
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


def test_tracer_counts_layers_and_restores_bindings(tracing, tmp_path, capsys):
    generator = tmp_path / "g.json"
    generator.write_text(json.dumps({"variant": "two_branch", "params": {}}))
    level = tmp_path / "f.json"
    level.write_text(json.dumps({"shape": "constant", "level": -1.0}))
    common = ["--generator", str(generator), "--grid", "101", "--n", "500",
              "--seed", "3"]
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert maxhit.cli.main is not before[("maxhit.cli", "main")]
        # looked up per call: install() rebinds maxhit.cli.main
        assert maxhit.cli.main(["hitting", "--x", "-1", *common]) == 0
        assert maxhit.cli.main(["dnorm", "--level-function", str(level),
                                *common]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer.summary()
    for counter in ("msp.rounds", "generators.rows", "streams.blocks"):
        assert summary[counter] > 0, counter
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, obj in after.items() if obj is not before[key]]
    assert moved == []


def test_every_module_is_a_layer_or_a_helper(tracing):
    # the sampler counts a frame of a module in neither list as
    # unattributed, which would pull trace.coverage down unseen
    package = TRACING.parents[1] / "src" / "maxhit"
    modules = {path.stem for path in package.rglob("*.py")}
    assert modules, package
    assert modules - set(tracing.LAYERS) - set(tracing.HELPERS) == set()


def test_check_spans_cover_check_seconds(tracing):
    # perfbench/run.py's self-check: the spans under each check:<id> span
    # must add up to the check's CheckResult.seconds, to 1% + 2 ms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up per call: install() rebinds run_checks
        report = maxhit.verify.run_checks("paper", 5, n_default=300, grid_points=101, threads=2)
    finally:
        tracer.uninstall()
    checks = tracer.summary()["verify.checks"]
    assert list(checks) == [c.check_id for c in report.checks]
    for cid, c in checks.items():
        gap = abs(c["span_self_sum"] - c["seconds"])
        assert gap <= 0.01 * c["seconds"] + 0.002, (cid, c)
    # at this scale a check takes well under 2 ms, so also ask that the
    # assertion building runs inside the span: the KS distances, which only
    # margins-ks and max-stability compute from their totals
    parent = {s.sid: s.name for s in tracer.spans}
    ks = [s.parent for s in tracer.spans if s.name == "ks_distance_neg_exponential"]
    assert {parent[p] for p in ks} == {"check:margins-ks", "check:max-stability"}
