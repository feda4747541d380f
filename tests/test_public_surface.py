"""The package's public names, and the README and benchmark code that use them."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import maxhit

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PERFBENCH = ROOT / "perfbench"

PUBLIC = {
    "BoundTooLooseError", "CheckReport", "CheckResult", "CompleteDependence",
    "Estimate", "GeneratorSpec", "Interval",
    "InvalidArgumentError", "InvalidSpecError", "LevelFunction", "MaxhitError",
    "NONLINEAR_DEFAULTS", "NonlinearExample", "OffGridError", "PiecewiseExample",
    "SineBump", "TimeGrid", "TwoBranch", "UnknownCheckError",
    "binomial_estimate", "check_ids", "closed_form_m", "closed_form_m_tilde",
    "dnorm_estimates", "final_example_reference", "final_example_two_hit",
    "generator_bound", "generator_from_json",
    "hitting_bound", "hitting_curve", "make_grid", "msp_corpus",
    "msp_path_blocks", "run_checks", "two_hit_prob",
}

#: Single-check estimators whose reductions now live in their checks,
#: estimators that ``hitting_curve`` and ``dnorm_estimates`` replace, the
#: hitting-integral helpers the mean range replaces, names only tests
#: read (they stay in their modules), and the full generator blocks that
#: shape counts replace.
REMOVED = [
    "joint_cdf_estimates", "marginal_gof", "generator_moments",
    "GeneratorMoments", "sup_equals_max_rate", "generator_corpus",
    "survivor_lower_bound", "takahashi_check", "hitting_prob",
    "curve_hit_prob", "down_up_down_prob", "multi_hit_prob", "HittingCurve",
    "dnorm_estimate", "hitting_integral", "final_example_integral_below",
    "ks_band", "stopping_exactness_violations", "rule_of_three",
    "wilson_interval", "generator_to_json", "generator_blocks",
]


def test_all_is_the_public_set():
    assert len(maxhit.__all__) == len(PUBLIC) == 35
    assert set(maxhit.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(maxhit, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(maxhit, name)


#: Module-level names that went: the pull wrappers and the mean base class
#: that every estimator's one fold (``reduce_blocks`` over an accumulator)
#: replaces, the suite's int sum that a mask stream replaced, and a
#: document writer only tests called.
REMOVED_FROM_MODULES = [
    "maxhit.estimates.count_events", "maxhit.estimates.stream_means",
    "maxhit.estimates.stack_blocks", "maxhit.estimates.RunningMean",
    "maxhit.generators.generator_to_json", "maxhit.verify._Total",
]


@pytest.mark.parametrize("dotted", REMOVED_FROM_MODULES)
def test_removed_module_name_is_gone(dotted):
    module, name = dotted.rsplit(".", 1)
    assert not hasattr(importlib.import_module(module), name)


def _readme_names():
    """(module, name) for every ``mh.<name>`` and every
    ``from maxhit... import <name>`` in the README's Python blocks."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "the README has no Python blocks"
    aliases, used = set(), []
    for block in blocks:
        tree = ast.parse(block)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "maxhit"}
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("maxhit"):
                used += [(node.module, a.name) for a in node.names]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.append(("maxhit", node.attr))
    return used


def test_readme_code_names_resolve():
    used = _readme_names()
    missing = [f"{mod}.{name}" for mod, name in used
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
    assert ("maxhit", "make_grid") in used  # the scan sees the alias
    assert ("maxhit.estimates", "reduce_blocks") in used


#: What the benchmark's tracer finds by name: the functions it wraps
#: specially (by ``__name__``) and the check registry whose runners it wraps.
TRACER_HOOKS = [
    ("maxhit.verify", "run_checks"),
    ("maxhit.generators", "sample_paths"),
    ("maxhit.streams", "block_streams"),
]


def _maxhit_module(node) -> str | None:
    """The module a ``sys.modules["maxhit..."]`` or
    ``importlib.import_module("maxhit...")`` expression names."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif isinstance(node, ast.Call) and node.args:
        key = node.args[0]
    else:
        return None
    if isinstance(key, ast.Constant) and str(key.value).startswith("maxhit"):
        return key.value
    return None


def _perfbench_names():
    """(module, dotted name) for every name the benchmark scripts read
    from ``maxhit``: imports, ``maxhit.a.b`` chains and attributes of a
    module looked up by its name."""
    used = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("maxhit"):
                used += [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                used += [(a.name, "") for a in node.names if a.name.startswith("maxhit")]
            elif isinstance(node, ast.Attribute):
                chain, base = [node.attr], node.value
                while isinstance(base, ast.Attribute):
                    chain.insert(0, base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id == "maxhit":
                    used.append(("maxhit", ".".join(chain)))
                elif _maxhit_module(base):
                    used.append((_maxhit_module(base), ".".join(chain)))
    return used


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in filter(None, dotted.split(".")):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_perfbench_code_names_resolve():
    used = _perfbench_names()
    missing = [f"{mod}:{name}" for mod, name in used if not _resolves(mod, name)]
    assert missing == []
    # the scan sees each kind of use
    assert ("maxhit", "cli.main") in used
    assert ("maxhit.verify", "_CHECKS") in used
    assert ("maxhit.streams", "block_streams") in used
    assert ("maxhit", "generator_from_json") in used


def test_tracer_hooks_resolve():
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    # the module lists the tracer imports as maxhit.<name>
    layers = {t.id: ast.literal_eval(node.value)
              for node in tracing.body if isinstance(node, ast.Assign)
              for t in node.targets
              if isinstance(t, ast.Name) and t.id in ("LAYERS", "HELPERS")}
    assert set(layers) == {"LAYERS", "HELPERS"}
    for name in (*layers["LAYERS"], *layers["HELPERS"]):
        importlib.import_module(f"maxhit.{name}")
    # the tracer wraps public functions defined in a layer module
    for modname, name in TRACER_HOOKS:
        fn = getattr(importlib.import_module(modname), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == modname, (modname, name)
        assert not name.startswith("_")
    verify = importlib.import_module("maxhit.verify")
    assert "runner" in {f.name for f in dataclasses.fields(verify.CheckDef)}
    assert verify._CHECKS and all(
        isinstance(d, verify.CheckDef) and callable(d.runner)
        for d in verify._CHECKS.values())
