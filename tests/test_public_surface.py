"""The package's public names, and the README code that uses them."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import maxhit

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "BoundTooLooseError", "CheckReport", "CheckResult", "CompleteDependence",
    "Estimate", "GeneratorSpec", "HittingCurve", "Interval",
    "InvalidArgumentError", "InvalidSpecError", "LevelFunction", "MaxhitError",
    "NONLINEAR_DEFAULTS", "NonlinearExample", "OffGridError", "PiecewiseExample",
    "SineBump", "TimeGrid", "TwoBranch", "UnknownCheckError",
    "binomial_estimate", "check_ids", "closed_form_m", "closed_form_m_tilde",
    "dnorm_estimate", "dnorm_estimates", "final_example_integral_below",
    "final_example_reference", "final_example_two_hit", "generator_blocks",
    "generator_bound", "generator_from_json", "generator_to_json",
    "hitting_bound", "hitting_curve", "hitting_integral", "ks_band", "make_grid",
    "msp_corpus", "msp_path_blocks", "multi_hit_prob", "rule_of_three",
    "run_checks", "stopping_exactness_violations", "two_hit_prob",
    "wilson_interval",
}

#: Single-check estimators whose reductions now live in their checks.
REMOVED = [
    "joint_cdf_estimates", "marginal_gof", "generator_moments",
    "GeneratorMoments", "sup_equals_max_rate", "generator_corpus",
    "survivor_lower_bound", "takahashi_check", "hitting_prob",
    "curve_hit_prob", "down_up_down_prob",
]


def test_all_is_the_public_set():
    assert len(maxhit.__all__) == len(PUBLIC) == 46
    assert set(maxhit.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(maxhit, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(maxhit, name)


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
    assert ("maxhit.estimates", "count_events") in used
