import numpy as np
import pytest

from maxhit import (
    Interval,
    LevelFunction,
    TwoBranch,
    curve_hit_prob,
    generator_corpus,
    hitting_curve,
    hitting_prob,
    joint_cdf_estimates,
    make_grid,
    msp_corpus,
    sup_equals_max_rate,
)
from maxhit.generators import shape_blocks
from maxhit.streams import block_streams

GRID = make_grid(11)
SPEC = TwoBranch()
F = LevelFunction.constant(GRID, -1.0)
UNIT = Interval(0.0, 1.0)

EMPTY_SAMPLE_CALLS = {
    "block_streams": lambda n: list(block_streams(1, n)),
    "shape_blocks": lambda n: list(shape_blocks(SPEC, GRID, n, 1)),
    "hitting_prob": lambda n: hitting_prob(SPEC, -1.0, UNIT, GRID, n, 1),
    "curve_hit_prob": lambda n: curve_hit_prob(SPEC, F, n, 1),
    "joint_cdf_estimates": lambda n: joint_cdf_estimates(SPEC, [F], n, 1),
    "sup_equals_max_rate": lambda n: sup_equals_max_rate(SPEC, UNIT, GRID, n, 1),
    "hitting_curve": lambda n: hitting_curve(SPEC, np.array([-1.0]), UNIT, GRID, n, 1),
    "generator_corpus": lambda n: generator_corpus(SPEC, GRID, n, 1),
    "msp_corpus": lambda n: msp_corpus(SPEC, GRID, n, 1),
}


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("call", EMPTY_SAMPLE_CALLS.values(), ids=EMPTY_SAMPLE_CALLS)
def test_empty_sample_is_refused(call, n):
    with pytest.raises(ValueError, match="replication count must be >= 1"):
        call(n)
