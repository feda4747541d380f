import numpy as np
import pytest

from maxhit import (
    Interval,
    TwoBranch,
    hitting_curve,
    make_grid,
    msp_corpus,
    multi_hit_prob,
    two_hit_prob,
)
from maxhit.generators import shape_blocks
from maxhit.streams import block_streams

GRID = make_grid(11)
SPEC = TwoBranch()
UNIT = Interval(0.0, 1.0)

EMPTY_SAMPLE_CALLS = {
    "block_streams": lambda n: list(block_streams(1, n)),
    "shape_blocks": lambda n: list(shape_blocks(SPEC, GRID, n, 1)),
    "hitting_curve": lambda n: hitting_curve(SPEC, np.array([-1.0]), UNIT, GRID, n, 1),
    "msp_corpus": lambda n: msp_corpus(SPEC, GRID, n, 1),
    "multi_hit_prob": lambda n: multi_hit_prob(SPEC, -1.0, [UNIT], GRID, n, 1),
    "two_hit_prob": lambda n: two_hit_prob(SPEC, -1.0, 0.5, GRID, n, 1),
}


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("call", EMPTY_SAMPLE_CALLS.values(), ids=EMPTY_SAMPLE_CALLS)
def test_empty_sample_is_refused(call, n):
    with pytest.raises(ValueError, match="replication count must be >= 1"):
        call(n)
