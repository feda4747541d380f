from itertools import starmap
from operator import getitem

import numpy as np
import pytest

from maxhit import (
    NONLINEAR_DEFAULTS,
    CompleteDependence,
    NonlinearExample,
    PiecewiseExample,
    SineBump,
    TwoBranch,
    make_grid,
)
from maxhit.generators import shape_blocks

CATALOGUE = [
    CompleteDependence(),
    PiecewiseExample(n=2, a=0.25, b=0.75),
    NonlinearExample(**NONLINEAR_DEFAULTS),
    TwoBranch(),
    SineBump(amp=0.5),
]

#: Uniforms one path consumes, as the ``generators`` docstring documents.
DOCUMENTED_UNIFORMS = {
    CompleteDependence: 0,
    PiecewiseExample: 2,
    NonlinearExample: 2,
    TwoBranch: 1,
    SineBump: 1,
}


@pytest.fixture(scope="session")
def grid201():
    return make_grid(201)


@pytest.fixture(scope="session")
def grid101():
    return make_grid(101)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=CATALOGUE, ids=lambda s: type(s).__name__)
def any_spec(request):
    return request.param


def z_blocks(spec, grid, n, seed):
    """Blocks of generator paths, each ``rows[index]`` of a ``shape_blocks``
    block; no block is held while the next is built."""
    return starmap(getitem, shape_blocks(spec, grid, n, seed))
