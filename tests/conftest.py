import numpy as np
import pytest

from maxhit import (
    CompleteDependence,
    NonlinearExample,
    PiecewiseExample,
    SineBump,
    TwoBranch,
    make_grid,
    verify,
)
from maxhit.generators import shape_blocks

#: The suite's catalogue specs, in its order.
CATALOGUE = list(verify.CATALOGUE.values())

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
    """Blocks of generator paths, each the paths ``block[:]`` of a
    ``shape_blocks`` block; no block is held while the next is built."""
    return (block[:] for block in shape_blocks(spec, grid, n, seed))
