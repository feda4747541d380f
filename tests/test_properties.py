"""Per-draw invariants on shared corpora, small-scale mirrors of the
verification suite's shared-draw-invariants and stopping-exactness checks."""

import numpy as np
import pytest

from conftest import z_blocks
from maxhit import (
    Interval,
    LevelFunction,
    make_grid,
    msp_corpus,
)
from maxhit.estimates import RowStack, reduce_blocks

N = 400
SEED = 90210


@pytest.fixture(scope="module")
def grid():
    return make_grid(201)


@pytest.fixture()
def z_corpus(any_spec, grid):
    return reduce_blocks(z_blocks(any_spec, grid, N, SEED), RowStack(N)).rows


@pytest.fixture()
def eta_corpus(any_spec, grid):
    return msp_corpus(any_spec, grid, N, SEED + 1)


def test_dnorm_per_draw_monotone(z_corpus, grid):
    f = np.abs(LevelFunction.piecewise_linear(grid, [0.0, 1.0], [-0.2, -1.0]).values)
    g = np.abs(LevelFunction.constant(grid, -1.0).values)
    assert (f <= g).all()
    sup_f = (z_corpus * f).max(axis=1)
    sup_g = (z_corpus * g).max(axis=1)
    assert (sup_f <= sup_g).all()


def test_dnorm_per_draw_homogeneity_binary_factor(z_corpus, grid):
    f = np.abs(LevelFunction.constant(grid, -0.5).values)
    sup_f = (z_corpus * f).max(axis=1)
    sup_2f = (z_corpus * (2.0 * f)).max(axis=1)
    assert np.array_equal(sup_2f, 2.0 * sup_f)


def test_indicator_sup_monotone_in_interval(z_corpus, grid):
    sl = grid.slice_of(Interval(0.25, 0.75))
    assert (z_corpus[:, sl].max(axis=1) <= z_corpus.max(axis=1)).all()


def test_hit_sets_monotone_in_interval(eta_corpus, grid):
    x = -1.0
    sl = grid.slice_of(Interval(0.25, 0.75))
    inner = eta_corpus[:, sl]
    hit_inner = (inner.min(axis=1) <= x) & (x <= inner.max(axis=1))
    hit_full = (eta_corpus.min(axis=1) <= x) & (x <= eta_corpus.max(axis=1))
    assert not (hit_inner & ~hit_full).any()


def test_two_hit_contains_down_up_down(eta_corpus, grid):
    x = -1.0
    i0 = grid.index_of(0.25)
    i1 = grid.index_of(0.5)
    left, right = eta_corpus[:, : i0 + 1], eta_corpus[:, i0:]
    two = (
        (left.min(axis=1) <= x) & (x <= left.max(axis=1))
        & (right.min(axis=1) <= x) & (x <= right.max(axis=1))
    )
    dud = (eta_corpus[:, 0] <= x) & (eta_corpus[:, i0] > x) & (eta_corpus[:, i1] <= x)
    assert not (dud & ~two).any()


def test_hit_decomposition_identity(eta_corpus):
    # 1{hit x} = 1{somewhere <= x} - 1{everywhere < x}, draw by draw
    x = -1.0
    mn = eta_corpus.min(axis=1)
    mx = eta_corpus.max(axis=1)
    lhs = ((mn <= x) & (x <= mx)).astype(int)
    rhs = (mn <= x).astype(int) - (mx < x).astype(int)
    assert np.array_equal(lhs, rhs)


def test_corpus_consistency_between_block_and_whole(any_spec, grid):
    # reading the corpus in one go equals streaming it
    from maxhit import msp_path_blocks

    whole = msp_corpus(any_spec, grid, N, SEED + 2)
    streamed = np.concatenate(
        list(msp_path_blocks(any_spec, grid, N, SEED + 2)), axis=0
    )
    assert np.array_equal(whole, streamed)
