import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parisi_lab.paths import (
    DiscretePath,
    MonotoneChain,
    PathError,
    UnitPartition,
    chain_from_blocks,
    cumulative_fractions,
    inverse_profile_distance,
    path_from_json,
    path_to_json,
)


def scalar_path(x_int, qs, u=1.0, allow_equal=False):
    part = UnitPartition.from_interior(x_int)
    chain = MonotoneChain(
        [np.zeros((1, 1))] + [[[q]] for q in qs] + [[[u]]], allow_equal=allow_equal
    )
    return DiscretePath(part, chain)


def test_partition_validation():
    with pytest.raises(PathError):
        UnitPartition([0.0, 0.5, 0.9])
    with pytest.raises(PathError):
        UnitPartition([0.0, 0.6, 0.4, 1.0])
    p = UnitPartition.from_interior([0.3, 0.7])
    assert p.levels == 2
    assert np.array_equal(p.interior, [0.3, 0.7])


def test_chain_validation():
    with pytest.raises(PathError):
        MonotoneChain([[[0.1]], [[1.0]]])  # must start at zero
    with pytest.raises(PathError):
        MonotoneChain([[[0.0]], [[0.5]], [[0.4]]])  # not monotone
    with pytest.raises(PathError):
        MonotoneChain([[[0.0]], [[0.5]], [[0.5]]])  # equality needs the flag
    MonotoneChain([[[0.0]], [[0.5]], [[0.5]]], allow_equal=True)


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(4)
    p = scalar_path([float(rng.uniform(0.2, 0.8))], [float(rng.uniform(0.1, 0.9))])
    text = path_to_json(p)
    q = path_from_json(text)
    assert np.array_equal(p.partition.values, q.partition.values)
    assert np.array_equal(p.chain.matrices, q.chain.matrices)
    assert path_to_json(q) == text


def test_inverse_profile_distance():
    p1 = scalar_path([0.5], [0.5])
    assert inverse_profile_distance(p1, p1) == 0.0
    # same overlap value, shifted weight
    p2 = scalar_path([0.7], [0.5])
    assert inverse_profile_distance(p1, p2) == pytest.approx(0.2 * 0.5)
    # weights differ on the overlap interval [0.5, 1)
    p3 = scalar_path([0.5], [0.4])
    assert inverse_profile_distance(p1, p3) == pytest.approx(0.5 * 0.1)


@st.composite
def _blocks_and_terminal(draw):
    """Positive-definite blocks B_0..B_n and a positive-definite U, exactly
    symmetric, for d = 1-3."""
    d = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4)) + 1  # the blocks, then U
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=count * d * d, max_size=count * d * d))
    floors = draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count))
    mats = []
    for f, floor in zip(np.reshape(entries, (count, d, d)), floors):
        m = f @ f.T + floor * np.eye(d)
        mats.append(0.5 * (m + m.T))
    return mats[:-1], mats[-1]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_blocks_and_terminal())
def test_chain_from_blocks_property(case):
    blocks, u = case
    chain, _ = chain_from_blocks(u, blocks)
    assert chain.levels == len(blocks) - 1
    assert not chain.matrices[0].any()
    assert np.array_equal(chain.matrices[-1], u)
    for inc in chain.increments():
        assert np.linalg.eigvalsh(inc).min() >= -1e-10 * (1.0 + np.abs(u).max())


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
def test_cumulative_fractions_property(logits):
    y, _ = cumulative_fractions(np.array(logits))
    assert y[-1] == 1.0
    assert 0.0 < y[0] and np.all(np.diff(y) > 0.0)
