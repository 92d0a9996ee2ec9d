import numpy as np
import pytest

from parisi_lab.paths import (
    DiscretePath,
    MonotoneChain,
    PathError,
    UnitPartition,
    inverse_profile_distance,
    linear_interpolant,
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


def test_linear_interpolant():
    p = scalar_path([], [], u=2.0)  # single segment 0 -> U
    interp = linear_interpolant(p)
    assert interp.slope(0) == pytest.approx(np.array([[2.0]]))
    p2 = scalar_path([0.25, 0.6], [0.3, 0.7])
    interp2 = linear_interpolant(p2)
    for k, t in enumerate(p2.partition.values):
        assert np.allclose(interp2.value(t), p2.chain.matrices[k])
    for seg in range(interp2.segments):
        assert interp2.slope(seg)[0, 0] >= 0.0


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
