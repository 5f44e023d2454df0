import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varprox.groups import (GroupStructure, _group_images, contiguous_groups,
                            extend, group_norm_12, group_soft_threshold,
                            soft_threshold, trivial_groups)


def test_group_norm_12_single_group():
    gs = GroupStructure([[0, 1]], p=2)
    assert group_norm_12(np.array([3.0, 4.0]), gs) == pytest.approx(5.0)


def test_group_norm_12_trivial_is_l1():
    gs = trivial_groups(3)
    assert group_norm_12(np.array([1.0, -2.0, 3.0]), gs) == pytest.approx(6.0)


def test_group_norm_12_two_groups_by_hand():
    gs = contiguous_groups(4, 2)
    assert group_norm_12(np.array([3.0, 4.0, 5.0, 12.0]), gs) == pytest.approx(18.0)


def test_group_norm_rejects_overlapping():
    ogs = GroupStructure([[0, 1], [1, 2]], p=3, mode="overlapping")
    with pytest.raises(ValueError):
        group_norm_12(np.ones(3), ogs)


def test_partition_validation():
    with pytest.raises(ValueError):
        GroupStructure([[0, 1], [1, 2]], p=3)            # overlap
    with pytest.raises(ValueError):
        GroupStructure([[0], [2]], p=3)                  # gap
    with pytest.raises(ValueError):
        GroupStructure([[0, 5]], p=3)                    # out of range


@pytest.mark.parametrize("mode", ["partition", "overlapping"])
def test_a_repeated_index_in_a_group_is_rejected(mode):
    # [0, 0, 1] would count index 0 twice in the group's size and norm
    with pytest.raises(ValueError, match="repeated index"):
        GroupStructure([[0, 0, 1], [2]], p=3, mode=mode)


def test_groups_are_sorted_blocks_in_order():
    gs = GroupStructure([[3, 1], [0, 2]], p=4)
    assert [g.tolist() for g in gs.groups] == [[1, 3], [0, 2]]
    assert gs.group_of.tolist() == [1, 0, 1, 0] and gs.sizes.tolist() == [2, 2]
    assert trivial_groups(3).is_trivial and contiguous_groups(6, 3).spans()
    ogs = GroupStructure([[0, 1], [1, 2]], p=4, mode="overlapping")
    assert not ogs.spans() and ogs.group_of is None


def test_hadamard_factorization_identity(rng):
    # the closed-form split u = z_g / sqrt(||z_g||), v = sqrt(||z_g||)
    # reproduces z and attains the variational value
    gs = contiguous_groups(12, 3)
    z = rng.standard_normal(12)
    norms = np.sqrt(np.array([np.sum(z[g] ** 2) for g in gs.groups]))
    v = np.sqrt(norms)
    u = z / extend(v, gs)
    assert np.allclose(u * extend(v, gs), z, atol=1e-12)
    value = 0.5 * u @ u + 0.5 * v @ v
    assert value == pytest.approx(group_norm_12(z, gs), abs=1e-12)


def test_variational_upper_bound(rng):
    gs = contiguous_groups(12, 4)
    for _ in range(100):
        u = rng.standard_normal(12)
        v = rng.standard_normal(3)
        z = u * extend(v, gs)
        assert group_norm_12(z, gs) <= 0.5 * u @ u + 0.5 * v @ v + 1e-12


def test_extend_examples():
    gs = GroupStructure([[0, 1], [2]], p=3)
    assert np.allclose(extend(np.array([2.0, 3.0]), gs), [2.0, 2.0, 3.0])
    gs3 = trivial_groups(3)
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(extend(v, gs3), v)


def test_trivial_group_norm_equals_l1_many(rng):
    gs = trivial_groups(20)
    for _ in range(1000):
        z = rng.standard_normal(20)
        assert group_norm_12(z, gs) == np.abs(z).sum()


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=30, deadline=None)
def test_hadamard_bound_property(gsize, seed):
    r = np.random.default_rng(seed)
    gs = contiguous_groups(3 * gsize, gsize)
    u = r.standard_normal(3 * gsize)
    v = r.standard_normal(3)
    z = u * extend(v, gs)
    assert group_norm_12(z, gs) <= 0.5 * u @ u + 0.5 * v @ v + 1e-10


def test_soft_threshold_examples():
    assert soft_threshold(np.array([-3.0]), 1.0)[0] == pytest.approx(-2.0)
    assert soft_threshold(np.array([0.3]), 0.5)[0] == 0.0
    z = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(soft_threshold(z, 0.0), z)


def test_group_soft_threshold_matches_scalar_bitwise(rng):
    gs = trivial_groups(30)
    z = rng.standard_normal(30)
    assert np.array_equal(group_soft_threshold(z, 0.37, gs),
                          soft_threshold(z, 0.37))


def test_group_soft_threshold_blocks():
    gs = contiguous_groups(4, 2)
    z = np.array([3.0, 4.0, 0.3, 0.4])
    out = group_soft_threshold(z, 1.0, gs)
    assert np.allclose(out[:2], z[:2] * (1 - 1.0 / 5.0))
    assert np.allclose(out[2:], 0.0)


def test_overlapping_span_check():
    ogs = GroupStructure([[0, 1], [1, 2]], p=4, mode="overlapping")
    assert not ogs.spans()
    ogs2 = GroupStructure([[0, 1], [1, 2], [3]], p=4, mode="overlapping")
    assert ogs2.spans()


@pytest.mark.parametrize("gs", [
    contiguous_groups(9, 3), trivial_groups(9),
    GroupStructure([[0], [1], [2, 3], [4, 5], [6, 7, 8]]),  # sizes in order
    GroupStructure([[4], [0, 8], [1, 5, 2], [3], [6, 7]]),  # none in order
], ids=["contiguous", "singletons", "sizes-in-order", "shuffled"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_group_images_are_the_blockwise_products(rng, gs, order):
    # [A_g z_g] over the kept groups, whether a size's columns are read in
    # place and compressed or the kept ones gathered: every group, most of
    # them, one in five, and none
    Ad = np.asarray(rng.standard_normal((4, 9)), order=order)
    z = rng.standard_normal(9)
    every = np.stack([Ad[:, g] @ z[g] for g in gs.groups], 1)
    for share in (1.0, 0.8, 0.2, 0.0):
        keep = rng.random(gs.n_groups) < share
        np.testing.assert_allclose(_group_images(Ad, z, gs, keep),
                                   every[:, keep], rtol=1e-13, atol=1e-13)
