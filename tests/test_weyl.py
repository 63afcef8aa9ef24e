"""Signed permutations, weight sets, and the flag combinatorics of marks."""

from collections import deque

import pytest

from exocone import (
    MarkedPartition,
    SignedPermutation,
    act_on_poly,
    block_boundaries,
    exotic_weights,
    is_stable_weight,
    linear_form,
    marked_partitions,
    positive_roots,
    simple_reflection,
    special_element,
    stable_weights,
    to_bipartition,
    weyl_group,
)


def test_identity_and_inverse():
    for n in (1, 2, 3):
        e = SignedPermutation.identity(n)
        for w in weyl_group(n):
            assert w * w.inverse() == e
            assert w.inverse() * w == e
            assert w * e == e * w == w


def test_group_closure_and_order():
    for n in (1, 2, 3):
        group = weyl_group(n)
        assert len(group) == 2**n * [1, 1, 2, 6][n]
        assert len(set(group)) == len(group)
    group2 = set(weyl_group(2))
    for w in group2:
        for u in group2:
            assert w * u in group2


def test_composition_applies_right_factor_first():
    s1 = simple_reflection(1, 2)
    s2 = simple_reflection(2, 2)
    w = s1 * s2
    wt = (3, 5)
    assert w.apply_weight(wt) == s1.apply_weight(s2.apply_weight(wt))


def test_simple_reflection_images():
    assert simple_reflection(1, 2).image == (2, 1)
    assert simple_reflection(2, 2).image == (1, -2)
    for n in (2, 3):
        for i in range(1, n + 1):
            s = simple_reflection(i, n)
            assert s * s == SignedPermutation.identity(n)
            assert s.length() == 1


def test_length_equals_word_length():
    # breadth-first search over products of simple reflections
    for n in (1, 2, 3):
        gens = [simple_reflection(i, n) for i in range(1, n + 1)]
        dist = {SignedPermutation.identity(n): 0}
        queue = deque(dist)
        while queue:
            w = queue.popleft()
            for s in gens:
                u = w * s
                if u not in dist:
                    dist[u] = dist[w] + 1
                    queue.append(u)
        assert len(dist) == len(weyl_group(n))
        for w, d in dist.items():
            assert w.length() == d


def test_longest_element_length():
    # the longest element is -1, with length n^2
    for n in (1, 2, 3):
        w0 = SignedPermutation(tuple(-i for i in range(1, n + 1)))
        assert w0.length() == n * n
        assert max(w.length() for w in weyl_group(n)) == n * n


def test_act_on_poly_is_compatible_with_weights():
    for w in weyl_group(2):
        for wt in exotic_weights(2):
            assert act_on_poly(w, linear_form(wt)) == linear_form(
                w.apply_weight(wt)
            )
    # ring automorphism
    f = linear_form((1, 1)) * linear_form((1, -1))
    g = linear_form((0, 1)) ** 2
    w = simple_reflection(1, 2) * simple_reflection(2, 2)
    assert act_on_poly(w, f * g) == act_on_poly(w, f) * act_on_poly(w, g)
    assert act_on_poly(w, f + g) == act_on_poly(w, f) + act_on_poly(w, g)


def test_weight_sets():
    assert exotic_weights(2) == ((1, 1), (1, 0), (1, -1), (0, 1))
    assert positive_roots(2) == ((2, 0), (1, 1), (1, -1), (0, 2))
    for n in range(1, 6):
        assert len(exotic_weights(n)) == n * n
        assert len(positive_roots(n)) == n * n
        assert len(set(exotic_weights(n))) == n * n
        assert len(set(positive_roots(n))) == n * n


def test_special_element_frozen():
    frozen = {
        ((2,), (2,)): (1, 2),
        ((2,), (1,)): (2, -1),
        ((2,), (0,)): (-2, -1),
        ((1, 1), (0, 1)): (-1, 2),
        ((1, 1), (0, 0)): (-1, -2),
    }
    for mp in marked_partitions(2):
        assert special_element(mp).image == frozen[(mp.lam, mp.marks)]


def test_special_element_injective():
    for n in range(1, 7):
        images = [special_element(mp).image for mp in marked_partitions(n)]
        assert len(set(images)) == len(images)


def test_block_boundaries_frozen():
    frozen = {
        ((2,), (2,)): (0, 1, 2),
        ((2,), (1,)): (0, 1, 2),
        ((2,), (0,)): (0, 1, 2),
        ((1, 1), (0, 1)): (0, 2),
        ((1, 1), (0, 0)): (0, 2),
    }
    for mp in marked_partitions(2):
        assert block_boundaries(to_bipartition(mp)) == frozen[(mp.lam, mp.marks)]
    mp = MarkedPartition((2, 1), (1, 0))
    assert block_boundaries(to_bipartition(mp)) == (0, 1, 3)


def test_block_sizes_recover_transposed_partition():
    for n in range(1, 8):
        for mp in marked_partitions(n):
            d = block_boundaries(to_bipartition(mp))
            assert d[0] == 0 and d[-1] == n
            assert all(a <= b for a, b in zip(d, d[1:]))
            sizes = sorted((b - a for a, b in zip(d, d[1:])), reverse=True)
            assert tuple(sizes) == tuple(mp.lam.transpose())


def test_stable_weights_frozen():
    mp = MarkedPartition((2,), (1,))
    assert stable_weights(mp) == ((1, 0), (1, -1))
    dense = MarkedPartition((2,), (2,))
    assert stable_weights(dense) == exotic_weights(2)
    origin = MarkedPartition((1, 1), (0, 0))
    assert stable_weights(origin) == ()


def test_stable_weight_predicate_matches_enumeration():
    for n in range(1, 6):
        ambient = exotic_weights(n)
        for mp in marked_partitions(n):
            computed = set(stable_weights(mp))
            assert computed == {
                wt for wt in ambient if is_stable_weight(mp, wt)
            }


def test_signed_permutation_json():
    w = SignedPermutation((2, -1))
    data = w.to_json()
    assert data == {"image": [[2, 1], [1, -1]]}
    assert SignedPermutation.from_json(data) == w


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((0, 2))
    with pytest.raises(ValueError):
        SignedPermutation((3, 1))
