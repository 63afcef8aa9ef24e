"""Partitions, markings, bi-partitions, and the bijection between them."""

import itertools
import time

import pytest

from exocone import (
    BiPartition,
    MarkedPartition,
    Partition,
    bipartition,
    bipartitions,
    from_bipartition,
    marked_partitions,
    markings_of,
    partition_count,
    partitions,
    to_bipartition,
)


def test_partition_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition(()) == Partition((0, 0))


def test_partition_rejects_increasing():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partial_sums():
    lam = Partition((4, 2, 1))
    assert lam.size == 7
    assert [lam.part(i) for i in range(1, 5)] == [4, 2, 1, 0]
    assert [lam.sum_before(i) for i in range(1, 5)] == [0, 4, 6, 7]
    assert [lam.sum_through(i) for i in range(1, 5)] == [4, 6, 7, 7]
    assert [lam.sum_after(i) for i in range(1, 5)] == [3, 1, 0, 0]
    assert [lam.sum_from(i) for i in range(1, 5)] == [7, 3, 1, 0]


def test_transpose_involution_small():
    for n in range(9):
        for lam in partitions(n):
            assert lam.transpose().transpose() == lam
            assert lam.transpose().size == lam.size


def test_transpose_frozen():
    assert Partition((3, 1)).transpose() == Partition((2, 1, 1))
    assert Partition((2, 2)).transpose() == Partition((2, 2))
    assert Partition(()).transpose() == Partition(())


def test_partitions_order_and_count():
    got = list(partitions(4))
    assert got == [
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
        Partition((2, 1, 1)),
        Partition((1, 1, 1, 1)),
    ]
    for n in range(11):
        items = list(partitions(n))
        assert len(items) == partition_count(n)
        assert len(set(items)) == len(items)
        assert all(lam.size == n for lam in items)


def test_partition_count_frozen():
    # p(0)..p(10)
    assert [partition_count(n) for n in range(11)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]


def test_markings_satisfy_definition():
    def valid(lam, a):
        if len(a) != len(lam) or any(not 0 <= a[k] <= lam[k] for k in range(len(lam))):
            return False
        for k in range(len(lam) - 1):
            if lam[k + 1] == lam[k] and a[k]:
                return False
        live = [k for k in range(len(lam)) if a[k]]
        for p, q in itertools.combinations(live, 2):
            if not lam[p] - lam[q] > a[p] - a[q] > 0:
                return False
        return True

    for n in range(7):
        for lam in partitions(n):
            got = list(markings_of(lam))
            assert len(set(got)) == len(got)
            brute = [
                a
                for a in itertools.product(*(range(p + 1) for p in lam))
                if valid(lam, a)
            ]
            assert sorted(got, reverse=True) == sorted(brute, reverse=True)
            assert got == sorted(got, reverse=True)


def test_marked_partition_validation():
    with pytest.raises(ValueError):
        MarkedPartition((2, 2), (1, 0))  # equal parts force a zero mark
    with pytest.raises(ValueError):
        MarkedPartition((2,), (3,))  # mark exceeds part
    with pytest.raises(ValueError):
        MarkedPartition((3, 1), (3, 1))  # needs lam_p - lam_q > a_p - a_q > 0
    mp = MarkedPartition((3, 1), (2, 1))
    assert mp.size == 4


def test_marked_partition_mark_padding():
    mp = MarkedPartition((2, 1), (1,))
    assert mp.marks == (1, 0)
    assert mp == MarkedPartition((2, 1), (1, 0))


def test_marked_partitions_count_matches_bipartitions():
    for n in range(9):
        mps = list(marked_partitions(n))
        bps = list(bipartitions(n))
        expect = sum(
            partition_count(k) * partition_count(n - k) for k in range(n + 1)
        )
        assert len(mps) == len(bps) == expect
        assert len(set(mps)) == len(mps)
        assert len(set(bps)) == len(bps)


@pytest.mark.parametrize(
    "lam, a, mu, nu",
    [
        ((1, 1), (0, 0), (), (1, 1)),
        ((1, 1), (0, 1), (1, 1), ()),
        ((2,), (1,), (1,), (1,)),
        ((2,), (0,), (), (2,)),
        ((2,), (2,), (2,), ()),
        ((2, 1), (1, 0), (1,), (1, 1)),
    ],
)
def test_bijection_frozen_pairs(lam, a, mu, nu):
    mp = MarkedPartition(lam, a)
    bp = bipartition(mu, nu)
    assert to_bipartition(mp) == bp
    assert from_bipartition(bp) == mp


def test_bijection_small_ranks():
    for n in range(13):
        image = [to_bipartition(mp) for mp in marked_partitions(n)]
        assert len(set(image)) == len(image)
        assert set(image) == set(bipartitions(n))
        for mp, bp in zip(marked_partitions(n), image):
            assert from_bipartition(bp) == mp


def test_from_bipartition_enumerates_nothing():
    # rank 40 has about 9 * 10^6 marked partitions; the closed form reads the
    # marks straight off (mu, nu)
    bp = bipartition((10, 5, 3, 1), (8, 7, 4, 2))
    start = time.perf_counter()
    mp = from_bipartition(bp)
    assert time.perf_counter() - start < 0.1
    assert mp.size == 40
    assert to_bipartition(mp) == bp


def test_bipartition_weight_split():
    for bp in bipartitions(6):
        assert bp.mu.size + bp.nu.size == 6
        assert bp.size == 6


def test_json_round_trips():
    mp = MarkedPartition((3, 2), (2, 0))
    assert MarkedPartition.from_json(mp.to_json()) == mp
    assert mp.to_json() == {"lambda": [3, 2], "a": [2]}
    bp = bipartition((2, 1), (1,))
    assert BiPartition.from_json(bp.to_json()) == bp
    assert bp.to_json() == {"mu": [2, 1], "nu": [1]}
