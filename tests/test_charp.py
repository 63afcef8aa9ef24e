"""Field arithmetic in characteristic two and the point-level transport."""

from itertools import product

import pytest

from exocone import (
    GF,
    Matrix,
    charp,
    count_exotic_points,
    count_nilpotent_points,
    from_lie_algebra,
    is_nilpotent,
    is_nilpotent_lie,
    to_lie_algebra,
    verify_transport,
)


def test_field_axioms_exhaustive():
    for q in (2, 4):
        els = GF.elements(q)
        assert len(els) == q
        zero, one = els[0], els[1]
        for a in els:
            assert a + zero == a
            assert a * one == a
            assert a + a == zero  # characteristic two
            assert -a == a
            assert a - a == zero
            if a:
                assert a / a == one
        for a, b in product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_sqrt_inverts_frobenius():
    for q in (2, 4):
        els = GF.elements(q)
        for a in els:
            assert a.sqrt() * a.sqrt() == a
        assert len({a.sqrt() for a in els}) == q


def test_multiplicative_group_order():
    for q in (2, 4):
        one = GF(q, 1)
        for a in GF.elements(q):
            assert a ** 0 == one
            if a:
                assert a ** (q - 1) == one


def test_int_coercion():
    w = GF(4, 2)
    assert w + 0 == w
    assert w * 1 == w
    assert 1 + GF(4, 1) == GF(4, 0)
    assert GF(2, 1) + 1 == GF(2, 0)
    assert 0 * w == GF(4, 0)


def test_rendering():
    assert [str(a) for a in GF.elements(4)] == ["0", "1", "w", "w+1"]
    assert [str(a) for a in GF.elements(2)] == ["0", "1"]
    assert repr(GF(4, 3)) == "GF(4, 3)"


def test_validation():
    with pytest.raises(ValueError):
        GF(3, 0)
    with pytest.raises(ValueError):
        GF(2, 2)
    with pytest.raises(ValueError):
        GF(4, -1)
    with pytest.raises(ValueError):
        GF(2, 1) + GF(4, 1)
    with pytest.raises(ZeroDivisionError):
        GF(4, 1) / GF(4, 0)
    with pytest.raises(ValueError):
        GF(4, 2) ** -1
    with pytest.raises(AttributeError):
        GF(2, 1).val = 0


def test_lie_algebra_round_trip_exhaustive():
    # every (x1, x2) pair for n = 1, q = 2 and q = 4
    for q in (2, 4):
        els = GF.elements(q)
        zero = GF(q, 0)
        for a, b, c in product(els, repeat=3):
            x1 = (a, b)
            x2 = Matrix([[zero, c], [c, zero]])
            s = to_lie_algebra(x1, x2)
            assert s == s.transpose()
            back1, back2 = from_lie_algebra(s)
            assert back1 == x1
            assert back2 == x2


def test_from_lie_algebra_rejects_asymmetric():
    zero, one = GF.elements(2)
    with pytest.raises(ValueError):
        from_lie_algebra(Matrix([[zero, one], [zero, zero]]))


def test_nilpotency_frozen():
    zero, one = GF.elements(2)
    assert is_nilpotent_lie(Matrix([[zero, zero], [zero, zero]]), 1)
    # s = identity gives s * J = J, which squares to the identity
    assert not is_nilpotent_lie(Matrix([[one, zero], [zero, one]]), 1)


def test_point_counts_frozen():
    assert count_exotic_points(1, 2) == 4
    assert count_nilpotent_points(1, 2) == 4
    assert count_exotic_points(1, 4) == 16
    assert count_nilpotent_points(1, 4) == 16
    assert count_exotic_points(2, 2) == 256
    assert count_nilpotent_points(2, 2) == 256


def test_transport_is_bijective():
    for n, q in ((1, 2), (1, 4), (2, 2)):
        report = verify_transport(n, q)
        assert set(report) == {"n", "q", "exotic", "nilpotent", "ml_bijective"}
        assert report["n"] == n and report["q"] == q
        assert report["exotic"] == count_exotic_points(n, q)
        assert report["nilpotent"] == count_nilpotent_points(n, q)
        assert report["ml_bijective"] is True


def _no_square_root(s):
    x1, x2 = from_lie_algebra(s)
    return tuple(s.rows[i][i] for i in range(s.nrows)), x2


def _zero_x1(s):
    x1, x2 = from_lie_algebra(s)
    return tuple(a * 0 for a in x1), x2


@pytest.mark.parametrize(
    "name, wrong, n, q",
    [
        ("from_lie_algebra", _no_square_root, 1, 4),
        ("from_lie_algebra", _zero_x1, 1, 2),
        ("is_nilpotent_lie", lambda s, n: is_nilpotent(s), 1, 2),
    ],
)
def test_transport_catches_a_wrong_map(monkeypatch, name, wrong, n, q):
    monkeypatch.setattr(charp, name, wrong)
    assert verify_transport(n, q)["ml_bijective"] is False


def test_count_guards():
    with pytest.raises(ValueError):
        count_exotic_points(3, 2)
    with pytest.raises(ValueError):
        count_exotic_points(1, 3)
    with pytest.raises(ValueError, match="long=True"):
        count_nilpotent_points(2, 4)
    with pytest.raises(ValueError, match="long=True"):
        verify_transport(2, 4)
