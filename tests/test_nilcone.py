"""Cone membership, classification, representatives, and dimensions."""

import random
from fractions import Fraction
from math import comb, prod

import pytest

from exocone import (
    ExoticVector,
    MarkedPartition,
    Matrix,
    Partition,
    alt_coords,
    cone_dim,
    invariant_polys,
    is_in_nilcone,
    marked_partitions,
    marked_invariant,
    orbit_dim,
    pfaffian,
    representative,
    symplectic_form,
    to_bipartition,
)
from exocone import algebra, nilcone
from exocone.verify import (
    _invariant_polys_by_expansion,
    _membership_cases,
    _on_zero_locus,
)


def alt_values(n, x2):
    return [x2.rows[i - 1][j - 1] for i, j in alt_coords(n)]


def random_transvection(n, rng):
    size = 2 * n
    J = symplectic_form(n)
    u = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
    Ju = J.apply(u)
    c = Fraction(rng.randint(1, 3))
    rows = [
        [
            (Fraction(1) if i == j else Fraction(0)) + c * u[i] * Ju[j]
            for j in range(size)
        ]
        for i in range(size)
    ]
    return Matrix(rows)


def test_symplectic_form():
    for n in (1, 2, 3, 4):
        J = symplectic_form(n)
        assert J @ J == -1 * Matrix.identity(2 * n)
        assert J.transpose() == -1 * J
    # Pf(J) alternates in sign with period four
    assert [pfaffian(symplectic_form(n)) for n in (1, 2, 3, 4)] == [
        -1,
        -1,
        1,
        1,
    ]


def test_alt_coords():
    assert alt_coords(1) == ((1, 2),)
    assert alt_coords(2) == (
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
    )


def test_invariant_polys_frozen():
    p1 = invariant_polys(1)
    assert len(p1) == 1
    assert p1[0].text("x") == "x1"
    p2 = invariant_polys(2)
    assert [f.text("x") for f in p2] == [
        "x2 + x5",
        "-x1*x6 + x2*x5 - x3*x4",
    ]


def test_invariant_polys_grading():
    for n in (1, 2, 3):
        polys = invariant_polys(n)
        assert len(polys) == n
        for i, f in enumerate(polys, start=1):
            assert f.is_homogeneous()
            assert f.degree() == i


def test_invariant_polys_equal_expansion_oracle():
    for n in range(1, 6):
        assert invariant_polys(n) == _invariant_polys_by_expansion(n)


def test_invariant_polys_are_signed_matchings():
    # one squarefree monomial with coefficient +-1 per perfect matching
    # of K u (n+K), for each k-subset K of {1, ..., n}
    for n in range(1, 7):
        coords = alt_coords(n)
        for k, f in enumerate(invariant_polys(n), start=1):
            assert len(f.terms) == comb(n, k) * prod(range(1, 2 * k, 2))
            for exp, c in f.terms.items():
                assert c in (1, -1)
                assert set(exp) <= {0, 1}
                pairs = [coords[v] for v, e in enumerate(exp) if e]
                points = sorted(i for pair in pairs for i in pair)
                assert len(set(points)) == len(points) == 2 * k
                subset = points[:k]
                assert points == subset + [n + i for i in subset]


def test_invariant_polys_are_symplectic_invariants():
    rng = random.Random(3)
    for n in (1, 2):
        polys = invariant_polys(n)
        for _ in range(5):
            ent = {}
            for i, j in alt_coords(n):
                c = Fraction(rng.randint(-4, 4))
                ent[(i - 1, j - 1)] = c
                ent[(j - 1, i - 1)] = -c
            x2 = Matrix.from_entries(2 * n, 2 * n, ent)
            t = random_transvection(n, rng)
            moved = t @ x2 @ t.transpose()
            for f in polys:
                assert f.evaluate(alt_values(n, x2)) == f.evaluate(
                    alt_values(n, moved)
                )


def test_membership():
    assert is_in_nilcone(ExoticVector.zero(2))
    for n in range(4):
        for mp in marked_partitions(n):
            assert is_in_nilcone(representative(mp))
    # x2 = J has invertible endomorphism, so it cannot be in the cone
    not_nil = ExoticVector(2, (0,) * 4, symplectic_form(2))
    assert not is_in_nilcone(not_nil)


def test_membership_equals_invariant_zero_locus():
    rng = random.Random(11)
    for n in range(1, 5):
        cases = _membership_cases(n, rng)
        verdicts = [is_in_nilcone(v) for v in cases]
        assert verdicts == [_on_zero_locus(v) for v in cases]
        assert all(verdicts[0::3])
        assert not all(verdicts[1::3])
        assert not any(verdicts[2::3])


def test_representative_frozen():
    from exocone import MarkedPartition

    v = representative(MarkedPartition((2,), (1,)))
    assert v.x1 == (1, 0, 0, 0)
    assert v.x2 == Matrix.from_entries(4, 4, {(0, 3): 1, (3, 0): -1})
    w = representative(MarkedPartition((2,), (2,)))
    assert w.x1 == (0, 1, 0, 0)
    assert w.x2 == v.x2
    u = representative(MarkedPartition((1, 1), (0, 1)))
    assert u.x1 == (0, 1, 0, 0)
    assert u.x2 == Matrix.zeros(4, 4)


def test_marked_invariant_round_trip():
    for n in range(7):
        for mp in marked_partitions(n):
            assert marked_invariant(representative(mp)) == mp


def test_marked_invariant_rejects_non_members():
    # x2 = J: x2 * J = -1 is not nilpotent, at n = 1 and n = 2
    for n in (1, 2):
        with pytest.raises(ValueError, match="not in the exotic nilcone"):
            marked_invariant(ExoticVector(n, (0,) * (2 * n), symplectic_form(n)))


def test_marked_invariant_raises_assertion_on_impossible_types(monkeypatch):
    # failures the theory rules out are not bad input: the CLI must not
    # turn them into exit 2
    v = representative(MarkedPartition((2,), (1,)))
    types = iter([Partition((2, 2)), Partition((1,))])
    monkeypatch.setattr(algebra, "_type_from_ranks", lambda ranks: next(types))
    with pytest.raises(AssertionError, match="does not contain"):
        marked_invariant(v)
    monkeypatch.undo()

    def not_an_image(bp):
        raise ValueError(f"{bp} is not in the image of any marked partition")

    monkeypatch.setattr(nilcone, "from_bipartition", not_an_image)
    with pytest.raises(AssertionError, match="not the image"):
        marked_invariant(v)


def test_marked_invariant_constant_on_transvection_orbits():
    rng = random.Random(7)
    fractional = 0
    for n in (1, 2, 3, 4):
        J = symplectic_form(n)
        # diag(D, D^-1) is symplectic; a diagonal D off the integers gives
        # conjugates whose entries are not integers
        d = [Fraction(3, 2) if i % 2 else Fraction(2, 3) for i in range(n)]
        diag = {(i, i): d[i] for i in range(n)}
        diag.update({(n + i, n + i): 1 / d[i] for i in range(n)})
        scale = Matrix.from_entries(2 * n, 2 * n, diag)
        assert scale.transpose() @ J @ scale == J
        for _ in range(3):
            t = random_transvection(n, rng)
            assert t.transpose() @ J @ t == J
            for g in (t, scale @ t):
                for mp in marked_partitions(n):
                    v = representative(mp)
                    moved = ExoticVector(
                        n, g.apply(v.x1), g @ v.x2 @ g.transpose()
                    )
                    entries = moved.x1 + sum(moved.x2.rows, ())
                    fractional += any(e.denominator != 1 for e in entries)
                    assert marked_invariant(moved) == mp
    assert fractional


def test_endomorphism_conjugation_covariance():
    # the group moves x2 by t x2 t^T, and x2 J transforms by conjugation:
    # (t x2 t^T) J t = t (x2 J) for symplectic t
    rng = random.Random(5)
    for n in (1, 2):
        J = symplectic_form(n)
        for _ in range(3):
            t = random_transvection(n, rng)
            for mp in marked_partitions(n):
                v = representative(mp)
                moved = t @ v.x2 @ t.transpose()
                assert moved @ J @ t == t @ (v.x2 @ J)


def test_orbit_dims_frozen_rank_two():
    dims = [orbit_dim(mp) for mp in marked_partitions(2)]
    assert dims == [8, 6, 4, 4, 0]
    assert cone_dim(2) == 8


def test_orbit_dim_closed_form():
    # independent route: 2(n^2 - sum of squared transpose parts) + 2|mu|
    for n in range(8):
        for mp in marked_partitions(n):
            tl = mp.lam.transpose()
            mu = to_bipartition(mp).mu
            expect = 2 * (n * n - sum(c * c for c in tl)) + 2 * mu.size
            assert orbit_dim(mp) == expect


def test_dense_orbit_has_cone_dimension():
    for n in range(1, 7):
        dims = [orbit_dim(mp) for mp in marked_partitions(n)]
        assert max(dims) == cone_dim(n) == 2 * n * n
        assert min(dims) == 0


def test_exotic_vector_json_round_trip():
    from exocone import MarkedPartition

    v = representative(MarkedPartition((2, 1), (1, 0)))
    data = v.to_json()
    w = ExoticVector.from_json(data)
    assert w == v
    assert data["n"] == 3
    assert all(isinstance(c, str) for c in data["x1"])


def test_exotic_vector_from_json_keeps_integral_entries_as_ints():
    data = {
        "n": 2,
        "x1": ["3", "1/2", "-4/2", "0"],
        "x2_upper": [[1, 2, "5"], [1, 3, "1/2"], [2, 4, "6/3"]],
    }
    v = ExoticVector.from_json(data)
    assert [type(c) for c in v.x1] == [int, Fraction, int, int]
    assert v.x1 == (3, Fraction(1, 2), -2, 0)
    rows = v.x2.rows
    assert (type(rows[0][1]), type(rows[1][0])) == (int, int)
    assert (type(rows[0][2]), type(rows[2][0])) == (Fraction, Fraction)
    assert (rows[1][3], rows[3][1]) == (2, -2) and type(rows[1][3]) is int
    assert v.to_json() == {
        "n": 2,
        "x1": ["3", "1/2", "-2", "0"],
        "x2_upper": [[1, 2, "5"], [1, 3, "1/2"], [2, 4, "2"]],
    }
    again = ExoticVector.from_json(v.to_json())
    assert again == v and again.to_json() == v.to_json()


def test_exotic_vector_validation():
    with pytest.raises(ValueError):
        ExoticVector(1, (0,), Matrix.zeros(2, 2))  # x1 length
    with pytest.raises(ValueError):
        ExoticVector(1, (0, 0), Matrix([[1, 0], [0, 0]]))  # diagonal
    with pytest.raises(ValueError):
        ExoticVector(1, (0, 0), Matrix([[0, 1], [1, 0]]))  # not alternating


@pytest.mark.parametrize(
    "data",
    [
        [1],
        "n",
        {"n": 1},
        {"x1": ["0", "0"], "x2_upper": []},
        {"n": 1, "x2_upper": []},
        {"n": 1, "x1": ["0", "0"]},
        {"n": -1, "x1": [], "x2_upper": []},
        {"n": "1", "x1": ["0", "0"], "x2_upper": []},
        {"n": 1, "x1": ["0"], "x2_upper": []},
        {"n": 1, "x1": ["0", "0"], "x2_upper": [[1, 5, "1"]]},
        {"n": 1, "x1": ["0", "0"], "x2_upper": [[2, 1, "1"]]},
        {"n": 1, "x1": ["0", "0"], "x2_upper": [[0, 1, "1"]]},
        {"n": 1, "x1": ["0", "0"], "x2_upper": [[1, 2]]},
        {"n": 1, "x1": ["0", "0"], "x2_upper": [[1, 2, "1"], [1, 2, "2"]]},
        {"n": 1, "x1": ["0", "x"], "x2_upper": []},
        {"n": 1, "x1": ["0", "1/0"], "x2_upper": []},
        {"n": 1, "x1": ["0", "0"], "x2_upper": [[1, 2, None]]},
        {"n": 1, "x1": [1e400, 0], "x2_upper": []},
        {"n": 1, "x1": ["0", "0"], "x2_upper": [[1, 2, 1e400]]},
        {"n": 1, "x1": ["1e999999999", "0"], "x2_upper": []},
    ],
)
def test_exotic_vector_from_json_rejects_bad_input(data):
    with pytest.raises(ValueError):
        ExoticVector.from_json(data)


def test_exotic_vector_from_json_reads_exponents_to_the_digit_limit():
    data = {"n": 1, "x1": ["1e4300", "-2.5E-3"], "x2_upper": []}
    assert ExoticVector.from_json(data).x1 == (10**4300, Fraction(-1, 400))


def test_cone_dim_rejects_negative_rank():
    assert cone_dim(0) == 0
    with pytest.raises(ValueError):
        cone_dim(-1)

