"""K-polynomials, Joseph polynomials, and Macdonald representations."""

import random
from math import factorial

import pytest

from exocone import (
    LaurentChar,
    MultiPoly,
    Presentation,
    SignedPermutation,
    act_on_poly,
    bipartition,
    bipartitions,
    exotic_weights,
    irrep_dim,
    joseph,
    joseph_poly,
    k_polynomial,
    lowest_term,
    macdonald_poly,
    macdonald_span,
    marked_partitions,
    orbit_dim,
    positive_roots,
    stable_weights,
    to_bipartition,
    weyl_group,
)
from exocone.verify import _full_group_span, _macdonald_poly_direct, _root_product


def poly2(terms):
    return MultiPoly(2, terms)


def test_presentation_validation():
    exotic = exotic_weights(2)
    with pytest.raises(ValueError):
        Presentation((), ())  # empty ambient
    with pytest.raises(ValueError):
        Presentation(((1, 0), (1, 0)), ())  # duplicate ambient weight
    with pytest.raises(ValueError):
        Presentation(exotic, ((2, 0),))  # span outside ambient
    with pytest.raises(ValueError):
        Presentation(exotic, ((1, 0),), ((1, 1), (0, 1)))  # too many equations
    with pytest.raises(ValueError):
        Presentation(((0, 0),), ())  # zero weight


def test_k_polynomial_frozen():
    line = Presentation(((1, 0),), ())
    assert k_polynomial(line) == LaurentChar.euler_factor((1, 0))
    dense = Presentation(exotic_weights(2), exotic_weights(2))
    assert k_polynomial(dense) == LaurentChar.one(2)
    quadric = Presentation(
        positive_roots(2),
        ((2, 0), (0, 2), (1, 1)),
        ((2, 2),),
    )
    assert k_polynomial(quadric) == LaurentChar.euler_factor(
        (1, -1)
    ) * LaurentChar.euler_factor((2, 2))


def test_joseph_poly_degree_law():
    exotic = exotic_weights(2)
    for span_size in range(5):
        span = exotic[:span_size]
        f = joseph_poly(Presentation(exotic, span))
        assert f.is_homogeneous()
        assert f.degree() == len(exotic) - span_size
    assert joseph_poly(Presentation(exotic, exotic)) == MultiPoly.one(2)


def test_joseph_poly_frozen():
    exotic = exotic_weights(2)
    ordinary = positive_roots(2)
    lsign = Presentation(exotic, ((1, 1), (1, -1)))
    assert joseph_poly(lsign) == poly2({(1, 1): 1})
    sign = Presentation(ordinary, ())
    assert joseph_poly(sign) == poly2({(3, 1): 4, (1, 3): -4})
    ssign = Presentation(
        ordinary, ((2, 0), (0, 2), (1, 1)), ((2, 2),)
    )
    assert joseph_poly(ssign) == poly2({(2, 0): 2, (0, 2): -2})


def test_macdonald_poly_frozen():
    assert macdonald_poly(bipartition((1, 1), ())) == poly2(
        {(2, 0): 1, (0, 2): -1}
    )
    assert macdonald_poly(bipartition((), (1, 1))) == poly2(
        {(3, 1): 1, (1, 3): -1}
    )
    assert macdonald_poly(bipartition((1,), (1,))) == poly2({(0, 1): 1})
    assert macdonald_poly(bipartition((2,), ())) == MultiPoly.one(2)
    assert macdonald_poly(bipartition((), ())) == MultiPoly.one(0)


def test_macdonald_poly_direct_frozen():
    assert _macdonald_poly_direct((2,), ()) == poly2({(2, 0): 1, (0, 2): -1})
    assert _macdonald_poly_direct((), (2,)) == poly2({(3, 1): 1, (1, 3): -1})
    assert _macdonald_poly_direct((), ()) == MultiPoly.one(0)


def test_direct_form_matches_block_form_after_transpose():
    for n in range(7):
        for bp in bipartitions(n):
            assert _macdonald_poly_direct(
                bp.mu.transpose(), bp.nu.transpose()
            ) == macdonald_poly(bp)


def test_identity_convention_fails():
    mismatch = [
        bp
        for bp in bipartitions(2)
        if _macdonald_poly_direct(bp.mu, bp.nu) != macdonald_poly(bp)
    ]
    assert mismatch  # the reconciliation genuinely needs the transpose


def test_degree_law():
    for n in range(7):
        for mp in marked_partitions(n):
            f = macdonald_poly(to_bipartition(mp))
            assert f.is_homogeneous()
            assert f.degree() == (2 * n * n - orbit_dim(mp)) // 2


def test_macdonald_span_dimensions():
    for n in range(4):
        for bp in bipartitions(n):
            dim, basis = macdonald_span(macdonald_poly(bp), n)
            assert dim == irrep_dim(bp)
            assert len(basis) == dim


def test_rank_two_span_dimensions_in_table_order():
    dims = [
        macdonald_span(macdonald_poly(to_bipartition(mp)), 2)[0]
        for mp in marked_partitions(2)
    ]
    assert dims == [1, 2, 1, 1, 1]


def test_macdonald_span_guard():
    with pytest.raises(ValueError):
        macdonald_span(MultiPoly.one(6), 6)


def test_irrep_dim_frozen():
    assert irrep_dim(bipartition((1,), (1,))) == 2
    assert irrep_dim(bipartition((2,), ())) == 1
    assert irrep_dim(bipartition((2, 1), (1,))) == 8
    assert irrep_dim(bipartition((1, 1), (1,))) == 3


def test_irrep_dims_are_complete():
    # squared dimensions fill the hyperoctahedral group algebra
    for n in range(5):
        total = sum(irrep_dim(bp) ** 2 for bp in bipartitions(n))
        assert total == 2**n * factorial(n)


def test_sign_flip_symmetry_classifies_unmarked_types():
    # (lambda, empty) gives flip-invariant polynomials, (empty, lambda)
    # gives ones that every one-axis sign flip negates
    for n in range(1, 6):
        flips = [
            SignedPermutation([-i if i == k else i for i in range(1, n + 1)])
            for k in range(1, n + 1)
        ]
        for bp in bipartitions(n):
            f = macdonald_poly(bp)
            for t in flips:
                if not bp.nu:
                    assert act_on_poly(t, f) == f
                if not bp.mu:
                    assert act_on_poly(t, f) == -f


def test_macdonald_poly_is_a_product_of_roots():
    for n in range(4):
        for bp in bipartitions(n):
            assert macdonald_poly(bp) == _root_product(bp)
    # blocks of size one: no roots, only the variables past the anchor
    assert macdonald_poly(bipartition((3,), ())) == MultiPoly.one(3)
    assert macdonald_poly(bipartition((), (3,))) == MultiPoly(
        3, {(1, 1, 1): 1}
    )
    assert _macdonald_poly_direct((1, 1), (1,)) == MultiPoly(
        3, {(0, 0, 1): 1}
    )


def _random_presentations(rng, n, count):
    ambient = rng.choice((exotic_weights(n), positive_roots(n)))
    for _ in range(count):
        span = rng.sample(ambient, rng.randint(0, len(ambient)))
        # equations may repeat each other or a missing weight
        eqs = [
            rng.choice(ambient) for _ in range(rng.randint(0, len(span)))
        ]
        yield Presentation(ambient, span, eqs)


def test_joseph_poly_is_the_lowest_k_term():
    rng = random.Random(7)
    cells = [p for n in (1, 2, 3) for p in _random_presentations(rng, n, 12)]
    for n in (1, 2):
        ambient = exotic_weights(n)
        cells += [
            Presentation(ambient, stable_weights(mp))
            for mp in marked_partitions(n)
        ]
        cells.append(Presentation(positive_roots(n)))
    cells.append(
        Presentation(positive_roots(2), ((2, 0), (0, 2), (1, 1)), ((2, 2),))
    )
    assert any(p.equations for p in cells)
    for p in cells:
        assert joseph_poly(p) == lowest_term(k_polynomial(p)), p


def test_joseph_poly_of_a_full_span_is_one():
    for n in (1, 2, 3):
        for ambient in (exotic_weights(n), positive_roots(n)):
            assert joseph_poly(Presentation(ambient, ambient)) == (
                MultiPoly.one(n)
            )


def test_saturated_span_equals_full_group_span():
    rng = random.Random(11)
    for n in range(4):
        group = weyl_group(n)
        for bp in bipartitions(n):
            seed = act_on_poly(rng.choice(group), macdonald_poly(bp))
            full = _full_group_span(seed, n)
            assert macdonald_span(seed, n) == (len(full), full)
    assert macdonald_span(MultiPoly.one(0), 0) == (1, [MultiPoly.one(0)])
    assert macdonald_span(MultiPoly.zero(2), 2) == (0, [])
    mixed = MultiPoly(2, {(1, 0): 3, (0, 0): 1})
    assert macdonald_span(mixed, 2) == (3, _full_group_span(mixed, 2))


def test_span_moves_each_basis_member_once(monkeypatch):
    images = []

    def counted(w, f):
        images.append(w)
        return act_on_poly(w, f)

    monkeypatch.setattr(joseph, "act_on_poly", counted)
    for bp in bipartitions(4):
        images.clear()
        dim, _ = macdonald_span(macdonald_poly(bp), 4)
        assert len(images) == 4 * dim
