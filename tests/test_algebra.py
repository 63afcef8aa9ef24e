"""Polynomials, characters, and exact linear algebra."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exocone import algebra
from exocone import (
    GF,
    LaurentChar,
    Matrix,
    MultiPoly,
    is_nilpotent,
    jordan_type,
    kernel_basis,
    linear_form,
    lowest_term,
    pfaffian,
    rank,
    row_reduce,
    solve_linear,
)
from exocone.verify import _pfaffian_term_sum


def poly_strategy(nvars=2, maxdeg=3):
    exps = st.tuples(*(st.integers(0, maxdeg) for _ in range(nvars)))
    coeffs = st.integers(-4, 4)
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda d: MultiPoly(nvars, d)
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_poly_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + MultiPoly.zero(2) == f
    assert f * MultiPoly.one(2) == f
    assert f - f == MultiPoly.zero(2)


coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@st.composite
def cancelling_pairs(draw, cls, keys, coeffs):
    """Two term dicts of cls in 2 variables; g often repeats f or -f on
    part of its support, so that sums and differences cancel."""
    terms = st.dictionaries(keys, coeffs, max_size=5)
    f = draw(terms)
    g = draw(terms)
    for key, c in f.items():
        if draw(st.sampled_from(["keep", "same", "negate"])) == "same":
            g[key] = c
        elif draw(st.booleans()):
            g[key] = -c
    return cls(2, f), cls(2, g)


def _assert_normal(r, cls):
    """r is already what the checked constructor makes of its terms."""
    assert type(r) is cls
    rebuilt = cls(r.nvars, r.terms)
    assert rebuilt == r
    assert list(rebuilt.terms.items()) == list(r.terms.items())
    for key, c in r.terms.items():
        assert c != 0
        assert isinstance(c, int if cls is LaurentChar else (int, Fraction))
        assert type(key) is tuple and len(key) == r.nvars
        assert all(type(e) is int for e in key)
        if cls is MultiPoly:
            assert all(e >= 0 for e in key)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    cancelling_pairs(
        MultiPoly, st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients
    ),
    coefficients,
)
def test_poly_arithmetic_results_are_normal(pair, c):
    f, g = pair
    for r in (f + g, f - g, -f, f * g, c * f, f * c, f**2, 1 - f, f + 1):
        _assert_normal(r, MultiPoly)
    assert f - f == 0 and not (f - f).terms
    assert not (f * 0).terms and not (0 * f).terms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cancelling_pairs(
        LaurentChar,
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.integers(-3, 3),
    )
)
def test_char_arithmetic_results_are_normal(pair):
    f, g = pair
    for r in (f + g, f - g, -f, f * g, f * f):
        _assert_normal(r, LaurentChar)
    assert not (f - f).terms


def test_poly_basics():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    f = (x + y) * (x - y)
    assert f == x**2 - y**2
    assert f.degree() == 2
    assert f.is_homogeneous()
    assert not MultiPoly.zero(2)
    with pytest.raises(ValueError):
        MultiPoly.zero(2).degree()


def test_poly_scalar_and_cross_rank_eq():
    assert MultiPoly.constant(3, 7) == 7
    assert MultiPoly.zero(1) == 0
    assert MultiPoly.variable(1, 1) != MultiPoly.variable(1, 2)


def test_poly_evaluate():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    f = x**2 - y**2
    assert f.evaluate([3, 1]) == 8
    assert f.evaluate([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 36)
    # polynomial values compose
    assert f.evaluate([y, x]) == y**2 - x**2


def test_poly_text_rendering():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    assert (x**2 - y**2).text() == "e1^2 - e2^2"
    assert (x * y * (x**2 - y**2)).text() == "e1^3*e2 - e1*e2^3"
    assert MultiPoly.one(2).text() == "1"
    assert MultiPoly.zero(2).text() == "0"
    assert (2 * x - 3 * y).text() == "2*e1 - 3*e2"
    assert (x - y).text("t") == "t1 - t2"


def test_poly_sorted_terms_graded_lex():
    x = MultiPoly.variable(1, 2)
    y = MultiPoly.variable(2, 2)
    f = x * y + x**2 + y + 1
    assert [e for e, _ in f.sorted_terms()] == [
        (2, 0),
        (1, 1),
        (0, 1),
        (0, 0),
    ]


def test_poly_json_round_trip():
    f = MultiPoly(2, {(3, 1): 1, (1, 3): Fraction(-1, 2)})
    data = f.to_json()
    assert data["vars"] == 2
    assert data["terms"][0] == {"c": "1", "e": [3, 1]}
    assert MultiPoly.from_json(data) == f


def test_linear_form():
    assert linear_form((1, -1)) == MultiPoly(2, {(1, 0): 1, (0, 1): -1})
    assert linear_form((0, 2, 0)) == MultiPoly(3, {(0, 1, 0): 2})


def test_euler_factor_and_graded_pieces():
    # 1 - e^{-eps1} opens with eps1
    ch = LaurentChar.euler_factor((1, 0))
    assert lowest_term(ch) == MultiPoly.variable(1, 2)
    # 2 - e^{-eps1} - e^{-eps2} opens with eps1 + eps2
    ch2 = LaurentChar.euler_factor((1, 0)) + LaurentChar.euler_factor((0, 1))
    assert lowest_term(ch2) == linear_form((1, 1))


def test_lowest_term_multiplicative_on_factors():
    f1 = LaurentChar.euler_factor((1, 0))
    f2 = LaurentChar.euler_factor((1, 1))
    f3 = LaurentChar.euler_factor((0, 1))
    prod = f1 * f2 * f3
    expect = linear_form((1, 0)) * linear_form((1, 1)) * linear_form((0, 1))
    assert lowest_term(prod) == expect


def test_lowest_term_rejects_zero_character():
    ch = LaurentChar.euler_factor((1, 0)) - LaurentChar.euler_factor((1, 0))
    with pytest.raises(ValueError):
        lowest_term(ch)


def test_char_exp_weight_algebra():
    a = LaurentChar(2, {(1, 0): 1})
    b = LaurentChar(2, {(-1, 0): 1})
    assert a * b == LaurentChar.one(2)
    assert LaurentChar.one(2) - LaurentChar(2, {(0, 0): 1}) == 0


def test_matrix_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a @ b == Matrix([[2, 1], [4, 3]])
    assert a + b - b == a
    assert 2 * a == a * 2
    assert a ** 0 == Matrix.identity(2)
    assert a ** 3 == a @ a @ a
    assert a.transpose().transpose() == a
    assert a.apply((1, 0)) == (1, 3)


def test_matrix_from_entries_rejects_keys_outside_the_shape():
    assert Matrix.from_entries(2, 2, {(0, 1): 5}) == Matrix([[0, 5], [0, 0]])
    for key in ((0, 2), (2, 0), (-1, 0)):
        with pytest.raises(ValueError):
            Matrix.from_entries(2, 2, {key: 1})


def test_matrix_det_and_pfaffian():
    rng = random.Random(11)
    for size in (2, 4, 6):
        for _ in range(5):
            upper = {
                (i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for i in range(size)
                for j in range(i + 1, size)
            }
            ent = dict(upper)
            ent.update({(j, i): -c for (i, j), c in upper.items()})
            m = Matrix.from_entries(size, size, ent)
            pf = pfaffian(m)
            assert pf * pf == m.det()
            assert pf == _pfaffian_term_sum(m)


def test_pfaffian_rejects_non_alternating():
    with pytest.raises(ValueError):
        pfaffian(Matrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        pfaffian(Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))  # odd size


def test_rank_kernel_solve():
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert all(c == 0 for c in m.apply(ker[0]))
    sol = solve_linear(m, (6, 12, 2))
    assert sol is not None
    particular, null = sol
    assert m.apply(particular) == (6, 12, 2)
    assert len(null) == 1
    assert solve_linear(m, (1, 0, 0)) is None


def test_row_reduce_is_rref():
    m = Matrix([[2, 4], [1, 3]])
    red, pivots = row_reduce(m)
    assert red == Matrix([[1, 0], [0, 1]])
    assert pivots == (0, 1)
    red2, pivots2 = row_reduce(Matrix([[0, 0], [1, 2]]))
    assert red2.rows[0] == (1, 2)
    assert pivots2 == (0,)  # pivot column indices


def test_is_nilpotent():
    assert is_nilpotent(Matrix([]))
    # a cube-zero matrix whose square is not zero
    assert is_nilpotent(
        Matrix([[0, Fraction(1, 2), 3], [0, 0, -1], [0, 0, 0]])
    )
    assert is_nilpotent(Matrix([[1, 1], [-1, -1]]))
    assert not is_nilpotent(Matrix([[0, 1], [1, 0]]))
    assert not is_nilpotent(Matrix([[Fraction(1, 3)]]))
    zero, one = GF.elements(2)
    assert is_nilpotent(Matrix([[one, one], [one, one]]))
    assert not is_nilpotent(Matrix([[one, zero], [zero, one]]))
    zero, one, w, w1 = GF.elements(4)
    # trace zero and determinant w^2 - (w + 1) = 0
    assert is_nilpotent(Matrix([[w, w1], [one, w]]))
    assert not is_nilpotent(Matrix([[zero, w], [one, zero]]))
    assert is_nilpotent(Matrix([[zero]]))


def test_jordan_type():
    assert jordan_type(Matrix.zeros(3, 3)) == (1, 1, 1)
    j2 = Matrix([[0, 1], [0, 0]])
    assert jordan_type(j2) == (2,)
    m = Matrix.from_entries(5, 5, {(0, 1): 1, (1, 2): 1, (3, 4): 1})
    assert jordan_type(m) == (3, 2)
    with pytest.raises(ValueError):
        jordan_type(Matrix.identity(2))


def _scalar(rng, exact):
    c = rng.choice([-2, -1, 1, 2])
    return c if exact is int else Fraction(c, rng.choice([1, 2, 3]))


def _conjugated(rng, m, exact):
    """P m P^-1 for P a random product of elementary and diagonal
    matrices, each inverted exactly; with exact=int, P and P^-1 stay
    integral."""
    rows = [list(r) for r in m.rows]
    size = len(rows)
    for _ in range(2 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            # D m D^-1 for D = diag(1, ..., d at i, ..., 1)
            d = -1 if exact is int else _scalar(rng, exact)
            inv = d if exact is int else 1 / d
            rows[i] = [d * a for a in rows[i]]
            for r in rows:
                r[i] *= inv
        else:
            # E m E^-1 for E = I + c e_ij: row i += c row j, then
            # column j -= c column i
            c = _scalar(rng, exact)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for r in rows:
                r[j] -= c * r[i]
    return Matrix(rows)


def _ranks(matrices):
    out = []
    for r in matrices:
        out.append(r)
        if not r:
            return out
    raise AssertionError("the ranks never reach 0")


@pytest.mark.parametrize("scalar", [int, Fraction])
def test_chain_type_matches_the_ranks_of_the_powers(scalar):
    """jordan_type and the quotient type of the image chain against the
    route they replace: ranks of the powers of m, and of [m^k | chain]."""
    rng = random.Random(12)
    for _ in range(120):
        size = rng.randint(0, 6)
        top = Matrix.from_entries(size, size, {
            (i, j): scalar(rng.choice([0, 0, 1, -1, 2]))
            for i in range(size)
            for j in range(i + 1, size)
        })
        m = _conjugated(rng, top, scalar)
        powers = [m ** k for k in range(size + 1)]
        expected = algebra._type_from_ranks(_ranks(rank(p) for p in powers))
        assert jordan_type(m) == expected
        chain = []
        w = tuple(scalar(rng.randint(-2, 2)) for _ in range(size))
        while any(w):
            chain.append(w)
            w = m.apply(w)
        quotient = algebra._type_from_ranks(_ranks(
            rank(Matrix(p.transpose().rows + tuple(chain))) - len(chain)
            for p in powers
        ))
        assert algebra._chain_type(m, chain) == quotient
        if size:
            # upper triangular with a nonzero eigenvalue at (0, 0)
            diag = Matrix.from_entries(size, size, {
                (i, i): scalar(rng.choice([0, 1, -2] if i else [1, -2]))
                for i in range(size)
            })
            with pytest.raises(ValueError, match="matrix is not nilpotent"):
                jordan_type(_conjugated(rng, top + diag, scalar))


def test_chain_type_works_modulo_the_span():
    m = Matrix([[0, 0], [0, 1]])
    assert algebra._chain_type(m, [(0, 1)]) == (1,)
    with pytest.raises(ValueError, match="matrix is not nilpotent"):
        algebra._chain_type(m, [(1, 0)])


@st.composite
def small_matrices(draw):
    """Matrices up to 4 x 5 with int or Fraction entries."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return Matrix(draw(st.lists(row, min_size=nrows, max_size=nrows)))


def largest_nonzero_minor(m):
    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(m.rows, k):
            for cols in combinations(range(m.ncols), k):
                if Matrix([[r[c] for c in cols] for r in rows]).det():
                    return k
    return 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose()) == largest_nonzero_minor(m)
    red, pivots = row_reduce(m)
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols)
    assert len(pivots) == rank(m)
    assert list(pivots) == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert red.rows[r][p] == 1
        assert not any(red.rows[r][:p])
        assert all(red.rows[i][p] == 0 for i in range(m.nrows) if i != r)
    assert not any(any(row) for row in red.rows[len(pivots):])
    # each row of m is the combination of the reduced rows that its own
    # pivot-column entries read off
    for x in m.rows:
        combo = [
            sum(x[p] * red.rows[r][c] for r, p in enumerate(pivots))
            for c in range(m.ncols)
        ]
        assert combo == list(x)
