"""Joseph polynomials of torus-stable slices and Macdonald
representations.

A :class:`Presentation` records a multiplicity-free ambient weight list, the
subset spanned by a linear slice, and extra equation weights.  Its
K-polynomial is the product of Euler factors 1 - e^{-wt} over the
complementary weights and the equations; the Joseph polynomial is the lowest
nonzero graded piece of that character, which is the product of the linear
forms <wt, e> over the same weights.  :func:`joseph_poly` expands that
product; :func:`k_polynomial` keeps the character route as the independent
check run by the ``degree`` verify suite.  The block products
:func:`macdonald_poly` give the same polynomials up to positive scalar for
the slices attached to marked partitions.  They are products of roots
e_k^2 - e_l^2 over disjoint variable blocks, so they are assembled term by
term from one alternant per block.  :func:`macdonald_span` spans the
Weyl-group representation they generate by closing the span under the
simple reflections rather than enumerating the group, in the echelon form
that ``rank`` uses too.
"""

from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from .algebra import LaurentChar, MultiPoly, _echelon_add, linear_form
from .partitions import BiPartition, Partition
from .weyl import act_on_poly, block_boundaries, simple_reflection

Weight = tuple[int, ...]


class Presentation:
    """Ambient weights, spanned weights, and equation weights of a
    torus-stable linear slice."""

    __slots__ = ("ambient", "span", "equations")

    def __init__(
        self,
        ambient: Iterable[Iterable[int]],
        span: Iterable[Iterable[int]] = (),
        equations: Iterable[Iterable[int]] = (),
    ):
        ambient = tuple(tuple(int(c) for c in w) for w in ambient)
        if not ambient:
            raise ValueError("ambient weight list must be nonempty")
        n = len(ambient[0])
        for w in ambient:
            if len(w) != n or not any(w):
                raise ValueError(f"bad ambient weight {w}")
        if len(set(ambient)) != len(ambient):
            raise ValueError("ambient weights must be distinct")
        span = tuple(tuple(int(c) for c in w) for w in span)
        if not set(span) <= set(ambient):
            raise ValueError("span must consist of ambient weights")
        if len(set(span)) != len(span):
            raise ValueError("span weights must be distinct")
        equations = tuple(tuple(int(c) for c in w) for w in equations)
        for w in equations:
            if len(w) != n or not any(w):
                raise ValueError(f"bad equation weight {w}")
        if len(equations) > len(span):
            raise ValueError("more equations than spanned weights")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "equations", equations)

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    @property
    def nvars(self) -> int:
        return len(self.ambient[0])

    def __repr__(self) -> str:
        return (
            f"Presentation(ambient={list(self.ambient)}, "
            f"span={list(self.span)}, equations={list(self.equations)})"
        )


def _factor_weights(p: Presentation) -> list[Weight]:
    """The missing ambient weights, then the equation weights."""
    spanned = set(p.span)
    return [wt for wt in p.ambient if wt not in spanned] + list(p.equations)


def k_polynomial(p: Presentation) -> LaurentChar:
    """Product of Euler factors over the missing weights and equations.

    Not used by :func:`joseph_poly`; the ``degree`` verify suite takes the
    lowest term of this character as the independent route.
    """
    ch = LaurentChar.one(p.nvars)
    for wt in _factor_weights(p):
        ch = ch * LaurentChar.euler_factor(wt)
    return ch


def joseph_poly(p: Presentation) -> MultiPoly:
    """Lowest graded piece of the K-polynomial of p.

    Each Euler factor 1 - e^{-wt} starts with the linear form <wt, e>, and
    the lowest piece of a product is the product of the lowest pieces, so
    this is the expanded product of those linear forms.
    """
    f = MultiPoly.one(p.nvars)
    for wt in _factor_weights(p):
        f = f * linear_form(wt)
    return f


def _alternant(m: int, shift: int) -> list[tuple[Weight, int]]:
    """Signed terms of prod_{k < l} (x_k^2 - x_l^2) in m variables, times
    the product of the variables raised to shift.

    The terms are the arrangements of the exponents 2k + shift, k < m,
    the decreasing one with sign +1.  Inserting the largest exponent so far
    at position i puts i smaller ones before it, which flips the sign i
    times.
    """
    terms = [((), 1)]
    for k in range(m):
        top = (2 * k + shift,)
        terms = [
            (exp[:i] + top + exp[i:], -sign if i % 2 else sign)
            for exp, sign in terms
            for i in range(k + 1)
        ]
    return terms


def _block_product(before, after) -> MultiPoly:
    """The square-difference product over consecutive variable blocks of
    the given sizes, times every variable of the blocks after the anchor.

    The blocks use disjoint variables, so each term of the product is one
    alternant term per block, laid side by side; no two coincide.
    """
    terms = [((), 1)]
    for sizes, shift in ((before, 0), (after, 1)):
        for m in sizes:
            block = _alternant(m, shift)
            terms = [
                (exp + tail, sign * s)
                for exp, sign in terms
                for tail, s in block
            ]
    return MultiPoly._trusted(sum(before) + sum(after), dict(terms))


def macdonald_poly(bp: BiPartition) -> MultiPoly:
    """The block product attached to a bi-partition via its flag blocks.

    Blocks before the |mu| anchor contribute the square-difference product
    over their variable range; blocks after it contribute the same product
    times the plain product of their variables.
    """
    bp = BiPartition(Partition(bp.mu), Partition(bp.nu))
    d = block_boundaries(bp)
    sizes = [d[b + 1] - d[b] for b in range(len(d) - 1)]
    mu1 = bp.mu.part(1)
    return _block_product(sizes[:mu1], sizes[mu1:])


def _grlex(exp: Weight):
    return sum(exp), exp


def macdonald_span(seed: MultiPoly, n: int) -> tuple[int, list[MultiPoly]]:
    """Dimension and reduced basis of the span of the Weyl-group orbit of
    seed.

    The span is closed under the n simple reflections, which generate the
    group: each new basis member is moved by every reflection, and an image
    joins the basis only when it is not already in the span, so n * dim
    images are built instead of the whole orbit.  The rank stays capped
    at 5.  The basis, kept by the elimination routine of ``rank``, is the
    reduced row echelon form over the graded-lexicographic monomial order,
    largest monomial first, hence deterministic.
    """
    if n > 5:
        raise ValueError(f"rank {n} too large; spans are supported for n <= 5")
    if seed.nvars != n:
        raise ValueError("seed has the wrong number of variables")
    gens = [simple_reflection(i, n) for i in range(1, n + 1)]
    rows = {}
    todo = [seed] if _echelon_add(rows, seed.terms, _grlex) else []
    while todo:
        f = todo.pop()
        for s in gens:
            image = act_on_poly(s, f)
            if _echelon_add(rows, image.terms, _grlex):
                todo.append(image)
    basis = []
    for piv in sorted(rows, key=_grlex, reverse=True):
        row = rows[piv]
        order = sorted(row, key=_grlex, reverse=True)
        terms = {exp: Fraction(row[exp], row[piv]) for exp in order}
        basis.append(MultiPoly._trusted(n, terms))
    return len(basis), basis


def _tableau_count(lam: Partition) -> int:
    """Standard Young tableaux of shape lam, by the hook length formula."""
    t = lam.transpose()
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + t[j] - i - 1
    return factorial(lam.size) // hooks


def irrep_dim(bp: BiPartition) -> int:
    """Dimension of the irreducible hyperoctahedral representation
    labelled by bp: binomial(n, |mu|) times the two tableau counts."""
    bp = BiPartition(Partition(bp.mu), Partition(bp.nu))
    n = bp.size
    return comb(n, bp.mu.size) * _tableau_count(bp.mu) * _tableau_count(bp.nu)
