"""Point counts over the fields with two and four elements.

Over a field of characteristic two, squaring is a bijection, so the map
(x1, x2) -> x1 * transpose(x1) + x2 identifies the exotic representation
space with the symmetric matrices, i.e. with the Lie algebra of the
symplectic group.  This module checks at the level of points, in one pass
over the exotic space, that the map is bijective and carries the zero locus
of the defining equations onto the locus where s * J is nilpotent.  The two
counts, by the defining equations and by nilpotency over the symmetric
matrices, stay separate enumerations that the checks compare.
"""

from itertools import product
from typing import Iterable, Iterator

from .algebra import Matrix, is_nilpotent
from .nilcone import invariant_polys, symplectic_form

_MUL4 = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
_INV4 = {1: 1, 2: 3, 3: 2}
_NAMES4 = ("0", "1", "w", "w+1")


class GF:
    """An element of the field with two or four elements.

    For q = 4 the value encodes a + 2b for a + b*w with w^2 = w + 1.
    Integers coerce through the prime field (reduction mod 2).
    """

    __slots__ = ("q", "val")

    def __init__(self, q: int, val: int):
        if q not in (2, 4):
            raise ValueError(f"field order must be 2 or 4, got {q}")
        val = int(val)
        if not 0 <= val < q:
            raise ValueError(f"value {val} out of range for GF({q})")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "val", val)

    def __setattr__(self, name, value):
        raise AttributeError("GF is immutable")

    @classmethod
    def elements(cls, q: int) -> tuple["GF", ...]:
        return tuple(cls(q, v) for v in range(q))

    def _coerce(self, other) -> "GF | None":
        if isinstance(other, GF):
            if other.q != self.q:
                raise ValueError("mixed field orders")
            return other
        if isinstance(other, int):
            return GF(self.q, other & 1)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GF(self.q, self.val ^ other.val)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.q == 2:
            return GF(2, self.val & other.val)
        return GF(4, _MUL4[self.val][other.val])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.val:
            raise ZeroDivisionError("division by zero field element")
        if self.q == 2:
            return GF(2, self.val)
        return GF(4, _MUL4[self.val][_INV4[other.val]])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = GF(self.q, 1)
        for _ in range(k):
            out = out * self
        return out

    def sqrt(self) -> "GF":
        """The unique square root: the inverse of Frobenius."""
        return self if self.q == 2 else self * self

    def __bool__(self) -> bool:
        return bool(self.val)

    def __eq__(self, other) -> bool:
        if isinstance(other, GF):
            return self.q == other.q and self.val == other.val
        if isinstance(other, int):
            return self.val == other & 1 and (self.q == 2 or self.val < 2)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.val))

    def __repr__(self) -> str:
        return f"GF({self.q}, {self.val})"

    def __str__(self) -> str:
        return _NAMES4[self.val] if self.q == 4 else str(self.val)


def _guard(n: int, q: int, long: bool) -> None:
    if n not in (1, 2) or q not in (2, 4):
        raise ValueError(f"point counts support n in {{1, 2}}, q in {{2, 4}}")
    if (n, q) == (2, 4) and not long:
        raise ValueError("n=2, q=4 enumerates 4^10 points; pass long=True")


def to_lie_algebra(x1: Iterable[GF], x2: Matrix) -> Matrix:
    """The symmetric matrix x1 * transpose(x1) + x2."""
    x1 = tuple(x1)
    outer = Matrix([[a * b for b in x1] for a in x1])
    return outer + x2


def from_lie_algebra(s: Matrix) -> tuple[tuple[GF, ...], Matrix]:
    """Invert :func:`to_lie_algebra`: x1 from the diagonal square roots,
    x2 as the remainder, which must be alternating."""
    if s.rows != s.transpose().rows:
        raise ValueError("matrix is not symmetric")
    size = s.nrows
    x1 = tuple(s.rows[i][i].sqrt() for i in range(size))
    outer = Matrix([[a * b for b in x1] for a in x1])
    x2 = s - outer
    for i in range(size):
        if x2.rows[i][i]:
            raise AssertionError("residual diagonal after removing x1")
    return x1, x2


def is_nilpotent_lie(s: Matrix, n: int) -> bool:
    """Whether the endomorphism s * J is nilpotent; the +-1 entries of J
    reduce mod 2 when multiplied by field elements."""
    return is_nilpotent(s @ symplectic_form(n))


def _symmetric_matrices(
    n: int, q: int, diagonal: bool
) -> Iterator[tuple[tuple[GF, ...], Matrix]]:
    """Every symmetric 2n x 2n matrix over GF(q) with its upper-triangle
    coordinates, row-major; with diagonal False, only those with zero
    diagonal, which in characteristic two are the alternating ones."""
    size = 2 * n
    skip = 0 if diagonal else 1
    coords = [(i, j) for i in range(size) for j in range(i + skip, size)]
    zero = GF(q, 0)
    for vals in product(GF.elements(q), repeat=len(coords)):
        ent = {}
        for (i, j), v in zip(coords, vals):
            ent[(i, j)] = v
            ent[(j, i)] = v
        yield vals, Matrix(
            [[ent.get((i, j), zero) for j in range(size)] for i in range(size)]
        )


def count_exotic_points(n: int, q: int, long: bool = False) -> int:
    """#{(x1, x2) over GF(q) with all defining equations zero at x2}."""
    _guard(n, q, long)
    polys = invariant_polys(n)
    x1_count = q ** (2 * n)
    total = 0
    for vals, _ in _symmetric_matrices(n, q, diagonal=False):
        if all(p.evaluate(vals) == 0 for p in polys):
            total += x1_count
    return total


def count_nilpotent_points(n: int, q: int, long: bool = False) -> int:
    """#{symmetric s over GF(q) with s * J nilpotent}."""
    _guard(n, q, long)
    return sum(
        1
        for _, s in _symmetric_matrices(n, q, diagonal=True)
        if is_nilpotent_lie(s, n)
    )


def verify_transport(n: int, q: int, long: bool = False) -> dict:
    """Point-level check that the quadratic map matches the two loci.

    Returns {"n", "q", "exotic", "nilpotent", "ml_bijective"}.  One pass
    over every (x1, x2) checks that from_lie_algebra inverts
    to_lie_algebra and that x2 lies on the equation zero locus exactly
    when its image is nilpotent; "exotic" counts the points on the zero
    locus, "nilpotent" the nilpotent images.  Both spaces have
    q^{2n^2 + n} points, so a map that is injective on every point is a
    bijection, and then from_lie_algebra is its two-sided inverse.  The
    flag is True when every point passes.
    """
    _guard(n, q, long)
    polys = invariant_polys(n)
    elements = GF.elements(q)
    ok = True
    exotic = 0
    nilpotent = 0
    for vals, x2 in _symmetric_matrices(n, q, diagonal=False):
        in_cone = all(p.evaluate(vals) == 0 for p in polys)
        for x1 in product(elements, repeat=2 * n):
            s = to_lie_algebra(x1, x2)
            if from_lie_algebra(s) != (x1, x2):
                ok = False
            nil = is_nilpotent_lie(s, n)
            if nil != in_cone:
                ok = False
            nilpotent += nil
        if in_cone:
            exotic += q ** (2 * n)
    return {
        "n": n,
        "q": q,
        "exotic": exotic,
        "nilpotent": nilpotent,
        "ml_bijective": ok,
    }
