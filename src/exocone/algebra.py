"""Exact arithmetic: multivariate polynomials, Laurent characters of a
torus, ring-generic matrices, Pfaffians, and nilpotent Jordan data.

MultiPoly and LaurentChar share one term core, _Terms: a dict from key
tuples to nonzero coefficients with a single zero-dropping merge.  Their
constructors check outside input; sums, products and negations build their
results unchecked, since those are normal by construction.

Coefficients stay in int or fractions.Fraction throughout; nothing here
touches floating point.  Matrix entries only need the ring operations they
are actually used with, so products and powers run over rationals,
finite-field scalars, and polynomials alike.  Elimination is over the
rationals only: rank, row_reduce, the Jordan types and the Weyl-group spans
of :mod:`exocone.joseph` share one fraction-free routine, _echelon_add.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Iterable

from .partitions import Partition

_SCALARS = (int, Fraction)


def _merge(data: dict, items) -> dict:
    """Add the (key, coefficient) pairs of items into data, dropping each
    key whose coefficients sum to zero; returns data."""
    for key, c in items:
        acc = data.get(key, 0) + c
        if acc:
            data[key] = acc
        else:
            data.pop(key, None)
    return data


class _Terms:
    """The term core of MultiPoly and LaurentChar: ``terms`` maps key
    tuples of length ``nvars`` to nonzero coefficients.

    A subclass supplies ``_check``, which normalizes one outside term or
    raises; ``_coerce``, which gives the other operand as an instance of
    the subclass or None (NotImplemented, as for a different variable
    count, unless it raised); and ``_scalars``, the types ``==`` reads as
    constants.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        data = _merge({}, (self._check(nvars, k, c) for k, c in items))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, nvars: int, terms: dict):
        """Wrap terms as they are, without checks or a copy.

        MultiPoly and LaurentChar share this term core: their sums,
        products and negations build every result here, unchecked, and
        ``__init__`` checks only outside input.  The caller guarantees
        that the terms are normal: every key is one that ``__init__``
        accepts unchanged and every coefficient is nonzero.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "terms", terms)
        return obj

    @classmethod
    def one(cls, nvars: int):
        return cls(nvars, {(0,) * nvars: 1})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None or other.nvars != self.nvars:
            return NotImplemented
        return self._trusted(
            self.nvars, _merge(dict(self.terms), other.terms.items())
        )

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def _product(self, other):
        """The product with other, of the same class and variable count."""
        pairs = (
            (tuple(map(add, k1, k2)), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        )
        return self._trusted(self.nvars, _merge({}, pairs))

    def __eq__(self, other) -> bool:
        if isinstance(other, self._scalars):
            other = type(self)(self.nvars, {(0,) * self.nvars: other})
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)


class MultiPoly(_Terms):
    """A polynomial in nvars variables with exact coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  Display and
    serialization order terms by graded lexicographic order, largest first,
    with variable 1 most significant.
    """

    __slots__ = ()
    _scalars = _SCALARS

    @staticmethod
    def _check(nvars: int, exp, c):
        exp = tuple(int(e) for e in exp)
        if len(exp) != nvars:
            raise ValueError(f"exponent {exp} has length != {nvars}")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        return exp, c

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        """The i-th variable, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exp = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, _SCALARS):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return MultiPoly._trusted(
                self.nvars,
                {e: c * other for e, c in self.terms.items()} if other else {},
            )
        other = self._coerce(other)
        return NotImplemented if other is None else self._product(other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.text()!r})"

    def degree(self) -> int:
        """Total degree; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def evaluate(self, values):
        """Evaluate at a point; values must multiply with the coefficients."""
        values = tuple(values)
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        total = 0
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def sorted_terms(self) -> list:
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0]), kv[0]),
            reverse=True,
        )

    def text(self, var: str = "e") -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"{var}{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(chunks)

    def to_json(self) -> dict:
        return {
            "vars": self.nvars,
            "terms": [
                {"c": str(Fraction(c)), "e": list(e)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        return cls(
            data["vars"],
            [(tuple(t["e"]), Fraction(t["c"])) for t in data["terms"]],
        )


def linear_form(wt: Iterable[int]) -> MultiPoly:
    """The linear polynomial <wt, e> = sum wt_i * e_i."""
    wt = tuple(wt)
    n = len(wt)
    return MultiPoly(
        n,
        {
            tuple(1 if j == i else 0 for j in range(n)): c
            for i, c in enumerate(wt)
            if c
        },
    )


class LaurentChar(_Terms):
    """A finite integer combination of torus characters e^wt.

    ``terms`` maps integer weight tuples to nonzero integer coefficients.
    """

    __slots__ = ()
    _scalars = (int,)

    @staticmethod
    def _check(nvars: int, wt, c):
        wt = tuple(int(w) for w in wt)
        if len(wt) != nvars:
            raise ValueError(f"weight {wt} has length != {nvars}")
        return wt, int(c)

    @classmethod
    def euler_factor(cls, wt: Iterable[int]) -> "LaurentChar":
        """1 - e^{-wt}."""
        wt = tuple(int(w) for w in wt)
        n = len(wt)
        return cls(n, [((0,) * n, 1), (tuple(-w for w in wt), -1)])

    def _coerce(self, other) -> "LaurentChar | None":
        return other if isinstance(other, LaurentChar) else None

    def __mul__(self, other):
        if not isinstance(other, LaurentChar) or other.nvars != self.nvars:
            return NotImplemented
        return self._product(other)

    def __repr__(self) -> str:
        return f"LaurentChar({self.nvars}, {dict(self.terms)!r})"


def lowest_term(ch: LaurentChar) -> MultiPoly:
    """The lowest nonzero graded piece of ch.

    If every piece of degree < #support vanishes, the exponential
    coefficients satisfy a full Vandermonde system and ch itself is zero,
    so the search is capped there.
    """
    if not ch.terms:
        raise ValueError("the zero character has no lowest term")
    n = ch.nvars
    running = {wt: MultiPoly.one(n) for wt in ch.terms}
    factorial = 1
    for k in range(len(ch.terms)):
        if k:
            factorial *= k
            for wt in running:
                running[wt] = running[wt] * linear_form(wt)
        piece = MultiPoly.zero(n)
        for wt, c in ch.terms.items():
            piece = piece + running[wt] * Fraction(c, factorial)
        if piece:
            return piece
    raise RuntimeError("no nonzero graded piece within the support bound")


class Matrix:
    """A rectangular matrix over any commutative ring with int interop."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: dict) -> "Matrix":
        """Build from a {(i, j): value} dict, 0-based, zeros elsewhere;
        raises on a key outside the shape instead of dropping it."""
        for i, j in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry {(i, j)} outside {nrows} x {ncols}")
        return cls(
            [
                [entries.get((i, j), 0) for j in range(ncols)]
                for i in range(nrows)
            ]
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]!r})"

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.__matmul__(other)
        return Matrix([[a * other for a in r] for r in self.rows])

    def __rmul__(self, other):
        return Matrix([[other * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return Matrix(
            [[_dot(r, c) for c in cols] for r in self.rows]
        )

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            raise ValueError("negative matrix power")
        if self.nrows != self.ncols:
            raise ValueError("matrix power needs a square matrix")
        result = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows)) if self.rows else Matrix([])

    def apply(self, vec) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(_dot(r, vec) for r in self.rows)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def det(self):
        """Determinant by cofactor expansion; fine for small matrices and
        works over any commutative ring."""
        if self.nrows != self.ncols:
            raise ValueError("determinant needs a square matrix")
        return _det(self.rows)


def _dot(row, col):
    # zero entries are skipped, as in _det (powers of the sparse
    # endomorphisms are mostly zeros); an empty sum is the int 0
    total = 0
    for a, b in zip(row, col):
        if a and b:
            total = total + a * b
    return total


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    rest = rows[1:]
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        minor = [r[:j] + r[j + 1:] for r in rest]
        term = entry * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def pfaffian(m: Matrix):
    """Pfaffian of an alternating matrix by first-row expansion.

    Works over any commutative ring.  Requires a zero diagonal and
    m[j][i] == -m[i][j]; raises on odd size.
    """
    rows = m.rows
    size = len(rows)
    if size != m.ncols:
        raise ValueError("pfaffian needs a square matrix")
    if size % 2:
        raise ValueError("pfaffian needs even size")
    for i in range(size):
        if rows[i][i]:
            raise ValueError("nonzero diagonal")
        for j in range(i + 1, size):
            if rows[i][j] != -rows[j][i]:
                raise ValueError("matrix is not alternating")
    return _pf(rows, tuple(range(size)))


def _pf(rows, idx):
    if not idx:
        return 1
    i0 = idx[0]
    total = 0
    for pos in range(1, len(idx)):
        entry = rows[i0][idx[pos]]
        if not entry:
            continue
        term = entry * _pf(rows, idx[1:pos] + idx[pos + 1:])
        total = total + term if pos % 2 else total - term
    return total


def _primitive(v: dict) -> dict:
    """The primitive integer multiple of the sparse rational vector v: zero
    entries dropped, denominators cleared, content divided out."""
    v = {k: c for k, c in v.items() if c}
    scale = lcm(*(c.denominator for c in v.values()))
    v = {k: c.numerator * (scale // c.denominator) for k, c in v.items()}
    g = gcd(*v.values())
    return {k: c // g for k, c in v.items()}


def _combine(a: int, y: dict, b: int, x: dict) -> dict:
    """The primitive part of a * y - b * x."""
    out = {k: a * c for k, c in y.items()}
    for k, c in x.items():
        out[k] = out.get(k, 0) - b * c
    return _primitive(out)


def _echelon_add(rows: dict, v: dict, key) -> bool:
    """Add the sparse rational vector v to the echelon basis rows (pivot ->
    primitive integer row, zero at every other pivot), pivoting at its
    entry of largest key; False when v lies in their span.  Integer rows
    keep Fraction arithmetic out of the elimination (Bareiss 1968)."""
    v = _primitive(v)
    for piv, row in rows.items():
        c = v.get(piv)
        if c:
            v = _combine(row[piv], v, c, row)
    if not v:
        return False
    piv = max(v, key=key)
    p = v[piv]
    for other, row in rows.items():
        c = row.get(piv)
        if c:
            rows[other] = _combine(p, row, c, v)
    rows[piv] = v
    return True


def rank(m: Matrix) -> int:
    """Rank of a matrix whose entries are ints or Fractions."""
    rows = {}
    return sum(_echelon_add(rows, dict(enumerate(r)), neg) for r in m.rows)


def row_reduce(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of a matrix whose entries
    are ints or Fractions; the form has Fraction entries and the shape of
    m, its zero rows last."""
    rows = {}
    for r in m.rows:
        _echelon_add(rows, dict(enumerate(r)), neg)
    pivots = sorted(rows)
    out = [
        [Fraction(rows[p].get(c, 0), rows[p][p]) for c in range(m.ncols)]
        for p in pivots
    ]
    out += [[Fraction(0)] * m.ncols for _ in range(m.nrows - len(pivots))]
    return Matrix(out), tuple(pivots)


def kernel_basis(m: Matrix) -> list[tuple]:
    """A basis of the right kernel, one vector per free column."""
    red, pivots = row_reduce(m)
    nc = m.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * nc
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(m: Matrix, rhs) -> tuple[tuple, list[tuple]] | None:
    """All solutions of m x = rhs as (particular, kernel basis);
    None when inconsistent."""
    rhs = tuple(rhs)
    if len(rhs) != m.nrows:
        raise ValueError("shape mismatch")
    if not rhs:
        return (), []
    red, pivots = row_reduce(Matrix(r + (b,) for r, b in zip(m.rows, rhs)))
    if m.ncols in pivots:
        return None
    particular = [0] * m.ncols
    for r, pc in enumerate(pivots):
        particular[pc] = red.rows[r][-1]
    return tuple(particular), kernel_basis(m)


def is_nilpotent(m: Matrix) -> bool:
    """Whether the square matrix m is nilpotent, i.e. m^size == 0.

    Needs only ring operations, so it works over the rationals and over
    finite-field entries alike; a size-0 matrix is nilpotent.
    """
    return (m ** m.nrows).is_zero()


def jordan_type(m: Matrix):
    """Jordan type of a nilpotent matrix whose entries are ints or
    Fractions, as the partition listing block sizes.

    Read off the image chain of m (see :func:`_chain_type`); raises when
    m is not nilpotent.
    """
    if m.nrows != m.ncols:
        raise ValueError("jordan type needs a square matrix")
    return _chain_type(m)


def _chain_type(m: Matrix, span=()) -> Partition:
    """The Jordan type of the map that the square matrix m induces on
    V / W, for W the span of an m-stable list of vectors span; raises
    ValueError when that map is not nilpotent.

    m^k has rank dim U_k - dim W on V / W, for U_k = m^k V + W.  Since
    m W lies in W, U_k = m U_{k-1} + W, so the images under m of the
    vectors that enlarge an echelon basis of U_{k-1} span U_k modulo W;
    no power of m is formed.  The chain only shrinks, and a step that
    keeps its dimension means it has stopped above W.
    """
    base = {}
    for w in span:
        _echelon_add(base, dict(enumerate(w)), neg)
    ranks = [m.nrows - len(base)]
    vecs = m.transpose().rows
    while ranks[-1]:
        rows = dict(base)
        kept = [v for v in vecs if _echelon_add(rows, dict(enumerate(v)), neg)]
        if len(kept) == ranks[-1]:
            raise ValueError("matrix is not nilpotent")
        ranks.append(len(kept))
        vecs = [m.apply(v) for v in kept]
    return _type_from_ranks(ranks)


def _type_from_ranks(ranks) -> Partition:
    """The Jordan type of a nilpotent map whose k-th power has rank
    ranks[k], the list ending at the first 0: ranks[k-1] - ranks[k]
    blocks have size >= k, so these differences form the conjugate
    partition."""
    return Partition(a - b for a, b in zip(ranks, ranks[1:])).transpose()
