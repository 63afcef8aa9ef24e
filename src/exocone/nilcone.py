"""The exotic nilpotent cone: points, defining equations, and orbits.

A point is a pair (x1, x2) with x1 a vector of length 2n and x2 an
alternating 2n x 2n matrix.  The cone is cut out by the coefficients of the
Pfaffian characteristic polynomial of x2 (:func:`invariant_polys`, written
term by term from the signed perfect matchings that the Pfaffian
minor-summation formula gives), which vanish exactly when x2 * J is
nilpotent; :func:`is_in_nilcone` tests the latter, and the ``pfaffian``
suite checks that the two agree.  The symplectic-group orbits are
classified by marked partitions, realized by :func:`representative` and
computed pointwise by :func:`marked_invariant`, which reads the
bi-partition of the orbit off two Jordan types: that of x2 * J, and that
of x2 * J modulo the span of its powers applied to x1, both read off the
image chain of x2 * J without forming a power of a matrix.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .algebra import (
    Matrix,
    MultiPoly,
    _chain_type,
    is_nilpotent,
    jordan_type,
    rank,  # not called here; perfbench/selftest.py traces nilcone.rank
)
from .partitions import (
    MarkedPartition,
    Partition,
    bipartition,
    from_bipartition,
    to_bipartition,
)
from .weyl import block_boundaries


def symplectic_form(n: int) -> Matrix:
    """The form J with J[i, n+i] = -1 and J[n+i, i] = 1 (0-based blocks)."""
    size = 2 * n
    ent = {}
    for i in range(n):
        ent[(i, n + i)] = -1
        ent[(n + i, i)] = 1
    return Matrix.from_entries(size, size, ent)


def alt_coords(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle coordinates (i, j), 1-based, i < j, row-major; the
    variable order of :func:`invariant_polys`."""
    size = 2 * n
    return tuple(
        (i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)
    )


class ExoticVector:
    """A point (x1, x2) of the exotic representation space."""

    __slots__ = ("n", "x1", "x2")

    def __init__(self, n: int, x1: Iterable, x2: Matrix):
        x1 = tuple(x1)
        if len(x1) != 2 * n:
            raise ValueError(f"x1 must have length {2 * n}")
        if x2.nrows != 2 * n or (n and x2.ncols != 2 * n):
            raise ValueError(f"x2 must be {2 * n} x {2 * n}")
        for i in range(2 * n):
            if x2.rows[i][i]:
                raise ValueError("x2 has a nonzero diagonal entry")
            for j in range(i + 1, 2 * n):
                if x2.rows[i][j] != -x2.rows[j][i]:
                    raise ValueError("x2 is not alternating")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    def __setattr__(self, name, value):
        raise AttributeError("ExoticVector is immutable")

    @classmethod
    def zero(cls, n: int) -> "ExoticVector":
        return cls(n, (0,) * (2 * n), Matrix.zeros(2 * n, 2 * n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExoticVector):
            return NotImplemented
        return (
            self.n == other.n and self.x1 == other.x1 and self.x2 == other.x2
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ExoticVector(n={self.n}, x1={list(self.x1)})"

    def to_json(self) -> dict:
        upper = []
        for i, j in alt_coords(self.n):
            c = self.x2.rows[i - 1][j - 1]
            if c:
                upper.append([i, j, str(Fraction(c))])
        return {
            "n": self.n,
            "x1": [str(Fraction(c)) for c in self.x1],
            "x2_upper": upper,
        }

    @classmethod
    def from_json(cls, data) -> "ExoticVector":
        """Parse the :meth:`to_json` form, raising ValueError on any other
        shape: x2_upper lists [i, j, value] with 1 <= i < j <= 2n, each
        pair at most once."""
        if not isinstance(data, dict):
            raise ValueError("an exotic vector must be a JSON object")
        for key in ("n", "x1", "x2_upper"):
            if key not in data:
                raise ValueError(f"exotic vector has no {key!r}")
        n, x1, upper = data["n"], data["x1"], data["x2_upper"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if not isinstance(x1, list) or len(x1) != 2 * n:
            raise ValueError(f"x1 must be a list of {2 * n} numbers")
        if not isinstance(upper, list):
            raise ValueError("x2_upper must be a list")
        ent = {}
        for item in upper:
            if not isinstance(item, list) or len(item) != 3:
                raise ValueError(f"x2_upper entry {item!r} is not [i, j, c]")
            i, j, c = item
            if not (type(i) is type(j) is int and 1 <= i < j <= 2 * n):
                raise ValueError(
                    f"x2_upper entry {item!r} is outside 1 <= i < j <= {2 * n}"
                )
            if (i - 1, j - 1) in ent:
                raise ValueError(f"x2_upper repeats the pair ({i}, {j})")
            c = _exact(c)
            ent[(i - 1, j - 1)] = c
            ent[(j - 1, i - 1)] = -c
        x2 = Matrix.from_entries(2 * n, 2 * n, ent)
        return cls(n, [_exact(c) for c in x1], x2)


# Python converts at most 4300 digits from text to int; an exponent in a
# number string is held to the same size, since Fraction("1e10000000")
# alone builds a ten-million-digit integer (13.7 s on a 2-core machine).
_MAX_EXPONENT = 4300


def _exact(value) -> int | Fraction:
    """value as an int when it is integral, otherwise as a Fraction."""
    try:
        if isinstance(value, str):
            exponent = value.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError
        f = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{value!r} is not an exact number") from None
    return f.numerator if f.denominator == 1 else f


def _signed_matchings(idx: tuple) -> list[tuple[int, tuple]]:
    """The perfect matchings of idx as (sign, pairs), sign (-1)^crossings,
    in the order of first-row Pfaffian expansion."""
    if not idx:
        return [(1, ())]
    first = idx[0]
    out = []
    for pos in range(1, len(idx)):
        sign = 1 if pos % 2 else -1
        rest = idx[1:pos] + idx[pos + 1:]
        for s, pairs in _signed_matchings(rest):
            out.append((sign * s, ((first, idx[pos]),) + pairs))
    return out


@lru_cache(maxsize=None)
def invariant_polys(n: int) -> tuple[MultiPoly, ...]:
    """The defining equations P_1, ..., P_n of the nilpotent locus in the
    alternating factor.

    sum_k t^{n-k} P_k(x) = Pf(t*J - x) / Pf(J), so that P_0 = 1.
    Variables follow :func:`alt_coords`; P_k is homogeneous of degree k.
    Each P_k is written term by term from the minor-summation formula
    (Stembridge 1990; Ishikawa-Wakayama 1995)

        P_k = (-1)^{k(k-1)/2} sum_{|K| = k} Pf(x restricted to K u (n+K)),

    K running over the k-subsets of {1, ..., n}.

    The sign.  Pf(t*J - x) = (-1)^n Pf(x + t*J') and Pf(J) = (-1)^n Pf(J')
    for J' = -J, whose only upper entries are J'[l, n+l] = 1, so the
    (-1)^n cancels.  A term of Pf(x + t*J') is a perfect matching of
    {1, ..., 2n} with sign (-1)^(crossings), in which each pair (l, n+l)
    may supply t or x[l, n+l] and every other pair supplies its x entry.
    Group the terms by the set L of l whose pair supplies t, and let
    K = [n] - L, |K| = k:
      - the pairs (l, n+l), l in L, give t^{n-k};
      - they cross each other pairwise, C(n-k, 2) times;
      - the interval (l, n+l) holds exactly k points of K u (n+K), the
        i in K above l and the n+i with i in K below l; an edge of the
        rest of the matching crosses (l, n+l) exactly when one of its
        ends lies inside, so it is crossed k times mod 2, and k(n-k)
        times in all;
      - the rest of the matching is a term of Pf(x restricted to
        K u (n+K)), with its own sign.
    At k = 0 this gives Pf(J') = (-1)^{C(n,2)}, the divisor.  So the sign
    of P_k is (-1) to the C(n-k,2) + k(n-k) + C(n,2), which is C(k,2)
    mod 2 because C(n,2) = C(n-k,2) + k(n-k) + C(k,2); it does not depend
    on n.

    A squarefree monomial names its matching and hence K, so nothing
    cancels: P_k has exactly C(n,k)(2k-1)!! terms, each with coefficient
    +-1.  The expansion of Pf(t*J - x) over a matrix of polynomials is the
    oracle the ``pfaffian`` suite compares against.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    coords = alt_coords(n)
    nv = len(coords)
    col = {pair: v for v, pair in enumerate(coords)}
    polys = []
    for k in range(1, n + 1):
        eps = -1 if k * (k - 1) // 2 % 2 else 1
        matchings = _signed_matchings(tuple(range(2 * k)))
        terms = {}
        for subset in combinations(range(1, n + 1), k):
            points = subset + tuple(n + i for i in subset)
            for sign, pairs in matchings:
                exp = [0] * nv
                for a, b in pairs:
                    exp[col[(points[a], points[b])]] = 1
                terms[tuple(exp)] = eps * sign
        polys.append(MultiPoly._trusted(nv, terms))
    return tuple(polys)


def is_in_nilcone(v: ExoticVector) -> bool:
    """Whether all defining equations vanish at v (the x1 part is free).

    Tested as nilpotency of x2 * J, over any field.  With f(t) = t^n +
    sum_i t^{n-i} P_i(x2) = +-Pf(t*J - x2), f^2 = det(t*J - x2) =
    det(t + x2 * J), the characteristic polynomial of -x2 * J.  Since
    F[t] is a UFD, the monic f satisfies f^2 = t^{2n} exactly when
    f = t^n, so every P_i vanishes exactly when x2 * J is nilpotent.
    """
    return is_nilpotent(as_endomorphism(v))


def as_endomorphism(v: ExoticVector) -> Matrix:
    """The composition x2 * J, conjugation-covariant in the symplectic
    group."""
    return v.x2 @ symplectic_form(v.n)


def _halved_type(m: Matrix) -> Partition:
    try:
        jt = jordan_type(m)
    except ValueError:
        raise ValueError("vector is not in the exotic nilcone") from None
    if len(jt) % 2 or any(jt[2 * k] != jt[2 * k + 1] for k in range(len(jt) // 2)):
        raise ValueError(f"Jordan type {list(jt)} does not pair up")
    return Partition(jt[0::2])


def marked_invariant(v: ExoticVector) -> MarkedPartition:
    """The marked partition classifying the orbit of v.

    Read off two Jordan types (Achar-Henderson, Orbit closures in the
    enhanced nilpotent cone): with M = x2 * J, the type of M on V is
    (lam, lam) for lam = mu + nu, and the type of M on V / W, where W is
    spanned by the nonzero vectors M^k x1 (which are independent), is lam
    together with rho = (nu_1 + mu_2, nu_2 + mu_3, ...).  Hence
    mu_i = sum_{j >= i} (lam_j - rho_j), nu = lam - mu, and the orbit is
    ``from_bipartition((mu, nu))``.  Both types are read off the image
    chain M^k V + W (:func:`exocone.algebra._chain_type`), with W = 0 for
    the first; the chain x1, M x1, ... ends because lam is read first.

    Why this is right: the group moves M by g M g^-1 and x1 by g x1, so
    both types are orbit invariants, and ranks do not depend on the field.
    Kato gives one orbit per marked partition, so the formula is right on
    every point of rank n once ``marked_invariant(representative(mp)) ==
    mp`` for every mp of rank n (the ``roundtrip`` suite).

    Raises ValueError off the cone; the two failures the theory rules out
    (lam not inside the quotient type, or a (mu, nu) that is not a
    bi-partition, hence not the image of a marked partition) raise
    AssertionError.
    """
    m = as_endomorphism(v)
    lam = _halved_type(m)
    chain, w = [], v.x1
    while any(w):
        chain.append(w)
        w = m.apply(w)
    quotient = _chain_type(m, chain)
    rest = list(quotient)
    for part in lam:
        if part not in rest:
            raise AssertionError(
                f"quotient type {list(quotient)} does not contain {list(lam)}"
            )
        rest.remove(part)
    rho = Partition(rest)
    length = max(len(lam), len(rho))
    gaps = [lam.part(i) - rho.part(i) for i in range(1, length + 1)]
    mu = [sum(gaps[i:]) for i in range(length)]
    nu = [lam.part(i + 1) - mu[i] for i in range(length)]
    try:
        return from_bipartition(bipartition(mu, nu))
    except ValueError:
        raise AssertionError(
            f"(mu, nu) = ({mu}, {nu}) is not the image of a marked partition"
        ) from None


def representative(mp: MarkedPartition) -> ExoticVector:
    """A deterministic point with marked invariant mp.

    Slot s of the flag threads one Jordan chain through every block with at
    least s slots, in flag order, with unit coefficients; the chain lengths
    recover the parts of lam.  The mark a_s places a unit x1 entry at the
    slot-s position of the a_s-th block on that chain.
    """
    n = mp.size
    d = block_boundaries(to_bipartition(mp))
    sizes = [d[k + 1] - d[k] for k in range(len(d) - 1)]
    if sorted(sizes, reverse=True) != list(mp.lam.transpose()):
        raise AssertionError(f"block sizes {sizes} do not transpose to lam")
    x1 = [0] * (2 * n)
    ent = {}
    for s in range(1, (max(sizes) if sizes else 0) + 1):
        hosts = [k for k, c in enumerate(sizes) if c >= s]
        pos = [d[k] + s for k in hosts]
        for a, b in zip(pos, pos[1:]):
            # arrow from the later block to the earlier one: the
            # endomorphism sends the basis vector at b to the one at a
            ent[(a - 1, b + n - 1)] = 1
            ent[(b + n - 1, a - 1)] = -1
        mark = mp.marks[s - 1] if s <= len(mp.marks) else 0
        if mark:
            x1[pos[mark - 1] - 1] = 1
    return ExoticVector(n, x1, Matrix.from_entries(2 * n, 2 * n, ent))


def orbit_dim(mp: MarkedPartition) -> int:
    """Dimension of the orbit labelled by mp: the unmarked flag blocks are
    the columns c of lam, which give 4 * sum_{i<j} c_i c_j, that is
    2 (n^2 - sum_j c_j^2); the marks add 2 |mu|."""
    n = mp.lam.size
    cols = sum(c * c for c in mp.lam.transpose())
    return 2 * (n * n - cols) + 2 * to_bipartition(mp).mu.size


def cone_dim(n: int) -> int:
    """Dimension of the whole exotic nilpotent cone."""
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    return 2 * n * n
