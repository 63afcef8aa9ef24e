"""Partitions, bi-partitions, and marked partitions.

A marked partition is a partition ``lam`` together with a tuple of marks
``a`` of the same length satisfying

    (1) 0 <= a_k <= lam_k for every k,
    (2) a_k = 0 whenever lam_{k+1} = lam_k,
    (3) lam_p - lam_q > a_p - a_q > 0 whenever p < q and both marks are
        nonzero.

Marked partitions of n classify the symplectic-group orbits on the exotic
nilpotent cone; bi-partitions of n classify the same set through the
bijection :func:`to_bipartition`, an explicit completion rule, whose
inverse :func:`from_bipartition` reads the marks back from (mu, nu) in
closed form: conditions (2) and (3) single out the nonzero marks as the
values of mu that beat every other candidate.  Neither direction
enumerates marked partitions.
"""

from itertools import product
from typing import Iterable, Iterator, NamedTuple


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction.  Indexing is the usual
    0-based tuple indexing; the 1-based accessors ``part`` and the partial
    sums ``sum_before`` / ``sum_through`` / ``sum_after`` / ``sum_from``
    follow the subscript conventions used throughout the package and are
    defined for every index i >= 1 (parts beyond the length are 0).
    """

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError(f"parts must be nonnegative, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self))})"

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part, 1-based; 0 beyond the length."""
        if i < 1:
            raise IndexError(f"part index must be >= 1, got {i}")
        return self[i - 1] if i <= len(self) else 0

    def sum_before(self, i: int) -> int:
        """Sum of the parts strictly before position i (1-based)."""
        if i < 1:
            raise IndexError(f"part index must be >= 1, got {i}")
        return sum(self[: i - 1])

    def sum_through(self, i: int) -> int:
        """Sum of the parts at positions 1..i."""
        return self.sum_before(i) + self.part(i)

    def sum_after(self, i: int) -> int:
        """Sum of the parts strictly after position i."""
        return self.size - self.sum_through(i)

    def sum_from(self, i: int) -> int:
        """Sum of the parts at positions i, i+1, ..."""
        return self.size - self.sum_before(i)

    def transpose(self) -> "Partition":
        """The conjugate partition: column lengths of the Young diagram."""
        if not self:
            return Partition()
        return Partition(
            sum(1 for p in self if p >= j) for j in range(1, self[0] + 1)
        )


class BiPartition(NamedTuple):
    """An ordered pair of partitions."""

    mu: Partition
    nu: Partition

    @property
    def size(self) -> int:
        return self.mu.size + self.nu.size

    def to_json(self) -> dict:
        return {"mu": list(self.mu), "nu": list(self.nu)}

    @classmethod
    def from_json(cls, data: dict) -> "BiPartition":
        return cls(Partition(data["mu"]), Partition(data["nu"]))


def bipartition(mu: Iterable[int] = (), nu: Iterable[int] = ()) -> BiPartition:
    """Build a BiPartition, coercing both entries to Partition."""
    return BiPartition(Partition(mu), Partition(nu))


class MarkedPartition:
    """A partition with a compatible tuple of marks.

    ``marks`` is stored with exactly one entry per part; shorter inputs are
    padded with zeros.  The three compatibility conditions from the module
    docstring are enforced on construction.
    """

    __slots__ = ("lam", "marks")

    def __init__(self, lam: Iterable[int], marks: Iterable[int] = ()):
        lam = Partition(lam)
        marks = tuple(int(a) for a in marks)
        if len(marks) > len(lam):
            if any(marks[len(lam):]):
                raise ValueError(f"nonzero mark beyond the last part: {marks}")
            marks = marks[: len(lam)]
        marks = marks + (0,) * (len(lam) - len(marks))
        for k, a in enumerate(marks):
            if not 0 <= a <= lam[k]:
                raise ValueError(f"mark {a} out of range for part {lam[k]}")
            if a and k + 1 < len(lam) and lam[k + 1] == lam[k]:
                raise ValueError(
                    f"nonzero mark on a repeated part: position {k + 1}"
                )
        live = [(lam[k], marks[k]) for k in range(len(lam)) if marks[k]]
        for p in range(len(live)):
            for q in range(p + 1, len(live)):
                (lp, ap), (lq, aq) = live[p], live[q]
                if not (lp - lq > ap - aq > 0):
                    raise ValueError(
                        f"marks {marks} violate the gap condition on {lam}"
                    )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "marks", marks)

    def __setattr__(self, name, value):
        raise AttributeError("MarkedPartition is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkedPartition):
            return NotImplemented
        return self.lam == other.lam and self.marks == other.marks

    def __hash__(self) -> int:
        return hash((self.lam, self.marks))

    def __repr__(self) -> str:
        return f"MarkedPartition({list(self.lam)}, {list(self.marks)})"

    @property
    def size(self) -> int:
        return self.lam.size

    def to_json(self) -> dict:
        marks = list(self.marks)
        while marks and marks[-1] == 0:
            marks.pop()
        return {"lambda": list(self.lam), "a": marks}

    @classmethod
    def from_json(cls, data: dict) -> "MarkedPartition":
        return cls(data["lambda"], data["a"])


def partitions(n: int, largest: int | None = None) -> Iterator[Partition]:
    """Partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if largest is None:
        largest = n
    if n == 0:
        yield Partition()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first, *rest))


def partition_count(n: int) -> int:
    """Number of partitions of n, by the coin-counting recurrence.

    Independent of :func:`partitions`; used to cross-check enumerations.
    """
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def bipartitions(n: int) -> Iterator[BiPartition]:
    """Bi-partitions of n: |mu| runs from n down to 0, each side in
    descending lexicographic order."""
    for k in range(n, -1, -1):
        for mu in partitions(k):
            for nu in partitions(n - k):
                yield BiPartition(mu, nu)


def markings_of(lam: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All mark tuples compatible with lam, in descending lexicographic
    order."""
    lam = Partition(lam)
    ranges = []
    for k in range(len(lam)):
        # condition (2): a repeated part other than the last copy gets mark 0
        top = 0 if k + 1 < len(lam) and lam[k + 1] == lam[k] else lam[k]
        ranges.append(range(top, -1, -1))
    for marks in product(*ranges):
        live = [(lam[k], marks[k]) for k in range(len(lam)) if marks[k]]
        ok = all(
            live[p][0] - live[q][0] > live[p][1] - live[q][1] > 0
            for p in range(len(live))
            for q in range(p + 1, len(live))
        )
        if ok:
            yield marks


def marked_partitions(n: int) -> Iterator[MarkedPartition]:
    """Marked partitions of n: lam in descending lexicographic order, then
    marks in descending lexicographic order."""
    for lam in partitions(n):
        for marks in markings_of(lam):
            yield MarkedPartition(lam, marks)


def to_bipartition(mp: MarkedPartition) -> BiPartition:
    """The bi-partition (mu, nu) attached to a marked partition.

    Each part lam_i splits as mu_i + nu_i where mu_i = a_i when the mark is
    nonzero; a zero mark is first completed to

        b_i = max({a_j + lam_i - lam_j : j < i} u {a_j : j >= i}).
    """
    lam, marks = mp.lam, mp.marks
    mu, nu = [], []
    for i in range(len(lam)):
        if marks[i]:
            b = marks[i]
        else:
            pool = [marks[j] + lam[i] - lam[j] for j in range(i)]
            pool.extend(marks[j] for j in range(i, len(lam)))
            b = max(pool)
        mu.append(b)
        nu.append(lam[i] - b)
    return BiPartition(Partition(mu), Partition(nu))


def from_bipartition(bp: BiPartition) -> MarkedPartition:
    """The marked partition mapping to bp; inverse of
    :func:`to_bipartition`, in closed form.

    lam_i = mu_i + nu_i, and for i = 1, 2, ... the mark a_i is mu_i when
    mu_i is larger than every a_j + lam_i - lam_j (j < i) and every mu_j
    (j > i); otherwise a_i = 0.

    Why: a zero mark a_i is completed by :func:`to_bipartition` to the
    maximum of {a_j + lam_i - lam_j : j < i} and {a_j : j >= i}; as
    mu_j >= a_j, that is at most the largest pool entry (or 0), so the
    rule gives 0.  A nonzero mark a_i = mu_i beats every pool entry: an
    entry a_j + lam_i - lam_j (j < i) by condition (3) when a_j is nonzero
    and because lam_i <= lam_j when it is zero; a completed mu_j (j > i)
    because by (2) a marked part is strictly larger than every later part,
    so each candidate in the maximum defining mu_j falls below a_i by (3)
    or by that gap.  So the marks can be read back from (mu, nu), which
    makes :func:`to_bipartition` injective, and Kato's count (as many
    orbits as bi-partitions) makes it a bijection.  A result that does not
    map back to bp is ruled out by this argument and raises
    AssertionError.
    """
    bp = BiPartition(Partition(bp.mu), Partition(bp.nu))
    mu, nu = bp.mu, bp.nu
    length = max(len(mu), len(nu))
    lam = [mu.part(i) + nu.part(i) for i in range(1, length + 1)]
    marks = []
    for i in range(length):
        m = mu.part(i + 1)
        pool = [marks[j] + lam[i] - lam[j] for j in range(i)]
        pool.extend(mu[i + 1:])
        marks.append(m if all(m > b for b in pool) else 0)
    try:
        mp = MarkedPartition(lam, marks)
    except ValueError as exc:
        raise AssertionError(f"marks read from {bp} are not valid: {exc}") from None
    if to_bipartition(mp) != bp:
        raise AssertionError(f"{mp} does not map back to {bp}")
    return mp
