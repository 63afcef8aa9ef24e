"""The hyperoctahedral group and the weight combinatorics of marked
partitions.

Elements of the Weyl group of type C_n act on Z^n by signed permutation of
coordinates.  Each marked partition carries a distinguished element
(:func:`special_element`) whose action cuts out the weights of the attached
orbital variety (:func:`stable_weights`); :func:`is_stable_weight` computes
the same set directly from partition arithmetic.
"""

from itertools import permutations, product
from typing import Iterable

from .algebra import MultiPoly
from .partitions import BiPartition, MarkedPartition, Partition, to_bipartition

Weight = tuple[int, ...]


class SignedPermutation:
    """A signed permutation of 1..n.

    ``image[i]`` is the signed 1-based index that axis i+1 is sent to:
    w(eps_i) = sign * eps_|image[i-1]|.
    """

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        image = tuple(int(v) for v in image)
        n = len(image)
        if sorted(abs(v) for v in image) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation of 1..{n}: {image}")
        object.__setattr__(self, "image", image)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPermutation is immutable")

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.image)})"

    def apply_axis(self, i: int) -> int:
        """w(eps_i) as a signed index."""
        if not 1 <= i <= self.n:
            raise IndexError(f"axis {i} out of range 1..{self.n}")
        return self.image[i - 1]

    def __mul__(self, other) -> "SignedPermutation":
        """Composition: (self * other)(x) = self(other(x))."""
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed ranks")
        out = []
        for v in other.image:
            w = self.image[abs(v) - 1]
            out.append(w if v > 0 else -w)
        return SignedPermutation(out)

    def inverse(self) -> "SignedPermutation":
        out = [0] * self.n
        for i, v in enumerate(self.image):
            out[abs(v) - 1] = (i + 1) if v > 0 else -(i + 1)
        return SignedPermutation(out)

    def apply_weight(self, wt: Iterable[int]) -> Weight:
        """The image of an integer weight under the coordinate action."""
        wt = tuple(wt)
        if len(wt) != self.n:
            raise ValueError("mixed ranks")
        out = [0] * self.n
        for i, c in enumerate(wt):
            if c:
                v = self.image[i]
                out[abs(v) - 1] += c if v > 0 else -c
        return tuple(out)

    def length(self) -> int:
        """Coxeter length: the number of positive roots sent negative."""
        return sum(
            1
            for root in positive_roots(self.n)
            if _is_negative(self.apply_weight(root))
        )

    def to_json(self) -> dict:
        return {
            "image": [[abs(v), 1 if v > 0 else -1] for v in self.image]
        }

    @classmethod
    def from_json(cls, data: dict) -> "SignedPermutation":
        return cls(p * s for p, s in data["image"])


def _is_negative(wt: Weight) -> bool:
    for c in wt:
        if c:
            return c < 0
    return False


def simple_reflection(i: int, n: int) -> SignedPermutation:
    """s_i swaps axes i and i+1 for i < n; s_n flips the sign of axis n."""
    if not 1 <= i <= n:
        raise ValueError(f"reflection index {i} out of range 1..{n}")
    image = list(range(1, n + 1))
    if i < n:
        image[i - 1], image[i] = image[i], image[i - 1]
    else:
        image[n - 1] = -n
    return SignedPermutation(image)


def weyl_group(n: int) -> list[SignedPermutation]:
    """All 2^n n! signed permutations, in a fixed order."""
    group = []
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            group.append(SignedPermutation(s * p for p, s in zip(perm, signs)))
    return group


def act_on_poly(w: SignedPermutation, f: MultiPoly) -> MultiPoly:
    """The coordinate action on polynomials: variable i is sent to
    +-variable |w(i)|."""
    if f.nvars != w.n:
        raise ValueError("mixed ranks")
    data = {}
    for exp, c in f.terms.items():
        new = [0] * f.nvars
        sign = 1
        for i, e in enumerate(exp):
            if not e:
                continue
            v = w.image[i]
            new[abs(v) - 1] = e
            if v < 0 and e % 2:
                sign = -sign
        data[tuple(new)] = sign * c
    # a signed permutation maps distinct monomials to distinct monomials
    return MultiPoly._trusted(f.nvars, data)


def exotic_weights(n: int) -> tuple[Weight, ...]:
    """Torus weights of the exotic representation: all eps_i, eps_i + eps_j
    and eps_i - eps_j for i < j; n^2 weights in a fixed order."""
    wts = []
    for i in range(n):
        wt = [0] * n
        wt[i] = 1
        wts.append(tuple(wt))
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                wt = [0] * n
                wt[i], wt[j] = 1, sj
                wts.append(tuple(wt))
    wts.sort(reverse=True)
    return tuple(wts)


def positive_roots(n: int) -> tuple[Weight, ...]:
    """Positive roots of type C_n: eps_i +- eps_j for i < j and 2 eps_i;
    n^2 roots in a fixed order."""
    wts = []
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                wt = [0] * n
                wt[i], wt[j] = 1, sj
                wts.append(tuple(wt))
    for i in range(n):
        wt = [0] * n
        wt[i] = 2
        wts.append(tuple(wt))
    wts.sort(reverse=True)
    return tuple(wts)


def special_element(mp: MarkedPartition) -> SignedPermutation:
    """The Weyl element attached to a marked partition.

    Axis i is sent by exactly one of three rules, read off the transposed
    halves of the attached bi-partition; the case analysis must cover each
    axis once, and the result must be a signed permutation.  Both facts are
    re-checked here.
    """
    bp = to_bipartition(mp)
    tmu = bp.mu.transpose()
    tnu = bp.nu.transpose()
    musz, nusz = bp.mu.size, bp.nu.size
    n = mp.size
    image = []
    for i in range(1, n + 1):
        hits = []
        for m in range(1, len(tmu) + 1):
            if i == tmu.sum_from(m):
                hits.append(n - m + 1)
            elif tmu.sum_after(m) < i < tmu.sum_from(m):
                hits.append(
                    -(nusz + tmu.sum_before(m) + i - tmu.sum_after(m) - m + 1)
                )
        for m in range(1, len(tnu) + 1):
            if musz + tnu.sum_before(m) < i <= musz + tnu.sum_through(m):
                hits.append(-(tnu.sum_after(m) + i - tnu.sum_before(m) - musz))
        if len(hits) != 1:
            raise AssertionError(
                f"case analysis hit axis {i} {len(hits)} times for {mp}"
            )
        image.append(hits[0])
    return SignedPermutation(image)


def block_boundaries(bp: BiPartition) -> tuple[int, ...]:
    """The weakly increasing boundary sequence of the flag blocks of the
    orbit labelled by bp = (mu, nu).

    The mu-side contributes the partial column sums of the transpose of mu
    read from the last column, the nu-side continues with |mu| plus the
    column sums of the transpose of nu; the sequence starts at 0, passes
    through |mu| at position mu_1, and ends at n = |mu| + |nu|.  The block
    sizes are the column lengths of mu and of nu, which together transpose
    to lam = mu + nu.
    """
    bp = BiPartition(Partition(bp.mu), Partition(bp.nu))
    tmu = bp.mu.transpose()
    tnu = bp.nu.transpose()
    mu1 = bp.mu.part(1)
    nu1 = bp.nu.part(1)
    d = [0]
    for k in range(1, mu1 + 1):
        d.append(tmu.sum_from(mu1 - k + 1))
    for k in range(1, nu1 + 1):
        d.append(bp.mu.size + tnu.sum_through(k))
    if any(d[k] > d[k + 1] for k in range(len(d) - 1)):
        raise AssertionError(f"boundaries not weakly increasing: {d}")
    if d[mu1] != bp.mu.size or d[-1] != bp.size:
        raise AssertionError(f"boundary anchors wrong for {bp}: {d}")
    return tuple(d)


def stable_weights(mp: MarkedPartition) -> tuple[Weight, ...]:
    """The exotic weights kept inside the exotic weight set by the special
    element of mp."""
    w = special_element(mp)
    ambient = exotic_weights(mp.size)
    aset = set(ambient)
    return tuple(wt for wt in ambient if w.apply_weight(wt) in aset)


def is_stable_weight(mp: MarkedPartition, wt: Iterable[int]) -> bool:
    """Membership in :func:`stable_weights` by partition arithmetic alone,
    without building the special element."""
    wt = tuple(wt)
    n = mp.size
    if wt not in set(exotic_weights(n)):
        raise ValueError(f"{wt} is not an exotic weight for n={n}")
    bp = to_bipartition(mp)
    tmu = bp.mu.transpose()
    tnu = bp.nu.transpose()
    musz = bp.mu.size
    tops = {tmu.sum_from(m) for m in range(1, len(tmu) + 1)}
    support = [k + 1 for k, c in enumerate(wt) if c]
    if len(support) == 1:
        return support[0] in tops
    i, j = support
    if wt[j - 1] == 1:
        return i in tops and j in tops
    # wt = eps_i - eps_j with i < j: excluded exactly when both indices sit
    # strictly inside one mu-column run, or inside one nu-column run, or j
    # tops a mu-column while i sits under a weakly taller one
    for m in range(1, len(tmu) + 1):
        if tmu.sum_after(m) < i and j < tmu.sum_from(m):
            return False
    for m in range(1, len(tnu) + 1):
        if musz + tnu.sum_before(m) < i and j <= musz + tnu.sum_through(m):
            return False
    for m in range(1, len(tmu) + 1):
        if j == tmu.sum_from(m) and 1 <= i <= musz:
            later_tops = {tmu.sum_from(l) for l in range(m + 1, len(tmu) + 1)}
            if i not in later_tops:
                return False
    return True

