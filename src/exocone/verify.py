"""Named verification suites.

Each suite re-derives a family of published values or cross-checks two
independent computation routes, reporting one PASS or FAIL line per check.
The command line exposes them through ``verify --suite``; the test suite
drives the same functions.
"""

import random
from fractions import Fraction
from math import factorial
from itertools import permutations
from typing import Callable, NamedTuple

from .algebra import (
    Matrix,
    MultiPoly,
    linear_form,
    lowest_term,
    pfaffian,
    rank,
    row_reduce,
)
from .charp import verify_transport
from .joseph import (
    Presentation,
    _block_product,
    irrep_dim,
    joseph_poly,
    k_polynomial,
    macdonald_poly,
    macdonald_span,
)
from .nilcone import (
    ExoticVector,
    alt_coords,
    cone_dim,
    invariant_polys,
    is_in_nilcone,
    marked_invariant,
    orbit_dim,
    representative,
    symplectic_form,
)
from .partitions import (
    BiPartition,
    MarkedPartition,
    Partition,
    bipartitions,
    from_bipartition,
    marked_partitions,
    partition_count,
    to_bipartition,
)
from .weyl import (
    act_on_poly,
    block_boundaries,
    exotic_weights,
    is_stable_weight,
    positive_roots,
    stable_weights,
    weyl_group,
)


class SuiteReport(NamedTuple):
    name: str
    ok: bool
    lines: tuple[str, ...]


class _Checks:
    def __init__(self):
        self.lines = []
        self.ok = True

    def add(self, label: str, cond: bool, detail: str = ""):
        if not cond:
            self.ok = False
        tag = "PASS" if cond else "FAIL"
        suffix = f": {detail}" if detail else ""
        self.lines.append(f"{tag} {label}{suffix}")


def _perm_sign(p) -> int:
    """Sign of a permutation given as a sequence of distinct comparables."""
    p = tuple(p)
    inversions = sum(
        1
        for a in range(len(p))
        for b in range(a + 1, len(p))
        if p[a] > p[b]
    )
    return -1 if inversions % 2 else 1


def _pfaffian_term_sum(m: Matrix):
    """Pfaffian straight from the definition: (1/n!) times the signed sum
    over all permutations with increasing consecutive pairs of the products
    of pair entries.  Independent of the recursive expansion."""
    rows = m.rows
    size = len(rows)
    if size % 2:
        raise ValueError("even size required")
    half = size // 2
    total = 0
    for sigma in permutations(range(size)):
        if any(sigma[2 * k] > sigma[2 * k + 1] for k in range(half)):
            continue
        prod = 1
        for k in range(half):
            prod = prod * rows[sigma[2 * k]][sigma[2 * k + 1]]
        total = total + prod * _perm_sign(sigma)
    return total * Fraction(1, factorial(half))


def _invariant_polys_by_expansion(n: int) -> tuple[MultiPoly, ...]:
    """The defining equations by expanding Pf(t*J - x) over a 2n x 2n
    matrix of polynomials in t and the :func:`alt_coords` variables, then
    reading off the t^{n-i} coefficients divided by Pf(J).  The oracle for
    :func:`invariant_polys`, which writes them from matchings instead."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    coords = alt_coords(n)
    nv = len(coords)
    col = {pair: k for k, pair in enumerate(coords)}
    jrows = symplectic_form(n).rows
    size = 2 * n

    def entry(i: int, j: int) -> MultiPoly:
        terms = {}
        if jrows[i][j]:
            terms[(1,) + (0,) * nv] = jrows[i][j]
        if i != j:
            k = col[(i + 1, j + 1)] if i < j else col[(j + 1, i + 1)]
            exp = tuple(
                1 if m == k + 1 else 0 for m in range(nv + 1)
            )
            terms[exp] = -1 if i < j else 1
        return MultiPoly(nv + 1, terms)

    mat = Matrix([[entry(i, j) for j in range(size)] for i in range(size)])
    pf = pfaffian(mat)
    buckets = {}
    for exp, c in pf.terms.items():
        buckets.setdefault(exp[0], {})[exp[1:]] = c
    lead = buckets.get(n, {})
    unit = lead.get((0,) * nv, 0)
    if list(lead) != [(0,) * nv] or unit not in (1, -1):
        raise AssertionError("t^n coefficient is not a unit constant")
    return tuple(
        MultiPoly(nv, buckets.get(n - i, {})) * unit for i in range(1, n + 1)
    )


def _macdonald_poly_direct(mu, nu) -> MultiPoly:
    """The block products of :func:`macdonald_poly` written directly on the
    two partitions: one square-difference block per part of mu, one per
    part of nu shifted past |mu|, and the product of all variables past
    |mu|.

    The mu blocks tile the first |mu| variables with the smallest part
    first; the nu blocks tile the rest largest part first.  The asymmetry
    matches the flag-block order of :func:`macdonald_poly`, which walks the
    mu side of the flag from the shortest column up.  The oracle of the
    ``dconvention`` suite.
    """
    mu, nu = Partition(mu), Partition(nu)
    return _block_product(mu[::-1], nu)


def _scalar_ratio(f: MultiPoly, g: MultiPoly):
    """The scalar c with f == c * g, or None."""
    if f.nvars != g.nvars or not g.terms or not f.terms:
        return None
    exp, gc = g.sorted_terms()[0]
    fc = f.terms.get(exp, 0)
    if not fc:
        return None
    c = Fraction(fc) / Fraction(gc)
    return c if f == g * c else None


def _suite_bijection(long: bool = False) -> _Checks:
    c = _Checks()
    for n in range(11):
        mps = list(marked_partitions(n))
        images = [to_bipartition(mp) for mp in mps]
        expected = sum(
            partition_count(k) * partition_count(n - k) for k in range(n + 1)
        )
        ok = (
            len(set(images)) == len(images)
            and set(images) == set(bipartitions(n))
            and len(mps) == expected
            and all(
                from_bipartition(bp) == mp for mp, bp in zip(mps, images)
            )
        )
        c.add(f"bijection n={n}", ok, f"{len(mps)} orbits")
    return c


def _suite_wdlambda(long: bool = False) -> _Checks:
    c = _Checks()
    for n in range(6):
        ambient = exotic_weights(n)
        count = 0
        ok = True
        for mp in marked_partitions(n):
            direct = set(stable_weights(mp))
            predicted = {wt for wt in ambient if is_stable_weight(mp, wt)}
            if direct != predicted:
                ok = False
            count += 1
        c.add(
            f"stable weight predicate n={n}",
            ok,
            f"{count} marked partitions x {len(ambient)} weights",
        )
    return c


def _root_product(bp: BiPartition) -> MultiPoly:
    """The block product multiplied out one linear form at a time:
    (e_k - e_l)(e_k + e_l) for k < l in one flag block, times e_k for every
    k past the |mu| anchor."""
    d = block_boundaries(bp)
    n = bp.size

    def form(k, l, sign):
        wt = [0] * n
        wt[k - 1], wt[l - 1] = 1, sign
        return linear_form(wt)

    f = MultiPoly.one(n)
    for b in range(len(d) - 1):
        for k in range(d[b] + 1, d[b + 1] + 1):
            for l in range(k + 1, d[b + 1] + 1):
                f = f * form(k, l, -1) * form(k, l, 1)
    for k in range(bp.mu.size + 1, n + 1):
        f = f * MultiPoly.variable(k, n)
    return f


def _full_group_span(seed: MultiPoly, n: int) -> list[MultiPoly]:
    """Reduced echelon basis of the span of all 2^n n! Weyl images of
    seed, from one row reduction over every image."""
    images = [act_on_poly(w, seed) for w in weyl_group(n)]
    monomials = sorted(
        {e for f in images for e in f.terms},
        key=lambda e: (sum(e), e),
        reverse=True,
    )
    if not monomials:
        return []
    red, pivots = row_reduce(
        Matrix([[f.terms.get(e, 0) for e in monomials] for f in images])
    )
    return [
        MultiPoly(n, {m: c for m, c in zip(monomials, red.rows[r]) if c})
        for r in range(len(pivots))
    ]


def _tangent_matrix(v: ExoticVector) -> Matrix:
    """The differential at v of the orbit map, X -> (X x1, X x2 + x2 X^T)
    on sp(2n) = {J S : S symmetric}: one row per S = E_ab + E_ba, a <= b,
    whose columns are the x1 coordinates, then the upper x2 coordinates in
    :func:`alt_coords` order.

    Column a of J has one entry s = J[r, a]: +1 at r = a + n, -1 at
    r = a - n.  So J S is a sum of two unit matrices s E_rc, one for
    (a, c = b) and one for (b, c = a), and s E_rc moves x1 by s x1[c] at r
    and x2 by s (x2[c, j] at (r, j) plus x2[i, c] at (i, r)).
    """
    n, size = v.n, 2 * v.n
    x1, x2 = v.x1, v.x2.rows
    col = {(i - 1, j - 1): size + k for k, (i, j) in enumerate(alt_coords(n))}
    partner = [(a + n, 1) for a in range(n)]
    partner += [(a - n, -1) for a in range(n, size)]
    rows = []
    for a in range(size):
        for b in range(a, size):
            row = [0] * (size + len(col))
            for r, s, c in (partner[a] + (b,), partner[b] + (a,)):
                row[r] += s * x1[c]
                for j in range(r + 1, size):
                    row[col[(r, j)]] += s * x2[c][j]
                for i in range(r):
                    row[col[(i, r)]] += s * x2[i][c]
            rows.append(row)
    return Matrix(rows)


def _suite_degree(long: bool = False) -> _Checks:
    c = _Checks()
    for n in range(9):
        ok = True
        count = 0
        for mp in marked_partitions(n):
            gap = cone_dim(n) - orbit_dim(mp)
            poly = macdonald_poly(to_bipartition(mp))
            if gap % 2 or poly.degree() != gap // 2:
                ok = False
            count += 1
        c.add(f"degree law n={n}", ok, f"{count} orbits")
    for n in range(6):
        bps = list(bipartitions(n))
        ok = all(macdonald_poly(bp) == _root_product(bp) for bp in bps)
        c.add(
            f"block product equals root product n={n}",
            ok,
            f"{len(bps)} bi-partitions",
        )
    for n in range(1, 4):
        ambient = exotic_weights(n)
        cells = [
            Presentation(ambient, stable_weights(mp))
            for mp in marked_partitions(n)
        ]
        cells.append(Presentation(positive_roots(n)))
        ok = all(joseph_poly(p) == lowest_term(k_polynomial(p)) for p in cells)
        c.add(
            f"joseph poly equals lowest K-term n={n}",
            ok,
            f"{len(cells) - 1} exotic presentations + ordinary sign cell",
        )
    # a block product is an eigenvector of every sign flip, so its span
    # under the permutations alone is already complete; adding 1 to the
    # translate gives seeds that need the sign-flip reflection as well
    rng = random.Random(20261018)
    for n in range(5):
        group = weyl_group(n)
        seeds = []
        for bp in bipartitions(n):
            seed = act_on_poly(rng.choice(group), macdonald_poly(bp))
            seeds.append(seed)
            if n <= 3:
                seeds.append(seed + 1)
        ok = True
        for seed in seeds:
            full = _full_group_span(seed, n)
            if macdonald_span(seed, n) != (len(full), full):
                ok = False
        c.add(
            f"saturated span equals full-group span n={n}",
            ok,
            f"{len(seeds)} seeds x {len(group)} group elements",
        )
    # the orbit through v has the dimension of its tangent space at v
    top = 6 if long else 4
    orbits = [mp for n in range(1, top + 1) for mp in marked_partitions(n)]
    ok = all(
        rank(_tangent_matrix(representative(mp))) == orbit_dim(mp)
        for mp in orbits
    )
    c.add(
        f"tangent rank equals orbit_dim n=1..{top}",
        ok,
        f"{len(orbits)} orbits",
    )
    return c


_W_E1 = (1, 0)
_W_E2 = (0, 1)
_W_SUM = (1, 1)
_W_DIF = (1, -1)
_W_2E1 = (2, 0)
_W_2E2 = (0, 2)


def _poly2(terms) -> MultiPoly:
    return MultiPoly(2, terms)


def _exotic_cells_n2():
    """The five orbit cells of the rank-two table: label, marked partition,
    presentation members as (span, expected Joseph polynomial, designated).
    The designated member is the one the block polynomial matches up to a
    positive scalar; the other members are checked exactly only."""
    return (
        (
            "trivial",
            MarkedPartition((2,), (2,)),
            (((_W_E1, _W_E2, _W_SUM, _W_DIF), MultiPoly.one(2), True),),
        ),
        (
            "regular",
            MarkedPartition((2,), (1,)),
            (
                ((_W_E1, _W_E2, _W_SUM), _poly2({(1, 0): 1, (0, 1): -1}), False),
                ((_W_E1, _W_SUM, _W_DIF), _poly2({(0, 1): 1}), True),
            ),
        ),
        (
            "long sign",
            MarkedPartition((2,), (0,)),
            (((_W_SUM, _W_DIF), _poly2({(1, 1): 1}), True),),
        ),
        (
            "short sign",
            MarkedPartition((1, 1), (0, 1)),
            (((_W_E1, _W_E2), _poly2({(2, 0): 1, (0, 2): -1}), True),),
        ),
        (
            "sign",
            MarkedPartition((1, 1), (0, 0)),
            (((), _poly2({(3, 1): 1, (1, 3): -1}), True),),
        ),
    )


def _ordinary_cells_n2():
    """Label, span, equations, expected Joseph polynomial; exact including
    integer scalars."""
    return (
        ("sign", (), (), _poly2({(3, 1): 4, (1, 3): -4})),
        (
            "short sign",
            (_W_2E1, _W_2E2, _W_SUM),
            ((2, 2),),
            _poly2({(2, 0): 2, (0, 2): -2}),
        ),
        (
            "regular a",
            (_W_SUM, _W_2E1, _W_2E2),
            (),
            _poly2({(1, 0): 1, (0, 1): -1}),
        ),
        (
            "regular b",
            (_W_DIF, _W_SUM, _W_2E1),
            (),
            _poly2({(0, 1): 2}),
        ),
        ("trivial", (_W_DIF, _W_SUM, _W_2E1, _W_2E2), (), MultiPoly.one(2)),
    )


def _suite_table_n2(long: bool = False) -> _Checks:
    c = _Checks()
    exotic = exotic_weights(2)
    for label, mp, members in _exotic_cells_n2():
        block = macdonald_poly(to_bipartition(mp))
        ok = True
        ratios = []
        for span, expected, designated in members:
            got = joseph_poly(Presentation(exotic, span))
            if got != expected:
                ok = False
            if designated:
                ratio = _scalar_ratio(got, block)
                if ratio is None or ratio <= 0:
                    ok = False
                else:
                    ratios.append(str(ratio))
        c.add(
            f"exotic {label}",
            ok,
            f"{len(members)} member(s), block ratio {','.join(ratios)}",
        )
    ordinary = positive_roots(2)
    for label, span, eqs, expected in _ordinary_cells_n2():
        got = joseph_poly(Presentation(ordinary, span, eqs))
        c.add(f"ordinary {label}", got == expected, got.text())
    return c


def _suite_macdonald(long: bool = False) -> _Checks:
    c = _Checks()
    for n in range(4):
        ok = True
        count = 0
        for bp in bipartitions(n):
            dim, _ = macdonald_span(macdonald_poly(bp), n)
            if dim != irrep_dim(bp):
                ok = False
            count += 1
        c.add(f"span dimensions n={n}", ok, f"{count} bi-partitions")
    table_order = (
        BiPartition(Partition(), Partition((1, 1))),
        BiPartition(Partition((1, 1)), Partition()),
        BiPartition(Partition(), Partition((2,))),
        BiPartition(Partition((1,)), Partition((1,))),
        BiPartition(Partition((2,)), Partition()),
    )
    dims = tuple(macdonald_span(macdonald_poly(bp), 2)[0] for bp in table_order)
    c.add("rank-two table dimensions", dims == (1, 1, 1, 2, 1), str(dims))
    return c


def _generic_alternating(size: int) -> Matrix:
    """Alternating matrix with one variable per upper entry."""
    coords = [(i, j) for i in range(size) for j in range(i + 1, size)]
    nv = len(coords)
    col = {pair: k for k, pair in enumerate(coords)}
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == j:
                row.append(MultiPoly.zero(nv))
            elif i < j:
                row.append(MultiPoly.variable(col[(i, j)] + 1, nv))
            else:
                row.append(-MultiPoly.variable(col[(j, i)] + 1, nv))
        rows.append(row)
    return Matrix(rows)


def _alt_values(n: int, upper: dict, nvars: int) -> list[MultiPoly]:
    """Values for the invariant-poly variables: upper maps a 1-based (i, j)
    pair to a polynomial; missing pairs are zero."""
    size = 2 * n
    vals = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            vals.append(upper.get((i, j), MultiPoly.zero(nvars)))
    return vals


def _on_zero_locus(v: ExoticVector) -> bool:
    """Whether every defining equation P_i vanishes at the x2 part of v,
    by evaluating the expanded invariants."""
    vals = [v.x2.rows[i - 1][j - 1] for i, j in alt_coords(v.n)]
    return all(p.evaluate(vals) == 0 for p in invariant_polys(v.n))


def _near_cone(v: ExoticVector, rng: random.Random, cells) -> ExoticVector:
    """v with +-1 added to the x2 entry at one seeded cell (i, j), kept
    alternating."""
    i, j = rng.choice(cells)
    delta = rng.choice((1, -1))
    rows = [list(r) for r in v.x2.rows]
    rows[i - 1][j - 1] += delta
    rows[j - 1][i - 1] -= delta
    return ExoticVector(v.n, v.x1, Matrix(rows))


def _membership_cases(n: int, rng: random.Random) -> list[ExoticVector]:
    """Every orbit representative of rank n, each followed by two near-cone
    points: one differs from it in one seeded x2 entry, the other in one
    seeded (i, n+i) entry.  tr(x2 J) = 2 sum_i x2[i][n+i], so the second
    point always has a nonzero trace and lies off the cone."""
    cells = alt_coords(n)
    diagonal = [(i, n + i) for i in range(1, n + 1)]
    out = []
    for mp in marked_partitions(n):
        v = representative(mp)
        out.extend((v, _near_cone(v, rng, cells), _near_cone(v, rng, diagonal)))
    return out


def _suite_pfaffian(long: bool = False) -> _Checks:
    c = _Checks()
    for size in (2, 4, 6):
        m = _generic_alternating(size)
        c.add(
            f"expansion matches definition, size {size}",
            pfaffian(m) == _pfaffian_term_sum(m),
            f"{len(pfaffian(m).terms)} terms",
        )
    rng = random.Random(20260816)
    ok = True
    for _ in range(20):
        ent = {}
        for i in range(6):
            for j in range(i + 1, 6):
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                ent[(i, j)] = v
                ent[(j, i)] = -v
        m = Matrix.from_entries(6, 6, ent)
        if pfaffian(m) ** 2 != m.det():
            ok = False
    c.add("square equals determinant", ok, "20 random rational 6x6")
    for n in range(1, 6 if long else 5):
        polys = invariant_polys(n)
        c.add(
            f"minor summation equals recursive expansion n={n}",
            polys == _invariant_polys_by_expansion(n),
            f"{sum(len(p.terms) for p in polys)} terms",
        )
    top = 5 if long else 3
    for n in range(1, top + 1):
        ny = n * (n - 1) // 2
        nz = n * n
        nv = ny + nz
        ypairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

        def yvar(i, j):
            if i == j:
                return MultiPoly.zero(nv)
            if i < j:
                return MultiPoly.variable(ypairs.index((i, j)) + 1, nv)
            return -MultiPoly.variable(ypairs.index((j, i)) + 1, nv)

        def zvar(i, j):
            return MultiPoly.variable(ny + (i - 1) * n + j, nv)

        with_y = {}
        zeroed = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                with_y[(i, j)] = yvar(i, j)
            for j in range(1, n + 1):
                with_y[(i, n + j)] = zvar(i, j)
                zeroed[(i, n + j)] = zvar(i, j)
        ok = all(
            p.evaluate(_alt_values(n, with_y, nv))
            == p.evaluate(_alt_values(n, zeroed, nv))
            for p in invariant_polys(n)
        )
        c.add(
            f"upper block drops out n={n}",
            ok,
            "P_i([[Y, Z], [-tZ, 0]]) == P_i([[0, Z], [-tZ, 0]])",
        )
    for n in range(1, top + 1):
        sign = pfaffian(symplectic_form(n))
        c.add(
            f"form pfaffian n={n}",
            sign == (-1) ** (n * (n + 1) // 2),
            f"Pf(J) = {sign}",
        )
        nv = 1 + n * n

        def t():
            return MultiPoly.variable(1, nv)

        def yv(i, j):
            return MultiPoly.variable(1 + (i - 1) * n + j, nv)

        rows = []
        for a in range(2 * n):
            row = []
            for b in range(2 * n):
                i, j = a + 1, b + 1
                if i <= n < j:
                    entry = yv(i, j - n) - (t() if j - n == i else 0)
                elif j <= n < i:
                    entry = (t() if i - n == j else 0) - yv(j, i - n)
                else:
                    entry = MultiPoly.zero(nv)
                row.append(entry)
            rows.append(row)
        raw = pfaffian(Matrix(rows))
        char_matrix = Matrix(
            [
                [
                    (t() if i == j else 0) - yv(i, j)
                    for j in range(1, n + 1)
                ]
                for i in range(1, n + 1)
            ]
        )
        char_poly = char_matrix.det()
        c.add(
            f"raw restriction n={n}",
            raw == char_poly * sign,
            "Pf(tJ - X) = Pf(J) det(t1 - Y)",
        )
        upper = {
            (i, n + j): -yv(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        vals = _alt_values(n, upper, nv)
        total = t() ** n
        for i, p in enumerate(invariant_polys(n), start=1):
            total = total + t() ** (n - i) * p.evaluate(vals)
        c.add(
            f"normalized restriction n={n}",
            total == char_poly,
            "sum t^{n-i} P_i = det(t1 - Y)",
        )
    rng = random.Random(20261019)
    for n in (1, 2, 3):
        cases = _membership_cases(n, rng)
        zero = [_on_zero_locus(v) for v in cases]
        c.add(
            f"nilpotency equals invariant zero locus n={n}",
            [is_in_nilcone(v) for v in cases] == zero,
            f"{len(cases)} points, {zero.count(False)} off the cone",
        )
    return c


def _suite_roundtrip(long: bool = False) -> _Checks:
    c = _Checks()
    for n in range(9 if long else 6):
        count = 0
        ok = True
        for mp in marked_partitions(n):
            if marked_invariant(representative(mp)) != mp:
                ok = False
            count += 1
        c.add(f"representative roundtrip n={n}", ok, f"{count} orbits")
    return c


def _suite_charp(long: bool = False) -> _Checks:
    c = _Checks()
    frozen = {(1, 2): 4, (1, 4): 16}
    cases = [(1, 2), (1, 4), (2, 2)]
    if long:
        cases.append((2, 4))
    for n, q in cases:
        report = verify_transport(n, q, long=long)
        # Steinberg: sp_2n(F_q) has q^(2 n^2) nilpotent elements
        steinberg = q ** (2 * n * n)
        ok = (
            report["ml_bijective"]
            and report["exotic"] == report["nilpotent"] == steinberg
        )
        if (n, q) in frozen:
            ok = ok and report["exotic"] == frozen[(n, q)]
        c.add(
            f"transport n={n} q={q}",
            ok,
            f"exotic={report['exotic']} nilpotent={report['nilpotent']}"
            f" q^(2n^2)={steinberg}",
        )
    return c


def _suite_dconvention(long: bool = False) -> _Checks:
    c = _Checks()
    identity_by_n = []
    for n in range(7):
        bps = list(bipartitions(n))
        ok_tr = all(
            _macdonald_poly_direct(bp.mu.transpose(), bp.nu.transpose())
            == macdonald_poly(bp)
            for bp in bps
        )
        identity_by_n.append(
            all(
                _macdonald_poly_direct(bp.mu, bp.nu) == macdonald_poly(bp)
                for bp in bps
            )
        )
        c.add(
            f"transpose convention n={n}",
            ok_tr,
            f"{len(bps)} bi-partitions",
        )
    unique = not any(identity_by_n[2:])
    c.add(
        "convention is unique",
        unique,
        "identity candidate fails for every n >= 2",
    )
    return c


def _suite_all(long: bool = False) -> _Checks:
    c = _Checks()
    for name in _ORDER:
        if name == "all":
            continue
        sub = _SUITES[name](long)
        c.lines.extend(sub.lines)
        if not sub.ok:
            c.ok = False
    return c


_SUITES: dict[str, Callable[[bool], _Checks]] = {
    "bijection": _suite_bijection,
    "roundtrip": _suite_roundtrip,
    "wdlambda": _suite_wdlambda,
    "degree": _suite_degree,
    "table-n2": _suite_table_n2,
    "macdonald": _suite_macdonald,
    "pfaffian": _suite_pfaffian,
    "charp": _suite_charp,
    "dconvention": _suite_dconvention,
    "all": _suite_all,
}
_ORDER = tuple(_SUITES)


def suite_names() -> tuple[str, ...]:
    return _ORDER


def run_suite(name: str, long: bool = False) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(_ORDER)}"
        )
    checks = _SUITES[name](long)
    return SuiteReport(name, checks.ok, tuple(checks.lines))
