"""The four seeded workloads of the exocone benchmark.

Each workload is a ``setup`` that fills the once-per-process caches it
relies on and a ``generate`` that turns a seeded ``random.Random`` into the
list of operations one pass runs.  An operation is a zero-argument call into
the library plus a check of its output by an independent route; inputs and
expected values are built here, before any timing, so the library only ever
sees the generated inputs.

The calls look functions up on the ``exocone`` modules at call time, so the
span wrappers of :mod:`spans` see every call once they are installed.
"""

import contextlib
import importlib
import io
import json
import random
import sys
import traceback
from fractions import Fraction
from typing import Callable, NamedTuple

# by module path: the package rebinds ``exocone.partitions`` to the function
algebra, charp, cli, joseph, nilcone, partitions, weyl = (
    importlib.import_module(f"exocone.{name}")
    for name in ("algebra", "charp", "cli", "joseph", "nilcone", "partitions", "weyl")
)


class Op(NamedTuple):
    """One checked operation.

    ``probe`` marks a request that reproduces a known break of the command
    line contract (bad input must exit 2 with a one-line error; every
    subcommand honours ``--format``).  A probe that fails lowers ``ok_frac``
    like any other operation, but is not counted as a wrong result.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    probe: bool = False


# ---------------------------------------------------------------------------
# integer linear algebra of the benchmark's own, independent of exocone


def _form(n: int) -> list[list[int]]:
    size = 2 * n
    j = [[0] * size for _ in range(size)]
    for i in range(n):
        j[i][n + i] = -1
        j[n + i][i] = 1
    return j


def _mul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a]


def _trace_depth(x2, n: int) -> int:
    """The least k with tr((x2 J)^k) != 0, or 0 when x2 J is nilpotent.

    The characteristic polynomial of x2 J is the square of the Pfaffian
    one, so this is the first defining equation that does not vanish, and
    it is at most n.
    """
    m = _mul(x2, _form(n))
    power = m
    for k in range(1, n + 1):
        if sum(power[i][i] for i in range(2 * n)):
            return k
        power = _mul(power, m)
    return 0


def _is_nilpotent(x2, n: int) -> bool:
    """Whether (x2 J)^(2n) = 0, by repeated squaring."""
    power = _mul(x2, _form(n))
    for _ in range((2 * n - 1).bit_length()):
        power = _mul(power, power)
    return not any(any(r) for r in power)


def _transvection(n: int, rng: random.Random) -> tuple[int, list[int]]:
    """(c, v) of a random integer symplectic transvection
    x -> x + c (v^T J x) v, with c = +-1 and v a unit vector or a sum of
    two."""
    size = 2 * n
    v = [0] * size
    i = rng.randrange(size)
    v[i] = 1
    if rng.random() < 0.5:
        j = rng.choice([k for k in range(size) if k != i])
        v[j] = rng.choice((1, -1))
    return rng.choice((1, -1)), v


def _transvect(n, c, v, x1, x2):
    """The action of the transvection T = 1 + c v v^T J on the exotic space,
    (T x1, T x2 T^T) = (x1 + c <v, x1> v, x2 + c (b v^T - v b^T)) with
    <v, x> = v^T J x and b = x2 J^T v; the quadratic term of T x2 T^T
    vanishes because x2 is alternating."""
    u = v[n:] + [-a for a in v[:n]]  # u^T = v^T J
    s = c * sum(a * b for a, b in zip(u, x1))
    y1 = [a + s * b for a, b in zip(x1, v)]
    bv = [c * sum(a * b for a, b in zip(row, u)) for row in x2]
    y2 = [
        [e + bi * vj - vi * bj for e, vj, bj in zip(row, v, bv)]
        for row, bi, vi in zip(x2, bv, v)
    ]
    return y1, y2


def _dense_conjugate(n, x1, x2, rng, low, high):
    """A seeded Sp(2n, Z) conjugate of (x1, x2): transvections are applied
    one at a time, skipping any that would push an entry past ``high``,
    until the largest entry reaches ``low``.  The band keeps the cost of
    conjugates alike from seed to seed."""
    while True:
        y1, y2 = x1, x2
        top = max(abs(e) for e in y1 + [e for r in y2 for e in r])
        for _ in range(400):
            if top >= low or top == 0:
                return y1, y2
            z1, z2 = _transvect(n, *_transvection(n, rng), y1, y2)
            z_top = max(abs(e) for e in z1 + [e for r in z2 for e in r])
            if z_top <= high:
                y1, y2, top = z1, z2, z_top


def _point(n, x1, x2):
    return nilcone.ExoticVector(n, x1, algebra.Matrix(x2))


def _point_json(n, x1, x2) -> str:
    upper = [
        [i + 1, j + 1, str(x2[i][j])]
        for i in range(2 * n)
        for j in range(i + 1, 2 * n)
        if x2[i][j]
    ]
    return json.dumps({"n": n, "x1": [str(c) for c in x1], "x2_upper": upper})


def _rows(v):
    return [int(c) for c in v.x1], [[int(e) for e in r] for r in v.x2.rows]


def _linear_product(weights, n: int) -> dict:
    """Expanded prod <w, e> over weights, as {exponent: coefficient}."""
    poly = {(0,) * n: 1}
    for w in weights:
        out = {}
        for exp, c in poly.items():
            for i, wi in enumerate(w):
                if wi:
                    e = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                    out[e] = out.get(e, 0) + c * wi
        poly = {e: c for e, c in out.items() if c}
    return poly


def _partition_count(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def _bipartition_count(n: int) -> int:
    return sum(_partition_count(k) * _partition_count(n - k) for k in range(n + 1))


def _exotic_weight_set(n: int) -> list[tuple[int, ...]]:
    def unit(i, c=1):
        w = [0] * n
        w[i] = c
        return w

    wts = [tuple(unit(i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                w = unit(i)
                w[j] = s
                wts.append(tuple(w))
    return wts


# ---------------------------------------------------------------------------
# classify: orbit classification and cone membership at n = 4 and 5

CLASSIFY_SIZES = (4, 5)
CLASSIFY_CONJUGATES = 2  # dense conjugates per orbit representative
CLASSIFY_BAND = (25, 50)  # largest |entry| of a conjugate
NEAR_PER_DEPTH = 2  # near-cone points per first non-vanishing invariant


def setup_classify() -> None:
    for n in CLASSIFY_SIZES:
        nilcone.invariant_polys(n)


def _classify_op(label, n, x1, x2, mp):
    if not _is_nilpotent(x2, n):
        raise RuntimeError(f"generated cone point {label} is off the cone")
    v = _point(n, x1, x2)
    return Op(label, lambda: nilcone.marked_invariant(v), lambda out: out == mp)


def _near_op(label, n, x1, x2):
    v = _point(n, x1, x2)
    return Op(label, lambda: nilcone.is_in_nilcone(v), lambda out: out is False)


def generate_classify(rng: random.Random) -> list[Op]:
    ops = []
    for n in CLASSIFY_SIZES:
        reps = [(mp, _rows(nilcone.representative(mp))) for mp in partitions.marked_partitions(n)]
        for mp, (x1, x2) in reps:
            ops.append(_classify_op(f"representative n={n} {mp}", n, x1, x2, mp))
            for _ in range(CLASSIFY_CONJUGATES):
                y1, y2 = _dense_conjugate(n, x1, x2, rng, *CLASSIFY_BAND)
                ops.append(_classify_op(f"conjugate n={n} {mp}", n, y1, y2, mp))
        # one x2 entry added to a representative: bucket by the first
        # invariant that does not vanish, so rejection stops at every depth
        wanted = {k: NEAR_PER_DEPTH for k in range(1, n + 1)}
        cells = [
            (r, i, j, s)
            for r in range(len(reps))
            for i in range(2 * n)
            for j in range(i + 1, 2 * n)
            for s in (1, -1)
        ]
        rng.shuffle(cells)
        for r, i, j, s in cells:
            if not any(wanted.values()):
                break
            mp, (x1, x2) = reps[r]
            y2 = [row[:] for row in x2]
            y2[i][j] += s
            y2[j][i] -= s
            depth = _trace_depth(y2, n)
            if wanted.get(depth):
                if _is_nilpotent(y2, n):
                    raise RuntimeError("near-cone point is on the cone")
                wanted[depth] -= 1
                z1, z2 = _dense_conjugate(n, x1, y2, rng, *CLASSIFY_BAND)
                if _trace_depth(z2, n) != depth:
                    raise RuntimeError("conjugation changed the trace depth")
                ops.append(_near_op(f"near-cone n={n} depth={depth}", n, z1, z2))
        if any(wanted.values()):
            raise RuntimeError(f"no near-cone point for depths {wanted} at n={n}")
    return ops


# ---------------------------------------------------------------------------
# polys: Macdonald block products, their Weyl spans, Joseph polynomials

POLYS_DEGREE_N = 8
POLYS_SPAN_N = 4
POLYS_JOSEPH_N = 3


def setup_polys() -> None:
    for n in (POLYS_DEGREE_N, POLYS_SPAN_N, POLYS_JOSEPH_N):
        partitions.from_bipartition(partitions.bipartition((n,)))
    weyl.weyl_group(POLYS_SPAN_N)


def _homogeneous_of(degree):
    return lambda f: bool(f.terms) and all(sum(e) == degree for e in f.terms)


def generate_polys(rng: random.Random) -> list[Op]:
    ops = []
    n = POLYS_DEGREE_N
    for bp in partitions.bipartitions(n):
        gap = nilcone.cone_dim(n) - nilcone.orbit_dim(partitions.from_bipartition(bp))
        if gap % 2:
            raise RuntimeError(f"odd codimension for {bp}")
        ops.append(
            Op(
                f"macdonald_poly {bp.mu}|{bp.nu}",
                lambda bp=bp: joseph.macdonald_poly(bp),
                _homogeneous_of(gap // 2),
            )
        )
    n = POLYS_SPAN_N
    group = weyl.weyl_group(n)
    for bp in partitions.bipartitions(n):
        # a seeded Weyl translate of the block product spans the same space
        seed = weyl.act_on_poly(rng.choice(group), joseph.macdonald_poly(bp))
        dim = joseph.irrep_dim(bp)
        ops.append(
            Op(
                f"macdonald_span {bp.mu}|{bp.nu}",
                lambda seed=seed: joseph.macdonald_span(seed, POLYS_SPAN_N),
                lambda out, dim=dim: out[0] == dim and len(out[1]) == dim,
            )
        )
    n = POLYS_JOSEPH_N
    ambient = weyl.exotic_weights(n)
    cells = [
        (f"joseph exotic {mp}", joseph.Presentation(ambient, weyl.stable_weights(mp)))
        for mp in partitions.marked_partitions(n)
    ]
    cells.append(("joseph ordinary sign cell", joseph.Presentation(weyl.positive_roots(n))))
    for label, pres in cells:
        spanned = set(pres.span)
        missing = [w for w in pres.ambient if w not in spanned] + list(pres.equations)
        want = _linear_product(missing, n)
        ops.append(
            Op(
                label,
                lambda pres=pres: joseph.joseph_poly(pres),
                lambda out, want=want: out.terms == want,
            )
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# fields: point counts over GF(2) and GF(4)

FIELDS_CASES = ((1, 2), (1, 4), (2, 2))
# Runs per pass of the n = 1 operations (the n = 2 ones run once): enough
# samples per pass, and weights that put both the median and the 90th
# percentile inside the block of verify_transport n=1 q=4 latencies
# (~30 ms), away from an edge between two operations.  On a shared machine
# the medians of the 2-10 ms operations spread up to four times as much
# from run to run, because they speed up more in the machine's fast spells.
FIELDS_REPEAT = {
    "count_exotic_points n=1 q=2": 2,
    "count_exotic_points n=1 q=4": 2,
    "count_nilpotent_points n=1 q=2": 2,
    "count_nilpotent_points n=1 q=4": 3,
    "verify_transport n=1 q=2": 2,
    "verify_transport n=1 q=4": 24,
}


def setup_fields() -> None:
    for n in sorted({n for n, _ in FIELDS_CASES}):
        nilcone.invariant_polys(n)


def _steinberg(n: int, q: int) -> int:
    """Number of nilpotent elements of sp_2n(F_q): q^(2 n^2)."""
    return q ** (2 * n * n)


def generate_fields(rng: random.Random) -> list[Op]:
    ops = []
    for n, q in FIELDS_CASES:
        want = _steinberg(n, q)
        cell = [
            Op(
                f"verify_transport n={n} q={q}",
                lambda n=n, q=q: charp.verify_transport(n, q),
                lambda out, want=want: out["exotic"] == want
                and out["nilpotent"] == want
                and out["ml_bijective"] is True,
            ),
            Op(
                f"count_exotic_points n={n} q={q}",
                lambda n=n, q=q: charp.count_exotic_points(n, q),
                lambda out, want=want: out == want,
            ),
            Op(
                f"count_nilpotent_points n={n} q={q}",
                lambda n=n, q=q: charp.count_nilpotent_points(n, q),
                lambda out, want=want: out == want,
            ),
        ]
        for op in cell:
            ops.extend([op] * FIELDS_REPEAT.get(op.label, 1))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: in-process requests to exocone.cli.main


class CliResult(NamedTuple):
    code: int | None
    out: str
    err: str
    exc: str | None  # the traceback of an exception that escaped main

    def __repr__(self) -> str:
        escaped = self.exc.strip().splitlines()[-1] if self.exc else None
        return f"exit {self.code}, escaped {escaped!r}, stderr {self.err[:100]!r}, stdout {self.out[:100]!r}"


def run_cli(argv: list[str], stdin: str = "") -> CliResult:
    """Call ``exocone.cli.main(argv)`` with its standard streams redirected.

    An exception escaping ``main`` would print a traceback from the real
    command; it is captured instead of raised.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    code, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
            except Exception:
                exc = traceback.format_exc()
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue(), err.getvalue(), exc)


def expect_ok(parse: Callable[[str], bool]) -> Callable[[CliResult], bool]:
    """Exit 0, nothing on stderr, and ``parse(stdout)`` true."""
    return lambda r: r.exc is None and r.code == 0 and not r.err and parse(r.out)


def expect_exit2(r: CliResult) -> bool:
    """Exit 2 with a one-line ``error:`` message and no traceback."""
    lines = r.err.strip().splitlines()
    return (
        r.exc is None
        and r.code == 2
        and len(lines) == 1
        and lines[0].startswith("error:")
    )


def _parse_poly_text(text: str, n: int) -> dict:
    """Parse the text form of a polynomial in e1..en."""
    text = text.strip()
    if text == "0":
        return {}
    poly = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff, exp = Fraction(1), [0] * n
        for factor in tok.split("*"):
            if factor.startswith("e"):
                var, _, power = factor[1:].partition("^")
                exp[int(var) - 1] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        poly[tuple(exp)] = poly.get(tuple(exp), 0) + sign * coeff
        sign = 1
    return poly


def _poly_of(out: str, fmt: str, n: int) -> dict:
    if fmt == "json":
        data = json.loads(out)
        if data["vars"] != n:
            raise ValueError("wrong variable count")
        return {tuple(t["e"]): Fraction(t["c"]) for t in data["terms"]}
    return _parse_poly_text(out, n)


def _marked_of(out: str, fmt: str):
    if fmt == "json":
        data = json.loads(out)
        return partitions.MarkedPartition(data["lambda"], data["a"])
    fields = dict(tok.split("=") for tok in out.split())
    return partitions.MarkedPartition(_ints(fields["lambda"]), _ints(fields["a"]))


def _bipartition_of(out: str, fmt: str):
    if fmt == "json":
        data = json.loads(out)
        return partitions.bipartition(data["mu"], data["nu"])
    fields = dict(tok.split("=") for tok in out.split())
    return partitions.bipartition(_ints(fields["mu"]), _ints(fields["nu"]))


def _ints(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(p) for p in text.split(","))


def _csv(parts) -> str:
    return ",".join(str(p) for p in parts)


def _mp_args(mp) -> list[str]:
    return ["--lambda", _csv(mp.lam), "--a", _csv(mp.marks)]


def _signed_image(out: str, fmt: str, n: int) -> tuple[int, ...]:
    if fmt == "json":
        return tuple(p * s for p, s in json.loads(out)["image"])
    image = []
    for i, piece in enumerate(out.strip().split(", "), start=1):
        src, _, dst = piece.partition(" -> ")
        if src != f"e{i}":
            raise ValueError(f"unexpected piece {piece!r}")
        image.append(-int(dst[2:]) if dst.startswith("-") else int(dst[1:]))
    if len(image) != n:
        raise ValueError("wrong rank")
    return tuple(image)


def _apply_signed(image, wt) -> tuple[int, ...]:
    out = [0] * len(wt)
    for i, c in enumerate(wt):
        if c:
            v = image[i]
            out[abs(v) - 1] += c if v > 0 else -c
    return tuple(out)


CLI_VERIFY_SUITES = (
    "bijection",
    "roundtrip",
    "wdlambda",
    "table-n2",
    "macdonald",
    "pfaffian",
    "dconvention",
)
CLI_MAX_N = 4  # every orbit and bi-partition up to this size is requested


def setup_cli() -> None:
    """Nothing beyond the import: requests pay their own cold caches."""


def _cli_op(label, argv, check, stdin="", probe=False):
    return Op(label, lambda: run_cli(argv, stdin), check, probe)


def generate_cli(rng: random.Random) -> list[Op]:
    """Every subcommand over every small orbit, so that the mix of costs is
    the same for every seed; the seed picks the output formats and the
    order."""
    ops = []
    fmt = lambda: rng.choice(("text", "json"))  # noqa: E731
    small = [mp for n in range(1, CLI_MAX_N + 1) for mp in partitions.marked_partitions(n)]
    small_bps = [bp for n in range(1, CLI_MAX_N + 1) for bp in partitions.bipartitions(n)]

    for suite in CLI_VERIFY_SUITES:
        ops.append(
            _cli_op(
                f"verify {suite}",
                ["verify", "--suite", suite],
                expect_ok(
                    lambda out, suite=suite: out.splitlines()[-1] == f"suite {suite}: PASS"
                    and not any(line.startswith("FAIL") for line in out.splitlines())
                ),
            )
        )

    for n, f in [(n, fmt()) for n in range(6)] + [(6, "text"), (6, "json")]:
        count = _bipartition_count(n)
        parse = (
            (lambda out, count=count: len(json.loads(out)) == count)
            if f == "json"
            else (lambda out, count=count: len(out.splitlines()) == count)
        )
        ops.append(
            _cli_op(f"enumerate n={n} {f}", ["enumerate", "--n", str(n), "--format", f], expect_ok(parse))
        )

    for mp in small:
        n = mp.size
        f = fmt()
        ops.append(
            _cli_op(
                f"convert {mp} {f}",
                ["convert", *_mp_args(mp), "--format", f],
                expect_ok(
                    lambda out, mp=mp, f=f: partitions.from_bipartition(_bipartition_of(out, f)) == mp
                ),
            )
        )
        ops.append(
            _cli_op(
                f"rep {mp}",
                ["rep", *_mp_args(mp), "--format", "json"],
                expect_ok(lambda out, mp=mp: _rep_ok(out, mp)),
            )
        )
        f = fmt()
        # degree law: the orbit has codimension twice the block degree
        want = nilcone.cone_dim(n) - 2 * joseph.macdonald_poly(partitions.to_bipartition(mp)).degree()
        ops.append(
            _cli_op(
                f"dim {mp} {f}",
                ["dim", *_mp_args(mp), "--format", f],
                expect_ok(lambda out, f=f, want=want: _dim_of(out, f) == want),
            )
        )
        f = fmt()
        wts = _exotic_weight_set(n)
        # stability by partition arithmetic, without the special element
        stable = {w for w in wts if weyl.is_stable_weight(mp, w)}
        ops.append(
            _cli_op(
                f"special {mp} {f}",
                ["special", *_mp_args(mp), "--format", f],
                expect_ok(
                    lambda out, f=f, n=n, wts=wts, stable=stable: {
                        w for w in wts if _apply_signed(_signed_image(out, f, n), w) in set(wts)
                    }
                    == stable
                ),
            )
        )
        # in both formats: then p90 falls inside a block of like n = 4
        # classifications (~25 ms), not on the step from 13 to 19 ms between
        # two n = 3 orbits, where it jumped by 40% from run to run
        for f in ("text", "json"):
            ops.append(
                _cli_op(
                    f"invariant {mp} {f}",
                    ["invariant", "--format", f],
                    expect_ok(lambda out, mp=mp, f=f: _marked_of(out, f) == mp),
                    stdin=_point_json(n, *_rows(nilcone.representative(mp))),
                )
            )

    for bp in small_bps:
        n = bp.size
        f = fmt()
        ops.append(
            _cli_op(
                f"convert {bp} {f}",
                ["convert", "--mu", _csv(bp.mu), "--nu", _csv(bp.nu), "--format", f],
                expect_ok(
                    lambda out, bp=bp, f=f: partitions.to_bipartition(_marked_of(out, f)) == bp
                ),
            )
        )
        f = fmt()
        gap = nilcone.cone_dim(n) - nilcone.orbit_dim(partitions.from_bipartition(bp))
        ops.append(
            _cli_op(
                f"dpoly {bp} {f}",
                ["dpoly", "--mu", _csv(bp.mu), "--nu", _csv(bp.nu), "--format", f],
                expect_ok(
                    lambda out, n=n, f=f, d=gap // 2: bool(poly := _poly_of(out, f, n))
                    and all(sum(e) == d for e in poly)
                ),
            )
        )

    n = 2
    cells = [
        (
            f"joseph exotic {mp}",
            ["--ambient", "exotic", "--span", ";".join(_csv(w) for w in weyl.stable_weights(mp))],
            [w for w in _exotic_weight_set(n) if w not in set(weyl.stable_weights(mp))],
        )
        for mp in partitions.marked_partitions(n)
    ]
    cells.append(("joseph ordinary", ["--ambient", "ordinary"], list(weyl.positive_roots(n))))
    for label, extra, missing in cells:
        f = fmt()
        want = _linear_product(missing, n)
        ops.append(
            _cli_op(
                f"{label} {f}",
                ["joseph", "--n", str(n), *extra, "--format", f],
                expect_ok(lambda out, f=f, want=want, n=n: _poly_of(out, f, n) == want),
            )
        )

    for n in range(CLI_MAX_N + 1):
        f = fmt()
        ops.append(
            _cli_op(
                f"dim n={n} {f}",
                ["dim", "--n", str(n), "--format", f],
                expect_ok(lambda out, f=f, want=2 * n * n: _dim_of(out, f) == want),
            )
        )

    for q in (2, 4):
        f = fmt()
        want = _steinberg(1, q)
        ops.append(
            _cli_op(
                f"count n=1 q={q} {f}",
                ["count", "--n", "1", "--q", str(q), "--format", f],
                expect_ok(lambda out, f=f, want=want: _count_ok(out, f, want)),
            )
        )

    # known breaks of the contract, kept in the mix so that fixing them shows
    ops.append(_cli_op("probe invariant object", ["invariant"], expect_exit2, '{"n": 1}', True))
    ops.append(_cli_op("probe invariant list", ["invariant"], expect_exit2, "[1]", True))
    ops.append(
        _cli_op(
            "probe invariant out of range",
            ["invariant"],
            expect_exit2,
            '{"n": 1, "x1": ["0", "0"], "x2_upper": [[1, 5, "1"]]}',
            True,
        )
    )
    ops.append(_cli_op("probe dim n=-1", ["dim", "--n", "-1"], expect_exit2, probe=True))
    ops.append(
        _cli_op(
            "probe convert both labels",
            ["convert", "--lambda", "1", "--a", "1", "--mu", "1"],
            expect_exit2,
            probe=True,
        )
    )
    ops.append(
        _cli_op(
            "probe verify json",
            ["verify", "--suite", "table-n2", "--format", "json"],
            expect_ok(lambda out: json.loads(out) is not None),
            probe=True,
        )
    )
    rng.shuffle(ops)
    return ops


def _rep_ok(out: str, mp) -> bool:
    data = json.loads(out)
    n = data["n"]
    x2 = [[0] * (2 * n) for _ in range(2 * n)]
    for i, j, c in data["x2_upper"]:
        x2[i - 1][j - 1] = int(c)
        x2[j - 1][i - 1] = -int(c)
    x1 = [int(c) for c in data["x1"]]
    return _is_nilpotent(x2, n) and nilcone.marked_invariant(_point(n, x1, x2)) == mp


def _dim_of(out: str, fmt: str) -> int:
    return json.loads(out)["dim"] if fmt == "json" else int(out)


def _count_ok(out: str, fmt: str, want: int) -> bool:
    if fmt == "json":
        data = json.loads(out)
    else:
        data = dict(tok.split("=") for tok in out.split())
        data = {
            "exotic": int(data["exotic"]),
            "nilpotent": int(data["nilpotent"]),
            "ml_bijective": data["ml_bijective"] == "true",
        }
    return data["exotic"] == want and data["nilpotent"] == want and data["ml_bijective"] is True


SETUP = {
    "classify": setup_classify,
    "polys": setup_polys,
    "fields": setup_fields,
    "cli": setup_cli,
}
GENERATE = {
    "classify": generate_classify,
    "polys": generate_polys,
    "fields": generate_fields,
    "cli": generate_cli,
}
