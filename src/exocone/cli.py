"""Command line interface.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on bad
input.  Every subcommand honours ``--format json`` for machine-readable
output; the default text forms are stable one-line renderings, except that
``rep`` prints the JSON point in both formats, the form ``invariant`` reads.

``main(argv)`` returns the exit code (a command line that argparse itself
rejects raises ``SystemExit(2)``) and may be called any number of times in
one process: it builds its argument parser on the first call and reuses it
after that.
"""

import argparse
import functools
import json
import sys

from .joseph import Presentation, joseph_poly, macdonald_poly
from .nilcone import ExoticVector, cone_dim, marked_invariant, orbit_dim, representative
from .charp import verify_transport
from .partitions import (
    BiPartition,
    MarkedPartition,
    Partition,
    from_bipartition,
    marked_partitions,
    to_bipartition,
)
from .verify import run_suite, suite_names
from .weyl import exotic_weights, positive_roots, special_element


def _parse_parts(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_weights(text: str | None, n: int) -> tuple[tuple[int, ...], ...]:
    if not text:
        return ()
    out = []
    for chunk in text.split(";"):
        wt = _parse_parts(chunk)
        if len(wt) != n:
            raise ValueError(f"weight {chunk!r} does not have {n} entries")
        out.append(wt)
    return tuple(out)


def _fmt_parts(parts) -> str:
    parts = [str(p) for p in parts]
    return ",".join(parts) if parts else "-"


def _emit(args, text: str, obj) -> None:
    if args.format == "json":
        print(json.dumps(obj))
    else:
        print(text)


# Largest ranks the subcommands accept, each about 2 s or less on a 2-core
# machine.  Every orbit label (--lambda, and --mu/--nu for convert) shares
# the enumerate limit: the orbit list enumerate prints grows like the square
# of the partition count (37 s at n = 28), the 2n x 2n point of rep took
# 2.4 s at n = 1000, special_element grows about cubically (9.5 s at
# n = 1000) and orbit_dim quadratically (4.75 s at n = 10000).  The
# expanded ordinary Joseph product of n^2 linear forms did not finish in
# 20 s at n = 8, and the block product of --mu 1,...,1 took 7.1 s at n = 9.
# Classifying a point with 95% of its x2 entries nonzero (entries up to
# 54) took 0.06 s at n = 12 and 0.19 s at n = 16, and an invariant request
# at n = 12 took 0.08-0.10 s, since integral entries are parsed as ints.
_MAX_ENUMERATE_N = 20
_MAX_JOSEPH_N = 7
_MAX_DPOLY_N = 8
_MAX_INVARIANT_N = 12


def _check_rank(command: str, n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"{command} supports n <= {limit}, got {n}")


def _marked_from_args(args) -> MarkedPartition:
    lam = _parse_parts(args.lam)
    _check_rank(args.command, sum(lam), _MAX_ENUMERATE_N)
    return MarkedPartition(lam, _parse_parts(args.marks))


def _bipartition_from_args(args, limit: int) -> BiPartition:
    mu, nu = _parse_parts(args.mu), _parse_parts(args.nu)
    _check_rank(args.command, sum(mu) + sum(nu), limit)
    return BiPartition(Partition(mu), Partition(nu))


def _cmd_enumerate(args) -> int:
    _check_rank("enumerate", args.n, _MAX_ENUMERATE_N)
    rows = []
    for mp in marked_partitions(args.n):
        bp = to_bipartition(mp)
        rows.append((mp, bp))
    if args.format == "json":
        print(
            json.dumps(
                [
                    {**mp.to_json(), **bp.to_json()}
                    for mp, bp in rows
                ]
            )
        )
    else:
        for mp, bp in rows:
            print(
                f"lambda={_fmt_parts(mp.lam)} a={_fmt_parts(mp.to_json()['a'])}"
                f" mu={_fmt_parts(bp.mu)} nu={_fmt_parts(bp.nu)}"
            )
    return 0


def _cmd_convert(args) -> int:
    marked = args.lam is not None or args.marks is not None
    if marked and (args.mu is not None or args.nu is not None):
        raise ValueError("convert takes --lambda/--a or --mu/--nu, not both")
    if args.lam is not None:
        mp = _marked_from_args(args)
        bp = to_bipartition(mp)
        _emit(
            args,
            f"mu={_fmt_parts(bp.mu)} nu={_fmt_parts(bp.nu)}",
            bp.to_json(),
        )
        return 0
    if args.mu is not None or args.nu is not None:
        mp = from_bipartition(_bipartition_from_args(args, _MAX_ENUMERATE_N))
        _emit(
            args,
            f"lambda={_fmt_parts(mp.lam)} a={_fmt_parts(mp.to_json()['a'])}",
            mp.to_json(),
        )
        return 0
    raise ValueError("convert needs either --lambda/--a or --mu/--nu")


def _cmd_dpoly(args) -> int:
    poly = macdonald_poly(_bipartition_from_args(args, _MAX_DPOLY_N))
    _emit(args, poly.text(), poly.to_json())
    return 0


def _cmd_joseph(args) -> int:
    _check_rank("joseph", args.n, _MAX_JOSEPH_N)
    if args.ambient == "exotic":
        ambient = exotic_weights(args.n)
    elif args.ambient == "ordinary":
        ambient = positive_roots(args.n)
    else:
        raise ValueError(f"unknown ambient {args.ambient!r}")
    span = (
        ambient
        if args.span == "all"
        else _parse_weights(args.span, args.n)
    )
    eqs = _parse_weights(args.eqs, args.n)
    poly = joseph_poly(Presentation(ambient, span, eqs))
    _emit(args, poly.text(), poly.to_json())
    return 0


def _cmd_invariant(args) -> int:
    try:
        data = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if isinstance(data, dict) and type(data.get("n")) is int:
        _check_rank("invariant", data["n"], _MAX_INVARIANT_N)
    mp = marked_invariant(ExoticVector.from_json(data))
    _emit(
        args,
        f"lambda={_fmt_parts(mp.lam)} a={_fmt_parts(mp.to_json()['a'])}",
        mp.to_json(),
    )
    return 0


def _cmd_rep(args) -> int:
    point = representative(_marked_from_args(args)).to_json()
    # the text form is the JSON point too: it is what invariant reads
    _emit(args, json.dumps(point), point)
    return 0


def _cmd_dim(args) -> int:
    if args.lam is not None and args.n is not None:
        raise ValueError("dim takes --lambda or --n, not both")
    if args.lam is not None:
        value = orbit_dim(_marked_from_args(args))
    elif args.n is not None:
        value = cone_dim(args.n)
    else:
        raise ValueError("dim needs --lambda (orbit) or --n (cone)")
    _emit(args, str(value), {"dim": value})
    return 0


def _cmd_special(args) -> int:
    w = special_element(_marked_from_args(args))
    pieces = []
    for i in range(1, w.n + 1):
        v = w.apply_axis(i)
        target = f"e{abs(v)}" if v > 0 else f"-e{abs(v)}"
        pieces.append(f"e{i} -> {target}")
    _emit(args, ", ".join(pieces), w.to_json())
    return 0


def _cmd_count(args) -> int:
    report = verify_transport(args.n, args.q, long=args.long)
    text = (
        f"exotic={report['exotic']} nilpotent={report['nilpotent']}"
        f" ml_bijective={'true' if report['ml_bijective'] else 'false'}"
    )
    _emit(args, text, report)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, long=args.long)
    verdict = f"suite {report.name}: {'PASS' if report.ok else 'FAIL'}"
    _emit(
        args,
        "\n".join(report.lines + (verdict,)),
        {"suite": report.name, "ok": report.ok, "lines": list(report.lines)},
    )
    return 0 if report.ok else 1


# Built once per process: parse_args fills a fresh Namespace on every call,
# and the handlers look up library functions when they run.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exocone",
        description=(
            "Orbit combinatorics, defining equations, and Joseph "
            "polynomials of the exotic nilpotent cone"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("json", "text"), default="text"
        )
        p.set_defaults(func=func)
        return p

    p = add("enumerate", _cmd_enumerate, "list the orbits of a given weight")
    p.add_argument("--n", type=int, required=True)

    p = add(
        "convert",
        _cmd_convert,
        "convert marked partition to bi-partition or back",
    )
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--a", dest="marks")
    p.add_argument("--mu")
    p.add_argument("--nu")

    p = add("dpoly", _cmd_dpoly, "block product polynomial of a bi-partition")
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")

    p = add("joseph", _cmd_joseph, "Joseph polynomial of a presentation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--ambient", choices=("exotic", "ordinary"), default="exotic"
    )
    p.add_argument("--span", default="")
    p.add_argument("--eqs", default="")

    p = add(
        "invariant",
        _cmd_invariant,
        "marked partition of an exotic vector read from stdin",
    )

    p = add("rep", _cmd_rep, "orbit representative of a marked partition")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--a", dest="marks")

    p = add("dim", _cmd_dim, "orbit dimension, or cone dimension with --n")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--a", dest="marks")
    p.add_argument("--n", type=int)

    p = add("special", _cmd_special, "special Weyl element of a marked partition")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--a", dest="marks")

    p = add("count", _cmd_count, "point counts over a small finite field")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--long", action="store_true")

    p = add("verify", _cmd_verify, "run a named verification suite")
    p.add_argument("--suite", choices=suite_names(), required=True)
    p.add_argument("--long", action="store_true")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
