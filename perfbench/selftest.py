"""Self-test of the benchmark's own bookkeeping.

    python3 perfbench/selftest.py

Shows that a wrong expected value, a wrong exit code and a traceback each
count as a failed operation (and a failing contract probe as a probe, not a
wrong result); that the same seed generates the same inputs; and that the
span tracer counts calls through imported names and restores every original
when uninstalled.  Exits 1 on the first broken expectation.
"""

import random

import run

workloads = run._import_library()
import spans  # noqa: E402  (needs exocone on the path)

Op = workloads.Op
checks = 0


def expect(cond: bool, what: str) -> None:
    global checks
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    checks += 1


def outcome(op: Op) -> tuple[int, int, int]:
    """(ok, failed, probe_failed) after one pass over the single op."""
    r = run.Run([op])
    r.one_pass()
    return r.ok, r.failed, r.probe_failed


def cli_op(argv, check, stdin="", probe=False) -> Op:
    return Op(" ".join(argv), lambda: workloads.run_cli(argv, stdin), check, probe)


def test_failures_are_counted() -> None:
    expect(outcome(Op("right", lambda: 2 + 2, lambda out: out == 4)) == (1, 0, 0), "a right value is ok")
    expect(outcome(Op("wrong value", lambda: 2 + 2, lambda out: out == 5)) == (0, 1, 0), "a wrong expected value fails")
    expect(outcome(Op("raises", lambda: 1 // 0, lambda out: True)) == (0, 1, 0), "an exception fails")
    expect(outcome(Op("bad check", lambda: None, lambda out: out[0])) == (0, 1, 0), "a check that raises fails")

    ok = workloads.expect_ok(lambda out: out.strip() == "18")
    expect(outcome(cli_op(["dim", "--n", "3"], ok)) == (1, 0, 0), "dim --n 3 prints 18")
    expect(
        outcome(cli_op(["dim", "--n", "3"], workloads.expect_ok(lambda out: out.strip() == "19"))) == (0, 1, 0),
        "a wrong expected CLI output fails",
    )
    expect(outcome(cli_op(["convert"], ok)) == (0, 1, 0), "exit 2 where 0 is expected fails")
    expect(outcome(cli_op(["dim", "--n", "3"], workloads.expect_exit2)) == (0, 1, 0), "exit 0 where 2 is expected fails")
    expect(outcome(cli_op(["convert"], workloads.expect_exit2)) == (1, 0, 0), "a one-line error with exit 2 is ok")
    traceback_op = cli_op(["invariant"], workloads.expect_exit2, stdin="[1]")
    expect(traceback_op.call().exc is not None, "an exception escaping main is captured")
    expect(outcome(traceback_op) == (0, 1, 0), "a traceback fails")
    expect(
        outcome(cli_op(["invariant"], workloads.expect_exit2, stdin="[1]", probe=True)) == (0, 0, 1),
        "a failing probe is counted as a probe",
    )
    r = run.Run([Op("raises", lambda: 1 // 0, lambda out: True), traceback_op])
    r.one_pass()
    expect("ZeroDivisionError" in r.why_failed["raises"], "the exception of a failed operation is kept")
    expect("exit None, escaped" in r.why_failed[traceback_op.label], "the escaped exception of a request is kept")


def test_seeding() -> None:
    for name, generate in workloads.GENERATE.items():
        workloads.SETUP[name]()
        a = [op.label for op in generate(random.Random(7))]
        b = [op.label for op in generate(random.Random(7))]
        expect(a == b, f"{name}: same seed, same inputs")
    n, x1, x2 = 3, [1, 0, 0, 0, 0, 0], [[0] * 6 for _ in range(6)]
    one = workloads._dense_conjugate(n, x1, x2, random.Random(3), 25, 50)
    two = workloads._dense_conjugate(n, x1, x2, random.Random(3), 25, 50)
    expect(one == two, "same seed, same conjugate")


def test_transvection() -> None:
    """The rank-two update of the generator against the matrix product."""
    mul, form = workloads._mul, workloads._form(3)
    rng = random.Random(5)
    y1, y2 = workloads._rows(workloads.nilcone.representative(workloads.partitions.MarkedPartition((2, 1), (1, 0))))
    for _ in range(20):
        c, v = workloads._transvection(3, rng)
        vj = mul([v], form)[0]
        t = [[int(a == b) + c * v[a] * vj[b] for b in range(6)] for a in range(6)]
        tt = [list(col) for col in zip(*t)]
        expect(mul(mul(tt, form), t) == form, "a transvection is symplectic")
        want = ([sum(a * b for a, b in zip(row, y1)) for row in t], mul(mul(t, y2), tt))
        y1, y2 = workloads._transvect(3, c, v, y1, y2)
        expect((y1, y2) == want, "the rank-two update equals T x1, T x2 T^T")


def test_tracer() -> None:
    nilcone = workloads.nilcone
    original_rank = nilcone.rank
    original_mul = workloads.algebra.MultiPoly.__mul__
    mp = workloads.partitions.MarkedPartition((2, 1), (1, 0))
    v = nilcone.representative(mp)
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(nilcone.rank is not original_rank, "imported names are wrapped")
        expect(nilcone.marked_invariant(v) == mp, "traced results are unchanged")
    finally:
        tracer.uninstall()
    expect(nilcone.rank is original_rank, "uninstall restores imported names")
    expect(workloads.algebra.MultiPoly.__mul__ is original_mul, "uninstall restores methods")
    m = tracer.layer_metrics()
    expect(m["nilcone.marked_invariant.calls"] == 1, "one marked_invariant span")
    expect(m["nilcone.marked_invariant.markings_tried"] >= 1, "markings are counted")
    expect(m["algebra.rank.calls"] >= 1, "rank calls inside nilcone are seen")
    expect(
        abs(m["nilcone.marked_invariant.total_s"] - m["nilcone.marked_invariant.self_s"]) > 0,
        "self time excludes child spans",
    )


if __name__ == "__main__":
    test_failures_are_counted()
    test_seeding()
    test_transvection()
    test_tracer()
    print(f"selftest: {checks} checks passed")
