"""The verification suite registry: every suite green, stable names."""

import pytest

from exocone import run_suite, suite_names


# the 96 lines that ``run_suite("all")`` prints, frozen so that a change
# of any detail (a term count, an orbit count, a rendered polynomial) fails
# even when no verdict flips
ALL_LINES = [
    "PASS bijection n=0: 1 orbits",
    "PASS bijection n=1: 2 orbits",
    "PASS bijection n=2: 5 orbits",
    "PASS bijection n=3: 10 orbits",
    "PASS bijection n=4: 20 orbits",
    "PASS bijection n=5: 36 orbits",
    "PASS bijection n=6: 65 orbits",
    "PASS bijection n=7: 110 orbits",
    "PASS bijection n=8: 185 orbits",
    "PASS bijection n=9: 300 orbits",
    "PASS bijection n=10: 481 orbits",
    "PASS representative roundtrip n=0: 1 orbits",
    "PASS representative roundtrip n=1: 2 orbits",
    "PASS representative roundtrip n=2: 5 orbits",
    "PASS representative roundtrip n=3: 10 orbits",
    "PASS representative roundtrip n=4: 20 orbits",
    "PASS representative roundtrip n=5: 36 orbits",
    "PASS stable weight predicate n=0: 1 marked partitions x 0 weights",
    "PASS stable weight predicate n=1: 2 marked partitions x 1 weights",
    "PASS stable weight predicate n=2: 5 marked partitions x 4 weights",
    "PASS stable weight predicate n=3: 10 marked partitions x 9 weights",
    "PASS stable weight predicate n=4: 20 marked partitions x 16 weights",
    "PASS stable weight predicate n=5: 36 marked partitions x 25 weights",
    "PASS degree law n=0: 1 orbits",
    "PASS degree law n=1: 2 orbits",
    "PASS degree law n=2: 5 orbits",
    "PASS degree law n=3: 10 orbits",
    "PASS degree law n=4: 20 orbits",
    "PASS degree law n=5: 36 orbits",
    "PASS degree law n=6: 65 orbits",
    "PASS degree law n=7: 110 orbits",
    "PASS degree law n=8: 185 orbits",
    "PASS block product equals root product n=0: 1 bi-partitions",
    "PASS block product equals root product n=1: 2 bi-partitions",
    "PASS block product equals root product n=2: 5 bi-partitions",
    "PASS block product equals root product n=3: 10 bi-partitions",
    "PASS block product equals root product n=4: 20 bi-partitions",
    "PASS block product equals root product n=5: 36 bi-partitions",
    "PASS joseph poly equals lowest K-term n=1: 2 exotic presentations + ordinary sign cell",
    "PASS joseph poly equals lowest K-term n=2: 5 exotic presentations + ordinary sign cell",
    "PASS joseph poly equals lowest K-term n=3: 10 exotic presentations + ordinary sign cell",
    "PASS saturated span equals full-group span n=0: 2 seeds x 1 group elements",
    "PASS saturated span equals full-group span n=1: 4 seeds x 2 group elements",
    "PASS saturated span equals full-group span n=2: 10 seeds x 8 group elements",
    "PASS saturated span equals full-group span n=3: 20 seeds x 48 group elements",
    "PASS saturated span equals full-group span n=4: 20 seeds x 384 group elements",
    "PASS tangent rank equals orbit_dim n=1..4: 37 orbits",
    "PASS exotic trivial: 1 member(s), block ratio 1",
    "PASS exotic regular: 2 member(s), block ratio 1",
    "PASS exotic long sign: 1 member(s), block ratio 1",
    "PASS exotic short sign: 1 member(s), block ratio 1",
    "PASS exotic sign: 1 member(s), block ratio 1",
    "PASS ordinary sign: 4*e1^3*e2 - 4*e1*e2^3",
    "PASS ordinary short sign: 2*e1^2 - 2*e2^2",
    "PASS ordinary regular a: e1 - e2",
    "PASS ordinary regular b: 2*e2",
    "PASS ordinary trivial: 1",
    "PASS span dimensions n=0: 1 bi-partitions",
    "PASS span dimensions n=1: 2 bi-partitions",
    "PASS span dimensions n=2: 5 bi-partitions",
    "PASS span dimensions n=3: 10 bi-partitions",
    "PASS rank-two table dimensions: (1, 1, 1, 2, 1)",
    "PASS expansion matches definition, size 2: 1 terms",
    "PASS expansion matches definition, size 4: 3 terms",
    "PASS expansion matches definition, size 6: 15 terms",
    "PASS square equals determinant: 20 random rational 6x6",
    "PASS minor summation equals recursive expansion n=1: 1 terms",
    "PASS minor summation equals recursive expansion n=2: 5 terms",
    "PASS minor summation equals recursive expansion n=3: 27 terms",
    "PASS minor summation equals recursive expansion n=4: 187 terms",
    "PASS upper block drops out n=1: P_i([[Y, Z], [-tZ, 0]]) == P_i([[0, Z], [-tZ, 0]])",
    "PASS upper block drops out n=2: P_i([[Y, Z], [-tZ, 0]]) == P_i([[0, Z], [-tZ, 0]])",
    "PASS upper block drops out n=3: P_i([[Y, Z], [-tZ, 0]]) == P_i([[0, Z], [-tZ, 0]])",
    "PASS form pfaffian n=1: Pf(J) = -1",
    "PASS raw restriction n=1: Pf(tJ - X) = Pf(J) det(t1 - Y)",
    "PASS normalized restriction n=1: sum t^{n-i} P_i = det(t1 - Y)",
    "PASS form pfaffian n=2: Pf(J) = -1",
    "PASS raw restriction n=2: Pf(tJ - X) = Pf(J) det(t1 - Y)",
    "PASS normalized restriction n=2: sum t^{n-i} P_i = det(t1 - Y)",
    "PASS form pfaffian n=3: Pf(J) = 1",
    "PASS raw restriction n=3: Pf(tJ - X) = Pf(J) det(t1 - Y)",
    "PASS normalized restriction n=3: sum t^{n-i} P_i = det(t1 - Y)",
    "PASS nilpotency equals invariant zero locus n=1: 6 points, 4 off the cone",
    "PASS nilpotency equals invariant zero locus n=2: 15 points, 6 off the cone",
    "PASS nilpotency equals invariant zero locus n=3: 30 points, 12 off the cone",
    "PASS transport n=1 q=2: exotic=4 nilpotent=4 q^(2n^2)=4",
    "PASS transport n=1 q=4: exotic=16 nilpotent=16 q^(2n^2)=16",
    "PASS transport n=2 q=2: exotic=256 nilpotent=256 q^(2n^2)=256",
    "PASS transpose convention n=0: 1 bi-partitions",
    "PASS transpose convention n=1: 2 bi-partitions",
    "PASS transpose convention n=2: 5 bi-partitions",
    "PASS transpose convention n=3: 10 bi-partitions",
    "PASS transpose convention n=4: 20 bi-partitions",
    "PASS transpose convention n=5: 36 bi-partitions",
    "PASS transpose convention n=6: 65 bi-partitions",
    "PASS convention is unique: identity candidate fails for every n >= 2",
]


def test_registry_names():
    assert suite_names() == (
        "bijection",
        "roundtrip",
        "wdlambda",
        "degree",
        "table-n2",
        "macdonald",
        "pfaffian",
        "charp",
        "dconvention",
        "all",
    )


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nosuch")


def test_every_suite_passes():
    combined = run_suite("all")
    assert combined.ok, "\n".join(
        line for line in combined.lines if not line.startswith("PASS")
    )
    assert combined.name == "all"
    # every individual check line carries a PASS verdict
    assert all(line.startswith("PASS ") for line in combined.lines)
    assert list(combined.lines) == ALL_LINES


def test_long_pfaffian_suite_reaches_n5():
    report = run_suite("pfaffian", long=True)
    assert report.ok, "\n".join(report.lines)
    for label in (
        "minor summation equals recursive expansion",
        "upper block drops out",
        "normalized restriction",
    ):
        assert f"{label} n=5" in "\n".join(report.lines)


def test_long_degree_suite_reaches_n6():
    report = run_suite("degree", long=True)
    assert report.ok, "\n".join(report.lines)
    assert "PASS tangent rank equals orbit_dim n=1..6: 138 orbits" in report.lines


def test_long_roundtrip_suite_reaches_n8():
    report = run_suite("roundtrip", long=True)
    assert report.ok, "\n".join(report.lines)
    assert "PASS representative roundtrip n=8: 185 orbits" in report.lines


def test_report_lines_are_stable():
    first = run_suite("table-n2")
    second = run_suite("table-n2")
    assert first == second
    assert len(first.lines) == 10
