"""The verification suite registry: every suite green, stable names."""

import pytest

from exocone import run_suite, suite_names


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
