"""Acceptance gate: one test per advertised guarantee, with time budgets.

Each test prints a single PASS/FAIL line naming the guarantee it covers and
fails if the check is wrong or slower than its budget.
"""

import time

from exocone import (
    bipartitions,
    is_in_nilcone,
    marked_invariant,
    marked_partitions,
    representative,
    run_suite,
    to_bipartition,
)


def _emit(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail} [{elapsed:.2f}s, budget {budget}s]")


def _suite_within(num, name, budget):
    start = time.perf_counter()
    report = run_suite(name)
    elapsed = time.perf_counter() - start
    _emit(num, report.ok and elapsed < budget, f"suite {name}", elapsed, budget)
    assert report.ok, "\n".join(report.lines)
    assert elapsed < budget
    return report


def test_criterion_01_orbit_table():
    start = time.perf_counter()
    bps = []
    for mp in marked_partitions(2):
        v = representative(mp)
        assert is_in_nilcone(v)
        assert marked_invariant(v) == mp
        bps.append(to_bipartition(mp))
    assert len(set(bps)) == 5
    assert set(bps) == set(bipartitions(2))
    elapsed = time.perf_counter() - start
    _emit(1, elapsed < 1, "rank-two orbit table round-trips", elapsed, 1)
    assert elapsed < 1


def test_criterion_02_table_exotic_column():
    start = time.perf_counter()
    report = run_suite("table-n2")
    elapsed = time.perf_counter() - start
    exotic = [line for line in report.lines if " exotic " in line]
    ok = len(exotic) == 5 and all(line.startswith("PASS") for line in exotic)
    _emit(2, ok and elapsed < 1, "rank-two table, exotic column", elapsed, 1)
    assert ok, "\n".join(report.lines)
    assert elapsed < 1


def test_criterion_03_table_ordinary_column():
    start = time.perf_counter()
    report = run_suite("table-n2")
    elapsed = time.perf_counter() - start
    ordinary = [line for line in report.lines if " ordinary " in line]
    ok = len(ordinary) == 5 and all(line.startswith("PASS") for line in ordinary)
    _emit(3, ok and elapsed < 1, "rank-two table, ordinary column", elapsed, 1)
    assert ok, "\n".join(report.lines)
    assert elapsed < 1


def test_criterion_04_bijection():
    _suite_within(4, "bijection", 10)


def test_criterion_05_degree_law():
    _suite_within(5, "degree", 30)


def test_criterion_06_macdonald_dimensions():
    _suite_within(6, "macdonald", 30)


def test_criterion_07_stable_weights():
    _suite_within(7, "wdlambda", 30)


def test_criterion_08_pfaffian_layer():
    _suite_within(8, "pfaffian", 60)


def test_criterion_09_char_two_points():
    _suite_within(9, "charp", 60)


def test_criterion_10_block_order_convention():
    _suite_within(10, "dconvention", 30)


def test_criterion_11_roundtrip():
    _suite_within(11, "roundtrip", 10)
