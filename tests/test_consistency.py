"""Temporal consistency checker tests (paper §4)."""

import pytest

from repro.core.consistency import ConsistencyReport, check_system
from repro.core.loader import Loader
from repro.systems import make_system


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_loaded_systems_are_consistent(name, tiny_workload):
    system = make_system(name)
    Loader(system, tiny_workload).load()
    report = check_system(system, tiny_workload)
    assert report.ok, report.summary()
    assert report.checked_tables == 6
    assert report.checked_versions > 0


def test_bulk_loaded_d_is_consistent(tiny_workload):
    system = make_system("D")
    Loader(system, tiny_workload).bulk_load()
    report = check_system(system, tiny_workload)
    assert report.ok, report.summary()


def test_summary_format():
    report = ConsistencyReport()
    assert "CONSISTENT" in report.summary()
    report.add("P1", "orders", "boom")
    text = report.summary()
    assert "1 violation" in text and "P1" in text
