"""Every operation of the golden corpus prints what the committed fixture
holds: exit code, stderr without its timing line, and the report or the
export's digest (see ``golden_reports.py``)."""

import pytest

import golden_reports

OPERATIONS = golden_reports.operations()
FIXTURE = golden_reports.load()


def test_the_fixture_holds_exactly_the_corpus():
    assert sorted(FIXTURE) == sorted(OPERATIONS)


@pytest.mark.parametrize("op_id", sorted(OPERATIONS))
def test_the_operation_prints_its_golden_record(op_id):
    assert golden_reports.record(*OPERATIONS[op_id]) == FIXTURE[op_id]
