"""Every operation of the golden corpus prints what the committed fixture
holds: exit code, stderr without its timing line, and the report or the
export's digest; and each chain-sandwich operation's chain distances hash to
their committed digest (see ``golden_reports.py``)."""

import pytest

import golden_reports

OPERATIONS = golden_reports.operations()
FIXTURE = golden_reports.load()
CHAIN_DIGESTS = golden_reports.load_chain_digests()


def test_the_fixture_holds_exactly_the_corpus():
    assert sorted(FIXTURE) == sorted(OPERATIONS)


@pytest.mark.parametrize("op_id", sorted(OPERATIONS))
def test_the_operation_prints_its_golden_record(op_id):
    assert golden_reports.record(*OPERATIONS[op_id]) == FIXTURE[op_id]


def test_the_chain_digests_cover_every_chain_operation():
    assert sorted(CHAIN_DIGESTS) == golden_reports.chain_operations()
    assert len(CHAIN_DIGESTS) == 9


@pytest.mark.parametrize("op_id", sorted(CHAIN_DIGESTS))
def test_the_chain_distances_match_their_digest(op_id):
    assert golden_reports.chain_digest(*OPERATIONS[op_id]) == CHAIN_DIGESTS[op_id]
