"""Every operation of the golden corpus prints what the committed fixture
holds: exit code, stderr without its timing line, and the report or the
export's digest; each chain-sandwich operation's chain distances hash to
their committed digest; and so do the quotient distances, flow-law draws
and drawn cylinders of each run that makes them (see ``golden_reports.py``)."""

import pytest

import golden_reports

OPERATIONS = golden_reports.operations()
FIXTURE = golden_reports.load()
CHAIN_DIGESTS = golden_reports.load_chain_digests()
DRAW_DIGESTS = golden_reports.load_draw_digests()


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


def test_the_draw_digests_cover_every_draw_operation():
    assert sorted(DRAW_DIGESTS) == golden_reports.draw_operations()
    assert len(DRAW_DIGESTS) == 32
    hooked = [name for digests in DRAW_DIGESTS.values() for name in digests]
    assert hooked.count("_draw_flow_triples") == 16
    assert hooked.count("quotient_distance_pairs") == 23
    assert hooked.count("_draw_cylinders") == 11


@pytest.mark.parametrize("op_id", sorted(DRAW_DIGESTS))
def test_the_draws_and_quotient_distances_match_their_digests(op_id):
    assert golden_reports.draw_digest(*OPERATIONS[op_id]) == DRAW_DIGESTS[op_id]
