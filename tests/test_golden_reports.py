"""Every operation of the golden corpus prints what the committed fixture
holds: exit code, stderr without its timing line, and the report or the
export's digest; each chain-sandwich operation's chain distances hash to
their committed digest; and so do the quotient distances and flow-law draws
of each run that makes them (see ``golden_reports.py``); and each run of
the ``measures`` check prints its golden outcome at any seed."""

import json

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
    assert len(DRAW_DIGESTS) == 25
    hooked = [name for digests in DRAW_DIGESTS.values() for name in digests]
    assert hooked.count("_draw_flow_triples") == 16
    assert hooked.count("quotient_distance_pairs") == 23


@pytest.mark.parametrize("op_id", sorted(DRAW_DIGESTS))
def test_the_draws_and_quotient_distances_match_their_digests(op_id):
    assert golden_reports.draw_digest(*OPERATIONS[op_id]) == DRAW_DIGESTS[op_id]


def _measures_operations() -> list[str]:
    """The ids of the corpus's runs of ``measures``, one per config: the
    first id in sorted order."""
    seen, ids = set(), []
    for op_id, (command, cfg, _) in sorted(OPERATIONS.items()):
        key = json.dumps(cfg, sort_keys=True)
        names = [check["name"] for check in cfg.get("checks", ())]
        if command == "run" and "measures" in names and key not in seen:
            seen.add(key)
            ids.append(op_id)
    return ids


def test_the_measures_operations_are_those_that_drew_cylinders():
    ids = _measures_operations()
    assert len(ids) == 11
    assert sum(op_id in DRAW_DIGESTS for op_id in ids) == 4


@pytest.mark.parametrize("op_id", _measures_operations())
def test_the_measures_outcome_does_not_depend_on_the_seed(op_id):
    # The check draws nothing, so at another seed it prints the same result,
    # or the same refusal, while the run's sampling checks draw anew.
    command, cfg, extra = OPERATIONS[op_id]
    got = golden_reports.record(command, cfg, [*extra, f"--seed={2**32 - 1}"])
    want = FIXTURE[op_id]
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])

    def measures(text):
        return [r for r in json.loads(text)["results"] if r["name"] == "measures"] if text else []

    assert measures(got["stdout"]) == measures(want["stdout"])
    assert len(measures(want["stdout"])) == (1 if want["exit"] == 0 else 0)
