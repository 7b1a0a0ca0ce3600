"""Every claim under ``claims/`` holds when run in-process through
``cli.main`` and states itself in one sentence, which README lists; and the
checker catches each way a run can break a claim (see ``claims.py``)."""

import json
import os
import re

import pytest

import claims

CLAIMS = claims.load()

REPORT = json.dumps({"results": [{"status": "pass", "violations": 0}, {"constant": 2.0}]})
KEPT = {"claim": "It holds.", "exit": 0, "stderr": ["2 checks"],
        "results": [{"status": "pass", "violations": {"max": 0}}, {"constant": {"min": 2.0}}]}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_the_claim_holds_in_process(name):
    claim = CLAIMS[name]
    expect = claim["expect"]
    assert sorted(claim) == ["command", "config", "expect"]
    assert expect["claim"].endswith(".") and ". " not in expect["claim"]
    outcome = claims.run_in_process(claim["command"], claim["config"])
    assert claims.problems(expect, *outcome) == []


def test_a_claim_holds_through_the_console_runner(tmp_path, monkeypatch):
    # A child process under `timeout`, judged on its os.wait4 rusage.  The
    # claim states no peak_rss_mb: a child's ru_maxrss starts from its
    # parent's RSS, and this process has already run the claims in-process.
    claim = CLAIMS["tiny"]
    assert "seconds" in claim["expect"] and "peak_rss_mb" not in claim["expect"]
    src = str(claims.CLAIMS.parent / "src")  # the package under test
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")])))
    found, summary = claims._run_console(claim, tmp_path)
    assert found == [], summary


@pytest.mark.parametrize("change", [
    {"exit": 1},
    {"stderr": ["2 checks", "$.checks[1]"]},
    {"results": [{"status": "fail"}]},
    {"results": [{"violations": {"min": 1}}]},
    {"results": [{}, {"constant": {"min": 0.0, "max": 1.5}}]},
    {"results": [{}, {}, {}]},
    {"results": [{"witness": None}]},
])
def test_the_checker_catches_a_broken_claim(change):
    assert claims.problems(KEPT, 0, REPORT, "2 checks in 0.1s") == []
    assert len(claims.problems({**KEPT, **change}, 0, REPORT, "2 checks in 0.1s")) == 1


def test_the_readme_lists_every_claim_with_its_sentence():
    readme = (claims.CLAIMS.parent / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^- `claims/([\w-]+)\.json`: (.+)$", readme, re.M)
    assert listed == [(name, claim["expect"]["claim"]) for name, claim in CLAIMS.items()]
