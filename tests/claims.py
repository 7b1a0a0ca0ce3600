"""The claims under ``claims/``.  Each file holds a ``solenoidlab``
``command`` (``run`` or ``export``), its ``config``, and what the run must
show in ``expect``: the ``claim`` in one sentence, the ``exit`` code, and
optionally ``stderr`` substrings, ``results`` (per check of a run, in
order, report fields, each an exact value or ``{"min": a}`` /
``{"max": b}``), and a console run's ``seconds`` and ``peak_rss_mb``.

A claim runs without ``--out``: its report is read from stdout, and its
config may set ``output.path``.  :func:`problems` judges one run.
``tests/test_claims.py`` runs every claim in-process through ``cli.main``.
Run as a script, this module runs each through the installed console
script, in a child process of its own, under ``timeout`` when it has
``seconds``, and judges the peak RSS ``os.wait4`` gives for that child::

    python tests/claims.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLAIMS = Path(__file__).resolve().parents[1] / "claims"


def load() -> dict[str, dict]:
    """Each claim by its file name without ``.json``."""
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(CLAIMS.glob("*.json"))}


def _holds(want, got) -> bool:
    """A bound on a number, or else the same JSON."""
    if isinstance(want, dict) and want and set(want) <= {"min", "max"}:
        number = isinstance(got, (int, float)) and not isinstance(got, bool)
        return number and want.get("min", got) <= got <= want.get("max", got)
    return json.dumps(want, sort_keys=True) == json.dumps(got, sort_keys=True)


def problems(expect: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """Each way one run's exit code, stdout and stderr break ``expect``."""
    found = [] if code == expect["exit"] else [f"exit {code}, not {expect['exit']}"]
    found += [f"stderr lacks {s!r}" for s in expect.get("stderr", ()) if s not in stderr]
    if "results" not in expect:
        return found
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return found + ["stdout holds no run report"]
    for i, fields in enumerate(expect["results"]):
        if i >= len(results):
            found.append(f"results[{i}]: the report has {len(results)} checks")
            continue
        for key, want in fields.items():
            if key not in results[i]:
                found.append(f"results[{i}].{key}: not in the report")
            elif not _holds(want, results[i][key]):
                found.append(f"results[{i}].{key}: {results[i][key]!r} breaks {want!r}")
    return found


def run_in_process(command: str, config: dict, extra=()) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``cli.main`` call on ``config``."""
    # Imported here so that the console runner stays small: each child's
    # ru_maxrss starts from the RSS of the process that started it.
    from solenoidlab import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), *extra])
    return code, out.getvalue(), err.getvalue()


def _run_console(claim: dict, tmp: Path) -> tuple[list[str], str]:
    """One console run's problems, its limits included, and a summary line."""
    expect = claim["expect"]
    (tmp / "config.json").write_text(json.dumps(claim["config"]), encoding="utf-8")
    limit = ["timeout", str(expect["seconds"])] if "seconds" in expect else []
    argv = [*limit, "solenoidlab", claim["command"], str(tmp / "config.json")]
    started = time.perf_counter()
    with open(tmp / "stdout", "w") as out, open(tmp / "stderr", "w") as err:
        child = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
    child.returncode = code = os.waitstatus_to_exitcode(status)
    seconds, peak = time.perf_counter() - started, usage.ru_maxrss / 1024  # KiB on Linux
    found = problems(expect, code, *(Path(tmp, f).read_text() for f in ("stdout", "stderr")))
    if limit and code == 124:
        found.append(f"ran past its limit of {expect['seconds']} s")
    if peak >= expect.get("peak_rss_mb", float("inf")):
        found.append(f"peak RSS {peak:.0f} MiB, not below {expect['peak_rss_mb']} MiB")
    return found, f"exit {code} in {seconds:.2f} s, peak RSS {peak:.0f} MiB"


def main() -> int:
    claims = load()
    broken = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, claim in claims.items():
            found, summary = _run_console(claim, Path(tmp))
            print(f"[{'FAIL' if found else 'PASS'}] {name}: {summary}", *found, sep="\n    ")
            broken += bool(found)
    print(f"{len(claims) - broken} of {len(claims)} claims hold")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
