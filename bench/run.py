#!/usr/bin/env python3
"""solenoidlab benchmark: three workloads through the public CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads (see ``workloads.py`` for the exact configs):

* ``shift-scan``: one ``run`` on the full shift with N = 512, where the cubic
  ``metric_core`` scans take most of the time.
* ``padic-orbit``: one ``run`` on a single 1024-cycle, whose scalar per-pair
  torus queries each walk an orbit in ``dynamics.iterate``.
* ``torus-export``: five ``export`` calls over the same ``dynamics`` and
  ``mapping_torus`` code through the bulk matrix paths and the CSV writer.

All load comes from one worker process at a time, with BLAS and OpenMP pools
set to one thread.  Each operation is one in-process ``cli.main`` call with
its output captured in memory and checked by the gate in ``gate.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
SETUP_RUNS fresh workers of the time to import ``solenoidlab.cli`` and build
each of the workload's models once, adjusted to a fixed host speed like
``pass_adj_s``), ``pass_adj_s`` (the median wall time of one pass
over the operations, after one warm-up pass, adjusted to a fixed host speed
with a reference kernel timed between passes; see ``worker.py``) and
``peak_rss_mb`` (the load worker's peak resident memory, in MiB).  The
unadjusted median set-up and pass times and ``fail_frac`` (failed operations
over operations attempted) are printed to standard error with them.
``fail_frac`` is not a metric, because a metric here must never read 0; its
parts are the ``failed`` and ``attempted`` fields of the result.

``--trace 1`` prints the per-layer metrics named in ``BENCHMARK.json``, from
a traced run (``spans.py``): inclusive seconds and calls of wrapped public
functions, self seconds per module, work counters, exceptions per module, and
per-module exponents log(t_big/t_small)/log(N_big/N_small) against passes one
rung smaller.  Metric names and units come from ``BENCHMARK.json``.
Where each should move: ``metric_core.*`` moves ``pass_adj_s`` on
shift-scan only; ``dynamics.*``, ``mapping_torus.*`` and ``connectedness.*``
move it on padic-orbit, and the matrix and adapted spans, ``cli.self_s`` and
``cli.output_bytes`` on torus-export; ``models.*`` and ``shift_space.*``
move ``setup_s`` everywhere.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with per-operation samples, gate failures and the machine, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from worker import OUT_DIR, REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    l3 = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": THREAD_ENV,
    }


def run_worker(args, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, **THREAD_ENV}, stdout=subprocess.PIPE,
            text=True, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args) -> dict:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The passes stop at --seconds; set-up workers, the warm-up pass, the
    # gate and the cliff probe take well under a minute more.
    deadline = time.monotonic() + 2 * args.seconds + 60
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    if not args.trace:
        setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_RUNS)]
    load = run_worker(args, "load", deadline)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_samples": setups,
        **load,
    }
    attempted, failed = load["attempted"], len(load["failures"])
    summary = f"{args.workload} seed {args.seed}:"
    if args.trace:
        values = dict(load["metrics"], **{"mapping_torus.refusals": load["refusals"]})
        metrics = {}
        for m in manifest["per_layer"]:
            value = values.get(m["name"], 0)
            if m["unit"] == "count":
                value = round(value)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "setup_s": REF_S * statistics.median(s["setup_s"] / s["ref_s"] for s in setups),
            "pass_adj_s": load["pass_adj_s"],
            "peak_rss_mb": load["peak_rss_mb"],
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in manifest["end_to_end"]
        }
        summary += (
            f" setup {statistics.median(s['setup_s'] for s in setups):.4f} s"
            f" and setup_s {values['setup_s']:.4f} s (median of {len(setups)}),"
            f" pass_s {load['pass_s']:.4f} s and pass_adj_s {values['pass_adj_s']:.4f} s"
            f" (median of {load['passes']} passes),"
            f" peak_rss_mb {values['peak_rss_mb']:.1f} MiB,"
        )
    record["fail_frac"] = failed / attempted
    print(
        f"{summary} fail_frac {record['fail_frac']:.4f} ({failed}/{attempted} operations),"
        f" cliff refusals {load['refusals']}",
        file=sys.stderr,
    )
    for reason in load["failures"][:10]:
        print(f"failed: {reason}", file=sys.stderr)
    record["metrics"] = metrics
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="solenoidlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "solenoidlab" / "cli.py").is_file():
        print(f"error: no solenoidlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
