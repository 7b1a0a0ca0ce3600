"""The benchmark's worker process; ``run.py`` starts it, one at a time.

``worker.py setup``: import ``solenoidlab.cli`` and build each of the
workload's models once, then time the reference kernel (below) once, and
print both times as JSON.

``worker.py load``: the same set-up, then the workload's operations pass after
pass for the time budget, each pass checked by the correctness gate, then the
cliff probe.  With ``--trace 1`` the budget is split three ways: untraced
passes, traced passes, and traced passes one rung smaller.  Prints one JSON
object as its last line.

Host speed.  On a shared host, other tenants' use of the shared cache and
memory slows a whole pass by up to 2x, for minutes at a time, in wall and in
CPU time alike, so no statistic over one run's passes removes it.  The worker
therefore also times a fixed reference kernel (``reference_kernel``: a
memory-bound part and an interpreter-bound part, neither touching the
package) before the first pass and after every pass.  ``pass_adj_s`` is the
median over passes of the pass time divided by the mean of the two kernel
times around it, times REF_S: the pass time at the host speed where the
kernel takes REF_S seconds.  A change to the package moves it as it moves the
wall time; a change in host speed moves the kernel too and cancels out.
``run.py`` adjusts ``setup_s`` the same way, with the kernel timed right after
each set-up; it runs after the set-up because it imports numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS, cliff_probe, operations  # noqa: E402

MIN_PASSES = 3
#: Nominal seconds of the reference kernel; about its time on an idle
#: 2-vCPU Xeon VM (2 MiB L2 per core, 105 MiB shared L3).
REF_S = 0.4
CLIFF_MESSAGE = "off-sample queries need the dense all-pairs table"


def set_up(ops) -> tuple[float, object]:
    """Seconds to import the CLI and build every distinct model of ``ops``."""
    start = time.perf_counter()
    from solenoidlab import cli
    from solenoidlab.models import ModelSpec, build_model

    built = {}
    for op in ops:
        key = json.dumps(op.config["space"], sort_keys=True)
        if key not in built:
            built[key] = build_model(ModelSpec.from_dict(op.config["space"]))
    return time.perf_counter() - start, cli


def call(main, command: str, path: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI call; an exception that escapes
    ``main`` is exit code 1 with its traceback as stderr, so the gate counts it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    except (Exception, SystemExit):
        return 1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


class _Cycle:
    """A permutation behind ``__call__``, walked the way ``SelfMap.orbit`` is."""

    def __init__(self, points: list, order: list[int]):
        self.points = points
        self.forward = {
            points[a]: points[b] for a, b in zip(order, order[1:] + order[:1])
        }

    def __call__(self, p):
        try:
            return self.forward[p]
        except KeyError:
            raise ValueError(p) from None

    def orbit_length(self, p) -> int:
        out = [p]
        q = self(p)
        while q != p:
            out.append(q)
            q = self(q)
        return len(out)


_KERNEL_DATA = []


def reference_kernel() -> float:
    """Seconds of a fixed kernel that the host's other tenants slow about as
    much as they slow the workloads.  Memory-bound part: twice a random
    gather from a 32 MB array and a walk through a 200,000-entry dict.
    Interpreter-bound part: 600 walks around a 1024-cycle of tuples through
    a ``__call__`` method.  Its data is built on the first call."""
    import numpy as np

    if not _KERNEL_DATA:
        rng = np.random.default_rng(0)
        size = 200_000
        points = [(i % 2, i) for i in range(1024)]
        _KERNEL_DATA.extend([
            rng.random(4_000_000),
            rng.integers(0, 4_000_000, 2_000_000),
            dict(zip(range(size), rng.permutation(size).tolist())),
            _Cycle(points, rng.permutation(len(points)).tolist()),
        ])
    values, index, successor, cycle = _KERNEL_DATA
    start = time.perf_counter()
    for _ in range(2):
        values[index].sum()
        x = 0
        for _ in range(len(successor)):
            x = successor[x]
    for i in range(600):
        cycle.orbit_length(cycle.points[i])
    return time.perf_counter() - start


def adjusted_pass(samples: list[list[float]], refs: list[float]) -> float:
    """REF_S times the median over passes of the pass time over the mean of
    the kernel times before and after it; ``samples`` holds each pass's
    per-operation seconds, ``refs`` one more kernel time than passes."""
    return REF_S * statistics.median(
        sum(times) / ((before + after) / 2)
        for times, before, after in zip(samples, refs, refs[1:])
    )


class Load:
    """Runs passes over one list of operations and tallies gate failures."""

    def __init__(self, ops, work_dir: Path, tag: str):
        from gate import Gate

        self.ops = ops
        self.gate = Gate(ops)
        self.paths = []
        for op in ops:
            path = work_dir / f"{op.name}{tag}.json"
            path.write_text(json.dumps(op.config, indent=2) + "\n", encoding="utf-8")
            self.paths.append(path)
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0

    def one_pass(self, main) -> list[float]:
        """Seconds of each operation in one pass."""
        gc.collect()
        outputs, elapsed = [], []
        for op, path in zip(self.ops, self.paths):
            start = time.perf_counter()
            outputs.append(call(main, op.command, path))
            elapsed.append(time.perf_counter() - start)
        self.output_bytes = sum(len(out.encode()) for _, out, _ in outputs)
        self.attempted += len(outputs)
        for op, reason in zip(self.ops, self.gate.check(outputs)):
            if reason is not None:
                self.failures.append(f"{op.name}: {reason}")
        return elapsed

    def passes(self, main, budget: float, before_pass=None):
        """At least MIN_PASSES passes, and more while one more pass as long as
        the last is expected to end within ``budget`` seconds.  Returns each
        pass's per-operation seconds and the reference kernel's seconds
        before the first pass and after each pass."""
        samples: list[list[float]] = []
        refs = [reference_kernel()]
        start = time.perf_counter()
        while len(samples) < MIN_PASSES or (
            time.perf_counter() - start + sum(samples[-1]) + refs[-1] <= budget
        ):
            if before_pass is not None:
                before_pass()
            samples.append(self.one_pass(main))
            refs.append(reference_kernel())
        return samples, refs


def probe_cliff(main, seed: int, work_dir: Path) -> int:
    """1 if the cliff probe is refused with the known message, else 0."""
    op = cliff_probe(seed)
    path = work_dir / f"{op.name}.json"
    path.write_text(json.dumps(op.config, indent=2) + "\n", encoding="utf-8")
    code, _, err = call(main, op.command, path)
    return int(code == 2 and CLIFF_MESSAGE in err)


def traced_metrics(cli, load, seed, seconds, workload, work_dir):
    """Per-layer medians over traced passes, and the tracing overhead as the
    traced minus the untraced ``adjusted_pass``; returns them with the
    small-rung load."""
    from spans import LAYERS, Tracer, exponent, median_totals

    untraced = load.passes(cli.main, seconds / 3)
    small_load = Load(operations(workload, seed, small=True), work_dir, "-small")
    tracer = Tracer()
    main = tracer.wrap("cli.main", cli.main)
    tracer.install()
    try:
        traced = load.passes(main, seconds / 3, tracer.begin_pass)
        first_small = len(tracer.pass_counts)
        small_load.passes(main, seconds / 3, tracer.begin_pass)
    finally:
        tracer.restore()
    totals = tracer.pass_totals()
    big = median_totals(totals[:first_small])
    small = median_totals(totals[first_small:])
    tracer.write(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl.gz")

    metrics = dict(big)
    metrics["cli.output_bytes"] = load.output_bytes
    metrics["trace.overhead_s"] = adjusted_pass(*traced) - adjusted_pass(*untraced)
    for layer in LAYERS:
        metrics[f"{layer}.exponent"] = exponent(
            big.get(f"{layer}.self_s", 0.0), small.get(f"{layer}.self_s", 0.0),
            big.get("models.points", 0), small.get("models.points", 0),
        )
    result = {
        "metrics": metrics,
        "untraced_passes_s": [sum(times) for times in untraced[0]],
        "traced_passes_s": [sum(times) for times in traced[0]],
    }
    return result, small_load


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "load"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = operations(args.workload, args.seed)
    setup_s, cli = set_up(ops)
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        result["ref_s"] = reference_kernel()
    else:
        work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
        work_dir.mkdir(parents=True, exist_ok=True)
        load = Load(ops, work_dir, "")
        load.one_pass(cli.main)  # warm-up; its output is the gate's reference
        # Every pass runs the same operations, so the warm-up pass reaches the
        # peak; read it before the reference kernel allocates its data.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loads = [load]
        if args.trace:
            traced, small_load = traced_metrics(
                cli, load, args.seed, args.seconds, args.workload, work_dir
            )
            result.update(traced)
            loads.append(small_load)
        else:
            samples, refs = load.passes(cli.main, args.seconds)
            result["pass_s"] = statistics.median(map(sum, samples))
            result["pass_adj_s"] = adjusted_pass(samples, refs)
            result["passes"] = len(samples)
            result["op_samples_s"] = {
                op.name: list(times) for op, times in zip(load.ops, zip(*samples))
            }
            result["ref_samples_s"] = refs
        result["attempted"] = sum(x.attempted for x in loads)
        result["failures"] = [f for x in loads for f in x.failures]
        result["refusals"] = probe_cliff(cli.main, args.seed, work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
