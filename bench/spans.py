"""Span tracing of solenoidlab's public functions, applied from outside.

``Tracer.install`` replaces each public module-boundary function with a
wrapper under the name its calling module binds (``cli.quotient_metric``,
``mapping_torus.iterate``, ...) and ``restore`` puts the originals back; the
package's files are never touched.  ``SelfMap.__call__`` is deliberately not
wrapped: one torus pass calls it millions of times.

A span is ``[id, pass id, parent id, name, start, end]``, kept in memory and
written out when the run ends.  Span names are ``<module>.<stem>``; a span's
self time is its duration minus the time covered by its child spans.  Work
counters are computed outside the timed interval, from the arguments and the
result, so their cost shows up as tracing overhead and not as layer time.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "cli", "models", "shift_space", "metric_core",
    "dynamics", "mapping_torus", "connectedness", "measures",
)


def _cycle_lengths(forward: dict) -> dict:
    lengths = {}
    for start in forward:
        if start in lengths:
            continue
        cycle = [start]
        q = forward[start]
        while q != start:
            cycle.append(q)
            q = forward[q]
        for p in cycle:
            lengths[p] = len(cycle)
    return lengths


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_counts: list[Counter] = []
        self.counts = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cycle_lengths = weakref.WeakKeyDictionary()

    # ---- recording -------------------------------------------------------

    def begin_pass(self) -> None:
        self.counts = Counter()
        self.pass_counts.append(self.counts)

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before(counts, *args)`` and
        ``after(counts, result, *args)`` update work counters untimed."""
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self.counts, *args, **kwargs)
            span = [len(spans), len(self.pass_counts), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = time.perf_counter()
                stack.pop()
                parent = spans[span[2]][3].split(".", 1)[0] if span[2] >= 0 else None
                if parent != layer:
                    self.counts[f"{layer}.errors"] += 1
                raise
            span[5] = time.perf_counter()
            stack.pop()
            if after is not None:
                after(self.counts, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, before=None, after=None) -> None:
        """Wrap ``owner.attr``, a module's function or a class's classmethod."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, before, after))
        else:
            wrapped = self.wrap(name, original, before, after)
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- the instrumented boundaries -------------------------------------

    def install(self) -> None:
        """Wrap every public function the benchmark's operations reach."""
        from solenoidlab import cli, connectedness, mapping_torus, measures, models

        def triples(counts, space, tol=0.0):
            counts["metric_core.triples"] += len(space) ** 3

        def orbit_steps(counts, mapping, n, x):
            lengths = self._cycle_lengths.get(mapping)
            if lengths is None:
                lengths = self._cycle_lengths[mapping] = _cycle_lengths(mapping.forward)
            counts["dynamics.orbit_steps"] += lengths[x]

        def adapted_steps(counts, space, mapping):
            counts["dynamics.adapted_steps"] += mapping.order()

        def cells(counts, ts, points):
            counts["mapping_torus.rep_matrix_cells"] += len(points) ** 2

        def unions(counts, space, mapping, epsilon):
            close = np.count_nonzero(np.triu(space.matrix <= epsilon, k=1))
            counts["connectedness.unions"] += int(close) + len(space)

        def cylinders(counts, w, cylinders):
            counts["measures.cylinders"] += len(cylinders)

        def points(counts, built, spec):
            counts["models.points"] += len(built.space)

        def chain_sample(counts, result, table, *args, **kwargs):
            counts["mapping_torus.chain_sample"] += len(table)

        def chain_query(counts, *args, **kwargs):
            counts["mapping_torus.chain_queries"] += 1

        self.patch(cli, "verify_metric_axioms", "metric_core.axioms", before=triples)
        self.patch(cli, "verify_ultrametric", "metric_core.ultrametric", before=triples)
        self.patch(cli, "box_counting_dimension", "metric_core.covering")
        self.patch(cli, "adapted_metric", "dynamics.adapted", before=adapted_steps)
        self.patch(cli, "quotient_metric", "mapping_torus.quotient")
        self.patch(cli, "flow", "mapping_torus.flow")
        self.patch(cli, "torus_points_close", "mapping_torus.points_close")
        self.patch(cli, "dense_orbit_check", "connectedness.dense_orbit")
        self.patch(cli, "ahlfors_check", "measures.ahlfors")
        self.patch(cli, "doubling_check", "measures.doubling")
        self.patch(cli, "shift_invariance_check", "measures.invariance", before=cylinders)
        self.patch(cli, "build_model", "models.build", after=points)
        # Helpers cli calls per pair or per label, so that their time is
        # charged to their own layer and not to cli.self_s.
        for helper in ("product_metric", "dist_to_integers", "circle_distance", "project_to_circle"):
            self.patch(cli, helper, f"mapping_torus.{helper}")
        self.patch(cli, "point_label", "models.point_label")
        self.patch(measures.WeightVector, "uniform", "measures.uniform_weights")
        self.patch(measures.CylinderSet, "from_dict", "measures.cylinder_set")
        for owner in (cli, mapping_torus):
            self.patch(owner, "estimate_bilipschitz_constant", "dynamics.bilipschitz")
            self.patch(owner, "representative_distance", "mapping_torus.representative")
            self.patch(
                owner, "representative_distance_matrix", "mapping_torus.rep_matrix",
                before=cells,
            )
        for owner in (cli, connectedness):
            self.patch(owner, "invariant_components", "connectedness.components", before=unions)
        self.patch(mapping_torus, "iterate", "dynamics.iterate", before=orbit_steps)
        self.patch(models, "enumerate_periodic_points", "shift_space.enumerate")
        self.patch(models, "pairwise_depth_matrix", "shift_space.depth_matrix")
        self.patch(models, "self_map_from_function", "dynamics.self_map")
        self.patch(models, "make_torus_space", "mapping_torus.make_torus")

        base = cli.ChainMetricTable
        traced_table = type("ChainMetricTable", (base,), {
            "__init__": self.wrap("mapping_torus.chain_build", base.__init__, after=chain_sample),
            "distance_via": self.wrap(
                "mapping_torus.chain_query", base.distance_via, before=chain_query
            ),
            "distance_matrix": self.wrap("mapping_torus.chain_matrix", base.distance_matrix),
        })
        self._patches.append((cli, "ChainMetricTable", base))
        cli.ChainMetricTable = traced_table

    # ---- reduction --------------------------------------------------------

    def pass_totals(self) -> list[dict]:
        """Per pass: inclusive seconds and calls per span name, self seconds
        per layer, and the work counters."""
        totals = [defaultdict(float) for _ in self.pass_counts]
        child = defaultdict(float)
        for sid, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, pass_id, _, name, start, end in self.spans:
            out = totals[pass_id - 1]
            out[f"{name}_s"] += end - start
            out[f"{name}_calls"] += 1
            out[f"{name.split('.', 1)[0]}.self_s"] += end - start - child[sid]
        for out, counts in zip(totals, self.pass_counts):
            out.update(counts)
        return [dict(t) for t in totals]

    def write(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fields = ["id", "pass", "parent", "name", "start", "end"]
            fh.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def median_totals(passes: list[dict]) -> dict:
    """Median of every quantity over passes; absent from a pass counts as 0."""
    keys = set().union(*passes)
    return {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}


def exponent(t_big: float, t_small: float, n_big: float, n_small: float) -> float:
    """log(t_big/t_small) / log(n_big/n_small); 0 where the layer did no work."""
    if min(t_big, t_small) <= 0 or n_big <= n_small:
        return 0.0
    return math.log(t_big / t_small) / math.log(n_big / n_small)
