"""Reference axiom scans: the exhaustive triple enumeration, kept as the oracle.

``metric_core`` decides passing spaces without enumerating triples and
tallies failing ones with array passes, keeping a count and the first few
witnesses.  This module is the plain O(N^3) scan that lists every violation,
so property tests can hold the library's reports, counts and witnesses in
order, against it.  It also keeps the
subdominant-ultrametric verdict as a Prim pass that fills the whole
ultrametric row by row, the oracle for the library's range-maximum verdict,
:func:`table_levels`, which hands a whole exponent table to a power space as
its levels, and :func:`python_powers`, the distances such a space must give.
:func:`shortest_paths_by_scipy` is scipy's Floyd-Warshall, the oracle for
the library's block-pruned solve.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from solenoidlab import AxiomViolation, FiniteMetricSpace, MetricReport, PowerLevels
from solenoidlab.metric_core import WITNESS_LIMIT


def basic_violations(space: FiniteMetricSpace, tol: float) -> list[AxiomViolation]:
    m = space.matrix
    pts = space.points
    out: list[AxiomViolation] = []
    for i in np.flatnonzero(np.abs(np.diag(m)) > tol):
        out.append(AxiomViolation("identity", (pts[i],), float(abs(m[i, i]))))
    asym = np.abs(m - m.T)
    for i, j in np.argwhere(np.triu(asym, k=1) > tol):
        out.append(AxiomViolation("symmetry", (pts[i], pts[j]), float(asym[i, j])))
    # A power space's separation is exact: its distances are powers of a
    # base, 0 only for equal points or on underflow.
    sep = 0.0 if space.levels is not None else tol
    off = np.triu(np.ones_like(m, dtype=bool), k=1)
    for i, j in np.argwhere(off & (m <= sep)):
        out.append(
            AxiomViolation("separation", (pts[i], pts[j]), float(sep - m[i, j]))
        )
    return out


def triangle_violations(space: FiniteMetricSpace, tol: float) -> list[AxiomViolation]:
    m = space.matrix
    pts = space.points
    upper = np.triu(np.ones_like(m, dtype=bool), k=1)
    out = []
    for k in range(len(pts)):
        through = m[:, k][:, None] + m[k, :][None, :]
        for i, j in np.argwhere(upper & (m > through + tol)):
            out.append(
                AxiomViolation(
                    "triangle",
                    (pts[i], pts[j], pts[k]),
                    float(m[i, j] - through[i, j]),
                )
            )
    return out


def ultrametric_violations(space: FiniteMetricSpace, tol: float) -> list[AxiomViolation]:
    m = space.matrix
    pts = space.points
    upper = np.triu(np.ones_like(m, dtype=bool), k=1)
    out = []
    if space.levels is not None:
        e = space.levels.table(space.levels.exponents, len(pts))
        for k in range(len(pts)):
            floor = np.minimum(e[:, k][:, None], e[k, :][None, :])
            for i, j in np.argwhere(upper & (e < floor)):
                peak = max(m[i, k], m[k, j])
                out.append(
                    AxiomViolation(
                        "ultrametric", (pts[i], pts[j], pts[k]), float(m[i, j] - peak)
                    )
                )
        return out
    for k in range(len(pts)):
        peak = np.maximum(m[:, k][:, None], m[k, :][None, :])
        for i, j in np.argwhere(upper & (m > peak + tol)):
            out.append(
                AxiomViolation(
                    "ultrametric", (pts[i], pts[j], pts[k]), float(m[i, j] - peak[i, j])
                )
            )
    return out


def scan(space: FiniteMetricSpace, tol: float, with_ultra: bool) -> MetricReport:
    """The report of the full enumeration: every violation counted, the
    first ``WITNESS_LIMIT`` of each list kept."""
    axioms = basic_violations(space, tol) + triangle_violations(space, tol)
    ultra = ultrametric_violations(space, tol) if with_ultra else []
    return MetricReport(
        axiom_violations=tuple(axioms[:WITNESS_LIMIT]),
        ultrametric_violations=tuple(ultra[:WITNESS_LIMIT]),
        axiom_violation_count=len(axioms),
        ultrametric_violation_count=len(ultra),
        diameter=space.diameter(),
        is_metric=not axioms,
        is_ultrametric=(not axioms and not ultra) if with_ultra else None,
    )


def within_subdominant(key: np.ndarray, tol: float) -> bool:
    """Whether ``key[i, j] <= sub[i, j] + tol`` for every ``i != j``, with
    ``sub`` the subdominant ultrametric of ``min(key, key.T)``.

    A dense Prim pass: when ``v`` joins the tree through ``parent`` with
    weight ``w``, its row of ``sub`` over the earlier vertices is
    ``max(sub[parent], w)``, and each pair is compared as its row is filled.
    """
    n = len(key)
    sub = np.empty((n, n))
    order = np.empty(n, dtype=np.intp)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    parent = np.zeros(n, dtype=np.intp)
    v = 0
    for t in range(n):
        done = order[:t]
        if t:
            row = np.maximum(sub[parent[v], done], best[v])
            bound = row + tol
            if not (np.all(key[v, done] <= bound) and np.all(key[done, v] <= bound)):
                return False
            sub[v, done] = row
            sub[done, v] = row
        sub[v, v] = -np.inf
        order[t] = v
        in_tree[v] = True
        weight = np.minimum(key[v], key[:, v])
        closer = weight < best
        best[closer] = weight[closer]
        parent[closer] = v
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
    return True


def table_levels(e: np.ndarray) -> PowerLevels:
    """The N x N exponent table ``e`` as levels: each distinct exponent is
    one level, and a pair's level is read from the table of codes.
    ``np.unique`` counts -0.0 as 0.0, so a table with a -0.0 comes back
    with 0.0 there."""
    exponents, codes = np.unique(e, return_inverse=True)
    codes = codes.reshape(e.shape)
    return PowerLevels(lambda rows, cols: codes[rows, cols], exponents)


def python_powers(base: float, e: np.ndarray) -> np.ndarray:
    """``base ** x`` for every entry ``x`` of ``e``, each by Python's float
    power: the distances a power space with exponent table ``e`` must give.
    numpy's array power may round some of them differently."""
    return np.array([base ** x for x in e.ravel().tolist()]).reshape(e.shape)


def shortest_paths_by_scipy(weights: np.ndarray) -> np.ndarray:
    """scipy's undirected ``floyd_warshall`` with every entry of ``weights``
    as an edge.  Handed a dense array, scipy would read zero entries, and
    every entry within 1e-8 of zero, as missing edges; a sparse matrix that
    stores every entry keeps them all."""
    n = len(weights)
    graph = csr_matrix(
        (np.asarray(weights, dtype=np.float64).ravel(), np.tile(np.arange(n), n),
         np.arange(0, n * n + 1, n)),
        shape=(n, n),
    )
    return floyd_warshall(graph, directed=False)
