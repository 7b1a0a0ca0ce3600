"""The correctness gate: what makes one benchmark operation count as failed.

An operation fails when its exit code is not 0, when a pass/fail check in a
run report is not ``"pass"`` with zero violations, when an exported matrix is
not square, symmetric and zero on the diagonal, or when an export breaks the
order between metrics: chain <= representative, quotient <= product and
adapted >= base entrywise, with product and base recomputed from the model.
Later passes of the same seed must reproduce the first pass byte for byte.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from solenoidlab.models import ModelSpec, build_model


def _run_failure(op, text: str) -> str | None:
    report = json.loads(text)
    names = [r["name"] for r in report["results"]]
    if names != [c["name"] for c in op.config["checks"]]:
        return f"report lists checks {names}"
    for r in report["results"]:
        if r["status"] == "report":
            continue
        if r["status"] != "pass" or r["violations"] != 0:
            return f"check {r['name']!r}: {r['status']} with {r['violations']} violations"
    return None


def _read_matrix(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    labels, body = rows[0], rows[1:]
    matrix = np.array([[float(v) for v in row] for row in body])
    if matrix.shape != (len(labels), len(labels)):
        raise ValueError(f"matrix shape {matrix.shape} for {len(labels)} labels")
    return matrix


def _product_matrix(space_cfg: dict, times: list[float]) -> np.ndarray:
    """max(base distance, time gap) over the export's sample, in its order."""
    base = build_model(ModelSpec.from_dict(space_cfg)).torus.base_space.matrix
    idx = np.repeat(np.arange(len(base)), len(times))
    tvec = np.tile(np.array(times, dtype=float), len(base))
    return np.maximum(base[np.ix_(idx, idx)], np.abs(tvec[:, None] - tvec[None, :]))


class Gate:
    """Checks one pass of a workload's operations.

    The first pass a gate sees is checked in full and becomes the reference;
    every later pass must match it byte for byte, so a reference failure
    repeats on every pass.  The bounds the exports are compared against are
    recomputed from the models when the gate is made.
    """

    def __init__(self, ops):
        self.ops = ops
        self.reference: list[tuple[int, str]] | None = None
        self.verdicts: list[str | None] = []
        self.bounds = {}
        for op in ops:
            exp = op.config.get("export", {})
            if exp.get("metric") == "adapted":
                model = build_model(ModelSpec.from_dict(op.config["space"]))
                self.bounds[op.name] = model.space.matrix
            elif exp.get("metric") == "quotient":
                self.bounds[op.name] = _product_matrix(op.config["space"], exp["times"])

    def check(self, outputs: list[tuple[int, str, str]]) -> list[str | None]:
        """One failure reason or None per operation, for (code, stdout, stderr) outputs."""
        produced = [(code, out) for code, out, _ in outputs]
        if self.reference is None:
            self.reference = produced
            self.verdicts = self._full_check(outputs)
            return list(self.verdicts)
        return [
            verdict or ("output differs from the first pass" if got != ref else None)
            for verdict, got, ref in zip(self.verdicts, produced, self.reference)
        ]

    def _full_check(self, outputs) -> list[str | None]:
        verdicts: list[str | None] = []
        matrices: dict[str, np.ndarray] = {}
        for op, (code, text, err) in zip(self.ops, outputs):
            if code != 0:
                verdicts.append(f"exit code {code}: {err.strip()[-200:]}")
                continue
            try:
                if op.command == "run":
                    verdicts.append(_run_failure(op, text))
                    continue
                m = _read_matrix(text)
            except (ValueError, KeyError, IndexError) as e:
                verdicts.append(f"unreadable output: {e}")
                continue
            matrices[op.name] = m
            verdicts.append(self._export_failure(op, m, matrices))
        return verdicts

    def _export_failure(self, op, m: np.ndarray, matrices) -> str | None:
        if not np.array_equal(m, m.T):
            return "matrix is not symmetric"
        if np.any(np.diag(m) != 0.0):
            return "matrix has a nonzero diagonal"
        metric = op.config["export"]["metric"]
        if metric == "adapted" and np.any(m < self.bounds[op.name]):
            return "adapted < base"
        if metric == "quotient" and np.any(m > self.bounds[op.name]):
            return "quotient > product"
        if metric == "chain":
            rep = matrices.get("representative")
            if rep is None or rep.shape != m.shape:
                return "no representative matrix of the same sample to compare with"
            if np.any(m > rep):
                return "chain > representative"
        return None
