"""The benchmark's workloads: fixed lists of ``solenoidlab`` CLI operations.

Each operation is one ``cli.main([command, config_path])`` call.  The seed is
written into the ``seed`` field of every ``run`` config; exports sample
nothing, so their configs do not depend on it.  ``small=True`` gives the same
operations one rung smaller (half the base points), which the traced run uses
for the per-layer scaling exponent.

This module only builds plain data and imports nothing from the package, so
the set-up timing in ``worker.py`` starts before numpy is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("shift-scan", "padic-orbit", "torus-export")

#: Sample times of the torus exports on the shift model.
EXPORT_TIMES = [0.0, 0.25, 0.5, 0.75]
#: Sample times of the quotient export; two times keep its per-pair loop short.
QUOTIENT_TIMES = [0.0, 0.5]


@dataclass(frozen=True)
class Op:
    """One CLI call: ``name`` is unique within a workload and names its config file."""

    name: str
    command: str
    config: dict


def full_shift(max_period: int) -> dict:
    return {
        "kind": "full-shift",
        "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": max_period},
    }


def padic_cycle(digits: int) -> dict:
    return {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": digits}}


def operations(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The workload's operations; ``small`` halves every model's point count."""
    if workload == "shift-scan":
        # Full shift, N = 512 (256 small): the two cubic metric_core scans
        # dominate; nothing calls iterate, so dynamics work should not move it.
        return [Op("run", "run", {
            "space": full_shift(8 if small else 9),
            "seed": seed,
            "checks": [
                {"name": "metric-axioms"},
                {"name": "ultrametric"},
                {"name": "bilipschitz"},
                {"name": "connectedness", "epsilon": 0.25},
                {"name": "dense-orbit", "epsilon": 0.25},
                {"name": "dimension", "scales": [0.5, 0.25, 0.125, 0.0625]},
                {"name": "measures", "cylinders": 2000},
            ],
        })]
    if workload == "padic-orbit":
        # One 1024-cycle (512 small): scalar per-pair torus queries, each
        # walking a full orbit in iterate; max_bases 128 gives a chain sample
        # of 512, the dense solver's limit.  No axiom scan, so metric_core
        # should not move it.
        return [Op("run", "run", {
            "space": padic_cycle(9 if small else 10),
            "seed": seed,
            "checks": [
                {"name": "bilipschitz"},
                {"name": "quotient-metric", "pairs": 1000},
                {"name": "flow-laws", "triples": 1000},
                {"name": "chain-sandwich", "pairs": 500, "max_bases": 128},
                {"name": "connectedness", "epsilon": 0.25},
                {"name": "dense-orbit", "epsilon": 0.25},
            ],
        })]
    if workload == "torus-export":
        # The dynamics and mapping_torus code of padic-orbit, but through the
        # bulk matrix paths and the CSV writer: a change that helps the scalar
        # queries and costs these shows here.
        ops = [Op("adapted", "export", {
            "space": padic_cycle(8 if small else 9),
            "export": {"metric": "adapted"},
        })]
        shift = full_shift(6 if small else 7)
        ops += [
            Op(metric, "export", {
                "space": shift,
                "export": {"metric": metric, "times": EXPORT_TIMES},
            })
            for metric in ("representative", "chain", "product")
        ]
        ops.append(Op("quotient", "export", {
            "space": padic_cycle(5 if small else 6),
            "export": {"metric": "quotient", "times": QUOTIENT_TIMES},
        }))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def cliff_probe(seed: int) -> Op:
    """chain-sandwich with a chain sample of 684 > 512 points on a 1024-cycle.

    At the time the benchmark was written this exits 2 with "off-sample
    queries need the dense all-pairs table".  It runs once per benchmark run,
    outside the timed passes, so a fix is not charged as a pass_s change.
    """
    return Op("cliff-probe", "run", {
        "space": padic_cycle(10),
        "seed": seed,
        "checks": [{"name": "chain-sandwich", "pairs": 20, "max_bases": 200}],
    })
