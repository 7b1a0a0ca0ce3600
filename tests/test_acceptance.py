"""Acceptance suite: six headline guarantees that need the library, one
verdict line each.  The guarantees a config can state are claims under
``claims/`` (``tests/test_claims.py``).

Each test prints ``[PASS]``/``[FAIL]`` with the measured quantities, then
asserts.  Run the module directly for the verdict lines alone, or through
pytest for the usual reporting.
"""

import sys

import numpy as np

from solenoidlab import (
    Alphabet,
    ChainMetricTable,
    CylinderSet,
    PeriodicSequence,
    TorusPoint,
    WeightVector,
    adapted_metric,
    ahlfors_check,
    base_ball_measure,
    box_counting_dimension,
    build_full_shift,
    build_padic_cycle,
    build_snowflake_interval,
    build_two_fixed_points,
    dense_orbit_check,
    fiber,
    flow,
    invariant_components,
    metric_space_from_matrix,
    representative_distance,
    self_map_from_function,
    shift_invariance_check,
    snowflake,
    torus_points_close,
    verify_isometry,
    verify_metric_axioms,
)

TOL = 1e-9

BITS = Alphabet(("0", "1"))
UNIFORM = WeightVector.uniform(BITS)


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _sandwich_setup():
    _, _, ts = build_full_shift(2, 0.5, 4)
    sample = [
        TorusPoint(b, t)
        for b in ts.base_space.points
        for t in (0.0, 0.25, 0.74, 0.76)
    ]
    return ts, sample, ChainMetricTable(ts, sample)


def test_05_chain_triangle_and_direct_failure():
    ts, sample, table = _sandwich_setup()
    d0 = table.distance_matrix()
    n = len(sample)
    tri_bad = 0
    for k in range(n):
        through = d0[:, k][:, None] + d0[k, :][None, :]
        tri_bad += int(np.count_nonzero(d0 > through + TOL))
    p1 = TorusPoint(PeriodicSequence.from_text(BITS, "2:01"), 0.74)
    p2 = TorusPoint(PeriodicSequence.from_text(BITS, "2:01"), 0.25)
    p3 = TorusPoint(PeriodicSequence.from_text(BITS, "2:10"), 0.76)
    d12 = representative_distance(p1, p2, ts)
    d23 = representative_distance(p2, p3, ts)
    d13 = representative_distance(p1, p3, ts)
    direct_fails = d13 > d12 + d23 + TOL
    ok = tri_bad == 0 and direct_fails
    assert _verdict(
        "chain triangle inequality",
        ok,
        f"0 of {n}^3 triples violate the chain metric; direct distance does: "
        f"{d13:.2f} > {d12:.2f} + {d23:.2f}",
    )


def test_06_measure_identities():
    zeros = PeriodicSequence.from_cells(BITS, "0")
    exact_balls = all(
        base_ball_measure(zeros, 0.5 ** n, 0.5, UNIFORM) == 0.5 ** (2 * n)
        for n in range(0, 7)
    )
    _, _, ts = build_full_shift(2, 0.5, 4)
    samples = [TorusPoint(b, 0.25) for b in ts.base_space.points[:8]]
    radii = [0.5 ** k for k in range(1, 6)]
    base_band = ahlfors_check(samples, radii, 2.0, ts, UNIFORM, mode="base")
    torus_band = ahlfors_check(samples, radii, 3.0, ts, UNIFORM, mode="torus")
    rng = np.random.RandomState(106)
    cylinders = []
    for _ in range(100):
        size = int(rng.randint(1, 5))
        idx = rng.choice(np.arange(-6, 7), size=size, replace=False)
        cylinders.append(
            CylinderSet.from_dict(
                BITS, {int(j): str(rng.randint(2)) for j in idx}
            )
        )
    discrepancy = shift_invariance_check(UNIFORM, cylinders)
    ok = (
        exact_balls
        and base_band.c_low == 1.0
        and base_band.c_high == 1.0
        and abs(torus_band.fitted_exponent - 3.0) <= 0.1
        and discrepancy == 0.0
    )
    assert _verdict(
        "measure identities",
        ok,
        f"dyadic balls exact, base ratios [{base_band.c_low}, {base_band.c_high}], "
        f"torus exponent {torus_band.fitted_exponent:.3f}, "
        f"invariance discrepancy {discrepancy}",
    )


def test_07_dimension_fits_and_snowflake_identity():
    space, _, _ = build_full_shift(2, 0.5, 10)
    fit = box_counting_dimension(space, [0.5 ** k for k in range(1, 6)])
    grid = build_snowflake_interval(256, 0.5)
    grid_fit = box_counting_dimension(grid, [2.0 ** -1, 2.0 ** -1.5, 2.0 ** -2])
    small, _, _ = build_full_shift(2, 0.5, 6)
    alpha = 0.5
    rebuilt, _, _ = build_full_shift(2, 0.5 ** alpha, 6)
    identical = np.array_equal(snowflake(small, alpha).matrix, rebuilt.matrix)
    ok = (
        abs(fit.slope - 2.0) <= 0.05
        and abs(grid_fit.slope - 2.0) <= 0.1
        and identical
    )
    assert _verdict(
        "dimension fits",
        ok,
        f"full-shift slope {fit.slope:.4f}, snowflaked-interval slope "
        f"{grid_fit.slope:.4f}, power identity exact on all pairs",
    )


def test_08_connectedness_catalogue():
    shift_space, shift_map, _ = build_full_shift(2, 0.5, 4)
    one = invariant_components(shift_space, shift_map, 0.5)
    pair_space, pair_map, _ = build_two_fixed_points()
    two = invariant_components(pair_space, pair_map, 0.5)
    cycle_space, cycle_map, _ = build_padic_cycle(2, 3)
    all_one = all(
        len(invariant_components(cycle_space, cycle_map, eps).blocks) == 1
        for eps in (0.01, 0.125, 0.25, 0.5, 1.0)
    )
    orbit = dense_orbit_check(cycle_space, cycle_map, 0, 0.125, 8)
    ok = (
        len(one.blocks) == 1
        and len(two.blocks) == 2
        and two.witness is not None
        and all_one
        and orbit.dense
    )
    witness = [p.to_text() for p in (two.witness or ())]
    assert _verdict(
        "connectedness catalogue",
        ok,
        f"shift sample {len(one.blocks)} block, fixed points {len(two.blocks)} "
        f"blocks (witness {witness}), cycle connected at all resolutions, "
        f"dense orbit {orbit.dense}",
    )


def test_09_flow_and_fiber_laws():
    _, _, ts = build_full_shift(2, 0.5, 4)
    points = ts.base_space.points
    rng = np.random.RandomState(109)
    group_bad = 0
    for _ in range(1_000):
        p = TorusPoint(points[rng.randint(16)], float(rng.rand()))
        r, s = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        lhs = flow(flow(p, s, ts), r, ts)
        rhs = flow(p, r + s, ts)
        if not torus_points_close(lhs, rhs, ts, tol=1e-12):
            group_bad += 1
    periodic = all(
        flow(TorusPoint(ts.monodromy(x), t), 1.0, ts) == TorusPoint(x, t)
        for x in points
        for t in (0.0, 0.25, 0.5, 0.75)
    )
    start = fiber(0.25, points, ts)
    shifted = {flow(p, 0.5, ts) for p in start}
    wrapped = {flow(p, 0.75, ts) for p in start}
    onto = shifted == set(fiber(0.75, points, ts)) and wrapped == set(
        fiber(0.0, points, ts)
    )
    bijective = len(shifted) == len(points) and len(wrapped) == len(points)
    ok = group_bad == 0 and periodic and onto and bijective
    assert _verdict(
        "flow and fiber laws",
        ok,
        f"group law exact to 1e-12 on 1000 draws ({group_bad} failures), "
        f"unit-time periodicity exact, fibers map bijectively",
    )


def test_10_adapted_metric_on_random_spaces():
    rng = np.random.RandomState(110)
    bad = 0
    for _ in range(100):
        n = 8
        raw = 1.0 + rng.rand(n, n)
        upper = np.triu(raw, 1)
        space = metric_space_from_matrix(range(n), upper + upper.T)
        perm = rng.permutation(n)
        mapping = self_map_from_function(range(n), lambda x, p=perm: int(p[x]))
        tilde = adapted_metric(space, mapping)
        good = (
            verify_metric_axioms(tilde).is_metric
            and np.all(tilde.matrix >= space.matrix)
            and verify_isometry(tilde, mapping).is_isometry
        )
        if not good:
            bad += 1
    ok = bad == 0
    assert _verdict(
        "adapted metric",
        ok,
        f"100 random 8-point spaces: axioms, domination and exact isometry "
        f"({bad} failures)",
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
