"""Acceptance suite: one test per headline requirement.

Each test prints a single PASS line on success (visible with -s or in the
captured output); a failure shows up as the usual pytest assertion.
"""

import random

import pytest

from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import ktheory as kt
from bratteli import paths as pt
from bratteli import soe

from conftest import suite_diagrams

SUITE = suite_diagrams(10)

# Diagrams modelling tower constructions; the plain Fibonacci diagram is
# excluded because no edge order on it satisfies structural property (c)
# (the single edge into its second vertex forces both vertices extremal
# while the double edge into the first sends one extremal edge elsewhere).
FEM_SUITE = {k: v for k, v in SUITE.items() if k != "fibonacci"}


def _sampled_ranks(d, depth, vertex, cap, rng):
    total = pt.path_counts(d, depth)[vertex]
    if total <= cap:
        return range(total)
    return sorted(rng.sample(range(total), cap))


def test_criterion_1_vershik_rank_law():
    rng = random.Random(0)
    checked = 0
    for name, d in SUITE.items():
        for depth in (1, 2, 3, 5, 8, 10):
            for v in range(d.vertex_counts[depth]):
                total = pt.path_counts(d, depth)[v]
                for r in _sampled_ranks(d, depth, v, 600, rng):
                    p = pt.path_unrank(d, depth, v, r)
                    assert pt.path_rank(d, p) == r
                    if r + 1 < total:
                        q = pt.vershik_successor(d, p)
                        assert pt.path_rank(d, q) == r + 1
                    checked += 1
    print(f"PASS criterion 1: rank law on {checked} paths "
          f"across {len(SUITE)} diagrams")


def test_criterion_2_telescoping_conjugacy():
    rng = random.Random(1)
    checked = 0
    for name, d in SUITE.items():
        for _ in range(3):
            interior = sorted(rng.sample(range(1, d.num_levels), 3))
            cuts = interior + [d.num_levels]
            td, tmap = dg.telescope(d, cuts)
            for v in range(d.vertex_counts[d.num_levels]):
                for r in _sampled_ranks(d, d.num_levels, v, 200, rng):
                    p = pt.path_unrank(d, d.num_levels, v, r)
                    if pt.is_maximal(d, p):
                        continue
                    lhs = pt.telescope_path(
                        tmap, pt.vershik_successor(d, p), td)
                    rhs = pt.vershik_successor(
                        td, pt.telescope_path(tmap, p, td))
                    assert lhs == rhs
                    checked += 1
    print(f"PASS criterion 2: telescoping conjugacy on {checked} paths")


def test_criterion_3_structural_properties():
    diagrams = dict(FEM_SUITE)
    diagrams["cycles"] = gen.finite_cycle_system([2, 3, 5])[1]
    systems, refinements = gen.odometer_towers(3, 6)
    diagrams["towers"] = gen.towers_to_diagram(systems, refinements)
    for name, d in diagrams.items():
        assert dg.check_fem_properties(d) == [], name
        n = d.num_levels
        cuts = sorted(set(list(range(2, n + 1, 2)) + [n]))
        td, _ = dg.telescope(d, cuts)
        assert dg.check_fem_properties(td) == [], f"{name} telescoped"
    violating = dg.make_diagram(
        2, [1, 2, 2],
        [[(0, 0), (0, 1)],
         [(0, 0), (1, 0), (1, 1), (0, 1)]])
    failures = dg.check_fem_properties(violating)
    assert failures and {f.prop for f in failures} == {"c"}
    print(f"PASS criterion 3: properties (b),(c),(d) hold on "
          f"{len(diagrams)} diagrams and their telescopings; the injected "
          f"violation fails exactly (c)")


def _diagram_side_invariants(lengths):
    _, d = gen.finite_cycle_system(lengths)
    pres = kt.k0_presentation(d)
    maps_product = pres.maps[0] if pres.maps else None
    acc = [list(r) for r in pres.maps[0]] if pres.maps else None
    for m in pres.maps[1:]:
        acc = dg.mat_mul([list(r) for r in m], acc)
    if acc is None:
        rank = len(pres.unit)
        torsion = []
    else:
        res = kt.smith_normal_form(acc)
        rank = res.rank
        torsion = [x for x in res.diagonal[:res.rank] if x > 1]
    unit = sorted(pres.unit)
    k1 = kt.k1_rank(d)
    return rank, torsion, unit, k1


def test_criterion_4_oracle_equivalence():
    cases = []
    for a in range(1, 9):
        cases.append([a])
        for b in range(a, 9):
            cases.append([a, b])
            for c in range(b, 9):
                cases.append([a, b, c])
    rng = random.Random(2)
    for _ in range(200):
        size = rng.randint(1, 64)
        lens = []
        left = size
        while left:
            x = rng.randint(1, left)
            lens.append(x)
            left -= x
        cases.append(lens)
    for lengths in cases:
        s, _ = gen.finite_cycle_system(lengths)
        oracle = kt.k_oracle_finite_system(s)
        rank, torsion, unit, k1 = _diagram_side_invariants(lengths)
        assert oracle["k0_rank"] == rank == len(lengths)
        assert oracle["k0_torsion"] == torsion == []
        assert oracle["unit_image"] == unit == sorted(lengths)
        assert oracle["k1_rank"] == len(lengths)
        assert k1["rank"] == len(lengths) and k1["certified"]
    print(f"PASS criterion 4: oracle agrees with the diagram side on "
          f"{len(cases)} cycle systems")


def test_criterion_5_odometer_k0_arithmetic():
    for d in (2, 3, 5):
        diag = gen.odometer(d, 12)
        pres = kt.k0_presentation(diag)
        for n in range(1, 13):
            assert pres.push(1, list(pres.unit), n) == [d ** (n - 1) * d]
        # [d] at level 1 pushes to [d^2] at level 2; that is the element
        # it is identified with in the limit.  The same vector [d] read at
        # level 2 is a strictly smaller element and the injective maps
        # certify the difference.
        g1 = kt.DimGroupElement(1, (d,))
        assert kt.element_equal(
            g1, kt.DimGroupElement(2, (d * d,)), pres) == "equal"
        assert kt.element_equal(
            g1, kt.DimGroupElement(2, (d,)), pres) == "not_equal"
    print("PASS criterion 5: unit push-forward is d^(n-1) times the unit "
          "and equality in the limit is certified both ways")


def test_criterion_6_soe_pipeline_end_to_end():
    b1, _ = dg.telescope(gen.odometer(2, 17), list(range(1, 18, 2)))
    b2 = gen.odometer(4, 8)
    w = soe.stationary_intertwining([[2]], [[2]], 8, 8)
    bp = soe.build_interleaved(b1, b2, w)
    assert soe.check_interleaved_properties(bp) == []
    pairing = soe.pair_extremal_paths(bp, bp.diagram.num_levels)
    assert len(pairing.min_pairs) == 1 and len(pairing.max_pairs) == 1
    F = soe.realize_orbit_map(bp, pairing)
    paths1 = pt.all_paths(b1, 6)
    imgs1 = {soe.f1_path(F, p).edge_indices for p in paths1}
    assert len(imgs1) == len(paths1) == len(pt.all_paths(bp.diagram, 11))
    paths2 = pt.all_paths(b2, 6)
    imgs2 = {soe.f2_path(F, p).edge_indices for p in paths2}
    assert len(imgs2) == len(paths2) == len(pt.all_paths(bp.diagram, 12))
    report = soe.check_cocycle_continuity(F, 8)
    assert report["ok"] and report["nonconstant"] == []
    verified = 0
    for depth in range(2, 7):
        for p in pt.all_paths(b1, depth):
            pre = pt.make_path(b1, p.edge_indices[:-1])
            if not pt.is_maximal(b1, pre):
                assert soe.verify_cocycle(F, p, "forward")
                verified += 1
            if not pt.is_minimal(b1, pre):
                assert soe.verify_cocycle(F, p, "backward")
                verified += 1
    print(f"PASS criterion 6: pipeline valid, F bijective on depth-6 "
          f"cylinders, cocycles constant on {report['eligible']} eligible "
          f"cylinders and {verified} values confirmed by iteration")


def test_criterion_7_soe_negative_control():
    b1 = gen.odometer(2, 6)
    b2 = gen.odometer(3, 6)
    match, rejections = soe.search_stationary_intertwining(b1, b2, 12)
    assert match is None
    assert len(rejections) == 13 * 13
    for r in rejections:
        assert "QP" in r["reason"] or "PQ" in r["reason"] \
            or "root" in r["reason"]
    print("PASS criterion 7: no 1x1 intertwining up to bound 12 between "
          "the 2- and 3-odometers; all 169 candidates rejected with the "
          "failing product identity")


def test_criterion_8_orbit_shift_oracle():
    rng = random.Random(3)
    walked = 0
    sampled = 0
    for name, d in SUITE.items():
        depth = 8
        counts = pt.path_counts(d, depth)
        for v in range(d.vertex_counts[depth]):
            if counts[v] <= 20000:
                p = pt.path_unrank(d, depth, v, 0)
                for r in range(counts[v] - 1):
                    q = pt.vershik_successor(d, p)
                    assert pt.orbit_shift(d, p, q) == 1
                    assert pt.path_rank(d, q) == r + 1
                    p = q
                    walked += 1
            else:
                for _ in range(100):
                    r1 = rng.randrange(counts[v])
                    n = rng.randint(-300, 300)
                    r2 = min(max(r1 + n, 0), counts[v] - 1)
                    e = pt.path_unrank(d, depth, v, r1)
                    f = pt.path_unrank(d, depth, v, r2)
                    shift = pt.orbit_shift(d, e, f)
                    assert shift == r2 - r1
                    cur = e
                    step = (pt.vershik_successor if shift >= 0
                            else pt.vershik_predecessor)
                    for _ in range(abs(shift)):
                        cur = step(d, cur)
                    assert cur == f
                    sampled += 1
    print(f"PASS criterion 8: orbit shift confirmed by iteration along "
          f"{walked} successor steps plus {sampled} sampled pairs")


def test_criterion_9_k1_fiber_count():
    bases = [2, 3, 5, 2, 3]
    for m in (1, 2, 3, 5):
        parts = [gen.odometer(bases[i], 8) for i in range(m)]
        union = parts[0] if m == 1 else gen.disjoint_union(parts)
        res = kt.k1_rank(union, 6)
        assert res == {"rank": m, "certified": True}
        s, _ = gen.finite_cycle_system([bases[i] for i in range(m)])
        assert kt.k_oracle_finite_system(s)["k1_rank"] == m
    print("PASS criterion 9: k1 rank equals the fiber count for unions of "
          "1, 2, 3 and 5 odometers and matches the finite-cycle oracle")
