import functools
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import paths as pt
from bratteli import soe
from conftest import peak_growth, random_diagram


def odometer_pair(levels1=9, levels2=8):
    """2-odometer telescoped to odd cut points, the 4-odometer, P=Q=[2]."""
    b1, _ = dg.telescope(gen.odometer(2, 2 * levels1 - 1),
                         list(range(1, 2 * levels1, 2)))
    b2 = gen.odometer(4, levels2)
    w = soe.stationary_intertwining([[2]], [[2]], levels2, levels1 - 1)
    return b1, b2, w


def test_make_intertwining_validates():
    with pytest.raises(dg.DiagramError):
        soe.make_intertwining([], [])
    with pytest.raises(dg.DiagramError):
        soe.make_intertwining([[[1]]], [[[1]], [[1]]])
    with pytest.raises(dg.DiagramError):
        soe.make_intertwining([[[-1]]], [])
    with pytest.raises(dg.DiagramError, match="ragged intertwining matrix"):
        soe.make_intertwining([[[1, 1], [1]]], [])


def test_validate_intertwining_reports_level_and_entry():
    b1, b2, _ = odometer_pair(4, 3)
    bad = soe.stationary_intertwining([[2]], [[3]], 3, 3)
    with pytest.raises(soe.IntertwiningInvalid) as err:
        soe.validate_intertwining(b1, b2, bad)
    assert err.value.level == 1
    assert err.value.entry == (0, 0)


def test_validate_intertwining_checks_root_column():
    # Products QP and PQ hold but the root columns are incompatible:
    # plain 2-odometer (root [2]) against the 4-odometer (root [4]) with
    # P = [1], Q = [4] satisfies QP = 4? No: B1 interior is [2], so use
    # a genuinely root-breaking pair on equal interiors.
    b1 = gen.odometer(4, 4)
    b2, _ = dg.telescope(gen.odometer(2, 8), [2, 4, 6, 8])
    w = soe.stationary_intertwining([[2]], [[2]], 4, 3)
    with pytest.raises(soe.IntertwiningInvalid) as err:
        soe.validate_intertwining(b1, b2, w)
    assert "root" in str(err.value)


@pytest.mark.parametrize("levels1, levels2, changes, level, entry, message", [
    (2, 3, [], 2, None, "intertwining needs 3 levels of B1, which has 2"),
    (3, 2, [], 3, None, "intertwining needs 3 levels of B2, which has 2"),
    (3, 3, [("P", 1, [[1, 1]])], 2, None, "P_2 must be 1x1"),
    (3, 3, [("Q", 0, [[2, 2]])], 1, None, "Q_1 must be 1x1"),
    (3, 3, [("P", 1, [[2]])], 1, (0, 0),
     "P_2 Q_1 differs from B2 incidence at level 2, entry (0, 0): 4 vs 2"),
    (3, 3, [("Q", 0, [[3]])], 1, (0, 0),
     "Q_1 P_1 differs from B1 incidence at level 2, entry (0, 0): 3 vs 2"),
    (3, 3, [("P", 0, [[2]])], 1, (0, 0),
     "root columns differ at entry (0, 0): P_1 gives 4, B2 has 2"),
    # Every shape is checked before any product, all P's before the Q's.
    (3, 3, [("P", 1, [[1, 1]]), ("Q", 0, [[2, 2]])], 2, None,
     "P_2 must be 1x1"),
    (3, 3, [("P", 2, [[1, 1]]), ("Q", 0, [[3]])], 3, None,
     "P_3 must be 1x1"),
], ids=["b1-levels", "b2-levels", "p-shape", "q-shape", "pq-product",
        "qp-product", "root", "p-before-q", "shape-before-product"])
def test_validate_intertwining_failures(levels1, levels2, changes, level,
                                        entry, message):
    # 2-odometers with P = [1] and Q = [2] pass; each case changes one
    # level count or one or two matrices.
    mats = {"P": [[[1]]] * 3, "Q": [[[2]]] * 2}
    for key, i, m in changes:
        mats[key][i] = m
    w = soe.make_intertwining(mats["P"], mats["Q"])
    with pytest.raises(soe.IntertwiningInvalid) as err:
        soe.validate_intertwining(gen.odometer(2, levels1),
                                  gen.odometer(2, levels2), w)
    assert (err.value.level, err.value.entry) == (level, entry)
    assert str(err.value) == message


def test_build_interleaved_odometer_pair():
    b1, b2, w = odometer_pair(4, 3)
    bp = soe.build_interleaved(b1, b2, w)
    d = bp.diagram
    assert d.vertex_counts == (1,) * (d.num_levels + 1)
    assert all(len(d.level_edges(n)) == 2 for n in range(1, d.num_levels + 1))
    # Telescoping to odd cut points reproduces B1's incidence; to even, B2's.
    odd, _ = dg.telescope(d, list(range(1, d.num_levels + 1, 2)))
    for n in range(1, odd.num_levels + 1):
        assert dg.incidence_matrix(odd, n) == dg.incidence_matrix(b1, n)
    even_cuts = list(range(2, d.num_levels + 1, 2))
    full = len(even_cuts)
    if even_cuts[-1] != d.num_levels:
        even_cuts.append(d.num_levels)
    even, _ = dg.telescope(d, even_cuts)
    for n in range(1, full + 1):
        assert dg.incidence_matrix(even, n) == dg.incidence_matrix(b2, n)


def test_build_interleaved_rejects_perturbations():
    b1, b2, _ = odometer_pair(4, 3)
    rng = random.Random(0)
    for _ in range(20):
        p = [[rng.randint(0, 5)]]
        q = [[rng.randint(0, 5)]]
        if p[0][0] * q[0][0] == 4 and p[0][0] * 2 == 4:
            continue
        w = soe.stationary_intertwining(p, q, 3, 3)
        with pytest.raises(soe.IntertwiningInvalid):
            soe.build_interleaved(b1, b2, w)


def test_identity_style_intertwining():
    # B1 = B2 = 2-odometer; P = [1], Q = [2] reproduces both sides.
    b = gen.odometer(2, 6)
    w = soe.stationary_intertwining([[1]], [[2]], 6, 5)
    bp = soe.build_interleaved(b, b, w)
    assert soe.check_interleaved_properties(bp) == []
    F = soe.realize_orbit_map(bp)
    for p in pt.all_paths(b, 4):
        if pt.is_maximal(b, pt.make_path(b, p.edge_indices[:-1])):
            continue
        assert soe.cocycle(F, p, "forward") == 1


def test_interleaved_properties_pass():
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    assert soe.check_interleaved_properties(bp) == []


def _reference_properties(bp):
    # The check read off the telescoped diagram itself.
    d = bp.diagram
    cuts = list(range(1, d.num_levels + 1, 3))
    if cuts[-1] != d.num_levels:
        cuts.append(d.num_levels)
    td, _ = dg.telescope(d, cuts)
    failures = []
    for kind, extremal in (("min", dg.min_vertices),
                           ("max", dg.max_vertices)):
        ext = {n: set(extremal(td, n)) for n in range(td.num_levels)}
        for n in range(td.num_levels - 1):
            for v in sorted(ext[n]):
                if not set(dg.vertex_ranges(td, n, v)) & ext[n + 1]:
                    failures.append(
                        f"(i) fails: {kind} vertex {v} at level {n} has no "
                        f"{kind} vertex in its range set")
        for n in range(1, td.num_levels):
            for v in sorted(ext[n]):
                hits = set(dg.vertex_sources(td, n, v)) & ext[n - 1]
                if len(hits) != 1:
                    failures.append(
                        f"(ii) fails: {kind} vertex {v} at level {n} has "
                        f"{len(hits)} {kind} vertices in its source set")
    return failures


def test_interleaved_properties_match_telescoped_reference():
    # The check reads only bp.diagram, so any valid diagram can stand in
    # for an interleaving; many of the random ones fail, some at vertices
    # past a small set's table size, where set order is not sorted order.
    inputs = [m() for m in _MAPS.values()]
    inputs.append(soe.build_interleaved(
        gen.odometer(2, 6), gen.odometer(2, 6),
        soe.stationary_intertwining([[1]], [[2]], 6, 5)))
    for seed in range(300):
        d = random_diagram(random.Random(seed), 1 + seed % 10,
                           1 + seed % 12, seed % 7)
        inputs.append(soe.InterleavedDiagram(d, d, d))
    failing = 0
    for bp in inputs:
        want = _reference_properties(bp)
        assert soe.check_interleaved_properties(bp) == want, bp.diagram
        failing += bool(want)
    assert 50 < failing < len(inputs)


def test_interleaved_property_failures_in_vertex_order():
    # Level 2's min vertices include 8, past a small set's table size, so
    # set iteration order would list it before 3 and 7.
    d = random_diagram(random.Random(47), 8, 12, 5)
    bp = soe.InterleavedDiagram(d, d, d)
    failures = soe.check_interleaved_properties(bp)
    prefix = "(ii) fails: min vertex "
    vertices = [int(f[len(prefix):].split()[0]) for f in failures
                if f.startswith(prefix) and " at level 2 " in f]
    assert vertices == [0, 3, 7, 8]


def test_pair_extremal_paths_singletons():
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    pairing = soe.pair_extremal_paths(bp, bp.diagram.num_levels)
    assert len(pairing.min_pairs) == len(pairing.max_pairs) == 1
    p1, p2 = pairing.min_pairs[0]
    assert pt.is_minimal(b1, p1) and pt.is_minimal(b2, p2)
    q1, q2 = pairing.max_pairs[0]
    assert pt.is_maximal(b1, q1) and pt.is_maximal(b2, q2)
    with pytest.raises(dg.DiagramError, match="depth must be at least 2"):
        soe.pair_extremal_paths(bp, 1)


def test_union_pair_respects_fiber_permutation():
    # Two-fiber unions intertwined with the block-swapping matrices: the
    # pairing must swap the fibers.
    t2 = dg.telescope(gen.odometer(2, 9), [1, 3, 5, 7, 9])[0]
    b1 = gen.disjoint_union([t2, t2])
    b2 = gen.disjoint_union([gen.odometer(4, 5), gen.odometer(4, 5)])
    swap = [[0, 2], [2, 0]]
    w = soe.stationary_intertwining(swap, swap, 5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    assert soe.check_interleaved_properties(bp) == []
    pairing = soe.pair_extremal_paths(bp, bp.diagram.num_levels)
    assert len(pairing.min_pairs) == 2
    for p1, p2 in pairing.min_pairs:
        f1 = b1.label_of(p1.depth, p1.terminal_vertex)
        f2 = b2.label_of(p2.depth, p2.terminal_vertex)
        assert f2 == 1 - f1


def test_orbit_map_bijective_on_cylinders():
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    F = soe.realize_orbit_map(bp)
    paths = pt.all_paths(b1, 4)
    imgs = {soe.f1_path(F, p).edge_indices for p in paths}
    assert len(imgs) == len(paths) == len(pt.all_paths(bp.diagram, 7))
    paths2 = pt.all_paths(b2, 4)
    imgs2 = {soe.f2_path(F, p).edge_indices for p in paths2}
    assert len(imgs2) == len(paths2) == len(pt.all_paths(bp.diagram, 8))
    # Round trips.
    for p in paths[:32]:
        assert pt.telescope_path(F.f1, soe.f1_path(F, p), F.b1) == p
    for p in paths2[:32]:
        assert pt.telescope_path(F.f2, soe.f2_path(F, p), F.b2) == p


def test_orbit_map_preserves_extremal_prefixes():
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    F = soe.realize_orbit_map(bp)
    pmin = pt.min_path_to(b1, 4, 0)
    assert pt.is_minimal(b2, soe.apply_orbit_map(F, pmin))
    pmax = pt.max_path_to(b1, 4, 0)
    assert pt.is_maximal(b2, soe.apply_orbit_map(F, pmax))


def test_orbit_preservation_under_f():
    # F maps an h1-orbit segment into the h2-orbit of the image.
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    F = soe.realize_orbit_map(bp)
    rng = random.Random(1)
    paths = [p for p in pt.all_paths(b1, 4)
             if 5 < pt.path_rank(b1, p) < 500]
    for p in rng.sample(paths, 10):
        base = soe.apply_orbit_map(F, p)
        cur = p
        for _ in range(5):
            cur = pt.vershik_successor(b1, cur)
            img = soe.apply_orbit_map(F, cur)
            pt.orbit_shift(b2, base, img)   # raises unless same orbit class


def test_cocycle_verified_by_iteration():
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    F = soe.realize_orbit_map(bp)
    for p in pt.all_paths(b1, 3):
        pre = pt.make_path(b1, p.edge_indices[:-1])
        if not pt.is_maximal(b1, pre):
            assert soe.verify_cocycle(F, p, "forward")
        if not pt.is_minimal(b1, pre):
            assert soe.verify_cocycle(F, p, "backward")


def test_verify_cocycle_refuses_past_its_limit(monkeypatch):
    F = criterion6_map()
    monkeypatch.setattr(soe, "VERIFY_LIMIT", 0)
    with pytest.raises(dg.DiagramError,
                       match="^cocycle value 1 exceeds iteration limit$"):
        soe.verify_cocycle(F, pt.make_path(F.b1, (0, 0)), "forward")


def test_cocycle_needs_depth_on_extremal_prefix():
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    F = soe.realize_orbit_map(bp)
    top = pt.max_path_to(b1, 3, 0)
    with pytest.raises(soe.NeedsDepth):
        soe.cocycle(F, top, "forward")
    with pytest.raises(soe.NeedsDepth):
        soe.cocycle(F, pt.min_path_to(b1, 3, 0), "backward")


def test_cocycle_rejects_unknown_direction():
    F = odometer_map()
    p = pt.make_path(F.b1, (1, 0, 0))
    with pytest.raises(dg.DiagramError,
                       match="^direction must be forward or backward$"):
        soe.cocycle(F, p, "sideways")


def test_cocycle_continuity_odometer_pair():
    b1, b2, w = odometer_pair(5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    F = soe.realize_orbit_map(bp)
    report = soe.check_cocycle_continuity(F, 4)
    assert report["ok"]
    assert report["nonconstant"] == []
    assert report["eligible"] > 0


def test_cocycle_continuity_union_pair():
    t2 = dg.telescope(gen.odometer(2, 9), [1, 3, 5, 7, 9])[0]
    b1 = gen.disjoint_union([t2, t2])
    b2 = gen.disjoint_union([gen.odometer(4, 5), gen.odometer(4, 5)])
    blocks = [[2, 0], [0, 2]]
    w = soe.stationary_intertwining(blocks, blocks, 5, 4)
    bp = soe.build_interleaved(b1, b2, w)
    F = soe.realize_orbit_map(bp)
    report = soe.check_cocycle_continuity(F, 4)
    assert report["ok"]


def test_search_finds_odometer_intertwining():
    b1, b2, _ = odometer_pair(4, 3)
    match, rejections = soe.search_stationary_intertwining(b1, b2, 4)
    assert match == ([[2]], [[2]])
    assert all("!=" in r["reason"] for r in rejections)


def test_search_negative_control():
    match, rejections = soe.search_stationary_intertwining(
        gen.odometer(2, 5), gen.odometer(3, 5), 12)
    assert match is None
    assert len(rejections) == 13 * 13


def test_soe_report_end_to_end():
    b1, b2, w = odometer_pair(5, 4)
    report = soe.soe_report(b1, b2, w, 4)
    assert report["interleaved_ok"]
    assert report["properties_ok"]
    assert report["pairing_ok"]
    assert report["continuity_ok"]
    assert all(s["forward"] == 1 for s in report["cocycle_samples"])


def test_soe_report_names_a_bad_intertwining():
    w = soe.stationary_intertwining([[3]], [[2]], 3, 3)
    report = soe.soe_report(gen.odometer(2, 4), gen.odometer(4, 3), w, 3)
    assert not report["interleaved_ok"]
    assert report["error"] == ("root columns differ at entry (0, 0): "
                               "P_1 gives 6, B2 has 4")


def test_soe_report_lists_property_failures():
    m = [[0, 1], [1, 1]]
    d = gen.stationary_adic(m, 5)
    w = soe.stationary_intertwining([[1, 0], [0, 1]], m, 5, 4)
    report = soe.soe_report(d, d, w, 4)
    assert report["interleaved_ok"] and not report["properties_ok"]
    assert report["property_failures"][0] == (
        "(ii) fails: min vertex 1 at level 2 has 2 min vertices in its "
        "source set")


def test_soe_report_names_an_unstabilized_pairing():
    m = [[2, 1], [1, 1]]
    d = gen.stationary_adic(m, 8)
    w = soe.stationary_intertwining([[1, 0], [0, 1]], m, 8, 7)
    report = soe.soe_report(d, d, w, 5)
    assert report["properties_ok"] and not report["pairing_ok"]
    assert report["pairing_error"] == (
        "min paths of the interleaved diagram are not stabilized at depth 5")


@pytest.mark.parametrize("depth", [1, 0, -3])
def test_soe_report_rejects_depth_below_2(monkeypatch, depth):
    # No cylinder is eligible below depth 2, so a pass would be vacuous;
    # the report refuses before it builds anything.
    def unexpected(*args):
        raise AssertionError("build_interleaved called")

    monkeypatch.setattr(soe, "build_interleaved", unexpected)
    with pytest.raises(dg.DiagramError, match="depth must be at least 2"):
        soe.soe_report(*odometer_pair(5, 4), depth)


@pytest.mark.parametrize("levels, num_q, limit", [
    (1, 0, "B1 has 1 level"),
    (5, 0, "F is realized only to B1 depth 1 by 1 P and 0 Q matrices"),
])
def test_soe_report_rejects_realized_depth_below_2(levels, num_q, limit):
    # The requested depth is fine, but F or B1 stops at depth 1, where no
    # cylinder is eligible.
    d = gen.odometer(2, levels)
    w = soe.stationary_intertwining([[1]], [[2]], 1, num_q)
    with pytest.raises(dg.DiagramError, match=limit):
        soe.soe_report(d, d, w, 3)


def test_soe_report_samples_stop_at_realized_depth():
    # One P and one Q realize F to B1 depth 2, so the samples are depth-2
    # paths even though depth 3 is asked for and B1 has 5 levels.
    d = gen.odometer(2, 5)
    w = soe.stationary_intertwining([[1]], [[2]], 1, 1)
    report = soe.soe_report(d, d, w, 3)
    assert report["continuity_ok"]
    assert report["continuity"] == {"eligible": 4}
    assert report["cocycle_samples"] == [{"path": [0, 0], "forward": 1},
                                         {"path": [0, 1], "forward": 1}]


def test_soe_report_samples_stay_small():
    # The five cocycle samples must not materialize B1's depth-3 level,
    # 60^3 paths here.
    b = 60
    d = gen.odometer(b, 4)
    w = soe.stationary_intertwining([[1]], [[b]], 4, 3)
    tracemalloc.start()
    try:
        report = soe.soe_report(d, d, w, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["continuity"] == {"eligible": 7080}
    assert [s["path"] for s in report["cocycle_samples"]] == [
        [0, 0, e] for e in range(5)]
    assert peak < 10 * 2 ** 20


def test_intertwining_json_round_trip():
    w = soe.stationary_intertwining([[2]], [[2]], 3, 2)
    assert soe.intertwining_from_json(soe.intertwining_to_json(w)) == w
    with pytest.raises(dg.DiagramError):
        soe.intertwining_from_json({"P": []})


def criterion6_pair():
    b1, _ = dg.telescope(gen.odometer(2, 17), list(range(1, 18, 2)))
    b2 = gen.odometer(4, 8)
    w = soe.stationary_intertwining([[2]], [[2]], 8, 8)
    return b1, b2, w


def criterion6_map():
    return soe.realize_orbit_map(soe.build_interleaved(*criterion6_pair()))


def union_swap_map():
    t2 = dg.telescope(gen.odometer(2, 9), [1, 3, 5, 7, 9])[0]
    b1 = gen.disjoint_union([t2, t2])
    b2 = gen.disjoint_union([gen.odometer(4, 5), gen.odometer(4, 5)])
    swap = [[0, 2], [2, 0]]
    w = soe.stationary_intertwining(swap, swap, 5, 4)
    return soe.realize_orbit_map(soe.build_interleaved(b1, b2, w))


def odometer_map():
    return soe.realize_orbit_map(soe.build_interleaved(*odometer_pair(5, 4)))


def fibonacci_square_map():
    # B1 vertices take in-edges from two sources, so a walk that descends
    # to the wrong vertex gets other ranks.  The intertwining is the match
    # search_stationary_intertwining(b1, b2, 2) finds.
    b1 = dg.telescope(gen.stationary_adic([[1, 1], [1, 0]], 10),
                      [2, 4, 6, 8, 10])[0]
    b2 = gen.stationary_adic([[2, 1], [1, 1]], 5)
    w = soe.stationary_intertwining([[1, 0], [0, 1]], [[2, 1], [1, 1]], 5, 4)
    return soe.realize_orbit_map(soe.build_interleaved(b1, b2, w))


def reversed_order_map():
    # B1 is M = [[1, 1], [1, 1]] with each vertex's in-edges from source 1
    # first; the interleaving's in-edges come from source 0 first.  Within
    # each (source, range) block the segment tables keep the order, but
    # B1's minimal edges map to segments that are not minimal.
    m = [[1, 1], [1, 1]]
    b1 = dg.make_diagram(6, [1] + [2] * 6,
                         [[(0, 0), (0, 0), (0, 1), (0, 1)]]
                         + [[(1, 0), (0, 0), (1, 1), (0, 1)]] * 5)
    b2 = gen.stationary_adic(m, 6)
    w = soe.stationary_intertwining([[1, 0], [0, 1]], m, 6, 5)
    return soe.realize_orbit_map(soe.build_interleaved(b1, b2, w))


@pytest.mark.parametrize("make_map, depth", [
    (criterion6_map, 6), (union_swap_map, 5), (odometer_map, 5),
    (fibonacci_square_map, 5), (reversed_order_map, 6),
], ids=["criterion6", "union-swap", "odometer", "fibonacci-square",
        "reversed-order"])
def test_cocycle_values_match_cocycle(make_map, depth):
    F = make_map()
    b1 = F.b1
    want = set()
    for m in range(2, depth + 1):
        for p in pt.all_paths(b1, m):
            pre = pt.make_path(b1, p.edge_indices[:-1])
            if not pt.is_maximal(b1, pre):
                want.add(("forward", p.edge_indices))
            if not pt.is_minimal(b1, pre):
                want.add(("backward", p.edge_indices))
    got = list(soe.cocycle_values(F, depth))
    assert len({(dr, idx) for dr, idx, _, _ in got}) == len(got)
    assert {(dr, idx) for dr, idx, _, _ in got} == want
    for direction, idx, value, parent in got:
        assert value == soe.cocycle(F, pt.make_path(b1, idx), direction)
        if parent is None:
            assert len(idx) == 2 or (direction, idx[:-1]) not in want
        else:
            assert parent == soe.cocycle(F, pt.make_path(b1, idx[:-1]),
                                         direction)


def test_cocycle_continuity_at_full_depth():
    F = criterion6_map()
    b1 = F.b1
    assert len(F.f1.orig_paths) == b1.num_levels == 9
    report = soe.check_cocycle_continuity(F, 9)
    assert report["ok"] and report["nonconstant"] == []
    # Each vertex has one all-maximal and one all-minimal path into it;
    # every other path is an eligible prefix in both directions.
    want = sum(2 * (pt.path_counts(b1, m - 1)[v] - 1)
               * len(dg.out_edges(b1, m)[v])
               for m in range(2, 10)
               for v in range(b1.vertex_counts[m - 1]))
    assert report["eligible"] == want


def test_continuity_orders_failures_by_depth_cylinder_direction(monkeypatch):
    # Walk order is depth-first; the report lists failures by depth, then
    # cylinder, then forward before backward.
    walk = [("backward", (1, 0, 2), 5, 4), ("forward", (1, 0, 2), 5, 4),
            ("forward", (0, 1, 1, 0), 2, 1), ("forward", (0, 1), 3, None),
            ("backward", (0, 3, 1), 7, 7), ("forward", (0, 3, 1), 6, 5)]
    monkeypatch.setattr(soe, "cocycle_values", lambda F, depth: iter(walk))
    report = soe.check_cocycle_continuity(None, 4)
    assert report["eligible"] == 6
    assert not report["ok"]
    assert [(f["direction"], f["cylinder"], f["expected"], f["got"])
            for f in report["nonconstant"]] == [
        ("forward", (0, 3), 5, 6),
        ("forward", (1, 0), 4, 5),
        ("backward", (1, 0), 4, 5),
        ("forward", (0, 1, 1), 1, 2)]


@pytest.mark.parametrize("make_map", [
    criterion6_map, union_swap_map, odometer_map, fibonacci_square_map,
    reversed_order_map,
], ids=["criterion6", "union-swap", "odometer", "fibonacci-square",
        "reversed-order"])
def test_orbit_map_paths_match_checked_paths(make_map):
    # F builds its paths from its tables; each must equal the path
    # make_path checks edge by edge.
    F = make_map()
    b1, b2, d = F.b1, F.b2, F.diagram

    def checked(diagram, p):
        return p == pt.make_path(diagram, p.edge_indices)

    for m in range(1, 5):
        for p in pt.all_paths(b1, m):
            img = soe.f1_path(F, p)
            assert checked(d, img) and checked(
                b1, pt.telescope_path(F.f1, img, b1))
            assert checked(b2, soe.apply_orbit_map(F, p))
            for direction in ("forward", "backward"):
                try:
                    q, q2 = soe.cocycle_images(F, p, direction)
                except soe.NeedsDepth:
                    continue
                assert checked(b2, q) and checked(b2, q2), (p, direction)
        for p in pt.all_paths(b2, m):
            img = soe.f2_path(F, p)
            assert checked(d, img) and checked(
                b2, pt.telescope_path(F.f2, img, b2))
    # An odd and an even interleaved depth take different prefix lengths.
    for depth in (d.num_levels - 1, d.num_levels):
        pairing = soe.pair_extremal_paths(F, depth)
        for p1, p2 in pairing.min_pairs + pairing.max_pairs:
            assert checked(b1, p1) and checked(b2, p2), (depth, p1, p2)
            assert (p1.depth, p2.depth) == ((depth + 1) // 2, depth // 2)


_MAPS = {"criterion6": criterion6_map, "union-swap": union_swap_map,
         "odometer": odometer_map, "fibonacci-square": fibonacci_square_map,
         "reversed-order": reversed_order_map}


@functools.cache
def _orbit_map(name):
    return _MAPS[name]()


def _drawn_path(data, d, depth):
    # A random root path of d, one out-edge at a time.
    idx, v = [], 0
    for n in range(depth):
        e = data.draw(st.sampled_from(d.out_edge_table[n][v]))
        idx.append(e)
        v = d.edges[n][e][1]
    return pt.FinitePath(depth, tuple(idx), v)


def _reference_path(d, idx):
    v = d.edges[len(idx) - 1][idx[-1]][1] if idx else 0
    return pt.FinitePath(len(idx), tuple(idx), v)


def _reference_f(tables, d, p):
    # One dict lookup per level, each appending an interleaved segment.
    idx = []
    for n, e in enumerate(p.edge_indices):
        idx.extend(tables[n][e])
    return _reference_path(d, idx)


def _reference_f1_inverse(F, q):
    e = q.edge_indices
    segments = [e[:1]] + [e[i:i + 2] for i in range(1, len(e), 2)]
    return _reference_path(F.b1, [F.f1.path_tables[n][seg]
                                  for n, seg in enumerate(segments)])


def _reference_f2_inverse(F, q):
    e = q.edge_indices
    return _reference_path(F.b2, [F.f2.path_tables[m][e[2 * m:2 * m + 2]]
                                  for m in range(len(e) // 2)])


@pytest.mark.parametrize("name", list(_MAPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_map_paths_match_level_lookups(name, data):
    F = _orbit_map(name)
    b1, b2, d = F.b1, F.b2, F.diagram
    f1, f2 = F.f1.orig_paths, F.f2.orig_paths
    p = _drawn_path(data, b1, data.draw(st.integers(1, len(f1))))
    img = _reference_f(f1, d, p)
    assert soe.f1_path(F, p) == img
    assert soe.apply_orbit_map(F, p) == _reference_f2_inverse(
        F, _reference_path(d, img.edge_indices[:-1]))
    q = _drawn_path(data, b2, data.draw(st.integers(0, len(f2))))
    assert soe.f2_path(F, q) == _reference_f(f2, d, q)
    k = data.draw(st.integers(1, len(F.f1.path_tables)))
    x = _drawn_path(data, d, 2 * k - 1)
    assert pt.telescope_path(F.f1, x, F.b1) == _reference_f1_inverse(F, x)
    m = data.draw(st.integers(0, len(F.f2.path_tables)))
    y = _drawn_path(data, d, 2 * m)
    assert pt.telescope_path(F.f2, y, F.b2) == _reference_f2_inverse(F, y)


@pytest.mark.parametrize("name", list(_MAPS))
def test_orbit_map_end_tables_are_segment_ends(name):
    F = _orbit_map(name)
    assert F.f1_heads == tuple(tuple(t[e][0] for e in range(len(t)))
                               for t in F.f1.orig_paths)
    assert F.f1_tails == tuple(tuple(t[e][-1] for e in range(len(t)))
                               for t in F.f1.orig_paths)


@pytest.mark.parametrize("name", list(_MAPS))
def test_apply_orbit_map_needs_depth_past_the_tables(name):
    F = _orbit_map(name)
    k = len(F.f1.orig_paths)
    with pytest.raises(soe.NeedsDepth):
        soe.apply_orbit_map(F, pt.FinitePath(0, (), 0))
    # F is realized to B1's full depth here, so only a hand-built path
    # goes one level past it.
    with pytest.raises(soe.NeedsDepth):
        soe.apply_orbit_map(F, pt.FinitePath(k + 1, (0,) * (k + 1), 0))


def _reference_segment_tables(bp):
    # F's tables as dicts keyed by edge: the edges of each (source, range)
    # block take that block's segments in telescope order.
    d = bp.diagram

    def table(bd, level, lo, hi):
        edges, segs = {}, {}
        for e, key in enumerate(bd.edges[level - 1]):
            edges.setdefault(key, []).append(e)
        for s, r, path in dg.telescope_segments(d, lo, hi):
            segs.setdefault((s, r), []).append(path)
        assert edges.keys() == segs.keys()
        return {e: path for key in edges
                for e, path in zip(edges[key], segs[key], strict=True)}

    top = d.num_levels
    return ([table(bp.b1, n, max(2 * n - 2, 1), 2 * n - 1)
             for n in range(1, (top + 1) // 2 + 1)],
            [table(bp.b2, m, 2 * m - 1, 2 * m) for m in range(1, top // 2 + 1)])


@pytest.mark.parametrize("name", list(_MAPS))
def test_segment_tables_are_the_reference_read_in_edge_order(name):
    F = _orbit_map(name)
    want1, want2 = _reference_segment_tables(F)
    for got, want in ((F.f1.orig_paths, want1), (F.f2.orig_paths, want2)):
        assert type(got) is tuple and all(type(t) is tuple for t in got)
        assert got == tuple(tuple(t[e] for e in range(len(t))) for t in want)


@pytest.mark.parametrize("name", list(_MAPS))
def test_orbit_map_sides_are_the_odd_and_even_telescopings(name):
    # F's two sides are telescope maps of the interleaving: each level
    # collapses the same segments telescope() does, reordered to follow
    # B1's (B2's) edges instead of the telescoped diagram's.
    F = _orbit_map(name)
    top = F.diagram.num_levels
    assert F.f1.cut_points == (0, *range(1, top + 1, 2))
    assert F.f2.cut_points == tuple(range(0, top + 1, 2))
    for side in (F.f1, F.f2):
        cuts = side.cut_points[1:]
        if cuts[-1] < top:      # telescope() also cuts at the last level
            cuts += (top,)
        _, tmap = dg.telescope(F.diagram, cuts)
        assert tmap.cut_points[:len(side.cut_points)] == side.cut_points
        assert len(side.orig_paths) == len(side.cut_points) - 1
        for got, want in zip(side.orig_paths, tmap.orig_paths):
            assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name", list(_MAPS))
def test_cocycle_values_verified_by_iteration(name):
    # verify_cocycle iterates B2's Vershik map instead of reading the rank
    # tables that cocycle_values sums.
    F = _orbit_map(name)
    for direction, idx, _, _ in soe.cocycle_values(F, 4):
        assert soe.verify_cocycle(F, pt.make_path(F.b1, idx), direction), \
            (direction, idx)


def test_inverse_maps_need_depth_past_the_tables():
    F = odometer_map()
    k, m = len(F.f1.path_tables), len(F.f2.path_tables)
    assert (k, m) == (5, 4)
    # One-vertex levels, so all-zero edges compose at any depth.  Past the
    # tables a depth is no cut point of F's sides.
    with pytest.raises(dg.DiagramError, match="not a cut point"):
        pt.telescope_path(
            F.f1, pt.FinitePath(2 * k + 1, (0,) * (2 * k + 1), 0), F.b1)
    with pytest.raises(dg.DiagramError, match="not a cut point"):
        pt.telescope_path(
            F.f2, pt.FinitePath(2 * m + 2, (0,) * (2 * m + 2), 0), F.b2)


def _count_segment_tables(monkeypatch):
    built = []
    real = soe._segment_table

    def counted(d, bd, level, lo, hi):
        built.append(level)
        return real(d, bd, level, lo, hi)
    monkeypatch.setattr(soe, "_segment_table", counted)
    return built


def test_orbit_map_is_built_once_per_interleaving(monkeypatch):
    bp = soe.build_interleaved(*criterion6_pair())
    built = _count_segment_tables(monkeypatch)
    F = soe.realize_orbit_map(bp)
    assert F is bp and built == []
    # The pairing reads both sides' tables, which builds them; the
    # cocycles read the same ones.
    pairing = soe.pair_extremal_paths(bp, bp.diagram.num_levels)
    assert soe.check_cocycle_continuity(F, 4)["ok"]
    # One table per distinct (interleaved block, B level) pair: B1's root
    # level, B1's 8 equal levels above it and B2's 8 equal levels.
    assert len(built) == 3
    assert len(F.f1.orig_paths) == 9 and len(F.f2.orig_paths) == 8
    assert all(t is F.f1.orig_paths[1] for t in F.f1.orig_paths[1:])
    assert all(t is F.f2.orig_paths[0] for t in F.f2.orig_paths)
    pairing_again = soe.pair_extremal_paths(bp, bp.diagram.num_levels)
    assert soe.check_cocycle_continuity(F, 4)["ok"]
    assert len(built) == 3
    assert pairing_again == pairing
    assert pairing.min_pairs == ((pt.min_path_to(F.b1, 9, 0),
                                  pt.min_path_to(F.b2, 8, 0)),)


def test_soe_report_realizes_orbit_map_once(monkeypatch):
    built = _count_segment_tables(monkeypatch)
    report = soe.soe_report(*criterion6_pair(), 4)
    assert report["pairing_ok"] and report["continuity_ok"]
    assert set(report["continuity"]) == {"eligible"}
    assert len(built) == 3      # as in the test above


def test_search_order_is_fixed():
    # Candidates come in itertools.product order, so the 1x1 match [2], [2]
    # follows P = [0] and [1] with each Q in 0..4, then Q = [0] and [1].
    b1, b2, _ = odometer_pair(4, 3)
    match, rejections = soe.search_stationary_intertwining(b1, b2, 4)
    assert match == ([[2]], [[2]])
    assert [(r["P"], r["Q"]) for r in rejections] == [
        ([[p]], [[q]]) for p in range(3) for q in range(5)][:12]


def test_search_records_each_reason():
    # One candidate per identity a rejection can name: QP first, then PQ,
    # then the root column.
    b = gen.odometer(2, 3)
    match, rejections = soe.search_stationary_intertwining(b, b, 2)
    assert match == ([[1]], [[2]])
    assert len(rejections) == 5
    assert rejections[0] == {"P": [[0]], "Q": [[0]],
                             "reason": "QP = [[0]] != [[2]]"}
    d = gen.stationary_adic([[1, 1], [1, 0]], 4)
    match, rejections = soe.search_stationary_intertwining(d, d, 1)
    assert match == ([[1, 0], [0, 1]], [[1, 1], [1, 0]])
    assert len(rejections) == 158
    assert {"P": [[0, 1], [1, 0]], "Q": [[1, 1], [0, 1]],
            "reason": "PQ = [[0, 1], [1, 1]] != [[1, 1], [1, 0]]"
            } in rejections
    b2, _ = dg.telescope(gen.odometer(2, 7), [1, 3, 5, 7])
    match, rejections = soe.search_stationary_intertwining(
        gen.odometer(4, 4), b2, 4)
    assert match is None
    assert len(rejections) == 25
    assert {"P": [[1]], "Q": [[4]],
            "reason": "P root column [[4]] != [[2]]"} in rejections


def test_search_refuses_candidates_past_the_cap():
    # Two 2-vertex diagrams: (bound + 1)^8 candidates.
    d = gen.stationary_adic([[1, 1], [1, 0]], 4)
    assert 5 ** 8 <= soe.MAX_SEARCH_CANDIDATES < 6 ** 8
    with pytest.raises(dg.DiagramError, match="candidates"):
        soe.search_stationary_intertwining(d, d, 5)
    with pytest.raises(dg.DiagramError, match="candidates"):
        soe.search_stationary_intertwining(d, d, 10 ** 30)
    match, rejections = soe.search_stationary_intertwining(d, d, 1)
    assert match is not None


def _odometer_with_itself():
    """The 2-odometer on 6 levels, P = [[1]], Q = [[2]], and their
    interleaving."""
    d = gen.odometer(2, 6)
    w = soe.stationary_intertwining([[1]], [[2]], 6, 5)
    return d, w, soe.build_interleaved(d, d, w)


@pytest.mark.parametrize("call, message", [
    (lambda d, w, bp: soe.check_cocycle_continuity(bp, True), "depths"),
    (lambda d, w, bp: soe.check_cocycle_continuity(bp, 2.0), "depths"),
    (lambda d, w, bp: soe.pair_extremal_paths(bp, 2.0), "depths"),
    (lambda d, w, bp: soe.soe_report(d, d, w, 2.0), "depths"),
    (lambda d, w, bp: soe.search_stationary_intertwining(d, d, True),
     "bounds"),
    (lambda d, w, bp: soe.search_stationary_intertwining(d, d, 1.5),
     "bounds"),
], ids=["continuity-bool", "continuity-float", "pairing-float",
        "report-float", "search-bool", "search-float"])
def test_depth_and_bound_must_be_ints(call, message):
    # A bool read as 1 gave a vacuous continuity pass and a search at
    # bound 1; a float raised a bare TypeError.
    with pytest.raises(dg.DiagramError) as err:
        call(*_odometer_with_itself())
    assert str(err.value) == f"{message} must be ints"


def test_search_refuses_a_candidate_of_more_entries_than_the_cap():
    # 513 vertices on each of two levels: at bound 0 there is one
    # candidate, but its P and Q hold 2 * 513^2 = 526,338 entries.
    grown_mb, message = peak_growth(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
        "from bratteli import diagram as dg, soe\n"
        "n = 513\n"
        "d = dg.make_diagram(2, [1, n, n], [[(0, i) for i in range(n)],"
        " [(i, i) for i in range(n)]])\n"
        "dg.check_valid(d)\n"
        "def refused(d):\n"
        "    try:\n"
        "        soe.search_stationary_intertwining(d, d, 0)\n"
        "    except dg.DiagramError as exc:\n"
        "        return str(exc)",
        "refused(d)")
    assert message == ("one candidate's 513x513 P and 513x513 Q hold 526338 "
                       "entries, more than MAX_SEARCH_CANDIDATES = 524288")
    assert grown_mb <= 20, f"peak RSS grew by {grown_mb} MB"
    # 512 vertices: 2 * 512^2 entries, exactly the cap, are searched.
    n = 512
    d = dg.make_diagram(2, [1, n, n], [[(0, i) for i in range(n)],
                                       [(i, i) for i in range(n)]])
    match, rejections = soe.search_stationary_intertwining(d, d, 0)
    assert match is None and len(rejections) == 1


def test_search_refuses_a_large_bound_without_the_exact_power():
    # Two 512-vertex levels at bound 500,000: the exact count
    # 500001^524288 has millions of digits and takes over a second to
    # build, while the refusal needs none of it.  Each try is timed alone
    # and the best of three is kept, so a busy host does not fail it.
    n = 512
    d = dg.make_diagram(2, [1, n, n], [[(0, i) for i in range(n)],
                                       [(i, i) for i in range(n)]])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(dg.DiagramError) as err:
            soe.search_stationary_intertwining(d, d, 500_000)
        times.append(time.perf_counter() - start)
    assert str(err.value) == (
        "a 512x512 P and 512x512 Q with entries up to 500000 give "
        "(bound + 1)^524288 candidates, more than the 524288 a search "
        "may try")
    assert min(times) < 0.5, f"refusal took {min(times):.2f} s"


def test_search_refuses_a_diagram_that_fails_the_axioms():
    # Two levels, so the level check passes; level-1 vertex 1 has no
    # in-edge, which k0_presentation refuses.
    unfed = dg.make_diagram(2, [1, 2, 1], [[(0, 0)], [(0, 0), (1, 0)]])
    with pytest.raises(dg.InvalidDiagram) as err:
        soe.search_stationary_intertwining(unfed, gen.odometer(2, 3), 2)
    assert str(err.value) == ("[range-surjectivity] level 1: vertex 1 at "
                              "level 1 has no incoming edge")


def test_interleaving_carries_no_fiber_labels():
    # B1's and B2's labels name different fibers: the swap joins B1's
    # fiber 0 to B2's fiber 1.
    bp = union_swap_map()
    assert bp.b1.group_labels == bp.b2.group_labels == ((0, 1),) * 5
    assert bp.diagram.group_labels is None


# The cocycle images as cocycle_images composed them before it read F's
# tables itself: path_prefix, the public Vershik step and apply_orbit_map.


def _reference_images(F, p, direction):
    if direction not in ("forward", "backward"):
        raise dg.DiagramError("direction must be forward or backward")
    if p.depth < 2:
        raise soe.NeedsDepth("cocycle needs a path of depth at least 2")
    pre = pt.path_prefix(F.b1, p, p.depth - 1)
    step, end = ((pt.vershik_successor, "maximal") if direction == "forward"
                 else (pt.vershik_predecessor, "minimal"))
    try:
        other = step(F.b1, pre)
    except (pt.MaximalPathError, pt.MinimalPathError):
        raise soe.NeedsDepth(f"prefix is {end}; extend the path past the "
                             f"{end} tail") from None
    q = soe.apply_orbit_map(F, p)
    moved = other.edge_indices + p.edge_indices[-1:]
    q2 = soe.apply_orbit_map(F, pt.FinitePath(p.depth, moved,
                                              p.terminal_vertex))
    assert q.terminal_vertex == q2.terminal_vertex
    return q, q2


def _reference_cocycle(F, p, direction):
    q, q2 = _reference_images(F, p, direction)
    return pt.path_rank(F.b2, q2) - pt.path_rank(F.b2, q)


def _reference_verify(F, p, direction):
    q, q2 = _reference_images(F, p, direction)
    n = pt.path_rank(F.b2, q2) - pt.path_rank(F.b2, q)
    if abs(n) > soe.VERIFY_LIMIT:
        raise dg.DiagramError(f"cocycle value {n} exceeds iteration limit")
    cur = q
    for _ in range(abs(n)):
        cur = (pt.vershik_successor(F.b2, cur) if n > 0
               else pt.vershik_predecessor(F.b2, cur))
    return cur == q2


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except Exception as exc:        # the type and message are compared
        return type(exc), str(exc)


def _assert_matches_reference(F, p, direction):
    for got, want in ((soe.cocycle_images, _reference_images),
                      (soe.cocycle, _reference_cocycle),
                      (soe.verify_cocycle, _reference_verify)):
        assert _outcome(got, F, p, direction) == \
            _outcome(want, F, p, direction), (got.__name__, direction, p)


@pytest.mark.parametrize("name", ["criterion6", "union-swap",
                                  "reversed-order"])
def test_cocycle_images_match_their_composition(name):
    # Every eligible cylinder from depth 2 to F's realized depth; for
    # criterion 6, whose B1 has 4^k paths of depth k, every one up to depth
    # 6 and 300 seeded draws at each depth past it.
    F = _orbit_map(name)
    b1, realized = F.b1, len(F.f1.orig_paths)
    rng = random.Random(29)
    checked = {"forward": 0, "backward": 0}
    for depth in range(2, realized + 1):
        paths = pt.all_paths(b1, depth)
        if depth > 6:
            paths = rng.sample(paths, 300)
        for p in paths:
            pre = pt.path_prefix(b1, p, depth - 1)
            for direction, extremal in (("forward", pt.is_maximal),
                                        ("backward", pt.is_minimal)):
                if not extremal(b1, pre):
                    checked[direction] += 1
                    _assert_matches_reference(F, p, direction)
    assert min(checked.values()) > 100


def test_cocycle_errors_match_their_composition():
    # Each error the composition raises, with its type and message, in the
    # order it raised them.  F is realized to B1 depth 4 of 9 here.
    b1, b2, _ = criterion6_pair()
    F = soe.build_interleaved(
        b1, b2, soe.stationary_intertwining([[2]], [[2]], 4, 3))
    assert (len(F.f1.orig_paths), b1.num_levels) == (4, 9)
    top = pt.max_path_to(b1, 5, 0)
    bottom = pt.min_path_to(b1, 5, 0)
    cases = [
        (pt.make_path(b1, (1,)), "forward"),                # depth 1
        (pt.make_path(b1, (1, 0, 2)), "sideways"),          # direction
        (pt.make_path(b1, (1, 0, 2)), ["forward"]),         # unhashable
        (pt.make_path(b1, (1, 0, 2)), None),
        (pt.make_path(b1, (1,)), ["forward"]),              # before depth
        (pt.make_path(b1, (1, 3, 3, 1)), "forward"),        # maximal
        (pt.make_path(b1, (0, 0, 0, 1)), "backward"),       # minimal
        (pt.make_path(b1, (0, 1, 0, 2, 1)), "forward"),     # past F
        (pt.make_path(b1, (0, 1, 0, 2, 1)), "backward"),
        (top, "forward"),       # past F with a maximal prefix
        (bottom, "backward"),   # past F with a minimal prefix
        (pt.FinitePath(11, (0,) * 11, 0), "forward"),       # past B1
        (pt.FinitePath(11, (0,) * 11, 0), "sideways"),
    ]
    raised = set()
    for p, direction in cases:
        for got, want in ((soe.cocycle_images, _reference_images),
                          (soe.cocycle, _reference_cocycle),
                          (soe.verify_cocycle, _reference_verify)):
            outcome = _outcome(got, F, p, direction)
            assert outcome == _outcome(want, F, p, direction), \
                (got.__name__, p, direction)
            assert outcome[0] != "returned"
            raised.add(outcome)
    assert {message for _, message in raised} == {
        "cocycle needs a path of depth at least 2",
        "direction must be forward or backward",
        "prefix is maximal; extend the path past the maximal tail",
        "prefix is minimal; extend the path past the minimal tail",
        "F is realized for B1 depths 1..4",
        "prefix length 10 out of range 0..9",
    }


def _moved_levels(F, p, direction):
    """m, the number of leading edges B1's Vershik step on p's prefix
    changes: through the last edge that differs."""
    pre = pt.path_prefix(F.b1, p, p.depth - 1)
    step = (pt.vershik_successor if direction == "forward"
            else pt.vershik_predecessor)
    moved = step(F.b1, pre).edge_indices
    return 1 + max(n for n, (a, b) in enumerate(zip(pre.edge_indices, moved))
                   if a != b)


@pytest.mark.parametrize("name", list(_MAPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cocycles_read_the_moved_prefix(name, data):
    # The two images agree past the m levels the step moves, so the
    # depth-m images carry the value: with the shared tail they are
    # cocycle_images, and their rank shift is the full paths' rank shift.
    F = _orbit_map(name)
    b1 = F.b1
    depth = data.draw(st.integers(2, min(5, len(F.f1.orig_paths))))
    direction = data.draw(st.sampled_from(["forward", "backward"]))
    p = _drawn_path(data, b1, depth)
    extremal = pt.is_maximal if direction == "forward" else pt.is_minimal
    assume(not extremal(b1, pt.path_prefix(b1, p, depth - 1)))
    m = _moved_levels(F, p, direction)
    q, q2 = _reference_images(F, p, direction)
    h, h2 = soe._moved_images(F, p, direction)
    tail = q.edge_indices[m:]
    assert q2.edge_indices[m:] == tail
    assert (h.depth, h2.depth) == (m, m)
    assert h.terminal_vertex == h2.terminal_vertex
    images = soe.cocycle_images(F, p, direction)
    assert images == (q, q2)
    assert images == (
        pt.FinitePath(q.depth, h.edge_indices + tail, q.terminal_vertex),
        pt.FinitePath(q.depth, h2.edge_indices + tail, q.terminal_vertex))
    assert soe.cocycle(F, p, direction) == \
        pt.path_rank(F.b2, q2) - pt.path_rank(F.b2, q)
    assert soe.verify_cocycle(F, p, direction) == \
        _reference_verify(F, p, direction)


@pytest.mark.parametrize("name", list(_MAPS))
def test_cocycles_map_only_the_moved_prefix(name, monkeypatch):
    # verify_cocycle and cocycle hand _b2_edges at most m + 1 B1 edges per
    # image: the moved ones and the one past them.
    F = _orbit_map(name)
    b2_edges, seen = soe._b2_edges, []

    def spy(F, *edge_tuples):
        seen.extend(map(len, edge_tuples))
        return b2_edges(F, *edge_tuples)

    monkeypatch.setattr(soe, "_b2_edges", spy)
    longest = 0
    for direction, idx, value, _ in soe.cocycle_values(F, 5):
        p = pt.make_path(F.b1, idx)
        m = _moved_levels(F, p, direction)
        seen.clear()
        assert soe.verify_cocycle(F, p, direction)
        assert soe.cocycle(F, p, direction) == value
        assert len(seen) == 4 and max(seen) <= m + 1, (direction, idx, m)
        longest = max(longest, m)
    assert longest >= 2


@pytest.mark.parametrize("name", list(_MAPS))
def test_b2_rule_is_the_edge_pair_rule(name):
    # For consecutive B1 edges (a, b), the rule gives the B2 edge whose
    # segment runs from a's last interleaved edge to b's first.  Its
    # entries are F's own tables, so tables F shares across levels stay
    # shared in the rule.
    F = _orbit_map(name)
    b1, rule = F.b1, F.b2_rule
    f1, f2 = F.f1.orig_paths, F.f2.orig_paths
    assert len(rule) == len(f1) - 1
    pairs_checked = 0
    for n, (pairs, tail, head) in enumerate(rule, start=1):
        segment_of = {seg: c for c, seg in enumerate(f2[n - 1])}
        for a, (_, r) in enumerate(b1.edges[n - 1]):
            for b in b1.out_edge_table[n][r]:
                c = pairs[tail[a], head[b]]
                assert c == F.f2.path_tables[n - 1][
                    F.f1_tails[n - 1][a], F.f1_heads[n][b]]
                assert c == segment_of[f1[n - 1][a][-1], f1[n][b][0]]
                pairs_checked += 1
    assert pairs_checked > 20
    shared = 0
    for k, tables in enumerate((F.f2.path_tables, f1, f1[1:])):
        for i, j in itertools.combinations(range(len(rule)), 2):
            assert (rule[i][k] is rule[j][k]) == (tables[i] is tables[j])
            shared += tables[i] is tables[j]
    assert shared


@pytest.mark.parametrize("name", ["fibonacci-square", "reversed-order"])
def test_verify_cocycle_reaches_q2_only_by_vershik_steps(name, monkeypatch):
    # verify_cocycle reads the rank tables for the value alone: it reaches
    # q2 through one public B2 Vershik step per unit of the value, so a
    # step that stays put fails every cylinder.
    F = _orbit_map(name)
    calls = []

    def counted(step):
        def spy(d, p):
            assert d is F.b2
            calls.append(step.__name__)
            return step(d, p)
        return spy

    monkeypatch.setattr(soe, "vershik_successor",
                        counted(pt.vershik_successor))
    monkeypatch.setattr(soe, "vershik_predecessor",
                        counted(pt.vershik_predecessor))
    cylinders = list(soe.cocycle_values(F, 5))
    for direction, idx, value, _ in cylinders:
        calls.clear()
        assert soe.verify_cocycle(F, pt.make_path(F.b1, idx), direction)
        step = "vershik_successor" if value > 0 else "vershik_predecessor"
        assert value and calls == [step] * abs(value), (direction, idx)
    assert max(abs(value) for _, _, value, _ in cylinders) >= 3

    def stuck(d, p):
        return p

    monkeypatch.setattr(soe, "vershik_successor", stuck)
    monkeypatch.setattr(soe, "vershik_predecessor", stuck)
    for direction, idx, _, _ in cylinders:
        assert not soe.verify_cocycle(F, pt.make_path(F.b1, idx), direction)


def test_continuity_refuses_a_vacuous_pass():
    # Below depth 2, or with F or B1 stopping at depth 1, no cylinder is
    # eligible: once {"eligible": 0, "ok": True} and an empty walk, now
    # soe_report's errors.  A float depth once reached range() in the
    # walk, a bare TypeError.
    _, _, bp = _odometer_with_itself()
    for depth, message in ((1, "depth must be at least 2"),
                           (-3, "depth must be at least 2"),
                           (2.0, "depths must be ints")):
        for run in (lambda: soe.check_cocycle_continuity(bp, depth),
                    lambda: list(soe.cocycle_values(bp, depth))):
            with pytest.raises(dg.DiagramError) as err:
                run()
            assert str(err.value) == message
    for levels, num_q, limit in (
            (1, 0, "B1 has 1 level"),
            (5, 0, "F is realized only to B1 depth 1 by 1 P and 0 Q "
                   "matrices")):
        d = gen.odometer(2, levels)
        w = soe.stationary_intertwining([[1]], [[2]], 1, num_q)
        F = soe.build_interleaved(d, d, w)
        for run in (lambda: soe.check_cocycle_continuity(F, 3),
                    lambda: list(soe.cocycle_values(F, 3)),
                    lambda: soe.soe_report(d, d, w, 3)):
            with pytest.raises(dg.DiagramError) as err:
                run()
            assert str(err.value) == \
                f"{limit}; cocycles need B1 depth at least 2"


@pytest.mark.parametrize("p_matrices, q_matrices, message", [
    ([[[1.5]]], [], "p_matrices entries must be ints"),
    ([[[2.0]]], [], "p_matrices entries must be ints"),
    ([[[True]]], [], "p_matrices entries must be ints"),
    ([[[1]], [["2"]]], [[[2]]], "p_matrices entries must be ints"),
    ([[[1]], [[2]]], [[[2.0]]], "q_matrices entries must be ints"),
])
def test_make_intertwining_refuses_entries_that_are_not_ints(
        p_matrices, q_matrices, message):
    with pytest.raises(dg.DiagramError) as err:
        soe.make_intertwining(p_matrices, q_matrices)
    assert str(err.value) == message
