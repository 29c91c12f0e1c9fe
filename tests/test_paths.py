import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import paths as pt
from bratteli import soe
from conftest import random_diagram


def test_make_path_validates_composition():
    d = gen.stationary_adic([[1, 1], [1, 0]], 4)
    pt.make_path(d, [0, 0])
    with pytest.raises(dg.DiagramError):
        pt.make_path(d, [0, 1])   # edge 1 at level 2 starts at vertex 1
    with pytest.raises(dg.DiagramError, match="path depth 4 exceeds 3"):
        pt.make_path(gen.odometer(2, 3), [0, 0, 0, 0])


@pytest.mark.parametrize("idx, message", [
    ([0, 2], "edge index 2 out of range at level 2"),
    ([-1], "edge index -1 out of range at level 1"),
    ([1.9, 0], "edge indices must be ints"),
    ([True, 0], "edge indices must be ints"),
    (["1", 0], "edge indices must be ints"),
    ((e for e in [1.0]), "edge indices must be ints"),
])
def test_make_path_refuses_bad_edge_indices(idx, message):
    with pytest.raises(dg.DiagramError) as info:
        pt.make_path(gen.odometer(2, 3), idx)
    assert str(info.value) == message


def test_make_path_takes_any_iterable_of_ints():
    d = gen.odometer(2, 3)
    want = pt.make_path(d, (1, 0))
    assert pt.make_path(d, [1, 0]) == pt.make_path(d, iter([1, 0])) == want
    assert pt.make_path(d, []) == (0, (), 0)


def test_binary_increment():
    d = gen.odometer(2, 3)
    p = pt.make_path(d, [1, 1, 0])
    assert pt.path_rank(d, p) == 3
    q = pt.vershik_successor(d, p)
    assert q.edge_indices == (0, 0, 1)
    assert pt.path_rank(d, q) == 4


def test_rank_enumerates_all_paths(suite):
    d = suite["fibonacci"]
    for depth in (3, 5):
        for v in range(d.vertex_counts[depth]):
            total = pt.path_counts(d, depth)[v]
            seen = set()
            for r in range(total):
                p = pt.path_unrank(d, depth, v, r)
                assert pt.path_rank(d, p) == r
                seen.add(p.edge_indices)
            assert len(seen) == total


def test_path_counts_and_all_paths_match_edge_scan(suite):
    for d in suite.values():
        for depth in range(4):
            # Every composable edge-index tuple, in lexicographic order.
            want = []
            for idx in itertools.product(*(range(len(d.level_edges(n)))
                                           for n in range(1, depth + 1))):
                v = 0
                for n, e in enumerate(idx, start=1):
                    s, r = d.level_edges(n)[e]
                    if s != v:
                        break
                    v = r
                else:
                    want.append((idx, v))
            got = pt.all_paths(d, depth)
            assert [(p.edge_indices, p.terminal_vertex) for p in got] == want
            counts = [0] * d.vertex_counts[depth]
            for _, v in want:
                counts[v] += 1
            assert pt.path_counts(d, depth) == tuple(counts)


def test_all_paths_match_breadth_first_reference(table_suite):
    rng = random.Random(7)
    diagrams = list(table_suite.values()) + [
        random_diagram(rng, rng.randint(1, 8), 3, 2) for _ in range(50)]
    for d in diagrams:
        want = [((), 0)]
        for depth in range(d.num_levels + 1):
            # The deep suite levels have millions of paths.
            if sum(pt.path_counts(d, depth)) > 2000:
                break
            if depth:
                level, outs = d.level_edges(depth), dg.out_edges(d, depth)
                want = [(idx + (e,), level[e][1]) for idx, v in want
                        for e in outs[v]]
            got = pt.all_paths(d, depth)
            assert [(p.depth, p.edge_indices, p.terminal_vertex)
                    for p in got] == [(depth, *w) for w in want]
        for depth in (-1, d.num_levels + 1):
            with pytest.raises(dg.DiagramError, match="out of range"):
                pt.all_paths(d, depth)


def test_queries_do_not_keep_diagram_alive():
    d = gen.stationary_adic([[2, 1], [1, 1]], 12)
    p = pt.path_unrank(d, 12, 0, 5)
    assert pt.path_rank(d, p) == 5
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_unrank_rejects_missing_vertex():
    d = gen.odometer(2, 6)
    for level, vertex in ((-1, 0), (7, 0), (2, 1), (2, -1)):
        with pytest.raises(dg.DiagramError):
            pt.path_unrank(d, level, vertex, 0)


def test_successor_walk_is_rank_order():
    d = gen.stationary_adic([[1, 1], [1, 0]], 5)
    for v in range(2):
        p = pt.min_path_to(d, 5, v)
        total = pt.path_counts(d, 5)[v]
        for r in range(total - 1):
            assert pt.path_rank(d, p) == r
            p = pt.vershik_successor(d, p)
        assert pt.is_maximal(d, p)
        with pytest.raises(pt.MaximalPathError):
            pt.vershik_successor(d, p)


def test_predecessor_inverts_successor():
    d = gen.odometer(3, 4)
    p = pt.make_path(d, [2, 0, 1, 2])
    assert pt.vershik_predecessor(d, pt.vershik_successor(d, p)) == p
    with pytest.raises(pt.MinimalPathError):
        pt.vershik_predecessor(d, pt.min_path_to(d, 4, 0))


def _unrank_by_counts(d, level, vertex, rank):
    # The count-scan unrank: from (level, vertex) up to the root, skip the
    # root paths through each earlier in-edge.
    rev = []
    for n in range(level, 0, -1):
        counts = pt.path_counts(d, n - 1)
        for e in dg.in_edges(d, n)[vertex]:
            s = d.level_edges(n)[e][0]
            if rank < counts[s]:
                break
            rank -= counts[s]
        rev.append(e)
        vertex = s
    return pt.make_path(d, reversed(rev))


def _check_steps_against_unrank(d, depth, v, ranks):
    total = pt.path_counts(d, depth)[v]
    near = {s for r in ranks for s in (r - 1, r, r + 1) if 0 <= s < total}
    at = {r: _unrank_by_counts(d, depth, v, r) for r in near}
    assert pt.min_path_to(d, depth, v) == _unrank_by_counts(d, depth, v, 0)
    assert pt.max_path_to(d, depth, v) == \
        _unrank_by_counts(d, depth, v, total - 1)
    for r in ranks:
        p = at[r]
        assert pt.path_unrank(d, depth, v, r) == p
        assert pt.path_rank(d, p) == r
        if r == 0:
            with pytest.raises(pt.MinimalPathError):
                pt.vershik_predecessor(d, p)
        else:
            assert pt.vershik_predecessor(d, p) == at[r - 1]
        if r == total - 1:
            with pytest.raises(pt.MaximalPathError):
                pt.vershik_successor(d, p)
        else:
            assert pt.vershik_successor(d, p) == at[r + 1]


def test_steps_match_unrank_on_suite(suite):
    for d in suite.values():
        for depth in range(7):
            for v, total in enumerate(pt.path_counts(d, depth)):
                # Every rank, so every path into v.
                _check_steps_against_unrank(d, depth, v, range(total))


def test_steps_match_unrank_on_table_suite(suite, table_suite):
    # The diagrams whose levels repeat little or oddly, telescoped ones
    # among them: the step's same-range test must stop at each run of
    # in-edges in every canonical level.
    rng = random.Random(11)
    for name, d in table_suite.items():
        if name in suite:
            continue
        for depth in range(d.num_levels + 1):
            for v, total in enumerate(pt.path_counts(d, depth)):
                if not total:       # no path reaches v
                    continue
                ranks = {0, 1, total - 2, total - 1}
                ranks.update(rng.randrange(total) for _ in range(8))
                _check_steps_against_unrank(
                    d, depth, v, sorted(r for r in ranks if 0 <= r < total))


@pytest.mark.parametrize("shape", ["stationary", "fibonacci", "union"])
def test_steps_match_unrank_deep(shape):
    rng = random.Random(7)
    for depth in (40, 160):
        if shape == "union":
            d = gen.disjoint_union([gen.odometer(b, depth) for b in (2, 3, 5)])
        else:
            matrix = {"stationary": [[2, 1, 0], [1, 1, 1], [0, 1, 2]],
                      "fibonacci": [[1, 1], [1, 0]]}[shape]
            d = gen.stationary_adic(matrix, depth)
        for v, total in enumerate(pt.path_counts(d, depth)):
            ranks = {0, 1, total - 2, total - 1}
            ranks.update(rng.randrange(total) for _ in range(8))
            _check_steps_against_unrank(d, depth, v, sorted(ranks))


def test_unrank_matches_enumeration(table_suite):
    # Among the paths into one vertex, rank order compares the deepest
    # edge first, and a canonical level numbers each vertex's in-edges in
    # run order, so all_paths sorted by reversed edges is in rank order.
    # Every rank of every vertex is unranked: the bisection over a run of
    # in-edges meets in-degree-1 vertices and ranks at the first and the
    # last offset of a run.
    runs = {"single": 0, "last-offset": 0}
    for d in table_suite.values():
        for depth in range(d.num_levels + 1):
            if sum(pt.path_counts(d, depth)) > 4000:
                break
            into = {}
            for p in pt.all_paths(d, depth):
                into.setdefault(p.terminal_vertex, []).append(p)
            for v, paths in into.items():
                paths.sort(key=lambda p: p.edge_indices[::-1])
                for r, p in enumerate(paths):
                    assert pt.path_unrank(d, depth, v, r) == p, (depth, v, r)
                if depth:
                    run = d.in_edge_table[depth - 1][v]
                    last = d.rank_offset_table[depth - 1][run[-1]]
                    runs["single"] += len(run) == 1
                    runs["last-offset"] += (
                        last > 0 and paths[last].edge_indices[-1] == run[-1])
    assert min(runs.values()) > 10, runs


def test_orbit_shift_is_rank_difference():
    d = gen.odometer(2, 4)
    e = pt.make_path(d, [0, 1, 0, 1])
    f = pt.make_path(d, [1, 1, 0, 0])
    n = pt.orbit_shift(d, e, f)
    assert n == pt.path_rank(d, f) - pt.path_rank(d, e)
    cur = e
    for _ in range(abs(n)):
        cur = (pt.vershik_successor if n > 0
               else pt.vershik_predecessor)(d, cur)
    assert cur == f


def test_orbit_shift_needs_same_vertex():
    d = gen.stationary_adic([[1, 1], [1, 0]], 3)
    e = pt.min_path_to(d, 3, 0)
    f = pt.min_path_to(d, 3, 1)
    with pytest.raises(dg.DiagramError):
        pt.orbit_shift(d, e, f)
    with pytest.raises(dg.DiagramError, match="depth mismatch: 3 vs 2"):
        pt.orbit_shift(d, e, pt.min_path_to(d, 2, 0))


def test_orbit_shift_refuses_paths_deeper_than_the_diagram():
    # path_rank's check and message, read once for both paths.
    d = gen.odometer(2, 3)
    with pytest.raises(dg.DiagramError) as info:
        pt.orbit_shift(d, pt.FinitePath(5, (0,) * 5, 0),
                       pt.FinitePath(5, (1,) * 5, 0))
    assert str(info.value) == "path depth 5 exceeds 3"


def test_extremal_paths_odometer():
    d = gen.odometer(2, 6)
    mins = pt.extremal_paths(d, 4, "min")
    maxs = pt.extremal_paths(d, 4, "max")
    assert len(mins.paths) == len(maxs.paths) == 1
    assert mins.stabilized and maxs.stabilized
    assert mins.paths[0].edge_indices == (0,) * 4
    assert maxs.paths[0].edge_indices == (1,) * 4
    with pytest.raises(dg.DiagramError, match="kind must be min or max"):
        pt.extremal_paths(d, 4, "mid")
    with pytest.raises(dg.DiagramError, match="depth 7 out of range"):
        pt.extremal_paths(d, 7, "min")


def test_extremal_paths_union_counts(suite):
    d = suite["union3"]
    mins = pt.extremal_paths(d, 6, "min")
    assert len(mins.paths) == 3
    assert mins.stabilized


def test_pairing_respects_fibers():
    d = gen.disjoint_union([gen.odometer(2, 6), gen.odometer(3, 6)])
    pairing = pt.check_perfect_ordering(d, 6)["pairing"]
    assert pairing is not None
    for max_idx, min_path in pairing.items():
        max_path = pt.make_path(d, max_idx)
        assert (d.label_of(6, max_path.terminal_vertex)
                == d.label_of(6, min_path.terminal_vertex))


def test_full_vershik_wraps_through_pairing():
    d = gen.odometer(2, 4)
    pairing = pt.check_perfect_ordering(d, 4)["pairing"]
    top = pt.max_path_to(d, 4, 0)
    assert pt.full_vershik(d, top, pairing) == pt.min_path_to(d, 4, 0)
    with pytest.raises(pt.MaximalPathError):
        pt.full_vershik(d, top, None)
    with pytest.raises(pt.MaximalPathError, match="no pairing entry"):
        pt.full_vershik(d, top, {})
    # Off the boundary it is the plain successor and needs no pairing.
    p = pt.make_path(d, (0, 1, 1))
    assert pt.full_vershik(d, p) == pt.vershik_successor(d, p)
    assert pt.full_vershik(d, p).edge_indices == (1, 1, 1)


def test_perfect_ordering_verdicts(suite):
    for name in ("odometer2", "union2"):
        res = pt.check_perfect_ordering(suite[name], 6)
        assert res["verdict"] == "pass", name
        assert res["pairing"]
    # Fibonacci has one minimal but two maximal infinite paths; the
    # extremal sets never stabilize, so the check stays inconclusive.
    res = pt.check_perfect_ordering(suite["fibonacci"], 6)
    assert res["verdict"] == "unknown"


def test_perfect_ordering_unknown_on_property_failures():
    # Both extremal sets are stabilized at depth 1, but the diagram fails
    # the structural properties, so no pairing is certified.
    rng = random.Random(11)
    d = random_diagram(rng, rng.randint(2, 6), rng.randint(1, 4),
                       rng.randint(0, 4))
    assert d.vertex_counts == (1, 2, 2, 4, 2, 1)
    assert all(pt.extremal_paths(d, 1, kind).stabilized
               for kind in ("min", "max"))
    assert {f.prop for f in dg.check_fem_properties(d)} >= {"c", "d"}
    assert pt.check_perfect_ordering(d, 1) == {"verdict": "unknown",
                                               "pairing": None}


def _reference_extremal_paths(d, depth, kind):
    # One full-depth extremal path per last-level vertex, truncated.
    dg.check_valid(d)
    if not 0 <= depth <= d.num_levels:
        raise dg.DiagramError(f"depth {depth} out of range")
    builder = pt.min_path_to if kind == "min" else pt.max_path_to
    final = d.vertex_counts[d.num_levels]
    full = [builder(d, d.num_levels, v) for v in range(final)]
    stabilized = (depth >= 1 and d.num_levels >= 2 and all(
        len({p.edge_indices[:lvl] for p in full}) == final
        for lvl in (depth, d.num_levels - 1)))
    paths = tuple(sorted({pt.path_prefix(d, p, depth) for p in full},
                         key=lambda p: p.edge_indices))
    return paths, stabilized


def test_extremal_paths_match_full_path_reference(table_suite):
    inputs = list(table_suite.items())
    for seed in range(300):
        rng = random.Random(seed)
        inputs.append((seed, random_diagram(
            rng, rng.randint(1, 8), rng.randint(1, 6), rng.randint(0, 5))))
    for name, d in inputs:
        if dg.validate_diagram(d):
            with pytest.raises(dg.InvalidDiagram):
                pt.extremal_paths(d, 0)
            continue
        for depth in range(d.num_levels + 1):
            for kind in ("min", "max"):
                got = pt.extremal_paths(d, depth, kind)
                assert (got.paths, got.stabilized) == \
                    _reference_extremal_paths(d, depth, kind), \
                    (name, depth, kind)


def _strip_labels(d):
    return dg.make_diagram(d.num_levels, d.vertex_counts, d.edges)


def test_unlabeled_unions_pair_like_labeled(suite):
    # Without group labels the pairing falls back to the deep levels'
    # weak-connectivity components, which here are the fibers.
    for name, fibers in (("union2", 2), ("union3", 3)):
        d = suite[name]
        for depth in range(1, d.num_levels + 1):
            want = pt.check_perfect_ordering(d, depth)
            assert pt.check_perfect_ordering(_strip_labels(d), depth) == \
                want, (name, depth)
        assert want["verdict"] == "pass" and len(want["pairing"]) == fibers


def test_perfect_ordering_unknown_when_labels_merge_fibers():
    # Both odometers labeled fiber 0: two min and two max paths share one
    # key, so no one-to-one pairing is certified.
    d = gen.disjoint_union([gen.odometer(2, 6), gen.odometer(3, 6)])
    merged = dg.make_diagram(d.num_levels, d.vertex_counts, d.edges,
                             [[0] * len(l) for l in d.group_labels])
    assert pt.check_perfect_ordering(merged, 5) == {"verdict": "unknown",
                                                    "pairing": None}


def _reference_components(d):
    # Union-find over the edges of the deep half, ids in order of each
    # component's smallest last-level vertex.
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for n in range(max(1, d.num_levels // 2), d.num_levels + 1):
        for s, r in d.level_edges(n):
            parent[find((n - 1, s))] = find((n, r))
    ids = {}
    return {v: ids.setdefault(find((d.num_levels, v)), len(ids))
            for v in range(d.vertex_counts[d.num_levels])}


def test_own_fibers_match_union_find():
    # Without labels, every last-level vertex is its own fiber exactly
    # when the deep half's union-find gives each one its own component.
    rng = random.Random(5)
    inputs = [random_diagram(rng, rng.randint(1, 8), 5, 3)
              for _ in range(200)]
    # A union's fibers split only once the deep half leaves the root.
    for _ in range(100):
        levels = rng.randint(4, 7)
        inputs.append(_strip_labels(gen.disjoint_union(
            [random_diagram(rng, levels, 3, 2)
             for _ in range(rng.randint(2, 4))])))
    own = 0
    for d in inputs:
        comps = _reference_components(d)
        want = len(set(comps.values())) == len(comps)
        assert pt._own_fibers(d) is want, d
        own += want
    assert (own, len(inputs) - own) == (57, 243)


def test_own_fibers_with_labels_reads_the_last_level():
    d = gen.disjoint_union([gen.odometer(2, 4), gen.odometer(3, 4)])
    assert pt._own_fibers(d)
    for last in ([0, 0], [1, 1], [5, 5]):
        merged = dg.make_diagram(d.num_levels, d.vertex_counts, d.edges,
                                 d.group_labels[:-1] + (last,))
        assert not pt._own_fibers(merged)
    # Labels below level N do not matter.
    split = dg.make_diagram(d.num_levels, d.vertex_counts, d.edges,
                            [[0, 0]] * 3 + [[7, 2]])
    assert pt._own_fibers(split)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4),
       st.integers(2, 8), st.booleans())
def test_pairing_wraps_each_vertex_max_path_to_its_min_path(
        bases, levels, labeled):
    d = gen.disjoint_union([gen.odometer(b, levels) for b in bases])
    if not labeled:
        d = _strip_labels(d)
    top = d.num_levels
    for depth in range(1, top + 1):
        res = pt.check_perfect_ordering(d, depth)
        if res["verdict"] != "pass":
            assert res == {"verdict": "unknown", "pairing": None}
            continue
        want = {}
        for v in range(d.vertex_counts[top]):
            mx = pt.path_prefix(d, pt.max_path_to(d, top, v), depth)
            want[mx.edge_indices] = pt.path_prefix(
                d, pt.min_path_to(d, top, v), depth)
        assert res["pairing"] == want
        assert list(res["pairing"]) == sorted(want)
    # An odometer union's parts are its fibers: labels name them, and
    # without labels the deep half (levels N//2 up) must leave the root.
    if labeled or len(bases) == 1 or top >= 4:
        assert res["verdict"] == "pass" and len(res["pairing"]) == len(bases)


def test_telescope_path_round_trip():
    d = gen.stationary_adic([[1, 1], [1, 0]], 6)
    td, tmap = dg.telescope(d, [2, 4, 6])
    for p in pt.all_paths(d, 6)[:40]:
        q = pt.telescope_path(tmap, p, td)
        assert pt.untelescope_path(tmap, q, d) == p


def test_untelescope_path_refuses_a_path_deeper_than_the_map():
    # The map has 3 levels; a depth-5 path once lost its last two edges
    # and came back as a depth-6 path of the first three.
    d = gen.odometer(2, 6)
    td, tmap = dg.telescope(d, [2, 4, 6])
    for p in (pt.FinitePath(5, (0, 1, 2, 3, 0), 0),
              pt.FinitePath(4, (0, 0, 0, 0), 0)):
        with pytest.raises(dg.DiagramError) as info:
            pt.untelescope_path(tmap, p, d)
        assert str(info.value) == f"path depth {p.depth} exceeds 3"
    top = pt.FinitePath(3, (3, 2, 1), 0)
    assert pt.untelescope_path(tmap, top, d) == \
        pt.make_path(d, (1, 1, 0, 1, 1, 0))
    assert pt.telescope_path(tmap, pt.untelescope_path(tmap, top, d),
                             td) == top


def test_telescope_conjugates_successor():
    d = gen.odometer(2, 6)
    td, tmap = dg.telescope(d, [2, 4, 6])
    for p in pt.all_paths(d, 6):
        if pt.is_maximal(d, p):
            continue
        lhs = pt.telescope_path(tmap, pt.vershik_successor(d, p), td)
        rhs = pt.vershik_successor(td, pt.telescope_path(tmap, p, td))
        assert lhs == rhs


def test_derived_paths_match_checked_paths(suite):
    # Enumerations, prefixes, steps, extremal walks, telescoping and soe's
    # orbit map build their paths from the tables; each must equal the path
    # make_path checks, and be a FinitePath, not a plain tuple.
    def checked(d, p):
        return (type(p) is pt.FinitePath
                and p == pt.make_path(d, p.edge_indices))

    for name, d in suite.items():
        for depth in range(5):
            for p in pt.all_paths(d, depth):
                assert checked(d, p), (name, p)
                assert all(checked(d, pt.path_prefix(d, p, n))
                           for n in range(depth + 1)), (name, p)
                for step, last in ((pt.vershik_successor, pt.is_maximal),
                                   (pt.vershik_predecessor, pt.is_minimal)):
                    if not last(d, p):
                        assert checked(d, step(d, p)), (name, step, p)
        for depth in range(d.num_levels + 1):
            for kind in ("min", "max"):
                for p in pt.extremal_paths(d, depth, kind).paths:
                    assert checked(d, p), (name, kind, p)
            for v in range(d.vertex_counts[depth]):
                assert checked(d, pt.min_path_to(d, depth, v))
                assert checked(d, pt.max_path_to(d, depth, v))
                assert checked(d, pt.path_unrank(d, depth, v, 0))
        td, tmap = dg.telescope(d, list(range(2, d.num_levels + 1, 2)))
        for p in pt.all_paths(d, 4):
            q = pt.telescope_path(tmap, p, td)
            assert checked(td, q), (name, p)
            back = pt.untelescope_path(tmap, q, d)
            assert checked(d, back) and back == p, (name, p)
    b = gen.odometer(2, 6)
    F = soe.realize_orbit_map(soe.build_interleaved(
        b, b, soe.stationary_intertwining([[1]], [[2]], 6, 5)))
    for depth in range(1, 5):
        for p in pt.all_paths(b, depth):
            assert checked(F.b2, soe.apply_orbit_map(F, p)), p
            if depth > 1 and not pt.is_maximal(b, pt.path_prefix(b, p,
                                                                 depth - 1)):
                for q in soe.cocycle_images(F, p):
                    assert checked(F.b2, q), p


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_rank_round_trip_property(base, data):
    d = gen.odometer(base, 5)
    total = base ** 5
    r = data.draw(st.integers(0, total - 1))
    p = pt.path_unrank(d, 5, 0, r)
    assert pt.path_rank(d, p) == r
    if r + 1 < total:
        assert pt.path_rank(d, pt.vershik_successor(d, p)) == r + 1


def test_rank_and_position_tables_match_edge_scan(table_suite):
    rng = random.Random(3)
    for d in table_suite.values():
        assert pt.path_counts(d, 0) == (1,)
        for n in range(1, d.num_levels + 1):
            level = d.level_edges(n)
            counts = pt.path_counts(d, n - 1)
            assert pt.path_counts(d, n) == tuple(
                sum(counts[s] for s, r in level if r == w)
                for w in range(d.vertex_counts[n]))
            positions, offsets = [], []
            for i, (_, r) in enumerate(level):
                before = [s for s, r2 in level[:i] if r2 == r]
                positions.append(len(before))
                offsets.append(sum(counts[s] for s in before))
            assert d.rank_offset_table[n - 1] == tuple(offsets)
            for e in range(len(level)):
                assert dg.edge_order_index(d, n, e) == positions[e]
        for v in range(d.vertex_counts[d.num_levels]):
            total = pt.path_counts(d, d.num_levels)[v]
            for r in {0, total - 1, rng.randrange(total)}:
                p = pt.path_unrank(d, d.num_levels, v, r)
                # The level-by-level sum over earlier same-range edges.
                rank = 0
                for n, e in enumerate(p.edge_indices, start=1):
                    counts = pt.path_counts(d, n - 1)
                    level = d.level_edges(n)
                    for e2 in dg.in_edges(d, n)[level[e][1]]:
                        if e2 == e:
                            break
                        rank += counts[level[e2][0]]
                assert pt.path_rank(d, p) == rank == r
                assert pt.is_minimal(d, p) == (r == 0)
                assert pt.is_maximal(d, p) == (r == total - 1)


def test_finite_path_is_an_immutable_value():
    p = pt.FinitePath(3, (1, 1, 0), 0)
    with pytest.raises(AttributeError):
        p.depth = 4
    with pytest.raises(AttributeError):
        p.edge_indices = (0, 0, 0)
    q = pt.FinitePath(3, (1, 1, 0), 0)
    assert p == q and hash(p) == hash(q)
    assert p != pt.FinitePath(3, (1, 1, 0), 1)
    assert len({p, q, pt.FinitePath(3, (0, 1, 0), 0)}) == 2
    # A NamedTuple: equal to the plain tuple of its fields.
    assert p == (3, (1, 1, 0), 0) and hash(p) == hash((3, (1, 1, 0), 0))
    assert repr(p) == \
        "FinitePath(depth=3, edge_indices=(1, 1, 0), terminal_vertex=0)"
    assert pt.make_path(gen.odometer(2, 3), [1, 1, 0]) == p


def _random_path(d, depth, rng):
    # Follow random out-edges from the root.
    idx, v = [], 0
    for n in range(depth):
        e = rng.choice(d.out_edge_table[n][v])
        idx.append(e)
        v = d.edges[n][e][1]
    return pt.FinitePath(depth, tuple(idx), v)


@pytest.mark.parametrize("shape", ["stationary", "fibonacci", "union"])
def test_path_rank_matches_level_loop_deep(shape):
    rng = random.Random(11)
    for depth in (10, 40, 160):
        if shape == "union":
            d = gen.disjoint_union([gen.odometer(b, depth) for b in (2, 3, 5)])
        else:
            matrix = {"stationary": [[2, 1, 0], [1, 1, 1], [0, 1, 2]],
                      "fibonacci": [[1, 1], [1, 0]]}[shape]
            d = gen.stationary_adic(matrix, depth)
        counts = [pt.path_counts(d, n) for n in range(depth)]
        for _ in range(20):
            p = _random_path(d, depth, rng)
            # Each edge adds the root paths into the sources of the edges
            # before it into the same range vertex.
            rank = 0
            for n, e in enumerate(p.edge_indices):
                for e2 in d.in_edge_table[n][d.edges[n][e][1]]:
                    if e2 == e:
                        break
                    rank += counts[n][d.edges[n][e2][0]]
            assert pt.path_rank(d, p) == rank


@pytest.mark.parametrize("edge", [0, 1])
@pytest.mark.parametrize("query", [
    pt.path_rank, pt.vershik_successor, pt.vershik_predecessor,
    pt.is_maximal, pt.is_minimal,
])
def test_queries_reject_path_deeper_than_diagram(query, edge):
    d = gen.odometer(2, 3)
    with pytest.raises(dg.DiagramError, match="path depth 5 exceeds 3"):
        query(d, pt.FinitePath(5, (edge,) * 5, 0))


def test_path_prefix_rejects_lengths_out_of_range():
    d = gen.odometer(2, 3)
    p = pt.make_path(d, (1, 0, 1))
    assert pt.path_prefix(d, p, 0) == pt.FinitePath(0, (), 0)
    assert pt.path_prefix(d, p, 3) == p
    for n in (-1, 4):
        with pytest.raises(dg.DiagramError, match="prefix length"):
            pt.path_prefix(d, p, n)
    # A path deeper than d: its prefixes past d's levels have no range.
    deep = pt.FinitePath(5, (0,) * 5, 0)
    assert pt.path_prefix(d, deep, 3) == pt.FinitePath(3, (0, 0, 0), 0)
    with pytest.raises(dg.DiagramError, match="prefix length 4"):
        pt.path_prefix(d, deep, 4)


def test_path_counts_and_unrank_refuse_out_of_range_input():
    d = gen.odometer(2, 3)
    for level in (-1, 4):
        with pytest.raises(dg.DiagramError) as err:
            pt.path_counts(d, level)
        assert str(err.value) == f"level {level} out of range 0..3"
    assert pt.path_counts(d, 0) == (1,)
    assert pt.path_counts(d, 3) == (8,)
    for rank in (-1, 8):
        with pytest.raises(dg.DiagramError) as err:
            pt.path_unrank(d, 3, 0, rank)
        assert str(err.value) == (f"rank {rank} out of range 0..7 for "
                                  "vertex 0 at level 3")


# A float or bool level, vertex, depth, rank or edge is out of range, as
# a negative one is, rather than read as the int it equals.
_QUERIES = gen.stationary_adic([[2, 1], [1, 1]], 5)
_BAD_QUERIES = [
    (pt.path_unrank, (3, 0, 1.5),
     "rank 1.5 out of range 0..20 for vertex 0 at level 3"),
    (pt.path_unrank, (3, 0, True),
     "rank True out of range 0..20 for vertex 0 at level 3"),
    (pt.path_unrank, (3.0, 0, 1), "no vertex 0 at level 3.0"),
    (pt.path_unrank, (3, False, 1), "no vertex False at level 3"),
    (pt.path_counts, (2.0,), "level 2.0 out of range 0..5"),
    (pt.min_path_to, (True, 0), "level True out of range"),
    (pt.max_path_to, (2, 0.0), "vertex 0.0 out of range at level 2"),
    (pt.path_prefix, (pt.make_path(_QUERIES, [0, 0, 0]), 1.0),
     "prefix length 1.0 out of range 0..3"),
    (pt.extremal_paths, (True,), "depth True out of range"),
    (pt.all_paths, (1.0,), "depth 1.0 out of range 0..5"),
    (dg.OrderedBratteliDiagram.level_edges, (True,),
     "edge level True out of range 1..5"),
    (dg.OrderedBratteliDiagram.label_of, (1.0, 0),
     "level 1.0 out of range 0..5"),
    (dg.in_edges, (1.0,), "edge level 1.0 out of range 1..5"),
    (dg.out_edges, (True,), "edge level True out of range 1..5"),
    (dg.edge_order_index, (True, 0), "edge level True out of range 1..5"),
    (dg.edge_order_index, (1, True),
     "edge index True out of range at level 1"),
    (dg.min_edges, (True,), "edge level True out of range 1..5"),
    (dg.max_edges, (2.0,), "edge level 2.0 out of range 1..5"),
    (dg.incidence_matrix, (True,), "edge level True out of range 1..5"),
    (dg.min_vertices, (True,), "edge level True out of range 1..5"),
    (dg.vertex_ranges, (0, True), "vertex True out of range at level 0"),
    (dg.telescope_segments, (1.0, 2),
     "segment levels 1.0..2 out of range 1..5"),
]


def _call_id(query, args):
    shown = ("p" if type(a) is pt.FinitePath else repr(a) for a in args)
    return f"{query.__name__}({', '.join(shown)})"


@pytest.mark.parametrize("query, args, message", _BAD_QUERIES, ids=[
    _call_id(query, args) for query, args, _ in _BAD_QUERIES])
def test_queries_refuse_non_int_arguments(query, args, message):
    with pytest.raises(dg.DiagramError) as err:
        query(_QUERIES, *args)
    assert str(err.value) == message


@pytest.mark.parametrize("extremal", [pt.min_path_to, pt.max_path_to])
def test_extremal_path_to_refuses_level_out_of_range(extremal):
    d = gen.odometer(2, 3)
    for level in (-1, 4):
        with pytest.raises(dg.DiagramError) as err:
            extremal(d, level, 0)
        assert str(err.value) == f"level {level} out of range"
