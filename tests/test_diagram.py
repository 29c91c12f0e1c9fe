import json

import pytest

from bratteli import diagram as dg
from bratteli import generators as gen


def fib(levels=6):
    return gen.stationary_adic([[1, 1], [1, 0]], levels)


def test_make_diagram_canonicalizes_by_range():
    d = dg.make_diagram(1, [1, 2], [[(0, 1), (0, 0), (0, 1)]])
    assert d.level_edges(1) == ((0, 0), (0, 1), (0, 1))


def test_make_diagram_rejects_bad_indices():
    with pytest.raises(dg.MalformedDiagram):
        dg.make_diagram(1, [1, 2], [[(0, 2)]])
    with pytest.raises(dg.MalformedDiagram):
        dg.make_diagram(1, [1, 2], [[(1, 0)]])
    with pytest.raises(dg.MalformedDiagram):
        dg.make_diagram(2, [1, 1], [[(0, 0)]])


def test_validate_flags_isolated_vertices():
    # Vertex 1 at level 1 has no incoming edge; vertex 0 no outgoing.
    d = dg.make_diagram(2, [1, 2, 1], [[(0, 0)], [(1, 0)]])
    kinds = {v.kind for v in dg.validate_diagram(d)}
    assert kinds == {"range-surjectivity", "source-surjectivity"}


def test_validate_accepts_suite(suite):
    for d in suite.values():
        assert dg.validate_diagram(d) == []


def test_edge_order_and_extremal_edges():
    d = gen.odometer(3, 2)
    assert dg.min_edges(d, 1) == (0,)
    assert dg.max_edges(d, 1) == (2,)
    assert dg.edge_order_index(d, 1, 1) == 1


def test_incidence_matrix_fibonacci():
    d = fib()
    assert dg.incidence_matrix(d, 1) == [[2], [1]]
    assert dg.incidence_matrix(d, 2) == [[1, 1], [1, 0]]


def test_telescope_incidence_is_matrix_product():
    d = fib(6)
    td, _ = dg.telescope(d, [2, 4, 6])
    m = dg.incidence_matrix(d, 2)
    want = dg.mat_mul(dg.incidence_matrix(d, 4), dg.incidence_matrix(d, 3))
    assert dg.incidence_matrix(td, 2) == want
    assert td.num_levels == 3
    assert td.vertex_counts == (1, 2, 2, 2)


def test_telescope_of_odometer_by_pairs():
    d = gen.odometer(2, 6)
    td, _ = dg.telescope(d, [2, 4, 6])
    assert dg.incidence_matrix(td, 1) == [[4]]
    assert td.num_levels == 3


def test_telescope_rejects_bad_cuts():
    d = gen.odometer(2, 4)
    with pytest.raises(dg.DiagramError):
        dg.telescope(d, [2, 3])      # must end at num_levels
    with pytest.raises(dg.DiagramError):
        dg.telescope(d, [3, 2, 4])


def test_telescope_map_round_trip():
    d = fib(4)
    td, tmap = dg.telescope(d, [2, 4])
    for lvl in (1, 2):
        for e in range(len(td.level_edges(lvl))):
            path = tmap.orig_path(lvl, e)
            assert tmap.new_edge(lvl, path) == e
    for e in (-1, len(td.level_edges(1))):
        with pytest.raises(dg.DiagramError):
            tmap.orig_path(1, e)


def test_edge_tables_match_edge_scan(suite):
    for d in suite.values():
        for n in range(1, d.num_levels + 1):
            level = d.level_edges(n)
            ins = tuple(tuple(i for i, (_, r) in enumerate(level) if r == w)
                        for w in range(d.vertex_counts[n]))
            outs = tuple(tuple(i for i, (s, _) in enumerate(level) if s == v)
                         for v in range(d.vertex_counts[n - 1]))
            assert dg.in_edges(d, n) == ins
            assert dg.out_edges(d, n) == outs
            for v in range(d.vertex_counts[n - 1]):
                want = tuple(sorted({r for s, r in level if s == v}))
                assert dg.vertex_ranges(d, n - 1, v) == want
            for w in range(d.vertex_counts[n]):
                want = tuple(sorted({s for s, r in level if r == w}))
                assert dg.vertex_sources(d, n, w) == want


def test_fem_properties_pass_on_suite(suite):
    for name, d in suite.items():
        if name == "fibonacci":
            continue
        assert dg.check_fem_properties(d) == [], name


def test_fibonacci_fails_property_c():
    # The single edge into vertex 1 forces vertex 0 into both extremal
    # vertex sets, while the two edges into vertex 0 hand one extremal
    # edge to vertex 1; no edge order can avoid a (c) failure.
    failures = dg.check_fem_properties(fib())
    assert failures
    assert any(f.prop == "c" and f.kind == "max" for f in failures)


def test_fem_property_c_violation_detected():
    # Minimal edges into the two level-2 vertices come from different
    # sources, so (c) fails for both level-1 vertices; nothing else does.
    d = dg.make_diagram(
        2, [1, 2, 2],
        [[(0, 0), (0, 1)],
         [(0, 0), (1, 0), (1, 1), (0, 1)]])
    failures = dg.check_fem_properties(d)
    assert failures
    assert {f.prop for f in failures} == {"c"}


def test_json_round_trip(suite):
    for d in suite.values():
        assert dg.diagram_from_json(dg.diagram_to_json(d)) == d


def test_json_rejects_unknown_keys():
    obj = dg.diagram_to_json(gen.odometer(2, 2))
    obj["extra"] = 1
    with pytest.raises(dg.MalformedDiagram):
        dg.diagram_from_json(obj)
    del obj["extra"]
    obj["edges"][0][0]["x"] = 1
    with pytest.raises(dg.MalformedDiagram):
        dg.diagram_from_json(obj)


def test_save_and_load(tmp_path):
    d = fib(3)
    path = tmp_path / "fib.json"
    dg.save_diagram(d, str(path))
    assert dg.load_diagram(str(path)) == d
    json.loads(path.read_text())  # the file is plain JSON


def test_dot_export_mentions_every_edge():
    d = gen.odometer(2, 2)
    dot = dg.diagram_to_dot(d)
    assert dot.count("->") == 4
    assert dot.startswith("digraph")


def test_edge_tables_by_level_reject_levels_out_of_range():
    d = gen.odometer(3, 2)
    assert dg.in_edges(d, 2) == dg.out_edges(d, 2) == ((0, 1, 2),)
    for query in (dg.in_edges, dg.out_edges):
        for n in (0, 3):
            with pytest.raises(dg.DiagramError, match="out of range"):
                query(d, n)
