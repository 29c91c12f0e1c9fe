import pytest

from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import paths as pt
from conftest import peak_growth


def test_odometer_shape_and_heights():
    d = gen.odometer(3, 4)
    assert d.vertex_counts == (1, 1, 1, 1, 1)
    assert all(len(d.level_edges(n)) == 3 for n in range(1, 5))
    assert pt.path_counts(d, 4) == (81,)
    with pytest.raises(dg.DiagramError):
        gen.odometer(1, 4)
    with pytest.raises(dg.DiagramError, match="levels must be >= 1"):
        gen.odometer(2, 0)


def test_odometer_telescope_by_pairs_is_square_base():
    d2, _ = dg.telescope(gen.odometer(2, 6), [2, 4, 6])
    d4 = gen.odometer(4, 3)
    assert d2 == d4


def test_stationary_adic_rejects_degenerate_matrices():
    with pytest.raises(dg.DiagramError):
        gen.stationary_adic([[1, 0], [1, 0]], 3)   # zero column
    with pytest.raises(dg.DiagramError):
        gen.stationary_adic([[0, 0], [1, 1]], 3)   # zero row
    with pytest.raises(dg.DiagramError):
        gen.stationary_adic([[1, 1]], 3)
    with pytest.raises(dg.DiagramError, match="at least one row"):
        gen.stationary_adic([], 3)
    with pytest.raises(dg.DiagramError, match="non-negative"):
        gen.stationary_adic([[2, -1], [1, 1]], 3)


@pytest.mark.parametrize("build", [
    lambda: gen.odometer(3, 43691),                          # 3 * 43691
    lambda: gen.stationary_adic([[1, 1], [1, 0]], 43691),    # 43691 * 3
    lambda: gen.finite_cycle_system([2 ** 17 - 4], 6),       # + 5 * 1
], ids=["odometer", "stationary", "cycles"])
def test_generators_refuse_one_edge_over_the_cap(monkeypatch, build):
    # Each call asks for 2^17 + 1 edges: refused from the arguments, before
    # any level or permutation is built.
    assert dg.MAX_TELESCOPE_EDGES == 2 ** 17
    for name in ("make_diagram", "_edges_from_matrix",
                 "make_permutation_system"):
        monkeypatch.setattr(gen, name, None)
    with pytest.raises(dg.DiagramError,
                       match="would have 131073 edges, more than "
                             "MAX_TELESCOPE_EDGES = 131072"):
        build()


def test_generators_build_at_the_cap():
    assert sum(map(len, gen.odometer(2, 2 ** 16).edges)) == 2 ** 17
    d = gen.stationary_adic([[1, 1], [1, 0]], 43690)
    assert sum(map(len, d.edges)) == 2 ** 17 - 2
    grown_mb, edges = peak_growth(
        "from bratteli import generators as gen",
        "sum(map(len, gen.finite_cycle_system([2 ** 17 - 5], 6)[1].edges))")
    assert edges == str(2 ** 17)
    assert grown_mb <= 64, f"peak RSS grew by {grown_mb} MB"


def test_stationary_adic_single_entry_is_odometer():
    d = gen.stationary_adic([[2]], 4)
    o = gen.odometer(2, 4)
    assert (d.edges, d.vertex_counts) == (o.edges, o.vertex_counts)


def test_disjoint_union_structure():
    d = gen.disjoint_union([gen.odometer(2, 3), gen.odometer(3, 3)])
    assert d.vertex_counts == (1, 2, 2, 2)
    assert d.group_labels == ((0, 1),) * 3
    assert dg.validate_diagram(d) == []
    assert dg.incidence_matrix(d, 2) == [[2, 0], [0, 3]]
    with pytest.raises(dg.DiagramError):
        gen.disjoint_union([gen.odometer(2, 3), gen.odometer(3, 4)])
    with pytest.raises(dg.DiagramError, match="at least one component"):
        gen.disjoint_union([])


def test_union_extremal_counts(suite):
    for depth in (3, 6):
        assert len(pt.extremal_paths(suite["union3"], depth, "min").paths) == 3
        assert len(pt.extremal_paths(suite["union3"], depth, "max").paths) == 3


def test_finite_cycle_system_orbit_lengths():
    system, d = gen.finite_cycle_system([2, 3], levels=4)
    assert system.n_points == 5
    # Vershik orbits on the constant diagram have the cycle lengths.
    full = pt.all_paths(d, d.num_levels)
    seen = set()
    lengths = []
    for p in full:
        if p in seen or not pt.is_minimal(d, p):
            continue
        cur, n = p, 1
        seen.add(cur)
        while not pt.is_maximal(d, cur):
            cur = pt.vershik_successor(d, cur)
            seen.add(cur)
            n += 1
        lengths.append(n)
    assert sorted(lengths) == [2, 3]
    with pytest.raises(dg.DiagramError):
        gen.finite_cycle_system([])
    with pytest.raises(dg.DiagramError):
        gen.finite_cycle_system([0, 2])


def test_tower_system_validation():
    with pytest.raises(dg.DiagramError):
        gen.make_tower_system([[0]], [[0]])          # zero height
    with pytest.raises(dg.DiagramError):
        gen.make_tower_system([[2], [3]], [[0], [0]])  # tops unbalanced
    with pytest.raises(dg.DiagramError, match="shapes differ"):
        gen.make_tower_system([[2], [3]], [[1]])
    with pytest.raises(dg.DiagramError, match="at least one tower"):
        gen.make_tower_system([[2], []], [[1], []])
    with pytest.raises(dg.DiagramError, match="out of range"):
        gen.make_tower_system([[2]], [[1]])
    s = gen.make_tower_system([[2], [3]], [[1], [0]])
    assert s.towers() == [(0, 0), (1, 0)]


def test_refinement_conclusion_letters():
    coarse = gen.make_tower_system([[2]], [[0]])
    fine = gen.make_tower_system([[6]], [[0]])
    gen.make_refinement(coarse, fine, {(0, 0): [(0, 0)] * 3})
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(coarse, fine, {(0, 0): [(0, 0)] * 2})
    assert err.value.conclusion == "e"    # heights do not add up
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(coarse, fine, {})
    assert err.value.conclusion == "d"
    for records in ([], [(0, 1)]):     # empty, and an unknown coarse tower
        with pytest.raises(gen.RefinementError) as err:
            gen.make_refinement(coarse, fine, {(0, 0): records})
        assert err.value.conclusion == "d"
    two = gen.make_tower_system([[2], [2]], [[0], [1]])
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(two, fine, {(0, 0): [(0, 0)] * 3})
    assert err.value.conclusion == "c"    # group counts differ
    wide = gen.make_tower_system([[2], [2]], [[1], [0]])
    fine2 = gen.make_tower_system([[4], [4]], [[1], [0]])
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(
            wide, fine2,
            {(0, 0): [(0, 0), (1, 0)], (1, 0): [(1, 0), (0, 0)]})
    assert err.value.conclusion == "e"    # return chain inconsistent


def test_refinement_unused_tower_is_f():
    coarse = gen.make_tower_system([[2, 2]], [[0, 0]])
    fine = gen.make_tower_system([[4]], [[0]])
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(coarse, fine, {(0, 0): [(0, 0), (0, 0)]})
    assert err.value.conclusion == "f"


def test_towers_to_diagram_odometer():
    systems, refinements = gen.odometer_towers(2, 4)
    d = gen.towers_to_diagram(systems, refinements)
    plain = gen.odometer(2, 4)
    assert d.num_levels == plain.num_levels
    assert d.edges == plain.edges
    assert dg.check_fem_properties(d) == []


def test_towers_to_diagram_two_groups_is_union():
    levels = 3
    systems = [gen.make_tower_system([[2 ** n], [3 ** n]], [[0], [1]])
               for n in range(1, levels + 1)]
    refinements = [
        gen.make_refinement(
            systems[n], systems[n + 1],
            {(0, 0): [(0, 0)] * 2, (1, 0): [(1, 0)] * 3})
        for n in range(levels - 1)]
    d = gen.towers_to_diagram(systems, refinements)
    u = gen.disjoint_union([gen.odometer(2, levels),
                            gen.odometer(3, levels)])
    assert d.edges == u.edges
    assert d.group_labels == u.group_labels


def test_towers_to_diagram_refuses_more_edges_than_the_cap(monkeypatch):
    # Level 1 has one edge per floor of the first system, each later level
    # one per traversal record: counted before any list is built.
    big = [gen.make_tower_system([[2 ** 18]], [[0]])]
    systems, refinements = gen.odometer_towers(2, 3)
    monkeypatch.setattr(gen, "make_diagram", None)
    with pytest.raises(dg.DiagramError) as err:
        gen.towers_to_diagram(big, [])
    assert str(err.value) == ("the diagram would have 262144 edges, more "
                              "than MAX_TELESCOPE_EDGES = 131072")
    monkeypatch.setattr(gen, "MAX_TELESCOPE_EDGES", 5)
    with pytest.raises(dg.DiagramError,
                       match="would have 6 edges, more than "
                             "MAX_TELESCOPE_EDGES = 5"):
        gen.towers_to_diagram(systems, refinements)
    monkeypatch.undo()
    monkeypatch.setattr(gen, "MAX_TELESCOPE_EDGES", 6)
    d = gen.towers_to_diagram(systems, refinements)
    assert sum(map(len, d.edges)) == 6


def test_tower_heights_additive():
    systems, refinements = gen.odometer_towers(3, 5)
    d = gen.towers_to_diagram(systems, refinements)
    # Path counts into level n are the tower heights.
    for n in range(1, 6):
        assert pt.path_counts(d, n) == (3 ** n,)


def test_union_keeps_its_parts_fiber_labels():
    # A nested union labels its three odometers as the flat union does,
    # and both pair one min and one max path per fiber.
    parts = [gen.odometer(b, 6) for b in (2, 3, 5)]
    flat = gen.disjoint_union(parts)
    nested = gen.disjoint_union([gen.disjoint_union(parts[:2]), parts[2]])
    assert nested.edges == flat.edges
    assert nested.group_labels == flat.group_labels == ((0, 1, 2),) * 6
    for d in (flat, nested):
        res = pt.check_perfect_ordering(d, 5)
        assert res["verdict"] == "pass"
        assert len(res["pairing"]) == 3


def test_union_shifts_each_part_past_the_labels_before_it():
    # Labels may be negative or skip values; an unlabeled part is one
    # fiber.
    labeled = dg.make_diagram(2, [1, 2, 2], [[(0, 0), (0, 1)],
                                             [(0, 0), (1, 1)]],
                              [[-1, 3], [-1, 3]])
    plain = dg.make_diagram(2, [1, 1, 1], [[(0, 0)], [(0, 0)]])
    d = gen.disjoint_union([plain, labeled, plain])
    assert d.group_labels == ((0, 1, 5, 6),) * 2


def test_generators_refuse_zero_levels():
    for build in (lambda: gen.stationary_adic([[2]], 0),
                  lambda: gen.finite_cycle_system([2, 3], 0)):
        with pytest.raises(dg.DiagramError) as err:
            build()
        assert str(err.value) == "levels must be >= 1"


def test_refinement_names_unknown_towers_and_wrong_start_groups():
    coarse = gen.make_tower_system([[2]], [[0]])
    fine = gen.make_tower_system([[6]], [[0]])
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(coarse, fine, {(0, 0): [(0, 0), (0, 1)]})
    assert str(err.value) == "conclusion (d): unknown coarse tower (0, 1)"
    two = gen.make_tower_system([[2], [3]], [[0], [1]])
    fine2 = gen.make_tower_system([[3], [2]], [[0], [1]])
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(two, fine2, {(0, 0): [(1, 0)], (1, 0): [(0, 0)]})
    assert str(err.value) == "conclusion (d): tower (0, 0) starts in group 1"


def test_refinement_names_a_coarse_top_feeding_the_wrong_group():
    # Coarse tower (0, 0) feeds group 1, so a climb cannot go from it to
    # group 0.
    wide = gen.make_tower_system([[2], [2]], [[1], [0]])
    fine = gen.make_tower_system([[4], [4]], [[1], [0]])
    with pytest.raises(gen.RefinementError) as err:
        gen.make_refinement(
            wide, fine, {(0, 0): [(0, 0), (0, 0)], (1, 0): [(1, 0), (1, 0)]})
    assert str(err.value) == \
        "conclusion (e): coarse top of (0, 0) feeds group 1, not 0"


def test_towers_to_diagram_needs_one_refinement_per_step():
    systems, refinements = gen.odometer_towers(2, 3)
    for refs in (refinements[:1], refinements + refinements[:1]):
        with pytest.raises(dg.DiagramError) as err:
            gen.towers_to_diagram(systems, refs)
        assert str(err.value) == "need exactly one refinement between systems"


_COARSE = gen.make_tower_system([[2]], [[0]])
_FINE = gen.make_tower_system([[6]], [[0]])


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", True])
@pytest.mark.parametrize("build, message", [
    (lambda x: gen.stationary_adic([[x]], 3), "matrix entries must be ints"),
    (lambda x: gen.stationary_adic([[1, 1], [1, x]], 3),
     "matrix entries must be ints"),
    (lambda x: gen.finite_cycle_system([2, x]), "cycle lengths must be ints"),
    (lambda x: gen.make_tower_system([[x]], [[0]]),
     "tower heights must be ints"),
    (lambda x: gen.make_tower_system([[2]], [[x]]),
     "return groups must be ints"),
    (lambda x: gen.make_refinement(_COARSE, _FINE,
                                   {(0, 0): [(0, 0), (0, 0), (x, 0)]}),
     "traversal records must be ints"),
], ids=["1x1-matrix", "2x2-matrix", "cycles", "heights", "return-groups",
        "traversals"])
def test_generators_refuse_values_that_are_not_ints(build, message, bad):
    # A float, a string or a bool is refused, not converted with int().
    with pytest.raises(dg.DiagramError) as info:
        build(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [3.0, "3", True, None])
@pytest.mark.parametrize("build, message", [
    (lambda x: gen.odometer(2, x), "levels must be an int"),
    (lambda x: gen.odometer(x, 3), "odometer base must be an int"),
    (lambda x: gen.stationary_adic([[1]], x), "levels must be an int"),
    (lambda x: gen.finite_cycle_system([2], x), "levels must be an int"),
], ids=["odometer-levels", "odometer-base", "stationary-levels",
        "cycles-levels"])
def test_generators_refuse_levels_and_base_that_are_not_ints(build, message,
                                                              bad):
    # odometer(2, 3.0), stationary_adic([[1]], 2.0) and
    # finite_cycle_system([2], 2.0) used to raise a bare TypeError.
    with pytest.raises(dg.DiagramError) as info:
        build(bad)
    assert str(info.value) == message
