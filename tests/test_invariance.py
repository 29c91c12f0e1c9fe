"""Decided answers survive telescoping and relabelling.

A telescoping of an ordered diagram is an isomorphic ordered diagram of
the same Vershik system (Herman-Putnam-Skau), and its dimension group is
the same inductive limit.  Level c of d is level m of its telescoping td,
where c = cuts[m - 1]: the same vertices, with the product of d's
incidence matrices between cut points as td's map.  Renumbering the
vertices of each level, with every edge kept in its place in the order,
gives an isomorphic ordered diagram too; its level-c vectors are d's with
their entries permuted.  So an answer decided on both sides must be one
answer.  'unknown' on either side passes: which answers are reachable
depends on the presentation.
"""

import random

from hypothesis import given, settings, strategies as st

from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import ktheory as kt
from bratteli import paths as pt
from conftest import random_diagram, stationary_matrices

# M = [[1, 1], [1, 1]] in the Thue-Morse order: it validates, fails the
# structural properties, and has both vertices in one fiber.
THUE_MORSE = dg.make_diagram(
    8, [1] + [2] * 8,
    [[(0, 0), (0, 1)]] + [[(0, 0), (1, 0), (1, 1), (0, 1)]] * 7)


@st.composite
def _diagrams(draw):
    kind = draw(st.sampled_from(
        ["stationary", "odometer", "union", "random", "thue-morse"]))
    if kind == "thue-morse":
        return THUE_MORSE
    levels = draw(st.integers(8, 10))
    if kind == "stationary":
        m = draw(stationary_matrices(draw(st.integers(2, 3))))
        return gen.stationary_adic(m, levels)
    if kind == "odometer":
        return gen.odometer(draw(st.integers(2, 3)), levels)
    if kind == "union":
        bases = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
        return gen.disjoint_union([gen.odometer(b, levels) for b in bases])
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_diagram(rng, levels, 3, 3)


@st.composite
def _cuts(draw, levels):
    """Strictly increasing cut points ending at levels, at most 3 apart, so
    each telescoped level stays small."""
    cuts = []
    while not cuts or cuts[-1] < levels:
        c = cuts[-1] if cuts else 0
        cuts.append(c + draw(st.integers(1, min(3, levels - c))))
    return cuts


def _agree(a, b, decided):
    """True unless a and b are both decided and differ."""
    return a not in decided or b not in decided or a == b


def _check_level(data, one, other, carry, where):
    """Decided answers at level c of d and level m of d2 agree, where one
    is (d, d's K0 presentation, c), other is the same for d2 and m, and
    carry takes a level-c vector of d to d2's level m."""
    (d, pres, c), (d2, pres2, m) = one, other
    verdicts = (pt.check_perfect_ordering(d, c)["verdict"],
                pt.check_perfect_ordering(d2, m)["verdict"])
    assert _agree(*verdicts, {"pass", "fail"}), (where, verdicts)
    k1 = kt.k1_rank(d, c), kt.k1_rank(d2, m)
    if k1[0]["certified"] and k1[1]["certified"]:
        assert k1[0]["rank"] == k1[1]["rank"], (where, k1)
    vector = st.lists(st.integers(-2, 2), min_size=d.vertex_counts[c],
                      max_size=d.vertex_counts[c]).map(tuple)
    v1, v2 = data.draw(vector, label="v1"), data.draw(vector, label="v2")
    w1, w2 = carry(v1), carry(v2)
    positive = (kt.element_positive(kt.DimGroupElement(c, v1), pres),
                kt.element_positive(kt.DimGroupElement(m, w1), pres2))
    assert _agree(*positive, {"positive", "not_positive"}), \
        (where, v1, positive)
    equal = (kt.element_equal(kt.DimGroupElement(c, v1),
                              kt.DimGroupElement(c, v2), pres),
             kt.element_equal(kt.DimGroupElement(m, w1),
                              kt.DimGroupElement(m, w2), pres2))
    assert _agree(*equal, {"equal", "not_equal"}), (where, v1, v2, equal)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decided_answers_survive_telescoping(data):
    d = data.draw(_diagrams(), label="diagram")
    cuts = data.draw(_cuts(d.num_levels), label="cuts")
    td, _ = dg.telescope(d, cuts)
    pres, tpres = kt.k0_presentation(d), kt.k0_presentation(td)
    for m, c in enumerate(cuts, start=1):
        _check_level(data, (d, pres, c), (td, tpres, m), tuple, (cuts, c, m))


def _relabel(d, perms):
    """d with vertex v of level n renamed perms[n - 1][v], for n >= 1; the
    edges keep their order and the group labels move with their vertices."""
    perms = [(0,)] + perms
    edges = [[(perms[n - 1][s], perms[n][r]) for s, r in level]
             for n, level in enumerate(d.edges, start=1)]
    labels = None
    if d.group_labels is not None:
        labels = [_carry(level, perm)
                  for level, perm in zip(d.group_labels, perms[1:])]
    return dg.make_diagram(d.num_levels, d.vertex_counts, edges, labels)


def _carry(vector, perm):
    """The entries of vector, the one at v moved to perm[v]."""
    out = [None] * len(vector)
    for v, x in zip(perm, vector):
        out[v] = x
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decided_answers_survive_relabelling(data):
    d = data.draw(_diagrams(), label="diagram")
    perms = [data.draw(st.permutations(range(k)), label=f"level {n}")
             for n, k in enumerate(d.vertex_counts[1:], start=1)]
    rd = _relabel(d, perms)
    pres, rpres = kt.k0_presentation(d), kt.k0_presentation(rd)
    for c in range(1, d.num_levels + 1):
        _check_level(data, (d, pres, c), (rd, rpres, c),
                     lambda v: _carry(v, perms[c - 1]), (perms, c))
