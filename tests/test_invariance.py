"""Decided answers survive telescoping.

A telescoping of an ordered diagram is an isomorphic ordered diagram of
the same Vershik system (Herman-Putnam-Skau), and its dimension group is
the same inductive limit.  Level c of d is level m of its telescoping td,
where c = cuts[m - 1]: the same vertices, with the product of d's
incidence matrices between cut points as td's map.  So an answer decided
on both sides must be one answer.  'unknown' on either side passes: which
answers are reachable depends on the presentation.
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decided_answers_survive_telescoping(data):
    d = data.draw(_diagrams(), label="diagram")
    cuts = data.draw(_cuts(d.num_levels), label="cuts")
    td, _ = dg.telescope(d, cuts)
    pres, tpres = kt.k0_presentation(d), kt.k0_presentation(td)
    for m, c in enumerate(cuts, start=1):
        where = (cuts, c, m)
        verdicts = (pt.check_perfect_ordering(d, c)["verdict"],
                    pt.check_perfect_ordering(td, m)["verdict"])
        assert _agree(*verdicts, {"pass", "fail"}), (where, verdicts)
        k1 = kt.k1_rank(d, c), kt.k1_rank(td, m)
        if k1[0]["certified"] and k1[1]["certified"]:
            assert k1[0]["rank"] == k1[1]["rank"], (where, k1)
        vector = st.lists(st.integers(-2, 2), min_size=d.vertex_counts[c],
                          max_size=d.vertex_counts[c]).map(tuple)
        v1, v2 = data.draw(vector, label="v1"), data.draw(vector, label="v2")
        positive = (kt.element_positive(kt.DimGroupElement(c, v1), pres),
                    kt.element_positive(kt.DimGroupElement(m, v1), tpres))
        assert _agree(*positive, {"positive", "not_positive"}), \
            (where, v1, positive)
        equal = (kt.element_equal(kt.DimGroupElement(c, v1),
                                  kt.DimGroupElement(c, v2), pres),
                 kt.element_equal(kt.DimGroupElement(m, v1),
                                  kt.DimGroupElement(m, v2), tpres))
        assert _agree(*equal, {"equal", "not_equal"}), (where, v1, v2, equal)
