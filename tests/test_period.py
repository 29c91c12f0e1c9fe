"""The one periodicity rule: diagram._period, the ordered period of a
diagram, the incidence period of its K0 presentation, and the
stationary_map that element_positive and the stationary search read."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import ktheory as kt
from conftest import random_diagram, stationary_matrices


def brute_period(keys):
    """The least p, then the least start, tried one by one."""
    size = len(keys)
    for p in range(1, size // 2 + 1):
        for start in range(size - 2 * p + 1):
            if all(keys[n] == keys[n + p] for n in range(start, size - p)):
                return start, p
    return None


words = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=12))


@settings(max_examples=400, deadline=None)
@given(words)
def test_period_matches_the_brute_force_reference(keys):
    assert dg._period(keys) == brute_period(keys)


@pytest.mark.parametrize("keys, period", [
    ([], None),
    ([5], None),
    ([0, 1, 2], None),
    ([0, 1, 1], (1, 1)),
    ([2, 0, 1, 0, 1], (1, 2)),
    ([0, 1, 0, 1, 0], (0, 2)),
    ([3, 3], (0, 1)),
], ids=["empty", "one-key", "none", "start-1", "p-2-start-1", "p-2",
        "constant"])
def test_period_cases(keys, period):
    assert dg._period(keys) == period


def square_free_word(size):
    """The first differences of the Thue-Morse word, a square-free word
    over three letters."""
    tm = [bin(n).count("1") & 1 for n in range(size + 1)]
    return [b - a for a, b in zip(tm, tm[1:])]


@pytest.mark.parametrize("keys, period", [
    (square_free_word(2 ** 17), None),
    ([7] * 2 ** 17, (0, 1)),
], ids=["square-free", "constant"])
def test_period_of_131072_keys_is_fast(keys, period):
    # Each try is timed alone and the best of three is kept, so a busy
    # host does not fail it.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert dg._period(keys) == period
        times.append(time.perf_counter() - start)
    assert min(times) < 0.2, f"_period took {min(times):.3f} s"


def test_the_square_free_word_has_no_square():
    word = square_free_word(300)
    assert not any(word[i:i + p] == word[i + p:i + 2 * p]
                   for p in range(1, 151) for i in range(301 - 2 * p))


def alternating_one_vertex(levels=8):
    """One vertex per level, with 3 and 2 edges at alternate levels."""
    return dg.make_diagram(levels, [1] * (levels + 1),
                           [[(0, 0)] * (2 + (n % 2)) for n in
                            range(1, levels + 1)])


def alternating_order(levels=8):
    """M = [[1, 1], [1, 1]] under the root's two edges, the edge order
    into each vertex reversed at every other level."""
    orders = [[(0, 0), (1, 0), (0, 1), (1, 1)],
              [(1, 0), (0, 0), (1, 1), (0, 1)]]
    return dg.make_diagram(levels, [1] + [2] * levels,
                           [[(0, 0), (0, 1)]] +
                           [orders[n % 2] for n in range(levels - 1)])


STATIONARY = [[1, 1], [1, 0]]


@pytest.mark.parametrize("build, ordered, incidence", [
    (lambda: gen.odometer(2, 6), (1, 1), (2, 1)),
    (lambda: gen.odometer(2, 1), None, None),
    (lambda: gen.stationary_adic(STATIONARY, 10), (2, 1), (2, 1)),
    (lambda: gen.stationary_adic(STATIONARY, 2), None, None),
    (lambda: gen.stationary_adic([[3]], 5), (1, 1), (2, 1)),
    (lambda: gen.finite_cycle_system([2, 3], 6)[1], (2, 1), (2, 1)),
    (lambda: gen.finite_cycle_system([1], 6)[1], (1, 1), (2, 1)),
    (lambda: gen.disjoint_union([alternating_one_vertex(),
                                 gen.odometer(5, 8)]), (2, 2), (2, 2)),
    (lambda: dg.telescope(gen.stationary_adic([[2, 1], [1, 1]], 12),
                          [4, 8, 12])[0], (2, 1), (2, 1)),
    (lambda: dg.telescope(gen.odometer(2, 5), [1, 3, 4, 5])[0],
     (3, 1), (3, 1)),
    (alternating_order, (2, 2), (2, 1)),
], ids=["odometer", "odometer-1-level", "stationary", "stationary-2-levels",
        "one-vertex-stationary", "cycles-2-3", "cycle-1", "union",
        "telescope-even-cuts", "telescope-uneven-cuts", "alternating-order"])
def test_periods_of_generators_and_telescopings(build, ordered, incidence):
    d = build()
    assert d.period == ordered
    assert kt.k0_presentation(d).period == incidence


def test_union_period_is_the_lcm_of_its_parts():
    parts = [alternating_one_vertex(), gen.odometer(5, 8)]
    assert [d.period for d in parts] == [(1, 2), (1, 1)]
    union = gen.disjoint_union(parts)
    assert union.period[1] == math.lcm(*(d.period[1] for d in parts))


def test_a_single_square_map_is_stationary():
    d = gen.stationary_adic(STATIONARY, 2)
    pres = kt.k0_presentation(d)
    assert d.period is None and pres.period is None
    assert pres.stationary_map == tuple(map(tuple, STATIONARY))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6))
def test_ordered_period_compares_levels(seed, levels):
    rng = random.Random(seed)
    d = random_diagram(rng, levels, 2, 1)
    if rng.random() < 0.5:     # make levels repeat, early or late
        cut = rng.randint(1, levels)
        d = dg.make_diagram(cut + 4, d.vertex_counts[:cut] +
                            (d.vertex_counts[cut - 1],) * 5,
                            d.edges[:cut - 1] +
                            ([(v, v) for v in range(
                                d.vertex_counts[cut - 1])],) * 5)
    vcs = d.vertex_counts
    found = brute_period(list(zip(d.edges, vcs, vcs[1:])))
    assert d.period == (found and (found[0] + 1, found[1]))


def matrices(rows, cols):
    return st.tuples(*[st.tuples(*[st.integers(0, 1)] * cols)] * rows)


hand_built = st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
    lambda shape: st.lists(matrices(*shape), min_size=1, max_size=2)
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=4)).map(
    lambda maps: kt.DimensionGroupPresentation(
        (1,) * (len(maps) + 1), tuple(maps), (1,)))
from_diagrams = st.one_of(
    st.builds(lambda seed, levels: kt.k0_presentation(
        random_diagram(random.Random(seed), levels, 2, 1)),
        st.integers(0, 2 ** 32), st.integers(1, 4)),
    st.builds(lambda m, levels: kt.k0_presentation(
        gen.stationary_adic(m, levels)), stationary_matrices(2),
        st.integers(1, 4)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(hand_built, from_diagrams))
def test_stationary_map_is_the_old_rule(pres):
    maps = pres.maps
    old = bool(maps) and len(set(maps)) == 1 and \
        len(maps[0]) == len(maps[0][0])
    assert (pres.stationary_map is not None) == old
    if old:
        assert pres.stationary_map == maps[0]
