import os
import random
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import bratteli
from bratteli import diagram as dg
from bratteli import generators as gen


def suite_diagrams(levels=10):
    """The standard example family used across the tests."""
    odo = {d: gen.odometer(d, levels) for d in (2, 3, 5)}
    fib = gen.stationary_adic([[1, 1], [1, 0]], levels)
    union2 = gen.disjoint_union([odo[2], odo[3]])
    union3 = gen.disjoint_union([odo[2], odo[3], odo[5]])
    return {
        "odometer2": odo[2],
        "odometer3": odo[3],
        "odometer5": odo[5],
        "fibonacci": fib,
        "union2": union2,
        "union3": union3,
    }


@pytest.fixture(scope="session")
def suite():
    return suite_diagrams()


# Diagram JSON that is well-formed but fails the axioms: level-1 vertex 1
# has no in-edge.
UNFED_JSON = ('{"num_levels": 2, "vertex_counts": [1, 2, 1], "edges":'
              ' [[{"s": 0, "r": 0}], [{"s": 0, "r": 0}, {"s": 1, "r": 0}]]}')


# The child reports its peak RSS growth across one expression.  On Linux a
# child's ru_maxrss starts at the RSS its parent had when it forked, so under
# a large test runner it would show no growth; VmHWM, the peak of the
# child's own address space, starts afresh at exec.
_PEAK_GROWTH = """
import resource, sys

def peak_mb():
    try:
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f
                        if line.startswith("VmHWM:")) / 2 ** 10
    except (OSError, StopIteration):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)

{setup}
before = peak_mb()
out = {expr}
print(peak_mb() - before, out)
"""


def peak_growth(setup, expr):
    """(peak RSS growth in MB, str of the value) of a fresh interpreter
    evaluating expr after running setup."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(bratteli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_GROWTH.format(setup=setup, expr=expr)],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True).stdout
    grown_mb, value = out.split(" ", 1)
    return float(grown_mb), value.strip()


def random_diagram(rng, levels, max_vertices, max_extra):
    """A valid diagram: every vertex has an in-edge and an out-edge."""
    vcs = [1] + [rng.randint(1, max_vertices) for _ in range(levels)]
    edges = []
    for n in range(1, levels + 1):
        ns, nr = vcs[n - 1], vcs[n]
        level = [(rng.randrange(ns), r) for r in range(nr)]
        level += [(s, rng.randrange(nr)) for s in range(ns)]
        level += [(rng.randrange(ns), rng.randrange(nr))
                  for _ in range(rng.randint(0, max_extra))]
        rng.shuffle(level)
        edges.append(level)
    return dg.make_diagram(levels, vcs, edges)


@pytest.fixture(scope="session")
def table_suite(suite):
    """The suite plus diagrams whose levels repeat little or oddly, for
    checking the derived tables against a scan of each level."""
    inputs = dict(suite)
    distinct = random_diagram(random.Random(12), 12, 4, 6)
    vcs = distinct.vertex_counts
    assert len(set(zip(distinct.edges, vcs, vcs[1:]))) == 12
    inputs["distinct"] = distinct
    # Levels 3 and 4 have the same edge tuple but 2 -> 3 and 3 -> 2
    # vertices; vertex 2 at level 3 has neither in- nor out-edges.
    same = [(0, 0), (1, 1)]
    unequal = dg.make_diagram(4, [1, 2, 2, 3, 2],
                              [[(0, 0), (0, 1)], [(0, 0), (1, 1), (1, 0)],
                               same, same])
    assert unequal.edges[2] == unequal.edges[3]
    assert dg.validate_diagram(unequal)
    inputs["unequal-counts"] = unequal
    # Levels 2 and 3 have the same edge tuple and 2 range vertices but 3
    # and 2 sources; vertex 2 at level 1 has no out-edge.
    unequal = dg.make_diagram(3, [1, 3, 2, 2],
                              [[(0, 0), (0, 1), (0, 2)], same, same])
    assert unequal.edges[1] == unequal.edges[2]
    inputs["unequal-sources"] = unequal
    for name in ("union3", "fibonacci", "distinct"):
        d = inputs[name]
        inputs[name + "-telescoped"] = dg.telescope(
            d, [2, 5, 6, d.num_levels])[0]
    return inputs


def stationary_matrices(k):
    """Hypothesis strategy: k x k matrices with entries 0..2 and no zero
    row or column, which stationary_adic accepts."""
    rows = st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any)
    return st.lists(rows, min_size=k, max_size=k).filter(
        lambda m: all(any(col) for col in zip(*m)))
