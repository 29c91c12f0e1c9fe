"""Constructors for conforming diagrams and systems: odometers, stationary
adic diagrams, disjoint unions, finite cycle systems, and the translation
of explicit tower-refinement data into an ordered diagram.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Sequence, Tuple

from .diagram import (MAX_TELESCOPE_EDGES, DiagramError, OrderedBratteliDiagram,
                      _check_ints, _edges_from_matrix, _record, _sequence,
                      make_diagram)
from .ktheory import FinitePermutationSystem, make_permutation_system


def _check_int(value, what: str) -> None:
    """Refuse value unless it is exactly an int (a bool is not)."""
    if type(value) is not int:
        raise DiagramError(f"{what} must be an int")


def _check_edge_count(count: int) -> None:
    """Refuse a diagram of more than MAX_TELESCOPE_EDGES edges, counted
    from a generator's arguments before anything is built."""
    if count > MAX_TELESCOPE_EDGES:
        raise DiagramError(
            f"the diagram would have {count} edges, more than "
            f"MAX_TELESCOPE_EDGES = {MAX_TELESCOPE_EDGES}")


def odometer(base: int, levels: int) -> OrderedBratteliDiagram:
    """One vertex per level, `base` parallel edges per level."""
    _check_int(base, "odometer base")
    _check_int(levels, "levels")
    if base < 2:
        raise DiagramError(f"odometer base must be >= 2, got {base}")
    if levels < 1:
        raise DiagramError("levels must be >= 1")
    _check_edge_count(base * levels)
    return OrderedBratteliDiagram(levels, (1,) * (levels + 1),
                                  (((0, 0),) * base,) * levels,
                                  ((0,),) * levels)


def stationary_adic(matrix: Sequence[Sequence[int]],
                    levels: int) -> OrderedBratteliDiagram:
    """Constant-incidence diagram for a square non-negative matrix.

    Levels 2..N realize matrix[w][v] edges from v to w, ordered within each
    range vertex by source index; level 1 gives each vertex its row sum
    many root edges, so a 1x1 matrix [d] reproduces the d-odometer exactly.
    """
    m = [_sequence(row, f"matrix row {i} entries")
         for i, row in enumerate(_sequence(matrix, "matrix rows"))]
    k = len(m)
    if not k:
        raise DiagramError("matrix must have at least one row")
    _check_ints(chain.from_iterable(m), "matrix entries")
    if any(len(row) != k for row in m):
        raise DiagramError("matrix must be square")
    if any(x < 0 for row in m for x in row):
        raise DiagramError("matrix entries must be non-negative")
    if any(all(x == 0 for x in row) for row in m):
        raise DiagramError("matrix has a zero row")
    if any(all(row[j] == 0 for row in m) for j in range(k)):
        raise DiagramError("matrix has a zero column")
    _check_int(levels, "levels")
    if levels < 1:
        raise DiagramError("levels must be >= 1")
    _check_edge_count(levels * sum(map(sum, m)))
    root = _edges_from_matrix([[sum(row)] for row in m])
    level = _edges_from_matrix(m)
    return OrderedBratteliDiagram(levels, (1,) + (k,) * levels,
                                  (root,) + (level,) * (levels - 1))


def disjoint_union(ds: Sequence[OrderedBratteliDiagram]
                   ) -> OrderedBratteliDiagram:
    """Block union of diagrams sharing one root.

    Each part keeps its fiber labels, shifted at every level by one offset
    past the labels of the parts before it, so no two parts share a label;
    a part without labels is one fiber.
    """
    if not ds:
        raise DiagramError("need at least one component")
    n = ds[0].num_levels
    if any(d.num_levels != n for d in ds):
        raise DiagramError("components must have equal num_levels")
    vcs = [1] + [sum(d.vertex_counts[lvl] for d in ds)
                 for lvl in range(1, n + 1)]
    parts = []          # each part's labels, level by level, shifted
    shift = 0
    for d in ds:
        own = d.group_labels or tuple((0,) * c for c in d.vertex_counts[1:])
        distinct = set(own)     # equal levels are shifted once
        lo, hi = min(map(min, distinct)), max(map(max, distinct))
        moved = {lab: [t + shift - lo for t in lab] for lab in distinct}
        parts.append(list(map(moved.__getitem__, own)))
        shift += hi - lo + 1
    edges = []
    labels = []
    for lvl in range(1, n + 1):
        level = []
        lab = []
        off_prev = 0
        off = 0
        for d, part in zip(ds, parts):
            for s, r in d.level_edges(lvl):
                src = 0 if lvl == 1 else s + off_prev
                level.append((src, r + off))
            lab.extend(part[lvl - 1])
            off_prev += d.vertex_counts[lvl - 1]
            off += d.vertex_counts[lvl]
        edges.append(level)
        labels.append(lab)
    return make_diagram(n, vcs, edges, labels)


def finite_cycle_system(lengths: Sequence[int], levels: int = 6
                        ) -> Tuple[FinitePermutationSystem,
                                   OrderedBratteliDiagram]:
    """Disjoint cycles of the given lengths, plus the constant diagram whose
    towers have those heights (one tower per cycle, identity after level 1).
    """
    lengths = _sequence(lengths, "cycle lengths")
    _check_ints(lengths, "cycle lengths")
    if not lengths or any(x < 1 for x in lengths):
        raise DiagramError("cycle lengths must be positive")
    _check_int(levels, "levels")
    if levels < 1:
        raise DiagramError("levels must be >= 1")
    _check_edge_count(sum(lengths) + (levels - 1) * len(lengths))
    perm = []
    fiber = []
    base = 0
    for ci, ln in enumerate(lengths):
        perm.extend([base + (i + 1) % ln for i in range(ln)])
        fiber.extend([ci] * ln)
        base += ln
    system = make_permutation_system(perm, fiber)
    towers = [OrderedBratteliDiagram(
        levels, (1,) * (levels + 1),
        (((0, 0),) * ln,) + (((0, 0),),) * (levels - 1)) for ln in lengths]
    return system, disjoint_union(towers)


# ---------------------------------------------------------------------------
# Tower systems and refinements


@_record
class TowerSystem:
    """Combinatorial tower data: per group t, a list of tower heights and
    the group each tower top feeds back into.

    heights[t][k] is the number of floors of tower (t, k); return_group[t][k]
    is the group whose union of bases receives that tower's top floor.
    """

    heights: tuple          # tuple over groups of tuples of positive ints
    return_group: tuple     # same shape, entries in range(num_groups)

    @property
    def num_groups(self):
        return len(self.heights)

    def towers(self):
        return [(t, k) for t in range(self.num_groups)
                for k in range(len(self.heights[t]))]


def make_tower_system(heights, return_group) -> TowerSystem:
    hs = tuple(_sequence(grp, f"tower heights of group {t}")
               for t, grp in enumerate(_sequence(heights, "tower heights")))
    rg = tuple(_sequence(grp, f"return groups of group {t}")
               for t, grp in enumerate(_sequence(return_group,
                                                 "return groups")))
    _check_ints(chain.from_iterable(hs), "tower heights")
    _check_ints(chain.from_iterable(rg), "return groups")
    if len(hs) != len(rg) or any(len(a) != len(b) for a, b in zip(hs, rg)):
        raise DiagramError("heights and return_group shapes differ")
    if not hs or any(not grp for grp in hs):
        raise DiagramError("every group needs at least one tower")
    if any(j < 1 for grp in hs for j in grp):
        raise DiagramError("tower heights must be >= 1")
    t_count = len(hs)
    if any(t < 0 or t >= t_count for grp in rg for t in grp):
        raise DiagramError("return group index out of range")
    # Tops landing in group t must match the towers based in t one-to-one:
    # compare counts (the matching itself is existence of a bijection).
    lands = [0] * t_count
    for grp in rg:
        for t in grp:
            lands[t] += 1
    for t in range(t_count):
        if lands[t] != len(hs[t]):
            raise DiagramError(
                f"group {t}: {lands[t]} tops land on {len(hs[t])} bases")
    return TowerSystem(hs, rg)


@_record
class TowerRefinement:
    """Traversal records from a coarse system to a finer one.

    traversals[(t', k')] is the ordered list of coarse towers (t, k) whose
    columns the finer tower (t', k') climbs through; offsets are the partial
    height sums.
    """

    traversals: tuple       # tuple of ((t', k'), (coarse towers...))

    def table(self) -> Dict[tuple, tuple]:
        return dict(self.traversals)


class RefinementError(DiagramError):
    """A tower-refinement conclusion fails; carries the conclusion letter."""

    def __init__(self, conclusion: str, message: str):
        super().__init__(f"conclusion ({conclusion}): {message}")
        self.conclusion = conclusion


def make_refinement(coarse: TowerSystem, fine: TowerSystem,
                    traversals: Dict[tuple, Sequence[tuple]]
                    ) -> TowerRefinement:
    """Validate traversal records between consecutive tower systems.

    Checks: group sets coincide (c); each fine base starts in a coarse base
    of its own group (d); each fine top ends on a coarse top feeding the
    same group (e); every coarse tower is traversed (f); heights add up.
    """
    if coarse.num_groups != fine.num_groups:
        raise RefinementError("c", "group counts differ between levels")
    table = {}
    used = set()
    for (t2, k2) in fine.towers():
        if (t2, k2) not in traversals:
            raise RefinementError("d", f"no traversal for tower {(t2, k2)}")
        recs = tuple((t, k) for t, k in traversals[(t2, k2)])
        _check_ints(chain.from_iterable(recs), "traversal records")
        if not recs:
            raise RefinementError("d", f"empty traversal for {(t2, k2)}")
        for (t, k) in recs:
            if t >= coarse.num_groups or k >= len(coarse.heights[t]):
                raise RefinementError("d", f"unknown coarse tower {(t, k)}")
        if recs[0][0] != t2:
            raise RefinementError(
                "d", f"tower {(t2, k2)} starts in group {recs[0][0]}")
        for (ta, ka), (tb, _) in zip(recs, recs[1:]):
            if coarse.return_group[ta][ka] != tb:
                raise RefinementError(
                    "e", f"coarse top of {(ta, ka)} feeds group "
                    f"{coarse.return_group[ta][ka]}, not {tb}")
        tl, kl = recs[-1]
        if coarse.return_group[tl][kl] != fine.return_group[t2][k2]:
            raise RefinementError(
                "e", f"fine tower {(t2, k2)} top disagrees with coarse top")
        total = sum(coarse.heights[t][k] for t, k in recs)
        if total != fine.heights[t2][k2]:
            raise RefinementError(
                "e", f"height of {(t2, k2)} is {fine.heights[t2][k2]}, "
                f"traversal sums to {total}")
        table[(t2, k2)] = recs
        used.update(recs)
    missing = set(coarse.towers()) - used
    if missing:
        raise RefinementError(
            "f", f"coarse towers never traversed: {sorted(missing)}")
    return TowerRefinement(tuple(sorted(table.items())))


def towers_to_diagram(systems: Sequence[TowerSystem],
                      refinements: Sequence[TowerRefinement]
                      ) -> OrderedBratteliDiagram:
    """Ordered diagram whose level-n vertices are the towers of systems[n-1].

    Edges from a coarse tower to a finer one correspond to the traversal
    occurrences, ordered by entry offset; vertex labels carry the group
    index.  Level 1 attaches each tower to the root by one edge per floor.
    More than MAX_TELESCOPE_EDGES edges, counted from the tower heights and
    traversal records, are refused before any list is built.
    """
    if len(refinements) != len(systems) - 1:
        raise DiagramError("need exactly one refinement between systems")
    _check_edge_count(
        sum(map(sum, systems[0].heights))
        + sum(len(recs) for ref in refinements for _, recs in ref.traversals))
    vcs = [1] + [len(s.towers()) for s in systems]
    index = [{tk: i for i, tk in enumerate(s.towers())} for s in systems]
    edges = []
    first = systems[0]
    lvl1 = []
    for (t, k) in first.towers():
        lvl1.extend([(0, index[0][(t, k)])] * first.heights[t][k])
    edges.append(lvl1)
    for n, ref in enumerate(refinements):
        coarse, fine = systems[n], systems[n + 1]
        table = ref.table()
        level = []
        for (t2, k2) in fine.towers():
            # Edge order into (t2, k2) is traversal order (entry offsets
            # increase along the record list).
            for (t, k) in table[(t2, k2)]:
                level.append((index[n][(t, k)], index[n + 1][(t2, k2)]))
        edges.append(level)
    labels = [[t for (t, _) in s.towers()] for s in systems]
    return make_diagram(len(systems), vcs, edges, labels)


def odometer_towers(base: int, levels: int):
    """Tower-system sequence whose diagram is odometer(base, levels)."""
    systems = [make_tower_system([[base ** n]], [[0]])
               for n in range(1, levels + 1)]
    refinements = [
        make_refinement(systems[n], systems[n + 1],
                        {(0, 0): [(0, 0)] * base})
        for n in range(levels - 1)]
    return systems, refinements
