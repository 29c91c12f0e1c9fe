"""Finite-path arithmetic on the path space of an ordered Bratteli diagram.

A depth-k FinitePath doubles as the identifier of the cylinder set of all
infinite paths extending it.  The successor map acts on a path by bumping
the shallowest non-maximal edge and resetting everything below it to the
unique all-minimal path, which enumerates the paths into each vertex in
rank order; the predecessor is its mirror image.  make_path is the one
checked constructor, for paths from outside (CLI, JSON, caller tuples);
steps, prefixes, extremal walks, enumerations and the telescope
translators, which are also soe's orbit map F, build their paths from a
FinitePath and the diagram's tables.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import partial
from operator import getitem
from typing import NamedTuple, Optional

from .diagram import (DiagramError, OrderedBratteliDiagram, _check_ints,
                      _check_vertex, _extremal_sources, _iterate_r,
                      _iterate_s, _record, _sequence, check_fem_properties,
                      check_valid)


class MaximalPathError(DiagramError):
    """Successor requested for an all-maximal path."""


class MinimalPathError(DiagramError):
    """Predecessor requested for an all-minimal path."""


class FinitePath(NamedTuple):
    """A root path of the given depth, by its edge index at each level.

    A NamedTuple: immutable and hashable, and equal to any FinitePath or
    plain 3-tuple (depth, edge_indices, terminal_vertex) with the same
    fields.

    The fields are trusted.  make_path is the one function that checks a
    path from outside; path_rank, the Vershik steps, prefixes, the
    telescope translators and soe's maps read the fields as given.  So a
    hand-built path whose edges do not compose gives a wrong answer or an
    IndexError, and a negative edge index reads an edge counted from the
    end of its level.
    """

    depth: int
    edge_indices: tuple
    terminal_vertex: int


# The library builds its paths with _path((depth, edge_indices,
# terminal_vertex)): tuple.__new__ makes the same FinitePath without the
# NamedTuple constructor's Python-level frame.
_path = partial(tuple.__new__, FinitePath)


def make_path(d: OrderedBratteliDiagram, edge_indices) -> FinitePath:
    """Validate edge composition and build a FinitePath; each edge index
    must be an int (not a bool, float or string)."""
    idx = _sequence(edge_indices, "edge indices")
    _check_ints(idx, "edge indices")
    if len(idx) > d.num_levels:
        raise DiagramError(f"path depth {len(idx)} exceeds {d.num_levels}")
    v = 0
    for n, (level, e) in enumerate(zip(d.edges, idx), start=1):
        if not 0 <= e < len(level):
            raise DiagramError(f"edge index {e} out of range at level {n}")
        s, r = level[e]
        if s != v:
            raise DiagramError(
                f"edge {e} at level {n} has source {s}, expected {v}")
        v = r
    return _path((len(idx), idx, v))


def path_prefix(d: OrderedBratteliDiagram, p: FinitePath, n: int) -> FinitePath:
    """The first n edges of p, 0 <= n <= min(p.depth, d.num_levels); the
    last edge's range is read from d."""
    if type(n) is not int or not 0 <= n <= p.depth or n > d.num_levels:
        raise DiagramError(f"prefix length {n} out of range "
                           f"0..{min(p.depth, d.num_levels)}")
    idx = p.edge_indices[:n]
    v = d.edges[n - 1][idx[-1]][1] if n else 0
    return _path((n, idx, v))


def min_path_to(d: OrderedBratteliDiagram, level: int, vertex: int) -> FinitePath:
    """The unique path from the root to (level, vertex) using minimal edges."""
    return _extremal_path_to(d, level, vertex, 0)


def max_path_to(d: OrderedBratteliDiagram, level: int, vertex: int) -> FinitePath:
    """The unique path from the root to (level, vertex) using maximal edges."""
    return _extremal_path_to(d, level, vertex, -1)


def _extremal_path_to(d, level, vertex, which):
    if type(level) is not int or not 0 <= level <= d.num_levels:
        raise DiagramError(f"level {level} out of range")
    _check_vertex(d, level, vertex)
    return _path((level, _extremal_edges(d, level, vertex, which), vertex))


def _extremal_edges(d, level, vertex, which):
    # Edges of the all-minimal (which=0) or all-maximal (-1) path into
    # (level, vertex), read down the in-edge table.
    into, edges = d.in_edge_table, d.edges
    rev = []
    for n in range(level - 1, -1, -1):
        e = into[n][vertex][which]
        rev.append(e)
        vertex = edges[n][e][0]
    rev.reverse()
    return tuple(rev)


def path_counts(d: OrderedBratteliDiagram, level: int) -> tuple:
    """Number of root paths to each vertex at the given level, 0..N."""
    if type(level) is not int or not 0 <= level <= d.num_levels:
        raise DiagramError(f"level {level} out of range 0..{d.num_levels}")
    return d.path_count_table[level]


def path_rank(d: OrderedBratteliDiagram, p: FinitePath) -> int:
    """Position of p in the successor order on paths into its terminal vertex.

    Rank 0 is the all-minimal path; the successor map advances rank by one.
    The rank is additive over levels: each edge adds its rank offset.
    """
    offsets = d.rank_offset_table
    if p.depth > len(offsets):
        raise DiagramError(f"path depth {p.depth} exceeds {d.num_levels}")
    return sum(map(getitem, offsets, p.edge_indices))


def path_unrank(d: OrderedBratteliDiagram, level: int, vertex: int,
                rank: int) -> FinitePath:
    """Inverse of path_rank for paths into (level, vertex); level, vertex
    and rank must be ints (not bools or floats)."""
    if not (type(level) is type(vertex) is int
            and 0 <= level <= d.num_levels
            and 0 <= vertex < d.vertex_counts[level]):
        raise DiagramError(f"no vertex {vertex} at level {level}")
    total = path_counts(d, level)[vertex]
    if type(rank) is not int or not 0 <= rank < total:
        raise DiagramError(
            f"rank {rank} out of range 0..{total - 1} for vertex "
            f"{vertex} at level {level}")
    # The paths through an in-edge take the ranks from its offset on, and
    # a vertex's in-edges are one contiguous run of the level, so the
    # bisection runs over the level's offsets between the run's ends.
    into, offsets, edges = d.in_edge_table, d.rank_offset_table, d.edges
    rev = []
    for n in range(level - 1, -1, -1):
        run, off = into[n][vertex], offsets[n]
        e = bisect_right(off, rank, run[0], run[-1] + 1) - 1
        rev.append(e)
        rank -= off[e]
        vertex = edges[n][e][0]
    return make_path(d, tuple(reversed(rev)))


def is_maximal(d: OrderedBratteliDiagram, p: FinitePath) -> bool:
    """Every edge of p is the last into its range vertex."""
    if p.depth > d.num_levels:
        raise DiagramError(f"path depth {p.depth} exceeds {d.num_levels}")
    return _moved_head(d, p.edge_indices, 1) is None


def is_minimal(d: OrderedBratteliDiagram, p: FinitePath) -> bool:
    """Every edge of p is the first into its range vertex."""
    if p.depth > d.num_levels:
        raise DiagramError(f"path depth {p.depth} exceeds {d.num_levels}")
    return _moved_head(d, p.edge_indices, -1) is None


def vershik_successor(d: OrderedBratteliDiagram, p: FinitePath) -> FinitePath:
    """The depth-preserving successor; raises MaximalPathError at the top."""
    depth, idx, v = p
    if depth > d.num_levels:
        raise DiagramError(f"path depth {depth} exceeds {d.num_levels}")
    head = _moved_head(d, idx, 1)
    if head is None:
        raise MaximalPathError(f"path {idx} is maximal at depth {depth}")
    return _path((depth, head + idx[len(head):], v))


def vershik_predecessor(d: OrderedBratteliDiagram, p: FinitePath) -> FinitePath:
    """The successor's mirror image; raises MinimalPathError at the bottom."""
    depth, idx, v = p
    if depth > d.num_levels:
        raise DiagramError(f"path depth {depth} exceeds {d.num_levels}")
    head = _moved_head(d, idx, -1)
    if head is None:
        raise MinimalPathError(f"path {idx} is minimal at depth {depth}")
    return _path((depth, head + idx[len(head):], v))


def _moved_head(d, idx, shift):
    """The first m edges of the edge tuple idx after one Vershik step
    forward (shift=1) or back (-1), or None when idx is all-maximal
    (all-minimal); idx's edges past m are kept as they are.  It is the one
    home of the step rule, which the Vershik steps, is_maximal, is_minimal
    and soe's cocycles read.

    The step moves the shallowest edge that has a next (previous) edge
    into its range vertex, the m-th, and replaces the edges before it by
    the all-minimal (all-maximal) path into its new source; at level 0
    there are no edges before it.  A canonical level holds each vertex's
    in-edges as one run in edge order, so that edge is the level's edge
    e + shift when it has e's range.  The depth is trusted to fit d.
    """
    edges = d.edges
    for n, e in enumerate(idx):
        level, y = edges[n], e + shift
        if 0 <= y < len(level) and level[y][1] == level[e][1]:
            if not n:
                return (y,)
            return _extremal_edges(d, n, level[y][0], min(shift, 0)) + (y,)
    return None


def full_vershik(d: OrderedBratteliDiagram, p: FinitePath,
                 pairing: Optional[dict] = None) -> FinitePath:
    """Successor extended over the boundary by a max->min path pairing.

    pairing maps each all-maximal path (by edge tuple) to the all-minimal
    FinitePath that continues its orbit, as check_perfect_ordering
    certifies it; required only when p is maximal.
    """
    if not is_maximal(d, p):
        return vershik_successor(d, p)
    if pairing is None:
        raise MaximalPathError(
            "maximal path requires a pairing to wrap around")
    target = pairing.get(p.edge_indices)
    if target is None:
        raise MaximalPathError(
            f"no pairing entry for maximal path {p.edge_indices}")
    return target


def orbit_shift(d: OrderedBratteliDiagram, e: FinitePath, f: FinitePath) -> int:
    """Signed successor count from e to f; both must share depth and vertex."""
    if e.depth != f.depth:
        raise DiagramError(f"depth mismatch: {e.depth} vs {f.depth}")
    if e.terminal_vertex != f.terminal_vertex:
        raise DiagramError(
            f"terminal vertex mismatch: {e.terminal_vertex} vs "
            f"{f.terminal_vertex}")
    # path_rank of each, from one read of the offsets.
    offsets = d.rank_offset_table
    if f.depth > len(offsets):
        raise DiagramError(f"path depth {f.depth} exceeds {d.num_levels}")
    return (sum(map(getitem, offsets, f.edge_indices))
            - sum(map(getitem, offsets, e.edge_indices)))


@_record
class ExtremalPathSet:
    kind: str               # "min" or "max"
    depth: int
    paths: tuple            # FinitePath, sorted by edge indices
    stabilized: bool


def extremal_paths(d: OrderedBratteliDiagram, depth: int,
                   kind: str = "min") -> ExtremalPathSet:
    """Depth-truncations of the all-extremal paths reaching the last level.

    Only extremal paths that extend to the full truncation depth count;
    stabilized requires the path count to agree over the last two levels
    with unique extensions between them.  The extremal path into a vertex
    is unique, so a truncation is the extremal path into a level-depth
    vertex that the extremal walk from the last level reaches.
    """
    check_valid(d)
    if type(depth) is not int or not 0 <= depth <= d.num_levels:
        raise DiagramError(f"depth {depth} out of range")
    if kind not in ("min", "max"):
        raise DiagramError(f"kind must be min or max, got {kind}")
    end = 0 if kind == "min" else -1
    top = d.num_levels
    reached = _extremal_sources(d, depth, top, end)
    final = d.vertex_counts[top]
    stabilized = (depth >= 1 and top >= 2 and len(reached) == final
                  and len(_extremal_sources(d, top - 1, top, end)) == final)
    paths = tuple(sorted(
        (_path((depth, _extremal_edges(d, depth, v, end), v))
         for v in reached), key=lambda p: p.edge_indices))
    return ExtremalPathSet(kind, depth, paths, stabilized)


def _own_fibers(d: OrderedBratteliDiagram) -> bool:
    """No two last-level vertices share a fiber: their level-N labels are
    distinct or, without labels, each vertex v closes to itself under the
    reach walks across the deep half (levels N//2 up), R^m(S^m({v})) ==
    {v}; in a valid diagram v is always in that set."""
    top = d.num_levels
    if d.group_labels is not None:
        labels = d.group_labels[-1]
        return len(set(labels)) == len(labels)
    low = max(1, top // 2) - 1
    m = top - low
    return all(_iterate_r(d, low, _iterate_s(d, top, {v}, m), m) == {v}
               for v in range(d.vertex_counts[top]))


def check_perfect_ordering(d: OrderedBratteliDiagram, depth: int) -> dict:
    """Semi-decide whether the edge order pairs extremal paths uniquely.

    Returns {"verdict": "pass" | "fail" | "unknown", "pairing": ...}.
    pass requires stabilized extremal sets, structural tower properties
    and every last-level vertex its own fiber; the pairing then wraps the
    max path into each last-level vertex, truncated to depth, to its min
    path.  fail means two stabilized sets of different sizes, which rules
    out a bijection; extremal_paths calls a set stabilized only when it
    has vertex_counts[N] paths, so two stabilized sets have equal sizes
    and the verdict is pass or unknown.  The fail branch is kept for a
    rule that compares the counts across levels instead.
    """
    mins = extremal_paths(d, depth, "min")
    maxs = extremal_paths(d, depth, "max")
    if not (mins.stabilized and maxs.stabilized):
        return {"verdict": "unknown", "pairing": None}
    if len(mins.paths) != len(maxs.paths):
        return {"verdict": "fail", "pairing": None}
    if check_fem_properties(d) or not _own_fibers(d):
        return {"verdict": "unknown", "pairing": None}
    top, level = d.num_levels, d.edges[depth - 1]
    pairs = []
    for v in range(d.vertex_counts[top]):
        head = _extremal_edges(d, top, v, 0)[:depth]
        pairs.append((_extremal_edges(d, top, v, -1)[:depth],
                      _path((depth, head, level[head[-1]][1]))))
    return {"verdict": "pass", "pairing": dict(sorted(pairs))}


def telescope_path(tmap, p: FinitePath, telescoped: OrderedBratteliDiagram):
    """Map a path of the original diagram (depth at a cut point) through a
    TelescopeMap to the corresponding telescoped path: one path-table
    lookup per segment between cut points."""
    cuts = tmap.cut_points
    try:
        m = cuts.index(p.depth)
    except ValueError:
        raise DiagramError(
            f"path depth {p.depth} is not a cut point {cuts}") from None
    e = p.edge_indices
    segments = map(e.__getitem__, map(slice, cuts, cuts[1:m + 1]))
    idx = tuple(map(getitem, tmap.path_tables, segments))
    return _path((m, idx, p.terminal_vertex))


def untelescope_path(tmap, p: FinitePath, original: OrderedBratteliDiagram):
    """Inverse of telescope_path: each telescoped edge's original path, in
    turn.  A path deeper than the map's levels is a DiagramError."""
    if p.depth > len(tmap.orig_paths):
        raise DiagramError(
            f"path depth {p.depth} exceeds {len(tmap.orig_paths)}")
    idx = tuple(itertools.chain.from_iterable(
        map(getitem, tmap.orig_paths, p.edge_indices)))
    return _path((len(idx), idx, p.terminal_vertex))


def all_paths(d: OrderedBratteliDiagram, depth: int):
    """Every path of the given depth, in lexicographic order of edges."""
    if type(depth) is not int or not 0 <= depth <= d.num_levels:
        raise DiagramError(f"depth {depth} out of range 0..{d.num_levels}")
    return list(_lex_paths(d, depth))


def _lex_paths(d, depth):
    """all_paths(d, depth) one path at a time, for a reader that stops
    early; depth is trusted."""
    if not depth:
        yield _path((0, (), 0))
        return
    level, outs = d.edges[depth - 1], d.out_edge_table[depth - 1]
    for pre in _lex_paths(d, depth - 1):
        for e in outs[pre.terminal_vertex]:
            yield _path((depth, pre.edge_indices + (e,), level[e][1]))
