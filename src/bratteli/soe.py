"""Constructive strong orbit equivalence from dimension-group intertwinings.

Given two ordered diagrams B1, B2 and an intertwining (alternating integer
matrices P_n, Q_n whose two-step products reproduce both incidence
sequences), this module interleaves the two diagrams into a single diagram
B', checks the structural properties of B', pairs extremal paths, realizes
the induced orbit map F on finite paths, and computes and verifies the
orbit cocycles.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .diagram import (DiagramError, MalformedDiagram, OrderedBratteliDiagram,
                      TelescopeMap, _block_key, _check_ints,
                      _edges_from_matrix, _extremal_sources, _iterate_r,
                      _iterate_s, _record, _sequence, check_valid,
                      incidence_matrix, is_int_list, mat_mul,
                      telescope_segments)
from .paths import (FinitePath, _lex_paths, _moved_head, _path,
                    extremal_paths, is_maximal, path_prefix, path_rank,
                    telescope_path, untelescope_path, vershik_predecessor,
                    vershik_successor)


class IntertwiningInvalid(DiagramError):
    """A product identity fails; records the offending level and entry."""

    def __init__(self, level: int, entry, message: str):
        super().__init__(message)
        self.level = level
        self.entry = entry


class Unstabilized(DiagramError):
    """Extremal sets did not stabilize at the requested depth."""


class NeedsDepth(DiagramError):
    """Cocycle computation requires a deeper finite path."""


@_record
class Intertwining:
    """Alternating matrix sequence between two diagrams.

    p_matrices[n] maps level-(n+1) vertex counts of B1 to those of B2;
    q_matrices[n] maps B2 level n+1 back to B1 level n+2.  Lengths may be
    equal or differ by one (one more P than Q).
    """

    p_matrices: tuple
    q_matrices: tuple


def _int_matrices(matrices, what: str) -> tuple:
    """matrices as tuples of row tuples; DiagramError names what unless
    it, each matrix and each row are iterable and every entry is exactly an
    int (a bool is not)."""
    ms = tuple(
        tuple(_sequence(row, f"{what}[{i}] row {j} entries")
              for j, row in enumerate(_sequence(m, f"{what}[{i}] rows")))
        for i, m in enumerate(_sequence(matrices, what)))
    _check_ints(itertools.chain.from_iterable(
        itertools.chain.from_iterable(ms)), f"{what} entries")
    return ms


def make_intertwining(p_matrices, q_matrices) -> Intertwining:
    ps = _int_matrices(p_matrices, "p_matrices")
    qs = _int_matrices(q_matrices, "q_matrices")
    if not ps:
        raise DiagramError("need at least one P matrix")
    if len(ps) - len(qs) not in (0, 1):
        raise DiagramError(
            f"got {len(ps)} P and {len(qs)} Q matrices; lengths must be "
            "equal or differ by one")
    for m in ps + qs:
        if any(x < 0 for row in m for x in row):
            raise DiagramError("intertwining entries must be non-negative")
        if any(len(row) != len(m[0]) for row in m):
            raise DiagramError("ragged intertwining matrix")
    return Intertwining(ps, qs)


def _first_mismatch(a, b):
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return (i, j), x, y
    return None, None, None


def _check_product(level, a, b, d, n, message):
    """Raise IntertwiningInvalid unless a b is d's level-n incidence;
    message is formatted with the first differing entry and both values."""
    got = mat_mul(a, b)
    want = incidence_matrix(d, n)
    if got != want:
        entry, x, y = _first_mismatch(got, want)
        raise IntertwiningInvalid(level, entry, message.format(entry, x, y))


def validate_intertwining(b1: OrderedBratteliDiagram,
                          b2: OrderedBratteliDiagram,
                          w: Intertwining) -> None:
    """Check all product identities exactly, or raise IntertwiningInvalid.

    Requirements: Q_n P_n equals B1's incidence at level n+1, P_{n+1} Q_n
    equals B2's incidence at level n+1, and P_1 applied to B1's root column
    reproduces B2's root column (the height compatibility of the two unit
    vectors; without it the interleaved diagram has no consistent root).
    """
    ps, qs = w.p_matrices, w.q_matrices
    lp, lq = len(ps), len(qs)
    if lq + 1 > b1.num_levels:
        raise IntertwiningInvalid(
            lq, None, f"intertwining needs {lq + 1} levels of B1, "
            f"which has {b1.num_levels}")
    if lp > b2.num_levels:
        raise IntertwiningInvalid(
            lp, None, f"intertwining needs {lp} levels of B2, "
            f"which has {b2.num_levels}")
    # P_n maps B1 level n to B2 level n, Q_n B2 level n to B1 level n+1.
    for name, ms, rows_d, cols_d, up in (("P", ps, b2, b1, 0),
                                         ("Q", qs, b1, b2, 1)):
        for n, m in enumerate(ms, 1):
            rows, cols = rows_d.vertex_counts[n + up], cols_d.vertex_counts[n]
            if len(m) != rows or len(m[0]) != cols:
                raise IntertwiningInvalid(
                    n, None, f"{name}_{n} must be {rows}x{cols}")
    _check_product(1, ps[0], incidence_matrix(b1, 1), b2, 1,
                   "root columns differ at entry {}: P_1 gives {}, "
                   "B2 has {}")
    for n, q in enumerate(qs, 1):
        _check_product(n, q, ps[n - 1], b1, n + 1,
                       f"Q_{n} P_{n} differs from B1 incidence at level "
                       f"{n + 1}, entry {{}}: {{}} vs {{}}")
        if n < lp:
            _check_product(n, ps[n], q, b2, n + 1,
                           f"P_{n + 1} Q_{n} differs from B2 incidence at "
                           f"level {n + 1}, entry {{}}: {{}} vs {{}}")


@_record
class InterleavedDiagram:
    """Diagram whose odd vertex levels 2n-1 carry B1's level n and even
    levels 2n B2's level n, with edge multiplicities from the intertwining
    matrices.

    It is the orbit map F: B1 and B2 are its odd and even telescopings,
    and f1 and f2 are those two telescope maps, each built on first read
    and shared by every reader.  f1 has cut points (0, 1, 3, 5, ...), so
    f1.orig_paths[n-1][e] is the segment of interleaved edge indices for
    B1's level-n edge e; f2 has cut points (0, 2, 4, ...).  f1_heads[n-1][e]
    and f1_tails[n-1][e] are the first and last edges of that segment, one
    tuple per distinct segment table.

    b2_rule is the one place the rule from consecutive B1 edges to a B2
    edge lives: b2_rule[n-1] is (pairs, tail, head), references to
    f2.path_tables[n-1], f1_tails[n-1] and f1_heads[n], and the B2
    level-n edge of consecutive B1 edges (a, b) is pairs[tail[a], head[b]].
    """

    diagram: OrderedBratteliDiagram
    b1: OrderedBratteliDiagram
    b2: OrderedBratteliDiagram

    @cached_property
    def f1(self) -> TelescopeMap:
        return _side_map(self.diagram, self.b1, 1)

    @cached_property
    def f2(self) -> TelescopeMap:
        return _side_map(self.diagram, self.b2, 2)

    @cached_property
    def f1_heads(self) -> tuple:
        return _segment_ends(self.f1.orig_paths, 0)

    @cached_property
    def f1_tails(self) -> tuple:
        return _segment_ends(self.f1.orig_paths, -1)

    @cached_property
    def b2_rule(self) -> tuple:
        return tuple(zip(self.f2.path_tables, self.f1_tails,
                         self.f1_heads[1:]))


def _segment_ends(tables, end) -> tuple:
    """The first (end=0) or last (-1) edge of each segment of each table,
    built once per distinct table and shared where the tables are."""
    distinct = {id(t): t for t in tables}
    ends = {key: tuple(seg[end] for seg in t) for key, t in distinct.items()}
    return tuple(ends[id(t)] for t in tables)


def build_interleaved(b1: OrderedBratteliDiagram,
                      b2: OrderedBratteliDiagram,
                      w: Intertwining) -> InterleavedDiagram:
    """Interleave B1 and B2 through a validated intertwining.

    Edge levels of the result: level 1 copies B1's root edges, level 2n has
    multiplicities P_n, level 2n+1 has Q_n.  Telescoping to odd levels
    reproduces B1's incidence sequence; to even levels, B2's.
    """
    check_valid(b1)
    check_valid(b2)
    validate_intertwining(b1, b2, w)
    mats = [tuple(map(tuple, incidence_matrix(b1, 1)))]
    for n in range(len(w.p_matrices)):
        mats.append(w.p_matrices[n])
        if n < len(w.q_matrices):
            mats.append(w.q_matrices[n])
    # Equal matrices give one shared level.
    levels = {m: _edges_from_matrix(m) for m in set(mats)}
    d = OrderedBratteliDiagram(len(mats), (1,) + tuple(map(len, mats)),
                               tuple(map(levels.__getitem__, mats)))
    check_valid(d)
    return InterleavedDiagram(d, b1, b2)


def check_interleaved_properties(bp: InterleavedDiagram) -> list:
    """Check the two structural properties after telescoping by (1, 4, 7, ...).

    On the telescoped diagram, for every extremal vertex v of each kind:
      (i)  at least one extremal vertex of the same kind lies in R(v);
      (ii) precisely one extremal vertex of the same kind lies in S(v).
    Returns a list of failure strings, empty on success.

    The telescoped diagram is not built.  Its extremal edge into a vertex
    is the segment of extremal edges below it (telescoping orders segments
    deepest edge first), so its extremal vertices at a cut are where those
    segments start, and R(v) and S(v) are the vertices v reaches at the
    next and the previous cut.
    """
    d = bp.diagram
    cuts = [0, *range(1, d.num_levels + 1, 3)]
    if cuts[-1] != d.num_levels:
        cuts.append(d.num_levels)
    failures = []
    for kind, end in (("min", 0), ("max", -1)):
        # Extremal vertices are defined one level down from the edges that
        # witness them, so interior levels only.  Failures follow the
        # sorted vertices; the reach sets only test membership.
        ext = [_extremal_sources(d, lo, hi, end)
               for lo, hi in zip(cuts, cuts[1:])]
        for n in range(len(ext) - 1):
            for v in ext[n]:
                reach = _iterate_r(d, cuts[n], {v}, cuts[n + 1] - cuts[n])
                if reach.isdisjoint(ext[n + 1]):
                    failures.append(
                        f"(i) fails: {kind} vertex {v} at level {n} has no "
                        f"{kind} vertex in its range set")
        for n in range(1, len(ext)):
            for v in ext[n]:
                hits = _iterate_s(d, cuts[n], {v}, cuts[n] - cuts[n - 1])
                count = len(hits.intersection(ext[n - 1]))
                if count != 1:
                    failures.append(
                        f"(ii) fails: {kind} vertex {v} at level {n} has "
                        f"{count} {kind} vertices in its source set")
    return failures


# ---------------------------------------------------------------------------
# Orbit map realization


def _segment_table(d, bd, level, lo, hi) -> tuple:
    """The segment of d over edge levels lo..hi for each of bd's level
    edges, a tuple indexed by edge, blockwise per (source, range).

    Within a block both sides come in telescope order: bd's edges by index
    and d's paths deepest edge first.  The order is kept only inside a
    block: bd's minimal (maximal) edge into a vertex maps to d's minimal
    (maximal) segment into it only when the two share a source, and nothing
    here makes them share one.  So F need not send extremal paths to
    extremal paths: it does not when B1's in-edges come from source 1
    first and d's, built from matrices, from source 0 first.
    """
    blocks = {}
    for s, r, path in reversed(telescope_segments(d, lo, hi)):
        blocks.setdefault((s, r), []).append(path)
    try:
        table = tuple(blocks[key].pop() for key in bd.edges[level - 1])
        mismatch = any(blocks.values())     # a leftover block
    except (KeyError, IndexError):      # a missing or a short block
        mismatch = True
    if mismatch:
        raise DiagramError(
            f"segments differ from the edges at level {level} in some "
            "(source, range) block: internal error")
    return table


def _side_map(d, bd, first) -> TelescopeMap:
    """The telescope map from d onto bd, which d carries on the vertex
    levels first, first + 2, ...: one segment table per level of bd, built
    once per distinct pair of a block of d and a level of bd, each keyed
    by the identities of its _level_index entries (_block_key)."""
    cuts = (0, *range(first, d.num_levels + 1, 2))
    built, tables = {}, []
    for n, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1):
        key = _block_key(d, lo, hi), id(bd._level_index[n - 1])
        if key not in built:
            built[key] = _segment_table(d, bd, n, lo + 1, hi)
        tables.append(built[key])
    return TelescopeMap(cuts, tuple(tables))


def realize_orbit_map(bp: InterleavedDiagram,
                      pairing=None) -> InterleavedDiagram:
    """The realization of F on finite paths: bp itself, whose segment
    tables are built on first read.  pairing is unused until the next
    benchmark revision.
    """
    return bp


def _check_depth(depth) -> None:
    """Refuse a depth that is not exactly an int (a bool is not), or is
    below 2, as the pairing and the cocycle walks do."""
    _check_ints((depth,), "depths")
    if depth < 2:
        raise DiagramError("depth must be at least 2")


def _cocycle_b1_depth(F: InterleavedDiagram) -> int:
    """F's realized B1 depth, refused below 2, where no cylinder is
    eligible, with a message naming the limit: B1's levels, or the P and
    Q matrices that interleave 1 + len(P) + len(Q) levels."""
    realized = len(F.f1.orig_paths)
    if realized < 2:
        top = F.diagram.num_levels
        limit = (f"B1 has {F.b1.num_levels} level" if F.b1.num_levels < 2
                 else f"F is realized only to B1 depth {realized} by "
                 f"{top // 2} P and {(top - 1) // 2} Q matrices")
        raise DiagramError(f"{limit}; cocycles need B1 depth at least 2")
    return realized


def _check_realized(side: TelescopeMap, k: int, name: str, lowest=1):
    """Raise NeedsDepth unless F's side realizes depth k (at least lowest)."""
    realized = len(side.orig_paths)
    if not lowest <= k <= realized:
        raise NeedsDepth(f"F is realized for {name} depths 1..{realized}")


def f1_path(F: InterleavedDiagram, p: FinitePath) -> FinitePath:
    """Interleaved path (depth 2k-1) for a B1 path of depth k.  Segments
    keep their edge's source and range, so F and F^-1 keep p's end vertex."""
    _check_realized(F.f1, p.depth, "B1")
    return untelescope_path(F.f1, p, F.diagram)


def f2_path(F: InterleavedDiagram, p: FinitePath) -> FinitePath:
    """Interleaved path (depth 2m) for a B2 path of depth m."""
    _check_realized(F.f2, p.depth, "B2", lowest=0)
    return untelescope_path(F.f2, p, F.diagram)


def _b2_edges(F: InterleavedDiagram, *edge_tuples) -> list:
    """F's B2 edge tuple for each B1 edge tuple, each pair of consecutive
    B1 edges read through F.b2_rule.  The depths are trusted to be
    realized."""
    rule, images = F.b2_rule, []
    for e in edge_tuples:
        q = []
        for (pairs, tail, head), a, b in zip(rule, e, e[1:]):
            q.append(pairs[tail[a], head[b]])
        images.append(tuple(q))
    return images


def apply_orbit_map(F: InterleavedDiagram, p: FinitePath) -> FinitePath:
    """F on cylinders: a depth-k B1 path determines a depth-(k-1) B2 path.

    B2's level-n edge is the segment from B1 edge n's last interleaved edge
    to B1 edge n+1's first, so each pair of consecutive B1 edges gives one
    B2 edge by F.b2_rule (through _b2_edges), the rule cocycle_values sums
    rank offsets over.  The path ends at its last B2 edge's range, or at
    the root for k = 1.
    """
    _check_realized(F.f1, p.depth, "B1")
    idx, = _b2_edges(F, p.edge_indices)
    v = F.b2.edges[len(idx) - 1][idx[-1]][1] if idx else 0
    return _path((len(idx), idx, v))


# ---------------------------------------------------------------------------
# Extremal path pairing


@_record
class ExtremalPairing:
    """Bijection between B1 and B2 extremal paths via the interleaving.

    min_pairs / max_pairs hold (B1 path, B2 path) tuples, one per
    stabilized extremal path of the interleaved diagram.
    """

    min_pairs: tuple
    max_pairs: tuple


def pair_extremal_paths(bp: InterleavedDiagram, depth: int) -> ExtremalPairing:
    """Pair extremal paths of B1 and B2 through the interleaved diagram.

    depth is an interleaved-diagram depth; both extremal sets must be
    stabilized there.  Each interleaved extremal path truncates to a B1
    path (odd prefix) and a B2 path (even prefix), telescoped through
    bp.f1 and bp.f2; those two are paired.  telescope_path refuses a
    prefix deeper than F's tables, whose cut points are its depths.  A
    depth that is not exactly an int, or is below 2, is DiagramError.
    """
    _check_depth(depth)
    d = bp.diagram
    pairs = {}
    for kind in ("min", "max"):
        ps = extremal_paths(d, depth, kind)
        if not ps.stabilized:
            raise Unstabilized(
                f"{kind} paths of the interleaved diagram are not "
                f"stabilized at depth {depth}")
        out = []
        for p in ps.paths:
            odd = path_prefix(d, p, depth - 1 + depth % 2)
            even = path_prefix(d, p, depth - depth % 2)
            out.append((telescope_path(bp.f1, odd, bp.b1),
                        telescope_path(bp.f2, even, bp.b2)))
        pairs[kind] = tuple(out)
    return ExtremalPairing(pairs["min"], pairs["max"])


# ---------------------------------------------------------------------------
# Cocycles


def cocycle(F: InterleavedDiagram, p: FinitePath,
            direction: str = "forward") -> int:
    """Orbit cocycle on the cylinder of p, a B1 path of depth >= 2.

    Writing k = depth - 1, the first k edges must form a non-maximal
    (forward) or non-minimal (backward) path; the final edge pins down the
    shared tail.  The value is the B2 rank shift between the images of the
    prefix and its successor (predecessor), so iterating the B2 successor
    that many times from F(x) reaches F applied to the shifted point, for
    every x in the cylinder.  The two images share every B2 edge past the
    m levels that the step moves, and rank is a sum of one offset per
    edge, so the value is the rank shift between their first m edges
    (_moved_images).
    """
    q, q2 = _moved_images(F, p, direction)
    return path_rank(F.b2, q2) - path_rank(F.b2, q)


# The Vershik step and the extremal end each cocycle direction refuses.
_DIRECTIONS = {"forward": (1, "maximal"), "backward": (-1, "minimal")}


def _moved_images(F: InterleavedDiagram, p: FinitePath, direction: str):
    """The first m edges of cocycle_images' two B2 paths, as two depth-m
    paths into one B2 vertex, where m is the number of leading edges that
    B1's Vershik step on p's prefix changes (paths._moved_head).

    B2's level-n edge reads B1 edges n and n+1, and x and T1x (T1^-1 x
    backward) agree from B1 edge m+1 on, so their images agree from B2
    edge m+1 on: _b2_edges reads m + 1 edges of each.  The cocycles'
    checks are all made here: direction, depth, prefix range, an
    extremal prefix (NeedsDepth), F's realized depth and the images'
    common vertex, which at level m is the source of their shared tail.
    """
    try:
        shift, end = _DIRECTIONS[direction]
    except (KeyError, TypeError):       # TypeError: an unhashable direction
        raise DiagramError("direction must be forward or backward") from None
    depth, e, _ = p
    if depth < 2:
        raise NeedsDepth("cocycle needs a path of depth at least 2")
    k = depth - 1
    # path_prefix's check and message, without building the prefix.
    if k > F.b1.num_levels:
        raise DiagramError(f"prefix length {k} out of range "
                           f"0..{F.b1.num_levels}")
    head = _moved_head(F.b1, e[:k], shift)
    if head is None:
        raise NeedsDepth(f"prefix is {end}; extend the path past the {end} "
                         "tail")
    # _check_realized's check and message; depth is at least 2.
    realized = len(F.f1.orig_paths)
    if depth > realized:
        raise NeedsDepth(f"F is realized for B1 depths 1..{realized}")
    m = len(head)
    # q is F(x), q2 is F(T1x) (T1^-1 x backward), each cut at level m.
    q, q2 = _b2_edges(F, e[:m + 1], head + e[m:m + 1])
    level = F.b2.edges[m - 1]
    v = level[q[-1]][1]
    if level[q2[-1]][1] != v:
        raise DiagramError("cocycle images disagree on vertices: "
                           "internal error")
    return _path((m, q, v)), _path((m, q2, v))


def cocycle_images(F: InterleavedDiagram, p: FinitePath,
                   direction: str = "forward"):
    """The two B2 paths whose rank difference is the cocycle value: the
    images under F of p and of p with its prefix moved one Vershik step,
    which share p's last edge and so end at one B2 vertex.  Each is its
    _moved_images prefix followed by the B2 edges that both share."""
    q, q2 = _moved_images(F, p, direction)
    full, = _b2_edges(F, p[1])
    tail = full[q.depth:]
    v = F.b2.edges[len(full) - 1][full[-1]][1]
    return (_path((len(full), q.edge_indices + tail, v)),
            _path((len(full), q2.edge_indices + tail, v)))


# Most B2 Vershik steps verify_cocycle takes to confirm one value.
VERIFY_LIMIT = 10 ** 4


def verify_cocycle(F: InterleavedDiagram, p: FinitePath,
                   direction: str = "forward") -> bool:
    """Confirm the reported value by literal successor iteration in B2.

    q and q2 come from F's own tables, so this confirms the rank
    difference, the number of B2 Vershik steps from q to q2, apart from
    the rank tables.  It does not show that F is an orbit map: for a
    wrong F built from tables, q and q2 still end at one vertex, and the
    rank law carries q to q2.

    q and q2 are the depth-m images of _moved_images.  The full images
    extend both by one shared tail, and the paths into one vertex that
    extend a fixed tail are a run of consecutive ranks, so the Vershik
    steps between the full images change only their first m edges and
    are the steps between q and q2; the tail's offsets cancel in the rank
    difference.
    """
    q, q2 = _moved_images(F, p, direction)
    n = 0       # path_rank(F.b2, q2) - path_rank(F.b2, q), level by level
    for off, a, b in zip(F.b2.rank_offset_table, q.edge_indices,
                         q2.edge_indices):
        n += off[b] - off[a]
    if abs(n) > VERIFY_LIMIT:
        raise DiagramError(f"cocycle value {n} exceeds iteration limit")
    step = vershik_successor if n >= 0 else vershik_predecessor
    cur = q
    for _ in range(abs(n)):
        cur = step(F.b2, cur)
    return cur == q2


def _rank_order(F: InterleavedDiagram, k: int, v: int):
    """(F-rank, edges) of each depth-k B1 path into v, in rank order: down
    the in-edge table, deepest edge first, each step adding to the F-rank
    the rank offset of the B2 edge that F.b2_rule gives one edge pair.
    The stack holds at most one vertex's in-edges per level."""
    rule, offsets = F.b2_rule, F.b2.rank_offset_table
    edges, into = F.b1.edges, F.b1.in_edge_table
    stack = [(0, (a,)) for a in reversed(into[k - 1][v])]
    while stack:
        rank, path = stack.pop()
        n = k - len(path)           # path[0] is a level-(n+1) edge
        if not n:
            yield rank, path
            continue
        a = path[0]
        pairs, tail, heads = rule[n - 1]
        head, off = heads[a], offsets[n - 1]
        for b in reversed(into[n - 1][edges[n][a][0]]):
            stack.append((rank + off[pairs[tail[b], head]], (b,) + path))


def cocycle_values(F: InterleavedDiagram, depth: int):
    """Both cocycles on every eligible B1 cylinder, from one rank-order walk
    per B1 vertex.

    Yields (direction, edge_indices, value, parent_value) for every B1 path
    of depth 2..max_depth, max_depth = min(depth, realized B1 depth), whose
    prefix is non-maximal (forward) or non-minimal (backward); value equals
    cocycle(F, path, direction).  parent_value is the same cocycle on the
    cylinder one level up, or None when that cylinder is not eligible or
    has depth 1.

    The F-rank R(x), the B2 rank of apply_orbit_map(F, x), is a sum over
    consecutive edges (a, b) of x of the rank offset of the one B2 edge
    that F.b2_rule gives them, as apply_orbit_map reads it.
    _rank_order lists the depth-k paths into a vertex in rank order, so
    each x there is followed by succ(x), and x + (e,) has forward value
    R(succ(x) + (e,)) - R(x + (e,)), the negative of succ(x) + (e,)'s
    backward value.  When succ(x) keeps x's last edge it is succ(x[:-1])
    + that edge, so the parent value is R(succ(x)) - R(x) and the two
    e-terms cancel: continuity holds by construction.  Otherwise x[:-1]
    is all-maximal (always at k = 1) and the parent is None.

    No cylinder is eligible below depth 2, so when the walk starts it
    refuses a depth that is not exactly an int or is below 2
    (_check_depth), and F realized only to B1 depth 1
    (_cocycle_b1_depth), with DiagramError.
    """
    _check_depth(depth)
    max_depth = min(depth, _cocycle_b1_depth(F))
    rule, offsets = F.b2_rule, F.b2.rank_offset_table
    for k in range(1, max_depth):
        (pairs, tails, heads), off = rule[k - 1], offsets[k - 1]
        for v, outs in enumerate(F.b1.out_edge_table[k]):
            firsts = [heads[e] for e in outs]
            for (r0, x0), (r1, x1) in itertools.pairwise(
                    _rank_order(F, k, v)):
                t0, t1 = tails[x0[-1]], tails[x1[-1]]
                up, down = ((r1 - r0, r0 - r1) if x0[-1] == x1[-1]
                            else (None, None))
                # Both images' last B2 edges are segments ending in e's
                # first interleaved edge, and _segment_table pairs an
                # edge only with a segment of the same (source, range), so
                # the images end at one vertex: unlike cocycle_images, no
                # vertex check is needed.
                for e, first in zip(outs, firsts):
                    val = (r1 + off[pairs[t1, first]]
                           - r0 - off[pairs[t0, first]])
                    yield "forward", x0 + (e,), val, up
                    yield "backward", x1 + (e,), -val, down


def check_cocycle_continuity(F: InterleavedDiagram, depth: int) -> dict:
    """Verify both cocycles are constant on every eligible cylinder.

    A depth-m cylinder is eligible for the forward (backward) cocycle when
    its first m-1 edges form a non-maximal (non-minimal) path; its value is
    then determined at depth m, and constancy means every one-edge
    refinement reports the same value.  The values come from
    cocycle_values' rank-order walk, a few table lookups per cylinder.
    Returns the eligible count plus any failures, ordered by depth, then
    cylinder, then forward before backward.  No cylinder is eligible
    below depth 2, so a pass there would be vacuous: a depth that is not
    exactly an int (a bool is not) or is below 2, or F realized only to
    B1 depth 1, raises DiagramError with soe_report's messages, from
    cocycle_values.

    A pass certifies only that F's tables compose consistently: for an F
    built from tables the child's two B2 images extend the parent's by the
    same last edge, so even a wrong F cannot fail it.  verify_cocycle
    checks a value independently of the rank tables, by iterating B2's
    Vershik map, but reads the same F; neither proves F an orbit map.
    """
    eligible = 0
    failures = []
    for direction, idx, val, parent in cocycle_values(F, depth):
        eligible += 1
        # The depth-(m-1) cylinder, when itself eligible, must report the
        # same value on every refinement.
        if parent is not None and parent != val:
            failures.append(((len(idx), idx, direction != "forward"),
                             {"direction": direction, "cylinder": idx[:-1],
                              "expected": parent, "got": val}))
    failures.sort(key=lambda f: f[0])
    nonconstant = [entry for _, entry in failures]
    return {"eligible": eligible, "nonconstant": nonconstant,
            "ok": not nonconstant}


# ---------------------------------------------------------------------------
# Intertwining search and the end-to-end pipeline


def _stationary_data(d):
    """The root column and the stationary_map of d's K0 presentation, as
    the lists the search compares and prints."""
    if d.num_levels < 2:
        raise DiagramError("stationary search needs at least two levels")
    from .ktheory import k0_presentation
    pres = k0_presentation(d)
    if pres.stationary_map is None:
        raise DiagramError("diagram is not stationary")
    return [[h] for h in pres.unit], list(map(list, pres.stationary_map))


# Largest search, in (P, Q) candidates, that the one-step search takes on.
# It admits the 2 x 2 search at bound 4 (5^8 = 390,625 candidates): with
# every candidate rejected, that takes about 4 s and 130 MB, most of it the
# rejection records, on a 2-vCPU host with Python 3.11, and about 14 s
# through the CLI, which writes every record.  A 2 x 2 search at bound 5
# (6^8 = 1,679,616) is refused before any candidate is built.
MAX_SEARCH_CANDIDATES = 2 ** 19


def search_stationary_intertwining(b1: OrderedBratteliDiagram,
                                   b2: OrderedBratteliDiagram,
                                   bound: int):
    """Brute-force search for a one-step stationary intertwining.

    Tries the pairs of non-negative matrices (P, Q) with entries up to
    bound one at a time, in itertools.product order (P's entries row by
    row, then Q's), and stops at the first match.  Returns (match or None,
    rejections) where each rejection names a candidate before the match
    and the first identity it breaks.  A bound that is not exactly an int
    (a bool is not), a search of more than MAX_SEARCH_CANDIDATES
    candidates, or one whose candidates would each hold more than that
    many entries, raises DiagramError, as does a diagram whose K0
    presentation has no stationary_map (see ktheory).
    """
    _check_ints((bound,), "bounds")
    if bound < 0:
        raise DiagramError(f"bound must be non-negative, got {bound}")
    r1, m1 = _stationary_data(b1)
    r2, m2 = _stationary_data(b2)
    k1 = b1.vertex_counts[1]
    k2 = b2.vertex_counts[1]
    cells = 2 * k1 * k2         # entries of one (P, Q) candidate
    # Even one candidate is held and multiplied out entry by entry.
    if cells > MAX_SEARCH_CANDIDATES:
        raise DiagramError(
            f"one candidate's {k2}x{k1} P and {k1}x{k2} Q hold {cells} "
            f"entries, more than MAX_SEARCH_CANDIDATES = "
            f"{MAX_SEARCH_CANDIDATES}")
    # cells >= 2, so bound + 1 past the cap refuses at once.  A bound of at
    # least 1 raised to the cap's bit length already passes the cap, so the
    # exponent stops there instead of building a huge power.
    if (bound + 1 > MAX_SEARCH_CANDIDATES
            or (bound + 1) ** min(cells, MAX_SEARCH_CANDIDATES.bit_length())
            > MAX_SEARCH_CANDIDATES):
        raise DiagramError(
            f"a {k2}x{k1} P and {k1}x{k2} Q with entries up to {bound} give "
            f"(bound + 1)^{cells} candidates, more than the "
            f"{MAX_SEARCH_CANDIDATES} a search may try")
    entries = range(bound + 1)
    # Each factor holds at most the cap's square root; the pairs stream.
    ps = [[list(f[i * k1:(i + 1) * k1]) for i in range(k2)]
          for f in itertools.product(entries, repeat=k2 * k1)]
    qs = [[list(f[i * k2:(i + 1) * k2]) for i in range(k1)]
          for f in itertools.product(entries, repeat=k1 * k2)]
    rejections = []
    for p, q in itertools.product(ps, qs):
        for label, a, b, want in (("QP =", q, p, m1), ("PQ =", p, q, m2),
                                  ("P root column", p, r1, r2)):
            got = mat_mul(a, b)
            if got != want:
                rejections.append(
                    {"P": p, "Q": q, "reason": f"{label} {got} != {want}"})
                break
        else:
            return (p, q), rejections
    return None, rejections


def stationary_intertwining(p, q, num_p: int, num_q: int) -> Intertwining:
    """Repeat one (P, Q) pair into a full intertwining."""
    return make_intertwining([p] * num_p, [q] * num_q)


def soe_report(b1: OrderedBratteliDiagram, b2: OrderedBratteliDiagram,
               w: Intertwining, depth: int) -> dict:
    """Run the whole pipeline and summarize each stage's verdict.  The
    pairing and the cocycles read the interleaving's segment tables, each
    built once; continuity holds the count of eligible cylinders.

    The cocycles reach B1 depth min(depth, F's realized B1 depth), and no
    cylinder is eligible below 2, so a pass there would be vacuous: a
    depth that is not exactly an int or is below 2 raises DiagramError
    before anything is built, and a realized depth below 2 raises it,
    naming that limit, once the interleaving is built.  The five cocycle
    samples are B1 paths of depth min(3, F's realized B1 depth)."""
    _check_depth(depth)
    out = {"interleaved_ok": False, "properties_ok": False,
           "pairing_ok": False, "continuity_ok": False,
           "cocycle_samples": []}
    try:
        bp = build_interleaved(b1, b2, w)
    except DiagramError as exc:
        out["error"] = str(exc)
        return out
    realized = _cocycle_b1_depth(bp)
    out["interleaved_ok"] = True
    failures = check_interleaved_properties(bp)
    out["properties_ok"] = not failures
    if failures:
        out["property_failures"] = failures
    try:
        pairing = pair_extremal_paths(bp, min(depth, bp.diagram.num_levels))
        out["pairing_ok"] = True
        out["pairing_size"] = len(pairing.min_pairs)
    except DiagramError as exc:
        out["pairing_error"] = str(exc)
    cont = check_cocycle_continuity(bp, depth)
    out["continuity_ok"] = cont["ok"]
    out["continuity"] = {"eligible": cont["eligible"]}
    if cont["nonconstant"]:
        out["nonconstant"] = cont["nonconstant"][:10]
    samples = []
    for p in _lex_paths(b1, min(3, realized)):
        if len(samples) >= 5:
            break
        if is_maximal(b1, path_prefix(b1, p, p.depth - 1)):
            continue
        samples.append({"path": list(p.edge_indices),
                        "forward": cocycle(bp, p, "forward")})
    out["cocycle_samples"] = samples
    return out


_INTERTWINING_KEYS = {"P", "Q"}


def intertwining_to_json(w: Intertwining) -> dict:
    return {"P": [[list(r) for r in m] for m in w.p_matrices],
            "Q": [[list(r) for r in m] for m in w.q_matrices]}


def intertwining_from_json(obj: dict) -> Intertwining:
    if not isinstance(obj, dict) or set(obj) != _INTERTWINING_KEYS:
        raise DiagramError('intertwining JSON must have exactly keys P, Q')
    for key in ("P", "Q"):
        if not (type(obj[key]) is list and all(
                type(m) is list and all(map(is_int_list, m))
                for m in obj[key])):
            raise MalformedDiagram(
                f"intertwining {key} must be a list of integer matrices")
    return make_intertwining(obj["P"], obj["Q"])
