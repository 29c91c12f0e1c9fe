"""Ordered Bratteli diagrams: construction, validation, incidence, telescoping.

A diagram is a finite truncation with vertex levels 0..N (level 0 is the
single root) and edge levels 1..N.  Edges at each level are stored in a
canonical list sorted by range vertex; the position of an edge among the
edges sharing its range vertex is its place in the linear order, so two
edges are comparable exactly when they have the same range.

Diagram data is checked once, at the boundary.  make_diagram is the one
checked constructor for data from outside the library: diagram_from_json,
Python callers, and disjoint_union and towers_to_diagram, which are handed
records and tower data from their callers.  The library's own builders,
telescope, soe.build_interleaved and the odometer, stationary and
cycle-tower generators, derive every level canonical by construction and
build the OrderedBratteliDiagram record directly from tuple levels.  That
is safe: their levels are canonical as built, the generators count their
edges from their arguments first, and a telescoping holds no more vertices
than its source, so it inherits the bound the source's vertex cap put on
the tables a diagram builds.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Optional, Sequence


class DiagramError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDiagram(DiagramError):
    """Field data is structurally broken (indices out of range etc.)."""


class InvalidDiagram(DiagramError):
    """Diagram is well-formed but violates an ordered-diagram axiom."""


def _record(cls):
    """Make cls a frozen record of the fields it annotates, in that order.

    As dataclasses.dataclass(frozen=True) would, but with shared methods
    instead of code generated per class: construction by position or
    keyword, a class attribute named like a field being its default; the
    repr Name(field=value, ...); equality by fields between instances of
    one class; a hash by fields, a TypeError when a field is unhashable;
    and AttributeError on assignment or deletion.  Fields live in the
    instance __dict__, where cached_property stores its tables too.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names
                if name in cls.__dict__}
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls.__name__, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}"
                          for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({inner})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
    return cls


def _bind(name: str, names: tuple, defaults: dict, args: tuple,
          kwargs: dict) -> list:
    """The field values of a record call that is not all fields by
    position, in field order; TypeError as for a call of a function."""
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} field arguments but "
                        f"{len(args)} were given")
    given = dict(zip(names, args))
    for key in kwargs:
        if key not in names or key in given:
            raise TypeError(f"{name}() got an unexpected or repeated "
                            f"argument {key!r}")
    values = {**defaults, **given, **kwargs}
    missing = [key for key in names if key not in values]
    if missing:
        raise TypeError(f"{name}() missing field arguments: "
                        f"{', '.join(map(repr, missing))}")
    return [values[key] for key in names]


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


@_record
class Violation:
    kind: str        # "malformed", "range-surjectivity", "source-surjectivity"
    level: int
    detail: str

    def __str__(self):
        return f"[{self.kind}] level {self.level}: {self.detail}"


@_record
class OrderedBratteliDiagram:
    """Immutable ordered Bratteli diagram truncated at num_levels edge levels.

    edges[n-1] holds level-n edges as (source, range) pairs, canonically
    sorted by range with the relative order of same-range edges giving the
    edge order.  group_labels, when present, assigns an integer fiber label
    to every vertex at levels 1..num_levels.
    """

    num_levels: int
    vertex_counts: tuple
    edges: tuple            # tuple over levels 1..N of tuples of (s, r)
    group_labels: Optional[tuple] = None   # tuple over levels 1..N of tuples

    def level_edges(self, n: int) -> tuple:
        """Level n's canonical edges; n must be an int (not a bool or
        float) in 1..num_levels."""
        if type(n) is not int or not 1 <= n <= self.num_levels:
            raise DiagramError(f"edge level {n} out of range 1..{self.num_levels}")
        return self.edges[n - 1]

    def label_of(self, level: int, vertex: int) -> Optional[int]:
        """The fiber label of a vertex at level 0..N; None at the root or
        without labels."""
        if type(level) is not int or not 0 <= level <= self.num_levels:
            raise DiagramError(
                f"level {level} out of range 0..{self.num_levels}")
        _check_vertex(self, level, vertex)
        if self.group_labels is None or level == 0:
            return None
        return self.group_labels[level - 1][vertex]

    # Derived tables: cached_property stores them in the instance __dict__,
    # past the frozen __setattr__, and equality and hashing never see them.
    # _level_index scans each distinct level once, keyed by its edges and
    # both vertex counts, so two levels share an entry exactly when they are
    # equal (as all but the first of a stationary diagram are).  The
    # in-edge and out-edge tables and the axiom scan all read that shared
    # entry, and telescope() and soe's F key a block of levels by the
    # identities of its entries (_block_key).  The edge order itself lives
    # only in the canonical level, where a vertex's in-edges form one
    # contiguous run, so an edge's position is its distance from the first
    # edge of its run, and the Vershik step reads an edge's neighbours
    # there.  Rank sums are built apart, since they depend on the level
    # below as well, and so is incidence_matrix, on each call: a dense
    # matrix in the index would cost rows x columns per level on every path
    # query's first read.

    @cached_property
    def _level_index(self) -> tuple:
        """Per level: (in-edge rows, out-edge rows), equal levels sharing
        one entry."""
        seen, index = {}, []
        vcs = self.vertex_counts
        for key in zip(self.edges, vcs, vcs[1:]):
            entry = seen.get(key)
            if entry is None:
                entry = seen[key] = _index_level(*key)
            index.append(entry)
        return tuple(index)

    @cached_property
    def in_edge_table(self) -> tuple:
        """in_edge_table[n-1][w]: level-n edges into w, in edge order."""
        return tuple(entry[0] for entry in self._level_index)

    @cached_property
    def out_edge_table(self) -> tuple:
        """out_edge_table[n-1][v]: level-n edges leaving level-(n-1) v."""
        return tuple(entry[1] for entry in self._level_index)

    @cached_property
    def path_count_table(self) -> tuple:
        """path_count_table[n][v]: number of root paths to level-n vertex v."""
        return self._rank_sums[0]

    @cached_property
    def rank_offset_table(self) -> tuple:
        """rank_offset_table[n-1][e]: what level-n edge e adds to a path's
        rank, the root paths into the sources of the edges before it."""
        return self._rank_sums[1]

    @cached_property
    def _rank_sums(self) -> tuple:
        # One scan gives both tables: edges come in range, then edge order,
        # so a range vertex's running path count when an edge is reached
        # is that edge's rank offset.
        counts, offsets = [(1,)], []
        for level, size in zip(self.edges, self.vertex_counts[1:]):
            row = [0] * size
            before = []
            for s, r in level:
                before.append(row[r])
                row[r] += counts[-1][s]
            counts.append(tuple(row))
            offsets.append(tuple(before))
        return tuple(counts), tuple(offsets)

    @cached_property
    def _violations(self) -> tuple:
        """The axiom scan behind validate_diagram, run once per diagram."""
        return tuple(_scan_axioms(self))

    @cached_property
    def period(self) -> Optional[tuple]:
        """The ordered period: _period of the levels, the edge order
        included, as (start, p) with start an edge level, or None."""
        found = _period(tuple(map(id, self._level_index)))
        return found and (found[0] + 1, found[1])


def _period(keys: Sequence) -> Optional[tuple]:
    """(start, p) for the least p, then start, with keys[n] == keys[n + p]
    for all n >= start and len(keys) - start >= 2 * p, else None: the first
    p to count p matches back from the end."""
    size = len(keys)
    for p in range(1, size // 2 + 1):
        n = size - p - 1
        while n >= 0 and keys[n] == keys[n + p]:
            n -= 1
        if size - p - 1 - n >= p:
            return n + 1, p
    return None


def _index_level(level: tuple, num_sources: int, num_ranges: int) -> tuple:
    """One scan of a level: its in-edge rows and out-edge rows."""
    rows = [[] for _ in range(num_ranges)]
    outs = [[] for _ in range(num_sources)]
    for i, (s, r) in enumerate(level):
        rows[r].append(i)
        outs[s].append(i)
    return tuple(map(tuple, rows)), tuple(map(tuple, outs))


def make_diagram(num_levels: int,
                 vertex_counts: Sequence[int],
                 edges: Sequence[Sequence[tuple]],
                 group_labels: Optional[Sequence[Sequence[int]]] = None,
                 ) -> OrderedBratteliDiagram:
    """Build a diagram, canonicalizing edge lists (stable sort by range).

    The relative order of edges sharing a range vertex is preserved, so the
    caller's list position among same-range edges defines the edge order.
    Raises MalformedDiagram for broken field data, and for more vertices
    below the root than edges plus MAX_TELESCOPE_EDGES; axiom violations
    are left to validate_diagram.

    This is the boundary for diagram data: JSON (diagram_from_json),
    Python callers, and disjoint_union and towers_to_diagram call it.
    Builders whose levels are canonical by construction (telescope,
    soe.build_interleaved, odometer, stationary_adic and the towers of
    finite_cycle_system) build the record directly instead; each such
    record equals make_diagram of its own fields.
    """
    if type(num_levels) is not int:
        raise MalformedDiagram("num_levels must be an integer")
    if num_levels < 1:
        raise MalformedDiagram("num_levels must be >= 1")
    vcs = _sequence(vertex_counts, "vertex counts")
    if not {int} >= set(map(type, vcs)):
        raise MalformedDiagram("vertex counts must be ints")
    if len(vcs) != num_levels + 1:
        raise MalformedDiagram(
            f"vertex_counts must have length {num_levels + 1}, got {len(vcs)}")
    if vcs[0] != 1:
        raise MalformedDiagram("level 0 must contain exactly the root vertex")
    if any(c < 1 for c in vcs):
        raise MalformedDiagram("vertex counts must be positive")
    edges = _sequence(edges, "edges")
    if len(edges) != num_levels:
        raise MalformedDiagram(
            f"edges must have {num_levels} levels, got {len(edges)}")
    # Equal levels under equal vertex counts are canonicalized once and
    # share one tuple, as the levels of a stationary diagram do.  The key
    # holds each edge as a tuple, so edges given as lists hash too.  Each
    # level is read once into a tuple, so an iterator works as a list does.
    # Equality alone does not make a level valid: (False, 0) == (0.0, 0) ==
    # (0, 0).  So a level shares the canonical tuple of an equal earlier
    # level only when it is the same tuple, as diagram_from_json passes
    # equal levels, or its edges are tuples or lists of ints.
    canon, seen = [], {}
    for n, level in enumerate(edges, start=1):
        level = _sequence(level, f"level {n}: edges")
        try:
            key = (tuple(map(tuple, level)), vcs[n - 1], vcs[n])
            first, pairs = seen.get(key, (None, None))
        except TypeError:       # not a level of int pairs: refused below
            key = first = pairs = None
        if pairs is None or first is not level and not (
                set(map(type, level)) <= _PAIR_SET
                and set(map(type, chain.from_iterable(level))) <= {int}):
            pairs = _canonical_level(n, level, vcs[n - 1], vcs[n])
            seen[key] = level, pairs
        canon.append(pairs)
    # Every vertex below the root needs an in-edge of its own, so a valid
    # diagram has no more of them than edges.  Far more would make the
    # derived tables and the axiom scan's violations grow with vertices
    # that no edge reaches.
    vertices, num_edges = sum(vcs) - 1, sum(map(len, canon))
    if vertices > num_edges + MAX_TELESCOPE_EDGES:
        raise MalformedDiagram(
            f"{vertices} vertices below the root exceed the edge count "
            f"{num_edges} by more than MAX_TELESCOPE_EDGES = "
            f"{MAX_TELESCOPE_EDGES}")
    labels = None
    if group_labels is not None:
        group_labels = _sequence(group_labels, "group_labels")
        if len(group_labels) != num_levels:
            raise MalformedDiagram(
                f"group_labels must cover levels 1..{num_levels}")
        labels = []
        for n, level in enumerate(group_labels, start=1):
            level = _sequence(level, f"group_labels at level {n}")
            if len(level) != vcs[n]:
                raise MalformedDiagram(
                    f"group_labels at level {n} must have {vcs[n]} entries")
            if not {int} >= set(map(type, level)):
                raise MalformedDiagram(
                    f"group_labels at level {n} must be ints")
            labels.append(level)
        labels = tuple(labels)
    return OrderedBratteliDiagram(num_levels, vcs, tuple(canon), labels)


def _check_ints(values, what: str) -> None:
    """Refuse values unless each is exactly an int (a bool is not)."""
    if not {int} >= set(map(type, values)):
        raise DiagramError(f"{what} must be ints")


def _sequence(x, what: str) -> tuple:
    """x read once into a tuple; MalformedDiagram names what it is when x
    is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise MalformedDiagram(f"{what} are not iterable") from None


_RANGE = itemgetter(1)
_PAIR_TYPES = (tuple, list)
_PAIR_SET = set(_PAIR_TYPES)


def _canonical_level(n: int, level, num_sources: int,
                     num_ranges: int) -> tuple:
    """Level n's edges, each a tuple or list of two ints (bools and other
    int-like values are refused), range-checked in order and stably
    sorted by range, which keeps the order of same-range edges."""
    pairs = []
    for i, e in enumerate(level):
        if not (type(e) in _PAIR_TYPES and len(e) == 2
                and type(e[0]) is type(e[1]) is int):
            raise MalformedDiagram(f"level {n}: edge {i} is not a pair of ints")
        s, r = e
        if not 0 <= s < num_sources:
            raise MalformedDiagram(
                f"level {n}: source {s} out of range 0..{num_sources - 1}")
        if not 0 <= r < num_ranges:
            raise MalformedDiagram(
                f"level {n}: range {r} out of range 0..{num_ranges - 1}")
        pairs.append((s, r))
    pairs.sort(key=_RANGE)
    return tuple(pairs)


def validate_diagram(d: OrderedBratteliDiagram) -> list:
    """Return a list of Violation records; empty iff all axioms hold.

    Checks range-surjectivity for every vertex at levels >= 1 and
    source-surjectivity for every vertex at levels 0..N-1.  The root is
    exempt from range-surjectivity (no edges end at level 0).  The scan
    runs once per diagram; every call returns a fresh list.
    """
    return list(d._violations)


def _scan_axioms(d: OrderedBratteliDiagram) -> list:
    # Levels that share a _level_index entry have the same edges, so an
    # entry found clean once is clean at every level that holds it.
    report, clean = [], set()
    for n, entry in enumerate(d._level_index, start=1):
        if id(entry) in clean:
            continue
        if not d.edges[n - 1]:
            report.append(Violation("malformed", n, "empty edge level"))
            continue
        into, outs = entry
        if all(into) and all(outs):
            clean.add(id(entry))
            continue
        report += [Violation("range-surjectivity", n,
                             f"vertex {v} at level {n} has no incoming edge")
                   for v, row in enumerate(into) if not row]
        report += [Violation("source-surjectivity", n - 1,
                             f"vertex {v} at level {n - 1} has no outgoing "
                             "edge")
                   for v, row in enumerate(outs) if not row]
    return report


def check_valid(d: OrderedBratteliDiagram) -> None:
    report = validate_diagram(d)
    if report:
        raise InvalidDiagram("; ".join(str(v) for v in report))


def in_edges(d: OrderedBratteliDiagram, n: int) -> tuple:
    """Per level-n vertex, the ordered tuple of incoming edge indices."""
    d.level_edges(n)    # range-checks n
    return d.in_edge_table[n - 1]


def out_edges(d: OrderedBratteliDiagram, n: int) -> tuple:
    """Per level-(n-1) vertex, the tuple of outgoing level-n edge indices."""
    d.level_edges(n)    # range-checks n
    return d.out_edge_table[n - 1]


def edge_order_index(d: OrderedBratteliDiagram, n: int, edge: int) -> int:
    """Position of an edge in the linear order on edges sharing its range
    (0 is minimal, the last is maximal): its distance from the first edge
    into that vertex, since a canonical level holds each vertex's in-edges
    as one contiguous run in edge order."""
    level = d.level_edges(n)    # range-checks n
    if type(edge) is not int or not 0 <= edge < len(level):
        raise DiagramError(f"edge index {edge} out of range at level {n}")
    return edge - d.in_edge_table[n - 1][level[edge][1]][0]


def min_edges(d: OrderedBratteliDiagram, n: int) -> tuple:
    """Level-n edges minimal in the order (first into each range vertex)."""
    return tuple(t[0] for t in in_edges(d, n))


def max_edges(d: OrderedBratteliDiagram, n: int) -> tuple:
    return tuple(t[-1] for t in in_edges(d, n))


def min_vertices(d: OrderedBratteliDiagram, n: int) -> tuple:
    """Level-n vertices that are sources of minimal level-(n+1) edges."""
    _check_vertex_level(d, n)
    return _extremal_sources(d, n, n + 1, 0)


def max_vertices(d: OrderedBratteliDiagram, n: int) -> tuple:
    _check_vertex_level(d, n)
    return _extremal_sources(d, n, n + 1, -1)


def vertex_ranges(d: OrderedBratteliDiagram, n: int, v: int) -> tuple:
    """R(v): level-(n+1) vertices connected to level-n vertex v."""
    _check_vertex_level(d, n)
    _check_vertex(d, n, v)
    return tuple(sorted(_iterate_r(d, n, {v}, 1)))


def vertex_sources(d: OrderedBratteliDiagram, n: int, v: int) -> tuple:
    """S(v): level-(n-1) vertices connected to level-n vertex v."""
    d.level_edges(n)        # range-checks n
    _check_vertex(d, n, v)
    return tuple(sorted(_iterate_s(d, n, {v}, 1)))


def _check_vertex_level(d, n):
    """Range-check a vertex level n below the last, as level_edges(n + 1)
    does: a non-int n is out of range as it stands."""
    d.level_edges(n + 1 if type(n) is int else n)


def _check_vertex(d, n, v):
    if type(v) is not int or not 0 <= v < d.vertex_counts[n]:
        raise DiagramError(f"vertex {v} out of range at level {n}")


# The walks behind the structural checks.  They read the edge tables
# directly and trust their levels; the per-level queries above are the
# range-checked boundary.

def _extremal_sources(d, lo, hi, end):
    """Level-lo vertices, sorted, where the walks down from every level-hi
    vertex along first (end 0) or last (end -1) in-edges arrive.  For
    hi = lo + 1 they are the level-lo extremal vertices; in general, the
    ends of the extremal paths into level hi truncated to depth lo."""
    cur = range(d.vertex_counts[hi])
    for k in range(hi - 1, lo - 1, -1):
        level, into = d.edges[k], d.in_edge_table[k]
        cur = {level[into[w][end]][0] for w in cur}
    return tuple(sorted(cur))


def _iterate_r(d, n, vs, m):
    """R^m(vs): the level-(n+m) vertices reached up from level-n vs."""
    cur = set(vs)
    for k in range(n, n + m):
        level, outs = d.edges[k], d.out_edge_table[k]
        cur = {level[e][1] for v in cur for e in outs[v]}
    return cur


def _iterate_s(d, n, vs, m):
    """S^m(vs): the level-(n-m) vertices reached down from level-n vs."""
    cur = set(vs)
    for k in range(n - 1, n - m - 1, -1):
        level, into = d.edges[k], d.in_edge_table[k]
        cur = {level[e][0] for v in cur for e in into[v]}
    return cur


def incidence_matrix(d: OrderedBratteliDiagram, n: int) -> list:
    """Edge-count matrix at level n: rows level-n vertices, columns level-(n-1).

    Entry (w, v) is the number of level-n edges from v to w.
    """
    level = d.level_edges(n)    # range-checks n
    rows, cols = d.vertex_counts[n], d.vertex_counts[n - 1]
    m = [[0] * cols for _ in range(rows)]
    for s, r in level:
        m[r][s] += 1
    return m


def _edges_from_matrix(m) -> tuple:
    """Inverse of incidence_matrix: m[w][v] edges from v to w, by range w,
    then source v, which is a canonical level."""
    return tuple([(v, w) for w, row in enumerate(m)
                  for v, count in enumerate(row) for _ in range(count)])


def mat_mul(a: list, b: list) -> list:
    """Exact integer matrix product a @ b.

    Row i of the product is the sum of the rows of b weighted by the
    nonzero entries of row i of a, so zeros of a cost nothing.  A b with
    no rows is read as 0 x 0.
    """
    cols = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or \
            any(len(row) != cols for row in b):
        raise DiagramError("matrix dimension mismatch")
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_vec(a: list, v: list) -> list:
    if len(a[0]) != len(v):
        raise DiagramError("matrix/vector dimension mismatch")
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


@_record
class TelescopeMap:
    """Bijection between the edges of a telescoped diagram and the paths
    they collapse, as telescope() and soe's orbit map F build it.

    cut_points includes the implicit 0; orig_paths[m] lists, by new edge
    index at level m+1, the original edge-index paths spanning levels
    cut_points[m]+1..cut_points[m+1].  path_tables[m] maps those paths back
    to their new edge index, built on first read.
    """

    cut_points: tuple
    orig_paths: tuple    # tuple of tuples of orig edge tuples

    @cached_property
    def path_tables(self) -> tuple:
        """Per level, a dict {orig edge tuple: new edge index}; levels that
        share one orig_paths tuple, as the repeated blocks of telescope()
        do, share one dict."""
        tables = {}
        for level in self.orig_paths:
            if id(level) not in tables:
                tables[id(level)] = {path: e for e, path in enumerate(level)}
        return tuple(tables[id(level)] for level in self.orig_paths)


def _block_key(d: OrderedBratteliDiagram, lo: int, hi: int) -> tuple:
    """A key of d's edge levels lo+1..hi, equal for two blocks exactly when
    their levels are equal one by one: the identities of the levels'
    _level_index entries, which equal levels under equal vertex counts
    share."""
    return tuple(map(id, d._level_index[lo:hi]))


def telescope_segments(d: OrderedBratteliDiagram, lo: int, hi: int) -> list:
    """Every path over edge levels lo..hi as (source, range, edge tuple), in
    the order telescoping numbers them: by range vertex, then rank order.

    A walk down one level at a time from the range vertices: each partial
    path is extended by its bottom vertex's in-edges, in edge order, so
    the partial paths stay sorted by range, then by their edges read
    deepest first, and the deepest edge's order is the most significant,
    as in the Vershik step.
    """
    if not (type(lo) is type(hi) is int and 1 <= lo <= hi <= d.num_levels):
        raise DiagramError(
            f"segment levels {lo}..{hi} out of range 1..{d.num_levels}")
    segs = [(r, r, ()) for r in range(d.vertex_counts[hi])]
    for n in range(hi, lo - 1, -1):
        level, into = d.edges[n - 1], d.in_edge_table[n - 1]
        # Each partial path is popped as it is extended, so the level
        # above is freed while this one is built: a deep block never
        # holds two levels of long paths at once.
        segs.append(None)
        segs.reverse()
        segs = [(level[e][0], r, (e,) + path)
                for v, r, path in iter(segs.pop, None) for e in into[v]]
    return segs


# Largest diagram, in edges, that telescope() or a generator builds.  Each
# telescoped edge keeps its segment as a tuple of original edges, so
# telescope() also caps the edge indices those tuples hold at
# MAX_TELESCOPE_INDICES.  At the cap, on a 2-vCPU Intel Xeon host with
# Python 3.11.7, telescoping the 17-level 2-odometer into one level
# (2,228,224 indices) takes about 0.2 s and 42 MB of peak RSS growth, and
# `bratteli telescope`, which also writes every edge as indented JSON
# (7,340,253 bytes through write_json), about 0.45 s and 74 MB peak, where
# json's own encoder took 0.9-1.0 s.  4,096 edges of 1,024-level
# segments, 2^22 indices, take about 0.1 s and 31 MB.
MAX_TELESCOPE_EDGES = 2 ** 17
MAX_TELESCOPE_INDICES = 2 ** 22


def _telescope_too_big(d: OrderedBratteliDiagram,
                       blocks: list) -> Optional[str]:
    """The cap d telescoped into blocks (lo, hi, key) exceeds, or None:
    MAX_TELESCOPE_EDGES edges, else MAX_TELESCOPE_INDICES edge indices in
    all its edges' segments.  Edges are counted from path counts, once per
    distinct key: per block, the paths from any vertex at its bottom level
    to any at its top level, each holding one index per level of the
    block.  Counts are clamped one past the edge cap, so deep diagrams
    never grow big integers."""
    over = MAX_TELESCOPE_EDGES + 1
    total = indices = 0
    counted = {}
    for lo, hi, key in blocks:
        count = counted.get(key)
        if count is None:
            counts = [1] * d.vertex_counts[lo]
            for level, size in zip(d.edges[lo:hi], d.vertex_counts[lo + 1:]):
                row = [0] * size
                for s, r in level:
                    row[r] += counts[s]
                counts = [min(c, over) for c in row]
            count = counted[key] = sum(counts)
        total += count
        if total >= over:
            return f"MAX_TELESCOPE_EDGES = {MAX_TELESCOPE_EDGES} edges"
        indices += count * (hi - lo)
    if indices > MAX_TELESCOPE_INDICES:
        return f"MAX_TELESCOPE_INDICES = {MAX_TELESCOPE_INDICES} edge indices"
    return None


def telescope(d: OrderedBratteliDiagram, cuts: Sequence[int]):
    """Collapse levels at the given cut points.

    cuts must be ints, strictly increasing, start at >= 1 and end at
    num_levels.
    Returns (telescoped diagram, TelescopeMap).  New edges into a vertex are
    ordered by the deepest-edge-first comparison of their constituent paths,
    which makes the successor map commute with the path bijection.  A
    telescoping of more than MAX_TELESCOPE_EDGES edges, or whose segments
    hold more than MAX_TELESCOPE_INDICES edge indices, is refused with
    DiagramError before any segment is listed.

    Each distinct block of levels between cuts is counted, listed and
    collapsed once (_block_key): blocks whose levels are equal one by one,
    as all but the first of a stationary diagram cut at even steps are,
    share one edge level of the result and one tuple of orig_paths.
    The segments are listed by range vertex, so each new level is
    canonical as listed, and the record is built without make_diagram; a
    diagram that fails the axioms may telescope to more pathless vertices
    than make_diagram's vertex cap admits, and is returned all the same.
    """
    cuts = _sequence(cuts, "cut points")
    _check_ints(cuts, "cut points")
    if not cuts or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise DiagramError("cut points must be strictly increasing")
    if cuts[0] < 1 or cuts[-1] != d.num_levels:
        raise DiagramError(
            f"cut points must lie in 1..{d.num_levels} and end at "
            f"{d.num_levels}")
    blocks = [(lo, hi, _block_key(d, lo, hi))
              for lo, hi in zip((0,) + cuts, cuts)]
    too_big = _telescope_too_big(d, blocks)
    if too_big:
        raise DiagramError(
            f"telescoping at cuts {','.join(map(str, cuts))} gives more "
            f"than {too_big}")
    built = {}
    for lo, hi, key in blocks:
        if key not in built:
            segs = telescope_segments(d, lo + 1, hi)
            built[key] = (tuple([(s, r) for s, r, _ in segs]),
                          tuple([path for _, _, path in segs]))
    new_edges, paths = zip(*[built[key] for _, _, key in blocks])
    vcs, labels = d.vertex_counts, d.group_labels
    td = OrderedBratteliDiagram(
        len(cuts), (1,) + tuple([vcs[c] for c in cuts]), new_edges,
        None if labels is None else tuple([labels[c - 1] for c in cuts]))
    return td, TelescopeMap((0,) + cuts, paths)


@_record
class PropertyFailure:
    prop: str      # "b", "c" or "d"
    kind: str      # "min" or "max"
    level: int
    vertex: int
    m: Optional[int] = None

    def __str__(self):
        extra = f", m={self.m}" if self.m is not None else ""
        return (f"property ({self.prop}) fails for {self.kind} vertex "
                f"{self.vertex} at level {self.level}{extra}")


# Largest m for which check_fem_properties tests property (d).
FEM_M_MAX = 4


def check_fem_properties(d: OrderedBratteliDiagram) -> list:
    """Structural checks satisfied by diagrams arising from tower sequences.

    For every extremal vertex v (source of a minimal, resp. maximal, edge):
      (b) some minimal (maximal) edge leaving v ends at an extremal vertex
          of the same kind;
      (c) every minimal (maximal) edge whose range lies in R(v) starts at v;
      (d) R^m(v) == (R^m . S^m . R^m)(v) for m up to FEM_M_MAX.
    Returns a list of PropertyFailure records, empty when all hold.
    """
    check_valid(d)
    top = d.num_levels
    failures = []
    for kind, extremal_edges in (("min", min_edges), ("max", max_edges)):
        # Each level-(n+1) vertex has one extremal in-edge; heads[n][r] is
        # its source, so the level-n extremal vertices are heads[n]'s.
        heads = [[level[e][0] for e in extremal_edges(d, n + 1)]
                 for n, level in enumerate(d.edges)]
        ext = [sorted(set(h)) for h in heads]
        for n in range(top):
            # (b): needs an extremal vertex at level n+1, so n+1 < N.
            fed = {heads[n][r] for r in ext[n + 1]} if n + 1 < top else None
            for v in ext[n]:
                if fed is not None and v not in fed:
                    failures.append(PropertyFailure("b", kind, n, v))
                rm = _iterate_r(d, n, {v}, 1)       # R(v)
                if any(heads[n][r] != v for r in rm):
                    failures.append(PropertyFailure("c", kind, n, v))
                for m in range(1, min(FEM_M_MAX, top - n) + 1):
                    if m > 1:
                        rm = _iterate_r(d, n + m - 1, rm, 1)    # R^m(v)
                    sm = _iterate_s(d, n + m, rm, m)
                    if rm != _iterate_r(d, n, sm, m):
                        failures.append(PropertyFailure("d", kind, n, v, m))
    return failures


# ---------------------------------------------------------------------------
# JSON interchange and DOT export

_DIAGRAM_KEYS = {"num_levels", "vertex_counts", "group_labels", "edges"}


def diagram_to_json(d: OrderedBratteliDiagram) -> dict:
    return {
        "num_levels": d.num_levels,
        "vertex_counts": list(d.vertex_counts),
        "group_labels": (None if d.group_labels is None
                         else [list(l) for l in d.group_labels]),
        "edges": [[{"s": s, "r": r} for s, r in level] for level in d.edges],
    }


def diagram_from_json(obj: dict) -> OrderedBratteliDiagram:
    if not isinstance(obj, dict):
        raise MalformedDiagram("diagram JSON must be an object")
    unknown = set(obj) - _DIAGRAM_KEYS
    if unknown:
        raise MalformedDiagram(f"unknown keys: {sorted(unknown)}")
    missing = _DIAGRAM_KEYS - {"group_labels"} - set(obj)
    if missing:
        raise MalformedDiagram(f"missing keys: {sorted(missing)}")
    labels = obj.get("group_labels")
    if type(obj["num_levels"]) is not int:
        raise MalformedDiagram("num_levels must be an integer")
    if not is_int_list(obj["vertex_counts"]):
        raise MalformedDiagram("vertex_counts must be a list of integers")
    if labels is not None and not (type(labels) is list
                                   and all(map(is_int_list, labels))):
        raise MalformedDiagram(
            "group_labels must be null or a list of integer lists")
    edges = _edge_levels(obj["edges"])
    if edges is None:
        raise MalformedDiagram(
            'edges must be a list of levels of {"s": int, "r": int} records')
    return make_diagram(obj["num_levels"], obj["vertex_counts"], edges,
                        labels)


# Exact type tests: JSON gives plain lists, dicts and ints, and they keep
# out bools, which are ints to isinstance.

def is_int_list(x) -> bool:
    return type(x) is list and set(map(type, x)) <= {int}


_S_AND_R = itemgetter("s", "r")


def _edge_levels(levels) -> Optional[list]:
    """JSON edge levels as tuples of (s, r) pairs, equal levels sharing one
    tuple, or None unless levels is a list of lists of dicts with exactly
    the keys s and r and int values.  The records of all levels are
    tested together, each test one C-level pass over them all; a dict of
    length 2 in which s and r both look up has no other key."""
    if not (type(levels) is list and set(map(type, levels)) <= {list}):
        return None
    records = list(chain.from_iterable(levels))
    if not (set(map(type, records)) <= {dict}
            and set(map(len, records)) <= {2}):
        return None
    try:
        pairs = list(map(_S_AND_R, records))
    except KeyError:
        return None
    if not set(map(type, chain.from_iterable(pairs))) <= {int}:
        return None
    pairs, shared = iter(pairs), {}
    return [shared.setdefault(level, level)
            for level in map(tuple, map(islice, repeat(pairs),
                                        map(len, levels)))]


def load_json(path: str):
    """Read one JSON file; nesting too deep to decode is malformed input."""
    with open(path) as f:
        try:
            return json.load(f)
        except RecursionError:
            raise MalformedDiagram(
                f"{path}: JSON nested too deeply to decode") from None


def load_diagram(path: str) -> OrderedBratteliDiagram:
    return diagram_from_json(load_json(path))


def save_diagram(d: OrderedBratteliDiagram, path: str) -> None:
    with open(path, "w") as f:
        write_json(diagram_to_json(d), f.write)


# write_json goes out in writes of at least this many characters but the
# last: under unbuffered stdout each write is one write(2).
WRITE_CHUNK = 1 << 16

_STR = json.encoder.encode_basestring_ascii

# The text of a value by its exact type, None for containers.  A float is
# rare in output, and json.dumps writes NaN and the infinities as json does.
_SCALAR_TEXT = {str: _STR, int: int.__repr__, float: json.dumps,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}.get


def _key_text(key) -> str:
    """A dict key as json converts it, before quoting."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{key.__class__.__name__}")


def write_json(obj, write, sort_keys: bool = False) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=sort_keys) and a newline
    through write, in calls of at least WRITE_CHUNK characters but the
    last.

    The text is json's, and so is the TypeError for a value or key json
    cannot write; a circular reference is a RecursionError here.  Pieces
    go to one buffer, without json's generator per container; it is
    joined once it holds 1,024 pieces or a chunk's worth of long ones, and
    written once the join is a chunk long.  A list is written in slices of
    1,024 elements, each one str.join when its elements are regular (see
    texts below), as payload lists, matrices and diagram edges are.
    """
    buf, forms, held = [], {}, 0
    put = buf.append

    def spill(long=""):
        # Put long, a piece that may be long, and join as above.
        nonlocal held
        put(long)
        held += len(long)
        if held >= WRITE_CHUNK or len(buf) > 1024:
            text = "".join(buf)
            buf.clear()
            if len(text) < WRITE_CHUNK:
                put(text)
                held = len(text)
            else:
                write(text)
                held = 0

    def value(head, o, nl):
        """Put head and o's text at the indent of newline nl."""
        text = _SCALAR_TEXT(type(o))
        if text is not None:
            put(head + text(o))
        elif isinstance(o, (list, tuple)) and o:
            inner = nl + "  "
            sep, head = "," + inner, head + "[" + inner
            for i in range(0, len(o), 1024):
                part = o[i:i + 1024]
                parts = texts(part, inner)
                if parts is not None:
                    spill(head + sep.join(parts))
                    head = sep
                    continue
                for v in part:
                    value(head, v, inner)
                    head = sep
                    if len(buf) > 1024:
                        spill()
            put(nl + "]")
        elif isinstance(o, dict) and o:
            inner = nl + "  "
            head, sep = head + "{" + inner, "," + inner
            for k, v in sorted(o.items()) if sort_keys else o.items():
                key = _STR(k if type(k) is str else _key_text(k))
                value(head + key + ": ", v, inner)
                head = sep
                if len(buf) > 1024:
                    spill()
            put(nl + "}")
        elif isinstance(o, (list, tuple, dict)):
            put(head + ("{}" if isinstance(o, dict) else "[]"))
        elif isinstance(o, (str, int, float)):
            put(head + json.dumps(o))
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not "
                            "JSON serializable")

    def texts(items, nl):
        """An iterator over the texts of items at the indent of newline nl
        if they are regular, else None.  Items are regular when they are
        all of one scalar type; or all nonempty lists whose elements, 1,024
        at most in all, are regular; or all dicts with one sequence of str
        keys, the values under each key regular.  Each test is a C-level
        pass over all the items, and only the formats of dicts and of
        lists are applied item by item."""
        kinds = set(map(type, items))
        kind = kinds.pop() if len(kinds) == 1 else None
        text = _SCALAR_TEXT(kind)
        if text is not None:
            return map(text, items)
        inner = nl + "  "
        if kind is list and all(items):
            flat = list(chain.from_iterable(items))
            parts = texts(flat, inner) if len(flat) <= 1024 else None
            if parts is None:
                return None
            rows = map(("," + inner).join,
                       map(islice, repeat(parts), map(len, items)))
            return map(("[" + inner + "{}" + nl + "]").format, rows)
        keys = tuple(items[0]) if kind is dict else ()
        if not (keys and set(map(type, keys)) == {str}
                and len(set(map(tuple, items))) == 1):
            return None
        form = forms.get((keys, nl))
        if form is None:
            form = forms[keys, nl] = _record_form(keys, nl, sort_keys)
        columns = [texts(list(map(get, items)), inner) for get in form[0]]
        return None if None in columns else map(form[1], *columns)

    value("", obj, "\n")
    put("\n")
    write("".join(buf))


def _record_form(keys: tuple, nl: str, sort_keys: bool) -> tuple:
    """For write_json, the value getters, in key order, and the format of
    dicts with str keys at the indent of newline nl."""
    order = sorted(keys) if sort_keys else keys
    field = "," + nl + "  "
    record = ("{{" + field[1:] + field.join(
        _STR(k).replace("{", "{{").replace("}", "}}") + ": {}"
        for k in order) + nl + "}}")
    return list(map(itemgetter, order)), record.format


def diagram_to_dot(d: OrderedBratteliDiagram) -> str:
    """Plain graphviz text for the leveled multigraph."""
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for n in range(d.num_levels + 1):
        for v in range(d.vertex_counts[n]):
            label = f"{n},{v}"
            t = d.label_of(n, v)
            if t is not None:
                label += f" (t={t})"
            lines.append(f'  "v{n}_{v}" [label="{label}"];')
    for n in range(1, d.num_levels + 1):
        for i, (s, r) in enumerate(d.level_edges(n)):
            pos = edge_order_index(d, n, i)
            lines.append(f'  "v{n - 1}_{s}" -> "v{n}_{r}" [label="{pos}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
