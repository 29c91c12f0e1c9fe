"""K-theoretic invariants: the ordered limit group presented by incidence
matrices, the circle-count invariant from stabilized minimal paths, and an
exact Smith-normal-form oracle for finite permutation systems.

All arithmetic is over Python integers, so nothing overflows.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress
from math import prod
from typing import Dict, List, Optional

from .diagram import (DiagramError, MalformedDiagram, OrderedBratteliDiagram,
                      _check_ints, _period, _record, _sequence, check_valid,
                      incidence_matrix, is_int_list, mat_vec)
from .paths import extremal_paths


# ---------------------------------------------------------------------------
# Exact integer linear algebra


@_record
class SNFResult:
    diagonal: List[int]          # elementary divisors d1 | d2 | ..., then 0s
    left: List[Dict[int, int]]   # U with U A V = diag, as rows of
    #                              {column: nonzero}
    right: List[Dict[int, int]]  # V, as rows of {column: nonzero}

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _add_to(dst, src, c):
    """dst += c * src for sparse {index: nonzero} dicts; no zero is kept."""
    for k, y in src.items():
        z = dst.get(k, 0) + c * y
        if z:
            dst[k] = z
        else:
            del dst[k]


def _sparse_rows(a):
    """Rows of a dense matrix as {column: nonzero} dicts."""
    return [{j: row[j] for j in compress(range(len(row)), row)} for row in a]


def _matrix_rows(a):
    """(rows, n): the matrix a as {column: nonzero} rows, and its column
    count.  a is m rows of n ints, or, for an n x n matrix, n rows of
    {column: nonzero int} dicts, taken as they are.  Ragged rows, an entry
    that is not exactly an int, and dict rows with a zero, a non-int or a
    column outside 0..n-1 are DiagramError, and so is an a that is not a
    list or tuple of rows, each a list, tuple or dict."""
    kinds = set(map(type, a)) if type(a) in (list, tuple) else {None}
    if kinds - {list, tuple, dict}:
        raise DiagramError("a matrix must be a list or tuple of rows")
    if dict in kinds:
        if not _is_sparse_square(a, len(a)):
            raise DiagramError(
                "sparse rows must map columns 0..n-1 to nonzero ints")
        return a, len(a)
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise DiagramError("matrix dimension mismatch")
    _check_ints(chain.from_iterable(a), "matrix entries")
    return _sparse_rows(a), n


def smith_normal_form(a) -> SNFResult:
    """U A V = diag(d1,...,dr,0,...) with di | d(i+1) and U, V unimodular.

    A is m rows of n ints, or a square matrix as rows of {column: nonzero
    int} dicts; see _snf_rows.
    """
    return _snf_rows(*_matrix_rows(a))


def _snf_rows(rows, n: int) -> SNFResult:
    """SNF of the m x n matrix given by m rows of {column: nonzero int}.

    The rows are copied before elimination, so they are left as given.
    U and V are kept and returned as such rows (V is held by columns while
    its columns are combined), so every row operation, column operation
    and swap costs O(nonzeros), and sparse inputs such as I - P^T cost far
    less than n^3.  A column index (for each column, a superset of the
    rows holding it; rows are checked on read) finds the rows below the
    pivot that hold column t and the rows a column swap touches without
    rescanning the rows below t.  Once step t is done, row t and column t
    are zero off the diagonal, so the rows >= t hold every entry still to
    be eliminated.

    Elimination pivots on the first minimum-absolute-value nonzero entry
    of the rows >= t in row-major order, which keeps intermediate entries
    small.  Columns left of t are zero in those rows, so when row t holds
    +-1 at column t that entry is the pivot and no row is searched.
    Multipliers are floor quotients; a remainder left in the pivot row or
    column redoes the step, and a later entry that the pivot does not
    divide has its row folded into the pivot row first.  A pivot of 1
    leaves no remainder and divides every later entry, so its step clears
    column t below it, then row t by column operations kept only in V (the
    rows below no longer hold column t), and is done.
    """
    m = len(rows)
    d = list(map(dict, rows))
    holders = [set() for _ in range(n)]   # column -> rows that may hold it
    for i, row in enumerate(d):
        for j in row:
            holders[j].add(i)
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]    # columns of V

    size = min(m, n)
    t = 0
    while t < size:
        # Pivot: least (|x|, i, j) over the rows >= t; a 1 cannot be beaten.
        x = d[t].get(t)
        if x == 1 or x == -1:
            pi = pj = t
        else:
            best = None
            for i in range(t, m):
                row = d[i]
                if row:
                    low = min(map(abs, row.values()))
                    if best is None or low < best[0]:
                        best = (low, i, min(j for j, x in row.items()
                                            if x == low or x == -low))
                        if low == 1:
                            break
            if best is None:
                break
            _, pi, pj = best
        if pi != t:
            for j in d[pi]:
                holders[j].add(t)
            for j in d[t]:
                holders[j].add(pi)
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            # Rows above t hold neither column; the two index entries are
            # rebuilt exactly from the rows the swap touches.
            now_t, now_pj = set(), set()
            for i in holders[t] | holders[pj]:
                row = d[i]
                x = row.pop(t, 0)
                y = row.pop(pj, 0)
                if y:
                    row[t] = y
                    now_t.add(i)
                if x:
                    row[pj] = x
                    now_pj.add(i)
            holders[t], holders[pj] = now_t, now_pj
            v[t], v[pj] = v[pj], v[t]
        if d[t][t] < 0:
            d[t] = {j: -x for j, x in d[t].items()}
            u[t] = {j: -x for j, x in u[t].items()}
        row_t = d[t]
        p = row_t[t]
        # Clear column t below the pivot, then row t right of it; each
        # multiplier is the floor quotient, so the remainders stay behind.
        below = [i for i in holders[t] if i > t and t in d[i]]
        for i in below:
            c = d[i][t] // p
            if c:
                _add_to(d[i], row_t, -c)
                _add_to(u[i], u[t], -c)
                for j in row_t:
                    holders[j].add(i)
        if p == 1:
            # No remainder is left, and 1 divides every later entry.
            for j, x in row_t.items():
                if j != t:
                    _add_to(v[j], v[t], -x)
            d[t] = {t: 1}
        else:
            if len(row_t) > 1:
                # Column j -= (x // p) * column t leaves x % p in row t.
                right = {j: -(x // p) for j, x in row_t.items() if j != t}
                for i in below:
                    x = d[i].get(t)
                    if x:
                        _add_to(d[i], right, x)
                        for j in right:
                            holders[j].add(i)
                for j, c in right.items():
                    _add_to(v[j], v[t], c)
                d[t] = row_t = {j: x % p for j, x in row_t.items() if x % p}
                row_t[t] = p
            if len(row_t) > 1 or any(t in d[i] for i in below):
                continue  # remainders were introduced; redo this pivot
            # Fold in a later row holding an entry the pivot does not divide.
            offender = next((i for i in range(t + 1, m)
                             if any(x % p for x in d[i].values())), None)
            if offender is not None:
                _add_to(row_t, d[offender], 1)
                _add_to(u[t], u[offender], 1)
                for j in d[offender]:
                    holders[j].add(t)
                continue
        holders[t] = None     # column t is done and never read again
        t += 1
    diag = [d[i].get(i, 0) for i in range(size)]
    return SNFResult(diag, u, _transpose(v, n))


def _det(a):
    """Exact integer determinant of a dense square matrix; see _sparse_det."""
    return _sparse_det(_sparse_rows(a))


def _sparse_det(rows):
    """Exact integer determinant of sparse rows (fraction-free Bareiss).

    When each row i starts at column i the matrix is upper triangular,
    and the determinant is the product of the diagonal, with no
    elimination.  Otherwise rows are filed by their first column.  Step
    k takes the shortest row filed under k as the pivot row and replaces
    each other one, r, by a new row (r * pk - r[k] * pivot_row) / prev,
    an exact division, filed again under its first column.  A row
    without column k would only be scaled by pk / prev; the scalings
    telescope, so such a row is left as it is, with the prev at its last
    update, and scaled by prev / that prev when next used.  The last
    pivot, times the sign of the order in which rows were taken, is the
    determinant; that of the 0 x 0 matrix is 1.  The given rows are not
    changed.
    """
    n = len(rows)
    if not all(rows):
        return 0
    firsts = list(map(min, rows))
    if firsts == list(range(n)):
        return prod(map(dict.__getitem__, rows, range(n)))
    rows = list(rows)
    filed = [[] for _ in range(n)]
    for i, first in enumerate(firsts):
        filed[first].append(i)
    since = [1] * n       # the prev at which each stored row is exact
    prev = 1
    order = []
    for k in range(n):
        if not filed[k]:
            return 0
        here = filed[k]
        p = min(here, key=lambda i: len(rows[i]))
        order.append(p)
        pivot_row = rows[p]
        if since[p] != prev:
            pivot_row = {j: x * prev // since[p] for j, x in pivot_row.items()}
        pk = pivot_row[k]
        for i in here:
            if i == p:
                continue
            row = rows[i]
            if since[i] != prev:
                row = {j: x * prev // since[i] for j, x in row.items()}
            c = row[k]
            acc = {j: x * pk for j, x in row.items()}
            for j, y in pivot_row.items():
                acc[j] = acc.get(j, 0) - c * y
            row = rows[i] = {j: z // prev for j, z in acc.items() if z}
            since[i] = pk
            if not row:
                return 0
            filed[min(row)].append(i)
        prev = pk
    sign = 1              # of the permutation k -> order[k]
    seen = [False] * n
    for i in range(n):
        if not seen[i]:   # a cycle of length L flips the sign L - 1 times
            sign = -sign
            while not seen[i]:
                seen[i] = True
                i = order[i]
                sign = -sign
    return sign * prev


def _transpose(rows, n):
    """The columns of a matrix with n columns given by sparse rows, as
    sparse rows."""
    cols = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def _is_sparse_square(rows, size):
    """Whether rows are `size` rows of {column: nonzero int} dicts whose
    columns are ints in range(size); type checks run at C speed.  Every
    key's type is checked, not the key set's: {1, True} has one element."""
    if len(rows) != size or set(map(type, rows)) - {dict}:
        return False
    keys = list(chain.from_iterable(rows))
    values = list(chain.from_iterable(map(dict.values, rows)))
    if set(map(type, keys + values)) - {int}:
        return False
    return (not keys or min(keys) >= 0 and max(keys) < size) and all(values)


def verify_snf(a, res: SNFResult) -> bool:
    """Check an SNF result of A exactly.  A takes either form that
    smith_normal_form takes and is checked the same way; see _verify_rows."""
    return _verify_rows(*_matrix_rows(a), res)


def _verify_rows(rows, n: int, res: SNFResult) -> bool:
    """Check an SNF result of the m x n matrix given by m rows of
    {column: nonzero int}: the diagonal is min(m, n) ints >= 0, exactly
    ints (not bools or floats), with d1 | d2 | ... and the zeros last;
    U A V = diag; and |det U| = |det V| = 1 for square U (m x m) and V
    (n x n) given as rows of {column: nonzero int} dicts.

    U A V is built one row at a time, row i of U times A and then times V,
    and compared with the diagonal at once, so no product matrix is held
    and the check costs O(nonzeros) instead of O(n^3).  The determinants
    are taken on V's rows and U's columns: SNF adds pivot rows to later
    rows and pivot columns to later columns, so both are near triangular
    with their entries right of the diagonal; with no swap, as in the
    oracle's order, both are upper triangular and _sparse_det multiplies
    out the diagonal.
    """
    m = len(rows)
    diag = res.diagonal
    u, v = res.left, res.right
    if len(diag) != min(m, n) or set(map(type, diag)) - {int} or \
            min(diag, default=0) < 0 or not _is_sparse_square(u, m) or \
            not _is_sparse_square(v, n):
        return False
    for d1, d2 in zip(diag, diag[1:]):
        if d1 == 0 and d2 != 0:
            return False
        if d1 != 0 and d2 % d1 != 0:
            return False
    for i, u_row in enumerate(u):
        ua = {}
        for k, c in u_row.items():
            for j, x in rows[k].items():
                ua[j] = ua.get(j, 0) + c * x
        uav = {}
        for j, y in ua.items():
            if y:
                for k, x in v[j].items():
                    uav[k] = uav.get(k, 0) + y * x
        if uav.pop(i, 0) != (diag[i] if i < len(diag) else 0) or \
                any(uav.values()):
            return False
    return abs(_sparse_det(_transpose(u, m))) == 1 and \
        abs(_sparse_det(v)) == 1


# ---------------------------------------------------------------------------
# Dimension-group presentation


@_record
class DimensionGroupPresentation:
    """Sequence of free groups Z^sizes[i] joined by edge-count matrices.

    maps[i] sends level i+1 to level i+2 (1-based levels; level 1 is the
    first entry of sizes).  unit is the tower-height vector at level 1; an
    element is positive when some push-forward is entrywise non-negative.
    """

    sizes: tuple
    maps: tuple                  # tuple of matrices (tuples of tuples)
    unit: tuple

    @property
    def num_levels(self):
        return len(self.sizes)

    @cached_property
    def period(self) -> Optional[tuple]:
        """The incidence period: _period of the maps, map 0 at level 2; it
        can be shorter than the diagram's ordered period."""
        found = _period(self.maps)
        return found and (found[0] + 2, found[1])

    @cached_property
    def stationary_map(self):
        """The one square matrix all maps equal, a lone map too, or None."""
        maps = self.maps
        if (len(maps) == 1 or self.period == (2, 1)) and \
                len(maps[0]) == len(maps[0][0]):
            return maps[0]
        return None

    def push(self, level: int, vector, to_level: int):
        """Push a level-`level` vector forward to `to_level`; both levels
        and every entry must be ints (not bools or floats), so the
        verdicts that push first stay exact."""
        if not (type(level) is type(to_level) is int
                and 1 <= level <= to_level <= self.num_levels):
            raise DiagramError(
                f"cannot push level {level} to {to_level}")
        v = list(_sequence(vector, "vector entries"))
        if len(v) != self.sizes[level - 1]:
            raise DiagramError("vector length does not match level size")
        _check_ints(v, "vector entries")
        for _, v in _pushes(self.maps, level, v, to_level):
            pass
        return v


@_record
class DimGroupElement:
    level: int
    vector: tuple


# Most incidence-matrix entries, summed over levels 2..N, that
# k0_presentation builds.  Its maps are dense, so a wide level costs rows x
# columns however few edges it has.
MAX_K0_ENTRIES = 2 ** 22


def k0_presentation(d: OrderedBratteliDiagram,
                    heights=None) -> DimensionGroupPresentation:
    """Present the ordered K0 group of the diagram's transformation.

    maps are the incidence matrices from level 2 on; the unit is the given
    level-1 height vector (tower sizes, default: root edge counts).  A
    diagram whose maps would hold more than MAX_K0_ENTRIES entries is
    refused with DiagramError before any matrix is built.
    """
    check_valid(d)
    vcs = d.vertex_counts
    entries = sum(a * b for a, b in zip(vcs[1:], vcs[2:]))
    if entries > MAX_K0_ENTRIES:
        raise DiagramError(
            f"the K0 maps would hold {entries} entries, more than "
            f"MAX_K0_ENTRIES = {MAX_K0_ENTRIES}")
    if heights is None:
        heights = natural_heights(d)
    hs = _sequence(heights, "heights")
    _check_ints(hs, "heights")
    if len(hs) != d.vertex_counts[1]:
        raise DiagramError(
            f"heights must have {d.vertex_counts[1]} entries, got {len(hs)}")
    if any(h < 1 for h in hs):
        raise DiagramError("heights must be strictly positive")
    maps = []
    for n in range(2, d.num_levels + 1):
        m = incidence_matrix(d, n)
        for i, row in enumerate(m):    # in place: each map is held once
            m[i] = tuple(row)
        maps.append(tuple(m))
    maps = tuple(maps)
    return DimensionGroupPresentation(tuple(d.vertex_counts[1:]), maps, hs)


def natural_heights(d: OrderedBratteliDiagram):
    """Level-1 heights induced by the root edges (each root edge one floor):
    the number of root edges into each level-1 vertex."""
    return [len(row) for row in d.in_edge_table[0]]


def _pushes(maps, level: int, v, top: int):
    """Yield (level, v), then (n, push-forward of v to level n) for each n
    up to top; maps[i] sends level i + 1 to level i + 2."""
    yield level, v
    for i in range(level - 1, top - 1):
        v = mat_vec(maps[i], v)
        yield i + 2, v


def _injective(matrix) -> bool:
    return smith_normal_form(matrix).rank == len(matrix[0])


# Push-forwards that element_equal and element_positive try before they
# answer 'unknown'.
DEPTH_BUDGET = 16


def element_equal(g1: DimGroupElement, g2: DimGroupElement,
                  pres: DimensionGroupPresentation) -> str:
    """Budgeted equality in the limit: 'equal', 'not_equal' or 'unknown'.

    Pushes the difference forward at most DEPTH_BUDGET levels, within the
    presentation; a nonzero difference plus injectivity of every remaining
    map certifies inequality.
    """
    hi = max(g1.level, g2.level)
    top = min(pres.num_levels, hi + DEPTH_BUDGET)
    v1 = pres.push(g1.level, g1.vector, hi)
    v2 = pres.push(g2.level, g2.vector, hi)
    diff = [a - b for a, b in zip(v1, v2)]
    for _, v in _pushes(pres.maps, hi, diff, top):
        if not any(v):
            return "equal"
    # Maps are tuples, so a stationary presentation's repeats test once.
    if all(map(_injective, set(pres.maps[hi - 1:pres.num_levels - 1]))):
        return "not_equal"
    return "unknown"


def _keeps_nonpositive(matrix) -> bool:
    # Every column is >= 0 and nonzero, so the map sends each nonzero
    # vector <= 0 to a nonzero vector <= 0.
    return all(min(col) >= 0 and any(col) for col in zip(*matrix))


def element_positive(g: DimGroupElement,
                     pres: DimensionGroupPresentation) -> str:
    """'positive', 'not_positive' or 'unknown', from at most DEPTH_BUDGET
    push-forwards of g, all in exact integers.

    'positive': a push-forward inside the presentation is entrywise >= 0.
    'not_positive': a push-forward is entrywise <= 0 and nonzero, and every
    later map has only nonzero columns with entries >= 0, so every further
    push-forward stays <= 0 and nonzero and none is ever >= 0.  When
    pres.stationary_map is not None, the pushes may go past the last level
    with that matrix, the continuation the diagram stands for; there only
    this certificate counts, and reaching a vector >= 0 (such as 0) gives
    'unknown'.  Anything else, an infinitesimal for one, is 'unknown'.
    """
    v = pres.push(g.level, g.vector, g.level)
    top = g.level + DEPTH_BUDGET
    maps = pres.maps
    if pres.stationary_map is not None:
        maps += (pres.stationary_map,) * max(0, top - pres.num_levels)
    certified_from = None     # first level from which every map keeps <= 0
    for level, v in _pushes(maps, g.level, v, min(top, len(maps) + 1)):
        if all(x >= 0 for x in v):
            return "positive" if level <= pres.num_levels else "unknown"
        if all(x <= 0 for x in v):
            if certified_from is None:
                certified_from = next(
                    (i + 2 for i in reversed(range(len(maps)))
                     if not _keeps_nonpositive(maps[i])), 1)
            if level >= certified_from:
                return "not_positive"
    return "unknown"


def k1_rank(d: OrderedBratteliDiagram, depth: Optional[int] = None) -> dict:
    """Rank of the circle-valued invariant: stabilized minimal path count.

    The result is certified only when the minimal path count has stabilized
    by the requested depth.
    """
    if depth is None:
        depth = d.num_levels
    depth = min(depth, d.num_levels)
    mins = extremal_paths(d, depth, "min")
    return {"rank": len(mins.paths), "certified": mins.stabilized}


# ---------------------------------------------------------------------------
# Finite permutation systems and the exact-sequence oracle

# Largest system the oracle accepts.  I - P^T is built as sparse rows of
# 2 n entries at most, and no n x n matrix is ever built.  The SNF holds
# A, U and V as sparse rows and reaches the rows a pivot step works on
# through a column index, so a step costs O(nonzeros), and in the
# oracle's point order U and V hold O(n log n) entries.  On a 2-vCPU host
# with Python 3.11 a single cycle of 512 points takes about 0.006 s, 0.3 MB
# of peak RSS growth and 0.8 MB traced by tracemalloc, and one of 1024
# points about 0.013 s and 1.2 MB of peak RSS growth.
MAX_ORACLE_POINTS = 512


@_record
class FinitePermutationSystem:
    n_points: int
    permutation: tuple
    fiber_of: tuple


def make_permutation_system(perm, fiber) -> FinitePermutationSystem:
    perm = _sequence(perm, "perm entries")
    fiber = _sequence(fiber, "fiber entries")
    _check_ints(perm, "perm entries")
    _check_ints(fiber, "fiber entries")
    n = len(perm)
    if n == 0:
        raise DiagramError("permutation system needs at least one point")
    if sorted(perm) != list(range(n)):
        raise DiagramError("permutation must be a bijection on 0..n-1")
    if len(fiber) != n:
        raise DiagramError("fiber_of must assign a label to every point")
    for i in range(n):
        if fiber[perm[i]] != fiber[i]:
            raise DiagramError(
                f"fiber label changes along the permutation at point {i}")
    # Each fiber must be a single cycle.  Labels are constant along cycles,
    # so a cycle is its whole fiber exactly when the two sizes agree.
    sizes = Counter(fiber)
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        cycle = {i}
        j = perm[i]
        while j != i:
            cycle.add(j)
            j = perm[j]
        seen |= cycle
        if len(cycle) != sizes[fiber[i]]:
            raise DiagramError(
                f"fiber {fiber[i]} is not a single cycle")
    return FinitePermutationSystem(n, perm, fiber)


def k_oracle_finite_system(s: FinitePermutationSystem) -> dict:
    """K-groups of the finite system via the six-term exact sequence:
    cokernel and kernel of (I - P^T) on Z^n, computed with exact SNF and
    checked with verify_snf.

    I - P^T goes to both as sparse rows, {i: 1, j: -1} for a point moved
    from i to j and an empty row for a fixed point, so no n x n matrix is
    built.  Rows and columns are numbered so that elimination halves each
    cycle (nested dissection), which keeps U and V at O(n log n) entries;
    the diagonal, and so the answer, is that of the matrix in point order.

    unit_image is the sorted list of fiber totals of the all-ones vector,
    i.e. its evaluation against the canonical cycle-sum functionals that
    span the kernel of (I - P).
    """
    n = s.n_points
    if n > MAX_ORACLE_POINTS:
        raise DiagramError(f"oracle systems are capped at {MAX_ORACLE_POINTS} "
                           f"points, got {n}")
    perm = s.permutation
    # The k-th point along a cycle from its least point is keyed (trailing
    # zeros of k, cycle start, k), k = 0 last: the pivot rule eliminates
    # every other point of each cycle first, then recurses on the
    # half-length cycle.  Rows and columns are permuted alike.
    key = [None] * n
    for start in range(n):
        x, k = start, 0
        while key[x] is None:
            key[x] = ((k & -k).bit_length() - 1 if k else n, start, k)
            x, k = perm[x], k + 1
    pos = [0] * n
    for i, x in enumerate(sorted(range(n), key=key.__getitem__)):
        pos[x] = i
    # I - P^T as sparse rows, where P e_i = e_{perm(i)}: the row of a moved
    # point x is e_x - e_perm(x), and that of a fixed point is empty.
    rows = [None] * n
    for x, y in enumerate(perm):
        i, j = pos[x], pos[y]
        rows[i] = {i: 1, j: -1} if i != j else {}
    res = smith_normal_form(rows)
    if not verify_snf(rows, res):
        raise DiagramError("Smith normal form verification failed")
    torsion = [d for d in res.diagonal if d > 1]
    k0_rank = n - res.rank
    # kernel rank of I - P^T equals n - rank as well (square matrix).
    k1 = n - res.rank
    unit = sorted(Counter(s.fiber_of).values())
    return {"k0_rank": k0_rank, "k0_torsion": torsion,
            "k1_rank": k1, "unit_image": unit}


_SYSTEM_KEYS = {"n", "perm", "fiber"}


def permutation_system_to_json(s: FinitePermutationSystem) -> dict:
    return {"n": s.n_points, "perm": list(s.permutation),
            "fiber": list(s.fiber_of)}


def permutation_system_from_json(obj: dict) -> FinitePermutationSystem:
    if not isinstance(obj, dict) or set(obj) != _SYSTEM_KEYS:
        raise DiagramError(
            "permutation system JSON must have exactly keys n, perm, fiber")
    if not (type(obj["n"]) is int and is_int_list(obj["perm"])
            and is_int_list(obj["fiber"])):
        raise MalformedDiagram(
            "permutation system JSON needs an integer n and integer lists "
            "perm and fiber")
    s = make_permutation_system(obj["perm"], obj["fiber"])
    if s.n_points != obj["n"]:
        raise DiagramError(
            f"declared n = {obj['n']} but perm has {s.n_points} points")
    return s
