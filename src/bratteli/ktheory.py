"""K-theoretic invariants: the ordered limit group presented by incidence
matrices, the circle-count invariant from stabilized minimal paths, and an
exact Smith-normal-form oracle for finite permutation systems.

All arithmetic is over Python integers, so nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .diagram import (DiagramError, MalformedDiagram, OrderedBratteliDiagram,
                      check_valid, incidence_matrix, is_int_list, mat_mul,
                      mat_vec)
from .paths import extremal_paths


# ---------------------------------------------------------------------------
# Exact integer linear algebra


@dataclass
class SNFResult:
    diagonal: List[int]          # elementary divisors d1 | d2 | ..., then 0s
    left: List[List[int]]        # U with U A V = diag
    right: List[List[int]]       # V

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _pivot(d, t):
    """(i, j) of the first smallest nonzero |d[i][j]| with i, j >= t, in
    row-major order, or None; a 1 ends the search at once."""
    best = None
    for i in range(t, len(d)):
        for j, x in enumerate(d[i][t:], t):
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
                if best[0] == 1:
                    return i, j
    return None if best is None else best[1:]


def smith_normal_form(a: List[List[int]]) -> SNFResult:
    """U A V = diag(d1,...,dr,0,...) with di | d(i+1) and U, V unimodular.

    Elimination pivots on the first minimum-absolute-value nonzero entry of
    the working submatrix (row-major order), which keeps intermediate
    entries small.  Row and column operations are applied only where their
    multiplier is nonzero, and only to rows that hold a nonzero entry in the
    pivot column, so sparse inputs such as I - P^T cost far less than n^3.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = _identity(m)
    v = _identity(n)

    def add_row(src, dst, c):     # row dst += c * row src, in d and u
        for mat in (d, u):
            s_row, d_row = mat[src], mat[dst]
            for k, y in enumerate(s_row):
                if y:
                    d_row[k] += c * y

    t = 0
    while t < min(m, n):
        pivot = _pivot(d, t)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        p = d[t][t]
        # Clear column t below the pivot, then row t right of it; each
        # multiplier is the floor quotient, so the remainders stay behind.
        below = [i for i in range(t + 1, m) if d[i][t]]
        for i in below:
            c = d[i][t] // p
            if c:
                add_row(t, i, -c)
        right = [(j, -(x // p)) for j, x in enumerate(d[t][t + 1:], t + 1)
                 if x]
        if right:
            for row in [d[t]] + [d[i] for i in below] + v:
                x = row[t]
                if x:
                    for j, c in right:
                        row[j] += c * x
        if any(d[i][t] for i in below) or any(d[t][j] for j, _ in right):
            continue  # remainders were introduced; redo this pivot
        # Enforce divisibility of later entries by folding an offender in.
        if p != 1:
            offender = next((i for i in range(t + 1, m)
                             if any(x % p for x in d[i][t + 1:])), None)
            if offender is not None:
                add_row(offender, t, 1)
                continue
        t += 1
    diag = [d[i][i] for i in range(min(m, n))]
    return SNFResult(diag, u, v)


def _det(a):
    """Exact integer determinant (fraction-free Bareiss elimination).

    A row whose entry in the pivot column is 0 changes only by the factor
    pivot / previous pivot, so it is left alone when the two are equal.
    The determinant of the 0 x 0 matrix is 1.
    """
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        tail = m[k][k + 1:]
        for i in range(k + 1, n):
            row = m[i]
            c = row[k]
            if c:
                row[k + 1:] = [(x * pk - c * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
            elif pk != prev:
                row[k + 1:] = [x * pk // prev for x in row[k + 1:]]
        prev = pk
    return sign * m[n - 1][n - 1]


def verify_snf(a, res: SNFResult) -> bool:
    """Check an SNF result exactly: U A V = diag, d1 | d2 | ... with the
    zeros last, and |det U| = |det V| = 1 for square U (m x m) and V (n x n).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    diag = res.diagonal
    if len(diag) != min(m, n) or \
            len(res.left) != m or any(len(r) != m for r in res.left) or \
            len(res.right) != n or any(len(r) != n for r in res.right):
        return False
    for d1, d2 in zip(diag, diag[1:]):
        if d1 == 0 and d2 != 0:
            return False
        if d1 != 0 and d2 % d1 != 0:
            return False
    prod = mat_mul(mat_mul(res.left, a), res.right)
    for i, row in enumerate(prod):
        want = [0] * n
        if i < len(diag):
            want[i] = diag[i]
        if row != want:
            return False
    return abs(_det(res.left)) == 1 and abs(_det(res.right)) == 1


# ---------------------------------------------------------------------------
# Dimension-group presentation


@dataclass(frozen=True)
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

    def push(self, level: int, vector, to_level: int):
        """Push a level-`level` vector forward to `to_level`."""
        if not 1 <= level <= to_level <= self.num_levels:
            raise DiagramError(
                f"cannot push level {level} to {to_level}")
        v = list(vector)
        if len(v) != self.sizes[level - 1]:
            raise DiagramError("vector length does not match level size")
        for _, v in _pushes(self.maps, level, v, to_level):
            pass
        return v

    def heights(self, level: int):
        """Push-forward of the order unit to the given level."""
        return self.push(1, list(self.unit), level)


@dataclass(frozen=True)
class DimGroupElement:
    level: int
    vector: tuple


def k0_presentation(d: OrderedBratteliDiagram,
                    heights=None) -> DimensionGroupPresentation:
    """Present the ordered K0 group of the diagram's transformation.

    maps are the incidence matrices from level 2 on; the unit is the given
    level-1 height vector (tower sizes, default: root edge counts).
    """
    check_valid(d)
    if heights is None:
        heights = natural_heights(d)
    hs = tuple(int(h) for h in heights)
    if len(hs) != d.vertex_counts[1]:
        raise DiagramError(
            f"heights must have {d.vertex_counts[1]} entries, got {len(hs)}")
    if any(h < 1 for h in hs):
        raise DiagramError("heights must be strictly positive")
    maps = tuple(tuple(tuple(row) for row in incidence_matrix(d, n))
                 for n in range(2, d.num_levels + 1))
    return DimensionGroupPresentation(tuple(d.vertex_counts[1:]), maps, hs)


def natural_heights(d: OrderedBratteliDiagram):
    """Level-1 heights induced by the root edges (each root edge one floor)."""
    m1 = incidence_matrix(d, 1)
    return [row[0] for row in m1]


def _pushes(maps, level: int, v, top: int):
    """Yield (level, v), then (n, push-forward of v to level n) for each n
    up to top; maps[i] sends level i + 1 to level i + 2."""
    yield level, v
    for i in range(level - 1, top - 1):
        v = mat_vec(maps[i], v)
        yield i + 2, v


def _injective(matrix) -> bool:
    a = [list(r) for r in matrix]
    return smith_normal_form(a).rank == len(a[0])


def element_equal(g1: DimGroupElement, g2: DimGroupElement,
                  pres: DimensionGroupPresentation,
                  depth_budget: int = 16) -> str:
    """Budgeted equality in the limit: 'equal', 'not_equal' or 'unknown'.

    Pushes the difference forward; a nonzero difference plus injectivity of
    every remaining map certifies inequality.
    """
    hi = max(g1.level, g2.level)
    top = min(pres.num_levels, hi + max(0, depth_budget))
    v1 = pres.push(g1.level, g1.vector, hi)
    v2 = pres.push(g2.level, g2.vector, hi)
    diff = [a - b for a, b in zip(v1, v2)]
    for _, v in _pushes(pres.maps, hi, diff, top):
        if not any(v):
            return "equal"
    if all(_injective(pres.maps[i]) for i in range(hi - 1, pres.num_levels - 1)):
        return "not_equal"
    return "unknown"


def _stationary_matrix(pres: DimensionGroupPresentation):
    if not pres.maps:
        return None
    first = pres.maps[0]
    if all(m == first for m in pres.maps):
        return [list(r) for r in first]
    return None


def _keeps_nonpositive(matrix) -> bool:
    # Every column is >= 0 and nonzero, so the map sends each nonzero
    # vector <= 0 to a nonzero vector <= 0.
    return all(min(col) >= 0 and any(col) for col in zip(*matrix))


def element_positive(g: DimGroupElement, pres: DimensionGroupPresentation,
                     depth_budget: int = 16) -> str:
    """'positive', 'not_positive' or 'unknown', from at most depth_budget
    push-forwards of g, all in exact integers.

    'positive': a push-forward inside the presentation is entrywise >= 0.
    'not_positive': a push-forward is entrywise <= 0 and nonzero, and every
    later map has only nonzero columns with entries >= 0, so every further
    push-forward stays <= 0 and nonzero and none is ever >= 0.  For a
    stationary presentation the pushes may go past the last level with the
    stationary matrix, the continuation the diagram stands for; there only
    this certificate counts, and reaching a vector >= 0 (such as 0) gives
    'unknown'.  Anything else, an infinitesimal for one, is 'unknown'.
    """
    v = pres.push(g.level, g.vector, g.level)
    top = g.level + max(0, depth_budget)
    maps = pres.maps
    m = _stationary_matrix(pres)
    if m is not None and len(m) == len(m[0]):
        maps += (m,) * max(0, top - pres.num_levels)
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


@dataclass(frozen=True)
class FinitePermutationSystem:
    n_points: int
    permutation: tuple
    fiber_of: tuple


def make_permutation_system(perm, fiber) -> FinitePermutationSystem:
    perm = tuple(int(p) for p in perm)
    fiber = tuple(int(f) for f in fiber)
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
    # Each fiber must be a single cycle.
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
        members = {k for k in range(n) if fiber[k] == fiber[i]}
        if cycle != members:
            raise DiagramError(
                f"fiber {fiber[i]} is not a single cycle")
    return FinitePermutationSystem(n, perm, fiber)


def k_oracle_finite_system(s: FinitePermutationSystem) -> dict:
    """K-groups of the finite system via the six-term exact sequence:
    cokernel and kernel of (I - P^T) on Z^n, computed with exact SNF.

    unit_image is the sorted list of fiber totals of the all-ones vector,
    i.e. its evaluation against the canonical cycle-sum functionals that
    span the kernel of (I - P).
    """
    n = s.n_points
    p = [[0] * n for _ in range(n)]
    for i, j in enumerate(s.permutation):
        p[j][i] = 1   # P e_i = e_{perm(i)}
    a = [[(1 if i == j else 0) - p[j][i] for j in range(n)]
         for i in range(n)]   # I - P^T
    res = smith_normal_form(a)
    if not verify_snf(a, res):
        raise DiagramError("Smith normal form verification failed")
    torsion = [d for d in res.diagonal if d > 1]
    k0_rank = n - res.rank
    # kernel rank of I - P^T equals n - rank as well (square matrix).
    k1 = n - res.rank
    fibers = sorted(set(s.fiber_of))
    unit = sorted(sum(1 for f in s.fiber_of if f == z) for z in fibers)
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
