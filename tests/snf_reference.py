"""A frozen copy of the Smith-normal-form cores as they stood before unit
pivots skipped the pivot search and U A V was checked one row at a time.

The differential test in test_ktheory.py runs _snf_rows beside
ktheory.smith_normal_form, which must return an equal SNFResult, and
_verify_rows beside ktheory.verify_snf on edited and malformed
certificates, which must give the same verdict.  The input is given as
rows of {column: nonzero int}; _sparse_rows makes them from a dense
matrix.  Keep it as it is; it is the reference, not a second
implementation to maintain.
"""

from itertools import chain, compress

from bratteli.ktheory import SNFResult


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
    small.  Multipliers are floor quotients; a remainder left in the pivot
    row or column redoes the step, and a later entry that the pivot does
    not divide has its row folded into the pivot row first.
    """
    m = len(rows)
    d = list(map(dict, rows))
    holders = [set() for _ in range(n)]   # column -> rows that may hold it
    for i, row in enumerate(d):
        for j in row:
            holders[j].add(i)
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]    # columns of V

    t = 0
    while t < min(m, n):
        # Pivot: least (|x|, i, j) over the rows >= t; a 1 cannot be beaten.
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
        if len(row_t) > 1 or p != 1 and any(t in d[i] for i in below):
            continue  # remainders were introduced; redo this pivot
        # Enforce divisibility of later entries by folding an offender in.
        if p != 1:
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
    diag = [d[i].get(i, 0) for i in range(min(m, n))]
    return SNFResult(diag, u, _transpose(v, n))


def _sparse_det(rows):
    """Exact integer determinant of sparse rows (fraction-free Bareiss).

    Rows are filed by their first column.  Step k takes the shortest row
    filed under k as the pivot row and replaces each other one, r, by
    (r * pk - r[k] * pivot_row) / prev, an exact division, and files it
    again.  A row without column k would only be scaled by pk / prev; the
    scalings telescope, so such a row is left as it is, with the prev at
    its last update, and scaled by prev / that prev when next used.  A
    pivot row with a single entry therefore only drops column k, the
    first, from the others; a row's columns are sorted on its first such
    drop and popped from then on, until an update rebuilds the row, so
    no drop rescans a row for its next column.  The last pivot, times the
    sign of the order in which rows were taken, is the determinant; that
    of the 0 x 0 matrix is 1.  The given rows are not changed: a row is
    copied before its first change in place.
    """
    n = len(rows)
    if not all(rows):
        return 0
    rows = list(rows)
    copied = [False] * n
    filed = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        filed[min(row)].append(i)
    desc = [None] * n     # a row's columns, largest first, kept while
                          # single-entry pivots only drop its first one
    since = [1] * n       # the prev at which each stored row is exact
    prev = 1
    order = []
    for k in range(n):
        if not filed[k]:
            return 0
        here = filed[k]
        p = here[0] if len(here) == 1 else min(here,
                                               key=lambda i: len(rows[i]))
        order.append(p)
        pivot_row = rows[p]
        if since[p] != prev:
            pivot_row = {j: x * prev // since[p] for j, x in pivot_row.items()}
        pk = pivot_row[k]
        for i in here:
            if i == p:
                continue
            row = rows[i]
            if len(pivot_row) == 1:
                if not copied[i]:
                    row = rows[i] = dict(row)
                    copied[i] = True
                del row[k]
                cols = desc[i]
                if cols is None:
                    cols = desc[i] = sorted(row, reverse=True)
                else:
                    cols.pop()      # k, the row's first column
            else:
                if since[i] != prev:
                    row = {j: x * prev // since[i] for j, x in row.items()}
                c = row[k]
                acc = {j: x * pk for j, x in row.items()}
                for j, y in pivot_row.items():
                    acc[j] = acc.get(j, 0) - c * y
                row = rows[i] = {j: z // prev for j, z in acc.items() if z}
                since[i] = pk
                copied[i] = True
                cols = desc[i] = None
            if not row:
                return 0
            filed[cols[-1] if cols else min(row)].append(i)
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


def _sparse_mul(x, y):
    """Product of two matrices given as sparse rows, as sparse rows."""
    out = []
    for row in x:
        acc = {}
        for k, c in row.items():
            for j, z in y[k].items():
                acc[j] = acc.get(j, 0) + c * z
        out.append({j: z for j, z in acc.items() if z})
    return out


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
    columns are ints in range(size); type checks run at C speed."""
    if len(rows) != size or set(map(type, rows)) - {dict}:
        return False
    if set(map(type, chain.from_iterable(rows))) - {int} or \
            set(map(type, chain.from_iterable(map(dict.values, rows)))) - {int}:
        return False
    keys = set(chain.from_iterable(rows))
    return (not keys or min(keys) >= 0 and max(keys) < size) and \
        all(chain.from_iterable(map(dict.values, rows)))


def _verify_rows(rows, n: int, res: SNFResult) -> bool:
    """Check an SNF result of the m x n matrix given by m rows of
    {column: nonzero int}: U A V = diag, d1 | d2 | ... with the zeros last,
    and |det U| = |det V| = 1 for square U (m x m) and V (n x n) given as
    rows of {column: nonzero int} dicts.

    U A V is multiplied out on the rows, so it costs O(nonzeros) instead of
    O(n^3).  The determinants are taken on V's rows and U's columns: SNF
    adds pivot rows to later rows and pivot columns to later columns, so
    both are near triangular with their entries right of the diagonal,
    which _sparse_det eliminates with single-entry pivots.
    """
    m = len(rows)
    diag = res.diagonal
    u, v = res.left, res.right
    if len(diag) != min(m, n) or not _is_sparse_square(u, m) or \
            not _is_sparse_square(v, n):
        return False
    for d1, d2 in zip(diag, diag[1:]):
        if d1 == 0 and d2 != 0:
            return False
        if d1 != 0 and d2 % d1 != 0:
            return False
    prod = _sparse_mul(_sparse_mul(u, rows), v)
    for i, row in enumerate(prod):
        if row != ({i: diag[i]} if i < len(diag) and diag[i] else {}):
            return False
    return abs(_sparse_det(_transpose(u, m))) == 1 and \
        abs(_sparse_det(v)) == 1
