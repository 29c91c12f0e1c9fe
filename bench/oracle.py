"""Independent answers the benchmark checks the program's outputs against.

Nothing here calls ``bratteli``: every answer is computed from the raw JSON
edge lists or from the closed forms of the examples (odometers, their
disjoint unions, finite cycle systems).
"""

from __future__ import annotations


def path_counts(diagram_json: dict, level: int) -> list:
    """Number of root paths into each vertex at ``level``."""
    counts = [1]
    for n in range(1, level + 1):
        nxt = [0] * diagram_json["vertex_counts"][n]
        for e in diagram_json["edges"][n - 1]:
            nxt[e["r"]] += counts[e["s"]]
        counts = nxt
    return counts


def extremal_edges(diagram_json: dict) -> tuple:
    """Per edge level, the sets of minimal and of maximal edge indices.

    Edge lists are stored sorted by range with the edge order kept among
    edges of one range, so the first edge into a vertex is minimal and the
    last is maximal.
    """
    mins, maxs = [], []
    for level in diagram_json["edges"]:
        first, last = {}, {}
        for i, e in enumerate(level):
            first.setdefault(e["r"], i)
            last[e["r"]] = i
        mins.append(set(first.values()))
        maxs.append(set(last.values()))
    return mins, maxs


def eligible_paths(diagram_json: dict, depth: int):
    """(edge tuple, direction) for every cylinder of depth 2..depth on which
    a cocycle is defined: the prefix is not all-maximal (forward) or not
    all-minimal (backward)."""
    mins, maxs = extremal_edges(diagram_json)
    out = []
    paths = [((), 0)]
    for m in range(1, depth + 1):
        level = diagram_json["edges"][m - 1]
        nxt = []
        for idx, v in paths:
            for i, e in enumerate(level):
                if e["s"] == v:
                    nxt.append((idx + (i,), e["r"]))
        if m >= 2:
            for idx, _ in nxt:
                pre = idx[:-1]
                if not all(e in maxs[n] for n, e in enumerate(pre)):
                    out.append((idx, "forward"))
                if not all(e in mins[n] for n, e in enumerate(pre)):
                    out.append((idx, "backward"))
        paths = nxt
    return out


def eligible_cylinders(diagram_json: dict, depth: int) -> int:
    """Number of cylinders ``check_cocycle_continuity`` certifies to depth.

    Each vertex has exactly one all-maximal and one all-minimal path, so
    each direction contributes, per depth m, the sum over level-(m-1)
    vertices v of (paths into v - 1) * (edges leaving v).
    """
    total = 0
    for m in range(2, depth + 1):
        counts = path_counts(diagram_json, m - 1)
        out = [0] * len(counts)
        for e in diagram_json["edges"][m - 1]:
            out[e["s"]] += 1
        total += 2 * sum((c - 1) * o for c, o in zip(counts, out))
    return total


def odometer_rank(edges: list, base: int) -> int:
    """Rank of an odometer path: its edge indices read as base-b digits,
    least significant first."""
    return sum(e * base ** i for i, e in enumerate(edges))


def odometer_successor(edges: list, base: int) -> list:
    """Add one with carry, least significant digit first."""
    out = list(edges)
    for i, e in enumerate(out):
        if e + 1 < base:
            out[i] = e + 1
            return out
        out[i] = 0
    raise ValueError("the all-maximal path has no successor")


def odometer_equal(base: int, level1: int, x: int, level2: int,
                   y: int) -> bool:
    """[x] at level1 equals [y] at level2 in the odometer's limit group:
    a unit vector at level n is worth base**-(n-1) of one at level 1."""
    return x * base ** (level2 - 1) == y * base ** (level1 - 1)


def cycle_oracle(lengths: list) -> dict:
    """K-groups of disjoint cycles: one Z per cycle, no torsion, and the
    unit evaluates to the cycle lengths."""
    return {"k0_rank": len(lengths), "k0_torsion": [],
            "k1_rank": len(lengths), "unit_image": sorted(lengths)}
