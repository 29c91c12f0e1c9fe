"""A frozen copy of the diagram JSON loader as it stood before it checked
records with C-level passes and canonicalized each distinct level once.

The differential test in test_diagram.py runs it beside
diagram.diagram_from_json on mutated diagram JSON: both must give the same
diagram, or raise the same exception type with the same message.  Keep it
as it is; it is the reference, not a second implementation to maintain.
"""

from bratteli.diagram import MalformedDiagram, OrderedBratteliDiagram

_DIAGRAM_KEYS = {"num_levels", "vertex_counts", "group_labels", "edges"}


def make_diagram(num_levels, vertex_counts, edges, group_labels=None):
    if num_levels < 1:
        raise MalformedDiagram("num_levels must be >= 1")
    vcs = tuple(int(c) for c in vertex_counts)
    if len(vcs) != num_levels + 1:
        raise MalformedDiagram(
            f"vertex_counts must have length {num_levels + 1}, got {len(vcs)}")
    if vcs[0] != 1:
        raise MalformedDiagram("level 0 must contain exactly the root vertex")
    if any(c < 1 for c in vcs):
        raise MalformedDiagram("vertex counts must be positive")
    if len(edges) != num_levels:
        raise MalformedDiagram(
            f"edges must have {num_levels} levels, got {len(edges)}")
    canon = []
    for n, level in enumerate(edges, start=1):
        pairs = []
        for e in level:
            s, r = int(e[0]), int(e[1])
            if not 0 <= s < vcs[n - 1]:
                raise MalformedDiagram(
                    f"level {n}: source {s} out of range 0..{vcs[n - 1] - 1}")
            if not 0 <= r < vcs[n]:
                raise MalformedDiagram(
                    f"level {n}: range {r} out of range 0..{vcs[n] - 1}")
            pairs.append((s, r))
        pairs.sort(key=lambda e: e[1])  # stable: keeps same-range order
        canon.append(tuple(pairs))
    labels = None
    if group_labels is not None:
        if len(group_labels) != num_levels:
            raise MalformedDiagram(
                f"group_labels must cover levels 1..{num_levels}")
        labels = []
        for n, level in enumerate(group_labels, start=1):
            if len(level) != vcs[n]:
                raise MalformedDiagram(
                    f"group_labels at level {n} must have {vcs[n]} entries")
            labels.append(tuple(int(t) for t in level))
        labels = tuple(labels)
    return OrderedBratteliDiagram(num_levels, vcs, tuple(canon), labels)


def diagram_from_json(obj):
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
    if not (type(obj["edges"]) is list and all(
            type(level) is list and all(map(_is_edge, level))
            for level in obj["edges"])):
        raise MalformedDiagram(
            'edges must be a list of levels of {"s": int, "r": int} records')
    edges = [[(e["s"], e["r"]) for e in level] for level in obj["edges"]]
    return make_diagram(obj["num_levels"], obj["vertex_counts"], edges,
                        labels)


def is_int_list(x):
    return type(x) is list and all(type(v) is int for v in x)


def _is_edge(e):
    return (type(e) is dict and e.keys() == {"s", "r"}
            and type(e["s"]) is int and type(e["r"]) is int)
