"""The three benchmark workloads.

Each workload has ``setup(seed, workdir, smoke)``, which builds its inputs
(generators, telescoping, JSON files) and returns them as plain data, and
``run_pass(inputs, ledger)``, which runs the workload's fixed job list once
and records every operation in the ledger.  A pass starts from fresh diagram
objects loaded from JSON, so nothing built in one pass is reused by the next.
The seed only chooses arguments (ranks, paths, cycle lengths) and the order
of the operations; the set of operation kinds is the same for every seed.

Why these three (see bench/README.md for the full table):
  soe-pipeline   -- a few diagrams, reused heavily: the soe stages, make_path
                    and path_rank dominate; ktheory is never called.
  deep-paths     -- path queries at depths 10, 40 and 160 on three diagram
                    shapes: cost grows with depth and diagram size; soe and
                    ktheory are bypassed.
  cli-invariants -- many small CLI commands, each loading a fresh diagram
                    and querying it a little, plus exact SNF oracles: the
                    opposite of deep-paths, and the only ktheory workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from array import array

from bratteli import cli
from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import ktheory as kt
from bratteli import paths as pt
from bratteli import soe

import oracle


class Ledger:
    """Counts and times the operations of one pass."""

    def __init__(self, clock, rec=None):
        self.clock = clock
        self.rec = rec
        # Start and end of each operation timed one by one (arrays keep the
        # benchmark's own memory small next to the program's).
        self.starts, self.ends = array("d"), array("d")
        self.attempted = 0
        self.failed = 0
        self.kinds = {}          # operation kind -> count
        self.errors = []
        self.counters = {}

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _note(self, kind, n, failed, error=None):
        self.attempted += n
        self.failed += failed
        self.kinds[kind] = self.kinds.get(kind, 0) + n
        if failed and len(self.errors) < 5:
            self.errors.append(f"{kind}: {error or 'check failed'}")

    def op(self, kind, fn, timed=True):
        """Run one operation; fn returns True when its output checks out."""
        if self.rec is not None:
            self.rec.run_id = self.attempted
        error = None
        start = self.clock.now()
        try:
            ok = fn() is True
        except Exception as exc:  # a raising operation counts as failed
            ok, error = False, f"{type(exc).__name__}: {exc}"
        if timed:
            self.starts.append(start)
            self.ends.append(self.clock.now())
        self._note(kind, 1, 0 if ok else 1, error)

    def batch(self, kind, n, fn):
        """n operations certified together; fn returns how many failed."""
        if self.rec is not None:
            self.rec.run_id = self.attempted
        try:
            failed, error = min(n, fn()), None
        except Exception as exc:
            failed, error = n, f"{type(exc).__name__}: {exc}"
        self._note(kind, n, failed, error)


# ---------------------------------------------------------------------------
# soe-pipeline: criterion 6 and the union pair


class SoePipeline:
    name = "soe-pipeline"

    def setup(self, seed, workdir, smoke):
        b1, _ = dg.telescope(gen.odometer(2, 17), list(range(1, 18, 2)))
        b2 = gen.odometer(4, 8)
        t2 = dg.telescope(gen.odometer(2, 9), [1, 3, 5, 7, 9])[0]
        ub1 = gen.disjoint_union([t2, t2])
        ub2 = gen.disjoint_union([gen.odometer(4, 5), gen.odometer(4, 5)])
        for d in (b1, b2, ub1, ub2):
            if dg.check_fem_properties(d) != []:
                raise RuntimeError("input diagram fails properties (b)-(d)")
        swap = [[0, 2], [2, 0]]
        inp = {
            "b1": dg.diagram_to_json(b1), "b2": dg.diagram_to_json(b2),
            "w": soe.intertwining_to_json(
                soe.stationary_intertwining([[2]], [[2]], 8, 8)),
            "ub1": dg.diagram_to_json(ub1), "ub2": dg.diagram_to_json(ub2),
            "uw": soe.intertwining_to_json(
                soe.stationary_intertwining(swap, swap, 5, 4)),
            "depth": 4 if smoke else 7,          # criterion-6 continuity
            "union_depth": 3 if smoke else 5,
            "bijection_depth": 3 if smoke else 6,
        }
        verify = oracle.eligible_paths(inp["b1"], 4 if smoke else 6)
        random.Random(seed).shuffle(verify)
        inp["verify"] = verify
        return inp

    def run_pass(self, inp, ledger):
        b1 = dg.diagram_from_json(inp["b1"])
        b2 = dg.diagram_from_json(inp["b2"])
        w = soe.intertwining_from_json(inp["w"])
        state = {}

        def pipeline(b1, b2, w, depth, expected, pairs, fiber_swap):
            bp = soe.build_interleaved(b1, b2, w)
            bad = soe.check_interleaved_properties(bp) != []
            pairing = soe.pair_extremal_paths(bp, bp.diagram.num_levels)
            bad |= not (len(pairing.min_pairs) == len(pairing.max_pairs)
                        == pairs)
            if fiber_swap:
                bad |= any(b2.label_of(q.depth, q.terminal_vertex)
                           != 1 - b1.label_of(p.depth, p.terminal_vertex)
                           for p, q in pairing.min_pairs)
            F = soe.realize_orbit_map(bp, pairing)
            rep = soe.check_cocycle_continuity(F, depth)
            state["F"], state["bp"] = F, bp
            ledger.count("eligible", rep["eligible"])
            if bad or not rep["ok"]:
                return expected
            return len(rep["nonconstant"]) + abs(rep["eligible"] - expected)

        n6 = oracle.eligible_cylinders(inp["b1"], inp["depth"])
        ledger.batch("continuity.criterion6", n6,
                     lambda: pipeline(b1, b2, w, inp["depth"], n6, 1, False))
        F, bp = state.get("F"), state.get("bp")

        k = inp["bijection_depth"]

        def bijective(f, b, depth, interleaved_depth):
            paths = pt.all_paths(b, depth)
            images = {f(F, p).edge_indices for p in paths}
            want = sum(oracle.path_counts(dg.diagram_to_json(b), depth))
            inter = sum(oracle.path_counts(
                dg.diagram_to_json(bp.diagram), interleaved_depth))
            return len(images) == len(paths) == want == inter

        ledger.op("bijection.f1", lambda: bijective(
            soe.f1_path, b1, k, 2 * k - 1), timed=False)
        ledger.op("bijection.f2", lambda: bijective(
            soe.f2_path, b2, k, 2 * k), timed=False)

        ub1 = dg.diagram_from_json(inp["ub1"])
        ub2 = dg.diagram_from_json(inp["ub2"])
        uw = soe.intertwining_from_json(inp["uw"])
        nu = oracle.eligible_cylinders(inp["ub1"], inp["union_depth"])
        ledger.batch("continuity.union", nu,
                     lambda: pipeline(ub1, ub2, uw, inp["union_depth"], nu,
                                      2, True))

        for idx, direction in inp["verify"]:
            p = pt.make_path(b1, idx)
            ledger.op("verify_cocycle",
                      lambda p=p, dr=direction: soe.verify_cocycle(F, p, dr))


# ---------------------------------------------------------------------------
# deep-paths: criteria 1 and 8 pushed deep

_MATRICES = {"stationary": [[2, 1, 0], [1, 1, 1], [0, 1, 2]],
             "fibonacci": [[1, 1], [1, 0]]}
_SHAPES = ("stationary", "fibonacci", "union")
DEPTHS = (10, 40, 160)


def _shape(name, levels):
    if name == "union":
        return gen.disjoint_union([gen.odometer(b, levels) for b in (2, 3, 5)])
    return gen.stationary_adic(_MATRICES[name], levels)


class DeepPaths:
    name = "deep-paths"
    queries = 4          # per (shape, depth)
    walk_depth = 8
    telescope_depth = 40

    def setup(self, seed, workdir, smoke):
        rng = random.Random(seed)
        walk_depth = 4 if smoke else self.walk_depth
        built = {(s, n): _shape(s, n) for s in _SHAPES
                 for n in DEPTHS + (walk_depth,)}
        diagrams = {key: dg.diagram_to_json(d) for key, d in built.items()}
        ops = []
        for s in _SHAPES:
            for n in DEPTHS:
                counts = oracle.path_counts(diagrams[s, n], n)
                for _ in range(1 if smoke else self.queries):
                    v = rng.randrange(len(counts))
                    ops.append(("query", s, n, v,
                                rng.randrange(1, counts[v] - 1)))
            counts = oracle.path_counts(diagrams[s, walk_depth], walk_depth)
            v = counts.index(min(counts))
            ops.append(("walk", s, walk_depth, v, counts[v]))
            counts = oracle.path_counts(diagrams[s, self.telescope_depth],
                                        self.telescope_depth)
            v = rng.randrange(len(counts))
            ops.append(("telescope", s, self.telescope_depth, v,
                        rng.randrange(counts[v])))
        rng.shuffle(ops)
        tele = {}
        for s in _SHAPES:
            td, tmap = dg.telescope(built[s, self.telescope_depth],
                                    range(4, self.telescope_depth + 1, 4))
            tele[s] = (dg.diagram_to_json(td), tmap)
        return {"diagrams": diagrams, "telescoped": tele, "ops": ops}

    def run_pass(self, inp, ledger):
        ds = {key: dg.diagram_from_json(obj)
              for key, obj in inp["diagrams"].items()}
        tds = {s: (dg.diagram_from_json(obj), tmap)
               for s, (obj, tmap) in inp["telescoped"].items()}
        for kind, s, n, v, r in inp["ops"]:
            d = ds[s, n]
            if kind == "query":
                fn = lambda d=d, n=n, v=v, r=r: _query(d, n, v, r)
                ledger.op(f"query.d{n}", fn)
            elif kind == "walk":
                ledger.op("walk", lambda d=d, n=n, v=v, r=r: _walk(d, n, v, r))
            else:
                td, tmap = tds[s]
                ledger.op("telescope", lambda d=d, n=n, v=v, r=r, td=td,
                          tmap=tmap: _round_trip(d, td, tmap, n, v, r))


def _query(d, depth, v, r):
    """Rank/unrank identity, successor rank+1, predecessor by orbit_shift."""
    p = pt.path_unrank(d, depth, v, r)
    ok = (p.depth, p.terminal_vertex) == (depth, v) and pt.path_rank(d, p) == r
    ok = ok and pt.path_rank(d, pt.vershik_successor(d, p)) == r + 1
    b = pt.vershik_predecessor(d, p)
    return ok and pt.orbit_shift(d, b, p) == 1 and \
        pt.vershik_successor(d, b) == p


def _walk(d, depth, v, total):
    """Whole orbit of the paths into v by successor steps."""
    p = pt.path_unrank(d, depth, v, 0)
    for r in range(1, total):
        q = pt.vershik_successor(d, p)
        if pt.orbit_shift(d, p, q) != 1 or pt.path_rank(d, q) != r:
            return False
        p = q
    return pt.is_maximal(d, p)


def _round_trip(d, td, tmap, depth, v, r):
    p = pt.path_unrank(d, depth, v, r)
    tp = pt.telescope_path(tmap, p, td)
    return (pt.untelescope_path(tmap, tp, d) == p
            and pt.path_rank(td, tp) == r)


# ---------------------------------------------------------------------------
# cli-invariants: criteria 4, 5, 7 and 9 through the CLI boundary

_ODOMETER_LEVELS = 12
_UNIONS = {"union23": (2, 3), "union235": (2, 3, 5)}


def write_soe_inputs(workdir):
    """Criterion-6 pair files for ``soe check``; returns the argv tail and
    the number of cylinders a depth-4 check must certify."""
    b1, _ = dg.telescope(gen.odometer(2, 17), list(range(1, 18, 2)))
    files = {"b1": os.path.join(workdir, "soe_b1.json"),
             "b2": os.path.join(workdir, "soe_b2.json"),
             "intertwining": os.path.join(workdir, "soe_w.json")}
    dg.save_diagram(b1, files["b1"])
    dg.save_diagram(gen.odometer(4, 8), files["b2"])
    with open(files["intertwining"], "w") as f:
        json.dump(soe.intertwining_to_json(
            soe.stationary_intertwining([[2]], [[2]], 8, 8)), f)
    return (["--b1", files["b1"], "--b2", files["b2"],
             "--intertwining", files["intertwining"]],
            oracle.eligible_cylinders(dg.diagram_to_json(b1), 4))


class CliInvariants:
    name = "cli-invariants"
    cheap_repeats = 8                    # of each cheap command per pass
    # Cycle lengths of the oracle systems.  They do not depend on the seed:
    # the SNF cost varies by a third between partitions of one n, and the
    # n = 96 runs hold op_p90_ms.  Eleven runs of one system make that band,
    # all of one cost, a seventh of the 79 operations of a pass, so p90 falls
    # inside it.  The 64 cheap commands (about 3 ms each) hold p50 about 60%
    # of the way into their band: further up, in its slow tail, p50 moved by
    # a tenth between runs, as short bursts of CPU steal come and go.
    cycles = ([8, 8, 16], [16, 16, 32]) + ([32, 32, 32],) * 11

    def setup(self, seed, workdir, smoke):
        rng = random.Random(seed)
        files = {}
        for b in (2, 3, 5):
            files[f"odo{b}"] = os.path.join(workdir, f"odo{b}.json")
            dg.save_diagram(gen.odometer(b, _ODOMETER_LEVELS),
                            files[f"odo{b}"])
        for name, bases in _UNIONS.items():
            files[name] = os.path.join(workdir, f"{name}.json")
            dg.save_diagram(gen.disjoint_union(
                [gen.odometer(b, 6) for b in bases]), files[name])
        for b in (2, 3):
            files[f"small{b}"] = os.path.join(workdir, f"small{b}.json")
            dg.save_diagram(gen.odometer(b, 6), files[f"small{b}"])
        soe_args, soe_eligible = write_soe_inputs(workdir)

        ops = []
        for _ in range(1 if smoke else self.cheap_repeats):
            ops.extend(self._cheap(rng, files))
        for i, lengths in enumerate(self.cycles[:3] if smoke else self.cycles):
            system, _ = gen.finite_cycle_system(lengths)
            path = os.path.join(workdir, f"system{i}.json")
            with open(path, "w") as f:
                json.dump(kt.permutation_system_to_json(system), f)
            ops.append(("oracle", ["oracle", path],
                        ("oracle", oracle.cycle_oracle(lengths))))
        ops.append(("soe_check", ["soe", "check", *soe_args, "--depth", "4"],
                    ("soe_check", soe_eligible)))
        ops.append(("soe_search", ["soe", "search", "--b1", files["small2"],
                                   "--b2", files["small3"], "--bound", "12"],
                    ("soe_search", 13 * 13)))
        rng.shuffle(ops)
        return {"ops": ops}

    def _cheap(self, rng, files):
        ops = []
        name = rng.choice(sorted(files))
        ops.append(("validate", ["validate", "--diagram", files[name]],
                    ("validate",)))
        b = rng.choice((2, 3, 5))
        k = rng.randint(1, _ODOMETER_LEVELS)
        path = [rng.randrange(b) for _ in range(k)]
        ops.append(("rank", ["rank", "--diagram", files[f"odo{b}"], "--path",
                             ",".join(map(str, path))],
                    ("rank", oracle.odometer_rank(path, b))))
        b = rng.choice((2, 3, 5))
        path = [rng.randrange(b) for _ in range(k)]
        path[rng.randrange(k)] = rng.randrange(b - 1)     # not all-maximal
        ops.append(("vershik", ["vershik", "--diagram", files[f"odo{b}"],
                                "--path", ",".join(map(str, path))],
                    ("vershik", oracle.odometer_successor(path, b))))
        b = rng.choice((2, 3, 5))
        x = rng.randint(1, 50)
        y = x * b + rng.choice((0, 1))
        want = "equal" if oracle.odometer_equal(b, 1, x, 2, y) else "not_equal"
        ops.append(("k0", ["k0", files[f"odo{b}"], "--compare", "--level1",
                           "1", "--vec1", str(x), "--level2", "2", "--vec2",
                           str(y)], ("k0", want)))
        name = rng.choice(sorted(_UNIONS))
        ops.append(("k1", ["k1", files[name], "--depth", "5"],
                    ("k1", len(_UNIONS[name]))))
        b = rng.choice((2, 3, 5))
        kind = rng.choice(("min", "max"))
        depth = rng.randint(1, _ODOMETER_LEVELS - 1)
        digit = 0 if kind == "min" else b - 1
        ops.append(("extremal", ["extremal", "--diagram", files[f"odo{b}"],
                                 "--depth", str(depth), "--kind", kind],
                    ("extremal", [",".join([str(digit)] * depth)])))
        name = rng.choice(sorted(_UNIONS))
        ops.append(("perfect", ["perfect", "--diagram", files[name],
                                "--depth", "5"],
                    ("perfect", len(_UNIONS[name]))))
        # Bases 2 and 3 and gaps of one or two levels keep the telescoped
        # levels small (at most 9 edges), so this stays a cheap command.
        b = rng.choice((2, 3))
        cuts = [rng.choice((1, 2))]
        while cuts[-1] < _ODOMETER_LEVELS:
            cuts.append(min(cuts[-1] + rng.choice((1, 2)), _ODOMETER_LEVELS))
        ops.append(("telescope", ["telescope", "--diagram", files[f"odo{b}"],
                                  "--cuts", ",".join(map(str, cuts))],
                    ("telescope", b, cuts)))
        return ops

    def run_pass(self, inp, ledger):
        for kind, argv, expect in inp["ops"]:
            def call(kind=kind, argv=argv, expect=expect):
                code, env = run_cli(argv)
                if kind == "soe_check" and code == 0:
                    ledger.count("eligible",
                                 env["payload"]["continuity"]["eligible"])
                return _check_cli(code, env, expect)
            ledger.op(kind, call)


def run_cli(argv):
    """In-process ``bratteli`` call; returns (exit code, parsed envelope)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, json.loads(buf.getvalue())


def _check_cli(code, env, expect):
    if code != 0 or env["status"] != "ok":
        return False
    pay = env["payload"]
    kind = expect[0]
    if kind == "validate":
        return pay == {"valid": True, "violations": []}
    if kind == "rank":
        return pay == {"rank": expect[1]}
    if kind == "vershik":
        return pay == {"successor": ",".join(map(str, expect[1]))}
    if kind == "k0":
        return pay["equal"] == expect[1]
    if kind == "k1":
        return pay == {"rank": expect[1], "certified": True}
    if kind == "extremal":
        return pay["stabilized"] is True and pay["paths"] == expect[1]
    if kind == "perfect":
        return (pay["verdict"] == "pass"
                and len(pay["pairing"]) == expect[1])
    if kind == "telescope":
        b, cuts = expect[1], expect[2]
        gaps = [c - a for a, c in zip([0] + cuts, cuts)]
        return (pay["num_levels"] == len(cuts)
                and pay["vertex_counts"] == [1] * (len(cuts) + 1)
                and [len(level) for level in pay["edges"]]
                == [b ** g for g in gaps])
    if kind == "oracle":
        return pay == expect[1]
    if kind == "soe_check":
        return (all(pay[k] is True for k in (
            "interleaved_ok", "properties_ok", "pairing_ok", "continuity_ok"))
            and pay["continuity"]["eligible"] == expect[1]
            and "nonconstant" not in pay)
    if kind == "soe_search":
        return (pay["found"] is False
                and pay["candidates_rejected"] == expect[1]
                == len(pay["rejections"])
                and all(("QP" in r["reason"] or "PQ" in r["reason"]
                         or "root" in r["reason"])
                        for r in pay["rejections"]))
    raise ValueError(f"unknown check {kind}")


WORKLOADS = {w.name: w for w in (SoePipeline(), DeepPaths(), CliInvariants())}
