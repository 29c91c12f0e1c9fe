"""Command-line frontend with stable JSON output.

Every subcommand prints a CommandResult object:
    {"status": "ok" | "error", "payload": ..., "diagnostics": [...]}
Exit codes: 0 ok, 1 domain error (with the envelope), 2 usage or argument
parse error (argparse's usage message on stderr, no envelope); a reader
that closes stdout early also gets exit code 1, without a traceback.
Every command but validate and export-dot refuses a diagram file that
fails the axioms, with exit code 1.  The environment variable
BRATTELI_MAX_DEPTH (default 16) caps every --depth argument; it is read
on every call, a value that is not a non-negative integer reads as
unset, and capped values are reported in diagnostics.  The
argument parser is built once per process and shared by every ``run``
call; it holds no per-call state.  The envelope goes out through
``diagram.write_json``, the writer ``save_diagram`` uses too: the text of
``json.dumps(env, indent=2, sort_keys=True)`` and a newline, without
json's pure-Python indenting encoder.

The module imports only ``diagram`` and ``paths``, which the package loads
anyway; each command imports the rest of what it runs, so a one-shot
process compiles no module it never calls.  ``soe`` loads ``soe``; ``k0``,
``k1`` and ``oracle`` load ``ktheory``; ``generate`` loads ``generators``
and ``ktheory``.  ``validate``, ``telescope``, ``vershik``, ``rank``,
``orbit-shift``, ``extremal``, ``perfect`` and ``export-dot`` load nothing
more.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import diagram as dg
from . import paths as pt


def _max_depth() -> int:
    # A cap that is not an integer, or is negative, reads as unset.
    try:
        cap = int(os.environ.get("BRATTELI_MAX_DEPTH", "16"))
    except ValueError:
        return 16
    return cap if cap >= 0 else 16


def _cap_depth(depth: int, diagnostics: list) -> int:
    cap = _max_depth()
    if depth > cap:
        diagnostics.append(
            f"depth {depth} capped to BRATTELI_MAX_DEPTH={cap}")
        return cap
    return depth


def _parse_ints(text: str) -> list:
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _load_valid(path):
    """The diagram in a file, refused unless it meets the axioms."""
    d = dg.load_diagram(path)
    dg.check_valid(d)
    return d


def _path_arg(d, text):
    return pt.make_path(d, _parse_ints(text))


def _path_out(p) -> str:
    return ",".join(str(e) for e in p.edge_indices)


# --- subcommand payload builders -------------------------------------------


def _cmd_validate(args, diags):
    d = dg.load_diagram(args.diagram)
    report = dg.validate_diagram(d)
    diags.extend(str(v) for v in report)
    return {"valid": not report,
            "violations": [{"kind": v.kind, "level": v.level,
                            "detail": v.detail} for v in report]}


def _cmd_telescope(args, diags):
    d = _load_valid(args.diagram)
    td, _ = dg.telescope(d, _parse_ints(args.cuts))
    return dg.diagram_to_json(td)


def _cmd_vershik(args, diags):
    d = _load_valid(args.diagram)
    p = _path_arg(d, args.path)
    q = pt.vershik_successor(d, p)
    return {"successor": _path_out(q)}


def _cmd_rank(args, diags):
    d = _load_valid(args.diagram)
    if args.path is not None:
        p = _path_arg(d, args.path)
        return {"rank": pt.path_rank(d, p)}
    if args.rank is None or args.level is None or args.vertex is None:
        raise dg.DiagramError(
            "rank needs either --path, or --rank with --level and --vertex")
    p = pt.path_unrank(d, args.level, args.vertex, args.rank)
    return {"path": _path_out(p)}


def _cmd_orbit_shift(args, diags):
    d = _load_valid(args.diagram)
    e = _path_arg(d, getattr(args, "from"))
    f = _path_arg(d, args.to)
    return {"shift": pt.orbit_shift(d, e, f)}


def _cmd_extremal(args, diags):
    d = _load_valid(args.diagram)
    depth = _cap_depth(args.depth, diags)
    ps = pt.extremal_paths(d, depth, args.kind)
    return {"kind": ps.kind, "depth": ps.depth,
            "stabilized": ps.stabilized,
            "paths": [_path_out(p) for p in ps.paths]}


def _cmd_perfect(args, diags):
    d = _load_valid(args.diagram)
    depth = _cap_depth(args.depth, diags)
    res = pt.check_perfect_ordering(d, depth)
    pairing = res["pairing"]
    return {"verdict": res["verdict"],
            "pairing": (None if pairing is None else
                        {",".join(map(str, k)): _path_out(v)
                         for k, v in pairing.items()})}


def _cmd_k0(args, diags):
    from . import ktheory as kt
    d = _load_valid(args.diagram)
    heights = _parse_ints(args.heights) if args.heights else None
    pres = kt.k0_presentation(d, heights)
    out = {"sizes": list(pres.sizes), "unit": list(pres.unit)}
    if args.compare:
        if None in (args.level1, args.vec1, args.level2, args.vec2):
            raise dg.DiagramError(
                "k0 --compare needs --level1, --vec1, --level2 and --vec2")
        g1 = kt.DimGroupElement(args.level1, tuple(_parse_ints(args.vec1)))
        g2 = kt.DimGroupElement(args.level2, tuple(_parse_ints(args.vec2)))
        out["equal"] = kt.element_equal(g1, g2, pres)
    return out


def _cmd_k1(args, diags):
    from . import ktheory as kt
    d = _load_valid(args.diagram)
    depth = _cap_depth(args.depth, diags)
    return kt.k1_rank(d, depth)


def _cmd_oracle(args, diags):
    from . import ktheory as kt
    obj = dg.load_json(args.system)
    s = kt.permutation_system_from_json(obj)
    return kt.k_oracle_finite_system(s)


def _cmd_soe(args, diags):
    from . import soe
    b1 = _load_valid(args.b1)
    b2 = _load_valid(args.b2)
    if args.action == "check":
        if not args.intertwining:
            raise dg.DiagramError("soe check needs --intertwining")
        w = soe.intertwining_from_json(dg.load_json(args.intertwining))
        return soe.soe_report(b1, b2, w, _cap_depth(args.depth, diags))
    match, rejections = soe.search_stationary_intertwining(
        b1, b2, args.bound)
    out = {"found": match is not None,
           "candidates_rejected": len(rejections)}
    if match:
        out["P"], out["Q"] = match
    else:
        out["rejections"] = rejections
    return out


def _cmd_generate(args, diags):
    from . import generators as gen
    from . import ktheory as kt
    if args.family == "odometer":
        d = gen.odometer(args.base, args.levels)
    elif args.family == "stationary":
        m = dg.load_json(args.matrix)
        if type(m) is not list or not all(map(dg.is_int_list, m)):
            raise dg.MalformedDiagram("matrix must be a list of integer lists")
        d = gen.stationary_adic(m, args.levels)
    elif args.family == "union":
        parts = [_load_valid(p) for p in args.parts]
        d = gen.disjoint_union(parts)
    elif args.family == "cycles":
        system, d = gen.finite_cycle_system(_parse_ints(args.lengths),
                                            args.levels)
        return {"system": kt.permutation_system_to_json(system),
                "diagram": dg.diagram_to_json(d)}
    else:  # pragma: no cover - argparse restricts choices
        raise dg.DiagramError(f"unknown family {args.family}")
    return dg.diagram_to_json(d)


def _cmd_export_dot(args, diags):
    d = dg.load_diagram(args.diagram)
    return {"dot": dg.diagram_to_dot(d)}


# --- wiring ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bratteli",
        description="Exact arithmetic for ordered Bratteli diagrams, "
                    "Vershik dynamics and dimension-group invariants.")
    parser.add_argument("--format", choices=("json", "text"),
                        default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate")
    p.add_argument("--diagram", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("telescope")
    p.add_argument("--diagram", required=True)
    p.add_argument("--cuts", required=True)
    p.set_defaults(fn=_cmd_telescope)

    p = sub.add_parser("vershik")
    p.add_argument("--diagram", required=True)
    p.add_argument("--path", required=True)
    p.set_defaults(fn=_cmd_vershik)

    p = sub.add_parser("rank")
    p.add_argument("--diagram", required=True)
    p.add_argument("--path")
    p.add_argument("--rank", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--vertex", type=int)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("orbit-shift")
    p.add_argument("--diagram", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(fn=_cmd_orbit_shift)

    p = sub.add_parser("extremal")
    p.add_argument("--diagram", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--kind", choices=("min", "max"), default="min")
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("perfect")
    p.add_argument("--diagram", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_perfect)

    p = sub.add_parser("k0")
    p.add_argument("diagram")
    p.add_argument("--heights")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--level1", type=int)
    p.add_argument("--vec1")
    p.add_argument("--level2", type=int)
    p.add_argument("--vec2")
    p.set_defaults(fn=_cmd_k0)

    p = sub.add_parser("k1")
    p.add_argument("diagram")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_k1)

    p = sub.add_parser("oracle")
    p.add_argument("system")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("soe")
    p.add_argument("action", choices=("check", "search"))
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--intertwining")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--bound", type=int, default=12)
    p.set_defaults(fn=_cmd_soe)

    p = sub.add_parser("generate")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("odometer")
    g.add_argument("--base", type=int, required=True)
    g.add_argument("--levels", type=int, required=True)
    g.set_defaults(fn=_cmd_generate)
    g = gsub.add_parser("stationary")
    g.add_argument("--matrix", required=True)
    g.add_argument("--levels", type=int, required=True)
    g.set_defaults(fn=_cmd_generate)
    g = gsub.add_parser("union")
    g.add_argument("parts", nargs="+")
    g.set_defaults(fn=_cmd_generate)
    g = gsub.add_parser("cycles")
    g.add_argument("lengths")
    g.add_argument("--levels", type=int, default=6)
    g.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("export-dot")
    p.add_argument("--diagram", required=True)
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def _text_lines(env):
    """The --format text lines of an envelope: its status, each diagnostic,
    then the payload's DOT text as it is or the payload indented."""
    yield f"status: {env['status']}\n"
    for line in env["diagnostics"]:
        yield f"# {line}\n"
    payload = env["payload"]
    if set(payload) == {"dot"}:
        yield payload["dot"]
        return
    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    yield f"{indent}{k}:\n"
                    yield from walk(v, indent + "  ")
                else:
                    yield f"{indent}{k}: {v}\n"
        else:
            for v in obj:
                if isinstance(v, (dict, list)):
                    yield from walk(v, indent + "  ")
                else:
                    yield f"{indent}- {v}\n"
    yield from walk(payload)


# The text rendering's lines go out in writes of the JSON writer's size:
# under unbuffered stdout each write is one write(2), and lines are small.
WRITE_CHUNK = dg.WRITE_CHUNK


def _write(chunks, out) -> None:
    """Write the strings chunks yields to out, joined into writes of at
    least WRITE_CHUNK characters but the last, so no more than one
    write's worth of text is held at once."""
    buf, size = [], 0
    for chunk in chunks:
        buf.append(chunk)
        size += len(chunk)
        if size >= WRITE_CHUNK:
            out.write("".join(buf))
            buf, size = [], 0
    out.write("".join(buf))


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    diagnostics = []
    try:
        payload = args.fn(args, diagnostics)
        status, code = "ok", 0
    except (dg.DiagramError, OSError, ValueError) as exc:
        payload = {"message": str(exc)}
        diagnostics.append(str(exc))
        status, code = "error", 1
    env = {"status": status, "payload": payload, "diagnostics": diagnostics}
    if args.format == "json":
        dg.write_json(env, sys.stdout.write, sort_keys=True)
    else:
        _write(_text_lines(env), sys.stdout)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit,
        # so point it at devnull, where that flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
