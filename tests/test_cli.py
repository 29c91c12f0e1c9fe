import json
import os
import subprocess
import sys

import pytest

import bratteli
from bratteli import cli
from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import ktheory as kt
from bratteli import paths as pt
from bratteli import soe
from conftest import UNFED_JSON, peak_growth


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def odo2(tmp_path):
    path = tmp_path / "odo2.json"
    dg.save_diagram(gen.odometer(2, 6), str(path))
    return str(path)


def test_validate_ok(capsys, odo2):
    code, res = run_json(capsys, ["validate", "--diagram", odo2])
    assert code == 0
    assert res["status"] == "ok"
    assert res["payload"]["valid"] is True
    assert res["diagnostics"] == []


def test_vershik_binary_increment(capsys, odo2):
    code, res = run_json(capsys, ["vershik", "--diagram", odo2,
                                  "--path", "1,1,0"])
    assert code == 0
    assert res["payload"]["successor"] == "0,0,1"


def test_rank_and_unrank(capsys, odo2):
    code, res = run_json(capsys, ["rank", "--diagram", odo2,
                                  "--path", "1,1,0"])
    assert res["payload"]["rank"] == 3
    code, res = run_json(capsys, ["rank", "--diagram", odo2, "--rank", "3",
                                  "--level", "3", "--vertex", "0"])
    assert res["payload"]["path"] == "1,1,0"


def test_orbit_shift(capsys, odo2):
    code, res = run_json(capsys, ["orbit-shift", "--diagram", odo2,
                                  "--from", "0,0,0", "--to", "1,1,0"])
    assert res["payload"]["shift"] == 3


def test_extremal_and_depth_cap(capsys, odo2, monkeypatch):
    monkeypatch.setenv("BRATTELI_MAX_DEPTH", "4")
    code, res = run_json(capsys, ["extremal", "--diagram", odo2,
                                  "--depth", "9"])
    assert code == 0
    assert res["payload"]["depth"] == 4
    assert any("capped" in d for d in res["diagnostics"])


def test_perfect(capsys, odo2):
    code, res = run_json(capsys, ["perfect", "--diagram", odo2,
                                  "--depth", "4"])
    assert res["payload"]["verdict"] == "pass"


def test_k0_and_k1(capsys, odo2):
    code, res = run_json(capsys, ["k0", odo2])
    assert res["payload"]["unit"] == [2]
    code, res = run_json(capsys, ["k1", odo2, "--depth", "4"])
    assert res["payload"] == {"rank": 1, "certified": True}


def test_k0_compare_needs_both_elements(capsys, odo2):
    code, res = run_json(capsys, ["k0", odo2, "--compare",
                                  "--vec1", "1", "--vec2", "2"])
    assert code == 1
    assert res["status"] == "error"
    assert "--level1" in res["payload"]["message"]


@pytest.mark.parametrize("argv, message", [
    (["soe", "check", "--b1", "D", "--b2", "D"],
     "soe check needs --intertwining"),
    (["rank", "--diagram", "D"],
     "rank needs either --path, or --rank with --level and --vertex"),
], ids=["soe-check", "rank"])
def test_missing_option_is_domain_error(capsys, odo2, argv, message):
    code, res = run_json(capsys, [odo2 if a == "D" else a for a in argv])
    assert code == 1
    assert res["status"] == "error"
    assert res["payload"]["message"] == message


def test_unreadable_depth_cap_falls_back_to_16(capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.setenv("BRATTELI_MAX_DEPTH", "x")
    odo = tmp_path / "odo.json"
    dg.save_diagram(gen.odometer(2, 20), str(odo))
    code, res = run_json(capsys, ["extremal", "--diagram", str(odo),
                                  "--depth", "20"])
    assert code == 0 and res["payload"]["depth"] == 16
    assert res["diagnostics"] == ["depth 20 capped to BRATTELI_MAX_DEPTH=16"]


@pytest.mark.parametrize("cap", ["-1", "-16"])
def test_negative_depth_cap_reads_as_unset(capsys, odo2, monkeypatch, cap):
    # A negative cap once capped --depth 5 to itself and failed with
    # "depth -1 out of range", a depth the caller never gave.
    argv = ["k1", odo2, "--depth", "5"]
    monkeypatch.delenv("BRATTELI_MAX_DEPTH", raising=False)
    _, unset = run_json(capsys, argv)
    monkeypatch.setenv("BRATTELI_MAX_DEPTH", cap)
    code, res = run_json(capsys, argv)
    assert code == 0 and res == unset
    assert res["payload"] == {"certified": True, "rank": 1}
    assert res["diagnostics"] == []
    # A cap of 0 is a cap.
    monkeypatch.setenv("BRATTELI_MAX_DEPTH", "0")
    code, res = run_json(capsys, argv)
    assert code == 0
    assert res["diagnostics"] == ["depth 5 capped to BRATTELI_MAX_DEPTH=0"]


@pytest.mark.parametrize("argv", [
    ["perfect", "--diagram", "D", "--depth", "4"],
    ["extremal", "--diagram", "D", "--depth", "4"],
    ["k0", "D"],
    ["k1", "D", "--depth", "4"],
], ids=["perfect", "extremal", "k0", "k1"])
def test_command_scans_the_axioms_once(capsys, monkeypatch, odo2, argv):
    scans = []
    scan = dg._scan_axioms
    monkeypatch.setattr(dg, "_scan_axioms",
                        lambda d: scans.append(d) or scan(d))
    code, res = run_json(capsys, [odo2 if a == "D" else a for a in argv])
    assert code == 0 and res["status"] == "ok"
    assert len(scans) == 1


def test_oracle(capsys, tmp_path):
    system, _ = gen.finite_cycle_system([2, 3])
    spath = tmp_path / "sys.json"
    spath.write_text(json.dumps({"n": 5, "perm": list(system.permutation),
                                 "fiber": list(system.fiber_of)}))
    code, res = run_json(capsys, ["oracle", str(spath)])
    assert res["payload"]["k0_rank"] == 2
    assert res["payload"]["unit_image"] == [2, 3]



def test_oracle_size_cap(capsys, tmp_path):
    # One point past the cap is a domain error; the cap itself still runs.
    cap = kt.MAX_ORACLE_POINTS
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"n": cap + 1,
                                "perm": [(i + 1) % (cap + 1)
                                         for i in range(cap + 1)],
                                "fiber": [0] * (cap + 1)}))
    code, res = run_json(capsys, ["oracle", str(over)])
    assert code == 1 and res["status"] == "error"
    assert res["payload"]["message"] == (
        f"oracle systems are capped at {cap} points, got {cap + 1}")
    at = tmp_path / "at.json"
    at.write_text(json.dumps({"n": cap, "perm": list(range(cap)),
                              "fiber": list(range(cap))}))
    code, res = run_json(capsys, ["oracle", str(at)])
    assert code == 0 and res["payload"]["k0_rank"] == cap

def test_generate_round_trip(capsys, tmp_path):
    code, res = run_json(capsys, ["generate", "odometer", "--base", "3",
                                  "--levels", "4"])
    assert code == 0
    d = dg.diagram_from_json(res["payload"])
    assert d == gen.odometer(3, 4)


def test_generate_cycles(capsys):
    code, res = run_json(capsys, ["generate", "cycles", "2,3"])
    assert set(res["payload"]) == {"system", "diagram"}


def test_export_dot(capsys, odo2):
    code, res = run_json(capsys, ["export-dot", "--diagram", odo2])
    assert res["payload"]["dot"].startswith("digraph")


def test_soe_check_and_search(capsys, tmp_path):
    b1, _ = dg.telescope(gen.odometer(2, 9), [1, 3, 5, 7, 9])
    b2 = gen.odometer(4, 4)
    p1 = tmp_path / "b1.json"
    p2 = tmp_path / "b2.json"
    dg.save_diagram(b1, str(p1))
    dg.save_diagram(b2, str(p2))
    wpath = tmp_path / "w.json"
    w = soe.stationary_intertwining([[2]], [[2]], 4, 4)
    wpath.write_text(json.dumps(soe.intertwining_to_json(w)))
    code, res = run_json(capsys, ["soe", "check", "--b1", str(p1),
                                  "--b2", str(p2),
                                  "--intertwining", str(wpath),
                                  "--depth", "4"])
    assert code == 0
    assert res["payload"]["interleaved_ok"]
    assert res["payload"]["continuity_ok"]
    code, res = run_json(capsys, ["soe", "search", "--b1", str(p1),
                                  "--b2", str(p2), "--bound", "4"])
    assert res["payload"]["found"] is True
    assert res["payload"]["P"] == [[2]]


def test_telescope_payload(capsys, odo2):
    code, res = run_json(capsys, ["telescope", "--diagram", odo2,
                                  "--cuts", "2,4,6"])
    assert code == 0
    td, _ = dg.telescope(gen.odometer(2, 6), [2, 4, 6])
    assert res["payload"] == dg.diagram_to_json(td)


@pytest.mark.parametrize("argv", [
    ["validate", "--diagram", "D"],
    ["telescope", "--diagram", "D", "--cuts", "2,4,6"],
    ["k0", "D", "--compare", "--level1", "1", "--vec1", "1", "--level2",
     "2", "--vec2", "2"],
    ["rank", "--diagram", "D", "--path", "1,1,1,1,1,1,1"],     # error
    ["generate", "cycles", "2,3"],
])
def test_envelope_is_json_dumps_text(capsys, odo2, argv):
    # Written in bounded writes, the envelope is still the text of
    # json.dumps with indent 2 and sorted keys, and one newline.
    code = cli.run([odo2 if a == "D" else a for a in argv])
    out = capsys.readouterr().out
    env = json.loads(out)
    assert (code, env["status"]) in ((0, "ok"), (1, "error"))
    assert out == json.dumps(env, indent=2, sort_keys=True) + "\n"


class _CountingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_envelope_goes_out_in_bounded_writes(monkeypatch, tmp_path):
    # The 2-odometer on 12 levels cut at 12: one level of 4,096 edges,
    # about 250 KB of JSON.
    path = tmp_path / "odo12.json"
    dg.save_diagram(gen.odometer(2, 12), str(path))
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.run(["telescope", "--diagram", str(path), "--cuts", "12"]) == 0
    text = "".join(out.writes)
    chunks = -(-len(text) // cli.WRITE_CHUNK)
    assert chunks >= 3
    assert len(out.writes) <= chunks + 1
    env = json.loads(text)
    assert text == json.dumps(env, indent=2, sort_keys=True) + "\n"


# A child runs `bratteli telescope` through cli.main with stdout in a file;
# with json_encoder set, the envelope goes through json's indenting encoder
# in WRITE_CHUNK writes, as the CLI wrote it before write_json.
_MAIN_TO_FILE = """
import json, sys, types
from itertools import chain
from bratteli import cli, diagram as dg
if {json_encoder}:
    def write_json(obj, write, sort_keys=False):
        chunks = json.JSONEncoder(indent=2, sort_keys=sort_keys).iterencode(obj)
        cli._write(chain(chunks, "\\n"), types.SimpleNamespace(write=write))
    dg.write_json = write_json
sys.argv = ["bratteli", *{argv!r}]
def main():
    saved, sys.stdout = sys.stdout, open({out!r}, "w")
    try:
        cli.main()
    except SystemExit as exit:
        return exit.code
    finally:
        sys.stdout.close()
        sys.stdout = saved
"""


def test_telescope_at_the_edge_cap_is_json_dumps_text_in_bounded_memory(
        tmp_path):
    # odometer(2, 17) cut at 17: one level of MAX_TELESCOPE_EDGES edges,
    # 7,340,253 bytes of JSON.  Its peak RSS growth stays within 5% of the
    # same run through json's encoder: about 57.7 MB each on a 2-vCPU Intel
    # Xeon host with Python 3.11.7.
    path = tmp_path / "odo17.json"
    dg.save_diagram(gen.odometer(2, 17), str(path))
    argv = ["telescope", "--diagram", str(path), "--cuts", "17"]
    grown, texts = [], []
    for json_encoder in (False, True):
        out = tmp_path / f"out{int(json_encoder)}.json"
        grown_mb, code = peak_growth(_MAIN_TO_FILE.format(
            json_encoder=json_encoder, argv=argv, out=str(out)), "main()")
        assert code == "0"
        grown.append(grown_mb)
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert len(texts[0]) == 7_340_253
    env = json.loads(texts[0])
    assert texts[0] == json.dumps(env, indent=2, sort_keys=True) + "\n"
    assert grown[0] <= 1.05 * grown[1], f"peak RSS grew by {grown} MB"


def test_text_goes_out_in_bounded_writes(monkeypatch, tmp_path):
    # The same telescoping as text: two lines per edge, about 90 KB, in
    # the envelope's chunked writes rather than a write per line.
    path = tmp_path / "odo12.json"
    dg.save_diagram(gen.odometer(2, 12), str(path))
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.run(["--format", "text", "telescope", "--diagram", str(path),
                    "--cuts", "12"]) == 0
    text = "".join(out.writes)
    chunks = -(-len(text) // cli.WRITE_CHUNK)
    assert chunks >= 2
    assert len(out.writes) <= chunks + 1
    assert text.startswith("status: ok\nnum_levels: 1\n")
    assert text.count("\n") == 2 * 4096 + 8


def test_telescope_past_the_edge_cap_is_domain_error(capsys, tmp_path):
    # The 2-odometer on 17 levels and a one-edge level 18, cut at 17 and
    # 18: 2^17 + 1 edges, one past MAX_TELESCOPE_EDGES.
    d = dg.make_diagram(18, [1] * 19, [[(0, 0), (0, 0)]] * 17 + [[(0, 0)]])
    path = tmp_path / "tail.json"
    dg.save_diagram(d, str(path))
    code, res = run_json(capsys, ["telescope", "--diagram", str(path),
                                  "--cuts", "17,18"])
    assert code == 1
    assert res["status"] == "error"
    assert "MAX_TELESCOPE_EDGES = 131072" in res["payload"]["message"]


def test_soe_search_without_match_lists_rejections(capsys, tmp_path, odo2):
    odo3 = tmp_path / "odo3.json"
    dg.save_diagram(gen.odometer(3, 6), str(odo3))
    code, res = run_json(capsys, ["soe", "search", "--b1", odo2,
                                  "--b2", str(odo3), "--bound", "2"])
    assert code == 0
    payload = res["payload"]
    assert payload["found"] is False
    assert payload["candidates_rejected"] == len(payload["rejections"]) == 9
    assert all(set(r) == {"P", "Q", "reason"}
               for r in payload["rejections"])


def test_soe_depth_cap_is_reported_only_where_depth_is_read(
        capsys, tmp_path, monkeypatch, odo2):
    # search reads no --depth, so it has nothing to cap; check caps it.
    monkeypatch.setenv("BRATTELI_MAX_DEPTH", "16")
    odo3 = tmp_path / "odo3.json"
    dg.save_diagram(gen.odometer(3, 6), str(odo3))
    code, res = run_json(capsys, ["soe", "search", "--b1", odo2,
                                  "--b2", str(odo3), "--bound", "2",
                                  "--depth", "20"])
    assert code == 0 and res["diagnostics"] == []
    w = soe.stationary_intertwining([[1]], [[2]], 6, 5)
    (tmp_path / "w.json").write_text(json.dumps(soe.intertwining_to_json(w)))
    code, res = run_json(capsys, ["soe", "check", "--b1", odo2,
                                  "--b2", odo2, "--intertwining",
                                  str(tmp_path / "w.json"), "--depth", "20"])
    assert code == 0 and res["payload"]["continuity_ok"]
    assert res["diagnostics"] == [
        "depth 20 capped to BRATTELI_MAX_DEPTH=16"]


@pytest.mark.parametrize("depth, cap", [("1", None), ("6", "1")],
                         ids=["depth-1", "capped-to-1"])
def test_soe_check_depth_below_2_is_domain_error(capsys, tmp_path,
                                                 monkeypatch, depth, cap):
    b1, _ = dg.telescope(gen.odometer(2, 9), [1, 3, 5, 7, 9])
    diagrams = {"b1": b1, "b2": gen.odometer(4, 4)}
    for name, d in diagrams.items():
        dg.save_diagram(d, str(tmp_path / f"{name}.json"))
    w = soe.stationary_intertwining([[2]], [[2]], 4, 4)
    (tmp_path / "w.json").write_text(json.dumps(soe.intertwining_to_json(w)))
    if cap is not None:
        monkeypatch.setenv("BRATTELI_MAX_DEPTH", cap)
    code, res = run_json(capsys, [
        "soe", "check", "--b1", str(tmp_path / "b1.json"),
        "--b2", str(tmp_path / "b2.json"),
        "--intertwining", str(tmp_path / "w.json"), "--depth", depth])
    assert code == 1
    assert res["status"] == "error"
    assert res["payload"]["message"] == "depth must be at least 2"
    capped = [line for line in res["diagnostics"] if "capped" in line]
    assert capped == ([] if cap is None else
                      [f"depth 6 capped to BRATTELI_MAX_DEPTH={cap}"])


def test_domain_error_exit_code_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_levels": 1}')
    code, res = run_json(capsys, ["validate", "--diagram", str(bad)])
    assert code == 1
    assert res["status"] == "error"
    bad.write_text('{not json')
    code, res = run_json(capsys, ["validate", "--diagram", str(bad)])
    assert code == 1
    assert "line" in res["payload"]["message"]


@pytest.mark.parametrize("text", [
    '{"num_levels": 1, "vertex_counts": [1, 1], "edges": [5]}',
    '{"num_levels": "1", "vertex_counts": [1, 1],'
    ' "edges": [[{"s": 0, "r": 0}]]}',
    '{"num_levels": 1, "vertex_counts": [1, 1],'
    ' "edges": [[{"s": [0], "r": 0}]]}',
], ids=["level-not-list", "num-levels-string", "edge-field-list"])
def test_mistyped_diagram_json_is_domain_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, res = run_json(capsys, ["validate", "--diagram", str(bad)])
    assert code == 1
    assert res["status"] == "error"


@pytest.mark.parametrize("argv", [
    ["vershik", "--diagram", "BAD", "--path", "0,0"],
    ["rank", "--diagram", "BAD", "--path", "0,0"],
    ["telescope", "--diagram", "BAD", "--cuts", "2"],
    ["orbit-shift", "--diagram", "BAD", "--from", "0,0", "--to", "0,0"],
    ["extremal", "--diagram", "BAD", "--depth", "2"],
    ["perfect", "--diagram", "BAD", "--depth", "2"],
    ["k0", "BAD"],
    ["k1", "BAD", "--depth", "2"],
    ["soe", "search", "--b1", "BAD", "--b2", "BAD", "--bound", "1"],
    ["soe", "check", "--b1", "BAD", "--b2", "BAD", "--intertwining", "W"],
    ["generate", "union", "BAD"],
], ids=["vershik", "rank", "telescope", "orbit-shift", "extremal", "perfect",
        "k0", "k1", "soe-search", "soe-check", "generate-union"])
def test_diagram_failing_the_axioms_is_domain_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(UNFED_JSON)
    w = tmp_path / "w.json"
    w.write_text('{"P": [[[1]]], "Q": [[[1]]]}')
    argv = [{"BAD": str(bad), "W": str(w)}.get(a, a) for a in argv]
    code, res = run_json(capsys, argv)
    assert code == 1
    assert res["status"] == "error"
    assert res["payload"]["message"] == (
        "[range-surjectivity] level 1: vertex 1 at level 1 has no incoming "
        "edge")


def test_validate_and_export_dot_read_a_diagram_failing_the_axioms(
        capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(UNFED_JSON)
    code, res = run_json(capsys, ["validate", "--diagram", str(bad)])
    assert code == 0 and res["payload"]["valid"] is False
    code, res = run_json(capsys, ["export-dot", "--diagram", str(bad)])
    assert code == 0 and res["payload"]["dot"].startswith("digraph")


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["vershik"])    # missing required arguments
    assert exc.value.code == 2


def test_soe_search_has_no_seed(capsys, odo2):
    with pytest.raises(SystemExit) as exc:
        cli.run(["soe", "search", "--b1", odo2, "--b2", odo2, "--seed", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_text_format(capsys, odo2, tmp_path):
    code = cli.run(["--format", "text", "k1", odo2, "--depth", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: ok" in out
    assert "rank: 1" in out
    # A nested payload indents; export-dot prints the DOT text raw.
    path = tmp_path / "odo.json"
    dg.save_diagram(gen.odometer(2, 3), str(path))
    code = cli.run(["--format", "text", "perfect", "--diagram", str(path),
                    "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["status: ok", "verdict: pass", "pairing:",
                                "  1,1: 0,0"]
    code = cli.run(["--format", "text", "export-dot", "--diagram",
                    str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "status: ok\n" + dg.diagram_to_dot(gen.odometer(2, 3))


@pytest.mark.parametrize("heights, message", [
    ("1,1", "heights must have 1 entries, got 2"),
    ("0", "heights must be strictly positive"),
], ids=["wrong-length", "zero"])
def test_k0_bad_heights_are_domain_errors(capsys, odo2, heights, message):
    code, res = run_json(capsys, ["k0", odo2, "--heights", heights])
    assert code == 1
    assert res["status"] == "error"
    assert res["payload"]["message"] == message


@pytest.mark.parametrize("b1, message", [
    (gen.odometer(2, 1), "stationary search needs at least two levels"),
    (dg.telescope(gen.odometer(2, 5), [1, 3, 4, 5])[0],
     "diagram is not stationary"),
    (dg.make_diagram(2, [1, 2, 3], [[(0, 0), (0, 1)],
                                    [(0, 0), (1, 1), (0, 2), (1, 2)]]),
     "diagram is not stationary"),
], ids=["one-level", "not-stationary", "one-map-not-square"])
def test_soe_search_refuses_b1(capsys, tmp_path, odo2, b1, message):
    path = tmp_path / "b1.json"
    dg.save_diagram(b1, str(path))
    code, res = run_json(capsys, ["soe", "search", "--b1", str(path),
                                  "--b2", odo2, "--bound", "2"])
    assert code == 1
    assert res["status"] == "error"
    assert res["payload"]["message"] == message


@pytest.mark.parametrize("command, text", [
    ("soe", '{"P": 5, "Q": []}'),
    ("oracle", '{"n": 2, "perm": 5, "fiber": [0, 0]}'),
    ("oracle", '{"n": 0, "perm": [], "fiber": []}'),
], ids=["intertwining-p-int", "system-perm-int", "system-empty"])
def test_malformed_intertwining_and_system_json_is_domain_error(
        capsys, tmp_path, odo2, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "soe":
        argv = ["soe", "check", "--b1", odo2, "--b2", odo2,
                "--intertwining", str(bad)]
    else:
        argv = ["oracle", str(bad)]
    code, res = run_json(capsys, argv)
    assert code == 1
    assert res["status"] == "error"
    assert res["payload"]["message"] == res["diagnostics"][0]


@pytest.mark.parametrize("text", ["5", "[[1.5]]", "[[true]]"],
                         ids=["scalar", "float-entry", "bool-entry"])
def test_mistyped_stationary_matrix_is_domain_error(capsys, tmp_path, text):
    bad = tmp_path / "matrix.json"
    bad.write_text(text)
    code, res = run_json(capsys, ["generate", "stationary", "--matrix",
                                  str(bad), "--levels", "3"])
    assert code == 1
    assert res["status"] == "error"
    assert res["payload"]["message"] == res["diagnostics"][0]


def test_soe_search_negative_bound_is_domain_error(capsys, tmp_path):
    # A negative bound tries no candidate, so "not found" would be a
    # verdict on nothing.
    path = tmp_path / "b.json"
    dg.save_diagram(gen.odometer(2, 4), str(path))
    code, res = run_json(capsys, ["soe", "search", "--b1", str(path),
                                  "--b2", str(path), "--bound", "-3"])
    assert code == 1
    assert res["status"] == "error"
    assert "bound" in res["payload"]["message"]


def test_soe_search_past_the_candidate_cap_is_domain_error(capsys, tmp_path):
    # Two 2-vertex diagrams at the default bound 12 would be 13^8 (P, Q)
    # candidates; the search refuses before building any.
    path = tmp_path / "b.json"
    dg.save_diagram(gen.stationary_adic([[1, 1], [1, 0]], 4), str(path))
    code, res = run_json(capsys, ["soe", "search", "--b1", str(path),
                                  "--b2", str(path)])
    assert code == 1
    assert res["status"] == "error"
    assert "candidates" in res["payload"]["message"]


@pytest.mark.parametrize("argv, levels", [
    (["odometer", "--base", "3", "--levels", "4"], 4),
    (["stationary", "--matrix", None, "--levels", "5"], 5),
], ids=["odometer", "stationary"])
def test_generate_payload_feeds_validate_and_rank(capsys, tmp_path, argv,
                                                  levels):
    matrix = tmp_path / "matrix.json"
    matrix.write_text("[[2, 1], [1, 1]]")
    argv = [str(matrix) if a is None else a for a in argv]
    code, res = run_json(capsys, ["generate", *argv])
    assert code == 0
    saved = tmp_path / "generated.json"
    saved.write_text(json.dumps(res["payload"]))
    code, res = run_json(capsys, ["validate", "--diagram", str(saved)])
    assert code == 0 and res["payload"]["valid"] is True
    d = dg.load_diagram(str(saved))
    for v in range(d.vertex_counts[levels]):
        code, res = run_json(capsys, ["rank", "--diagram", str(saved),
                                      "--rank", "0", "--level", str(levels),
                                      "--vertex", str(v)])
        assert code == 0
        want = pt.min_path_to(d, levels, v).edge_indices
        assert res["payload"]["path"] == ",".join(map(str, want))


@pytest.fixture
def nested(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


@pytest.mark.parametrize("argv", [
    ["validate", "--diagram", "NESTED"],
    ["oracle", "NESTED"],
    ["soe", "check", "--b1", "ODO", "--b2", "ODO", "--intertwining",
     "NESTED"],
    ["generate", "stationary", "--matrix", "NESTED", "--levels", "3"],
], ids=["validate", "oracle", "soe-check", "generate-stationary"])
def test_deeply_nested_json_is_domain_error(capsys, odo2, nested, argv):
    argv = [{"NESTED": nested, "ODO": odo2}.get(a, a) for a in argv]
    code, res = run_json(capsys, argv)
    assert code == 1
    assert res["status"] == "error"
    assert "nested too deeply" in res["payload"]["message"]


def _call(capsys, argv):
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("first, second, depth_caps, check", [
    (["--format", "text", "k1", "ODO", "--depth", "4"],
     ["k1", "ODO", "--depth", "4"], None,
     lambda code, out: json.loads(out)["payload"]["rank"] == 1),
    (["rank", "--diagram", "ODO", "--path", "1,1,0"],
     ["rank", "--diagram", "ODO", "--rank", "3", "--level", "3",
      "--vertex", "0"], None,
     lambda code, out: json.loads(out)["payload"] == {"path": "1,1,0"}),
    (["k0", "ODO", "--compare", "--level1", "1", "--vec1", "1",
      "--level2", "2", "--vec2", "2"],
     ["k0", "ODO"], None,
     lambda code, out: "equal" not in json.loads(out)["payload"]),
    (["vershik"], ["validate", "--diagram", "ODO"], None,
     lambda code, out: code == 0),
    (["extremal", "--diagram", "ODO", "--depth", "9"],
     ["extremal", "--diagram", "ODO", "--depth", "9"], ("4", "3"),
     lambda code, out: json.loads(out)["payload"]["depth"] == 3),
], ids=["format", "rank-mode", "k0-compare", "after-usage-error",
        "depth-cap"])
def test_shared_parser_keeps_no_state(capsys, monkeypatch, odo2, first,
                                      second, depth_caps, check):
    first = [odo2 if a == "ODO" else a for a in first]
    second = [odo2 if a == "ODO" else a for a in second]
    if depth_caps:
        monkeypatch.setenv("BRATTELI_MAX_DEPTH", depth_caps[0])
    parser = cli.build_parser()
    _call(capsys, first)
    if depth_caps:
        monkeypatch.setenv("BRATTELI_MAX_DEPTH", depth_caps[1])
    shared = _call(capsys, second)
    assert cli.build_parser() is parser
    cli.build_parser.cache_clear()
    fresh = _call(capsys, second)
    assert cli.build_parser() is not parser
    assert shared == fresh
    assert check(*shared)


def test_closed_stdout_exits_without_traceback():
    # The reader end is closed before the command starts, so every write
    # to stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(bratteli.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bratteli.cli", "generate", "odometer",
             "--base", "2", "--levels", "10"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1


def _imported(tmp_path, argv):
    """The bratteli modules a fresh ``python -m bratteli.cli`` process
    imports to run argv, read from its -X importtime log."""
    src = os.path.dirname(os.path.dirname(bratteli.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bratteli.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["status"] == "ok"
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


# The records build their methods without generating code, so no cold
# command loads the modules that generate it.
CODE_GENERATION = {"dataclasses", "inspect"}


def test_cold_soe_check_imports_no_ktheory_or_generators(tmp_path):
    b1, _ = dg.telescope(gen.odometer(2, 9), [1, 3, 5, 7, 9])
    dg.save_diagram(b1, str(tmp_path / "b1.json"))
    dg.save_diagram(gen.odometer(4, 4), str(tmp_path / "b2.json"))
    w = soe.stationary_intertwining([[2]], [[2]], 4, 4)
    (tmp_path / "w.json").write_text(json.dumps(soe.intertwining_to_json(w)))
    mods = _imported(tmp_path, ["soe", "check", "--b1", "b1.json",
                                "--b2", "b2.json", "--intertwining",
                                "w.json", "--depth", "4"])
    assert "bratteli.soe" in mods
    assert not mods & {"bratteli.ktheory", "bratteli.generators"}
    assert not mods & CODE_GENERATION


# The commands that load nothing beyond diagram and paths, as the cli
# docstring says, each with arguments that run it to an ok envelope; D
# stands for the diagram file.
LIGHT_COMMANDS = [
    ["validate", "--diagram", "D"],
    ["telescope", "--diagram", "D", "--cuts", "2,4,6"],
    ["vershik", "--diagram", "D", "--path", "1,1,0"],
    ["rank", "--diagram", "D", "--path", "1,1,0"],
    ["orbit-shift", "--diagram", "D", "--from", "0,0,0", "--to", "1,1,0"],
    ["extremal", "--diagram", "D", "--depth", "4"],
    ["perfect", "--diagram", "D", "--depth", "4"],
    ["export-dot", "--diagram", "D"],
]


@pytest.mark.parametrize("argv", LIGHT_COMMANDS,
                         ids=[argv[0] for argv in LIGHT_COMMANDS])
def test_cold_light_command_imports_only_diagram_and_paths(tmp_path, odo2,
                                                           argv):
    mods = _imported(tmp_path, [odo2 if a == "D" else a for a in argv])
    assert {m for m in mods if m.startswith("bratteli")} == {
        "bratteli", "bratteli.diagram", "bratteli.paths"}
    assert not mods & CODE_GENERATION


def test_cold_oracle_imports_no_code_generation(tmp_path):
    system, _ = gen.finite_cycle_system([2, 3])
    (tmp_path / "sys.json").write_text(
        json.dumps(kt.permutation_system_to_json(system)))
    mods = _imported(tmp_path, ["oracle", "sys.json"])
    assert "bratteli.ktheory" in mods
    assert not mods & CODE_GENERATION


def test_generate_union_in_process_keeps_part_labels(capsys, tmp_path):
    # Two union runs nest the 2-, 3- and 5-odometers: three fibers, one
    # extremal pair each.
    paths = {}
    for name, d in (("u2", gen.odometer(2, 6)), ("u3", gen.odometer(3, 6)),
                    ("u5", gen.odometer(5, 6))):
        paths[name] = str(tmp_path / f"{name}.json")
        dg.save_diagram(d, paths[name])
    for out, parts in (("inner", ["u2", "u3"]), ("nested", ["inner", "u5"])):
        code, res = run_json(capsys, ["generate", "union",
                                      *(paths[p] for p in parts)])
        assert code == 0
        paths[out] = str(tmp_path / f"{out}.json")
        (tmp_path / f"{out}.json").write_text(json.dumps(res["payload"]))
    assert res["payload"]["group_labels"] == [[0, 1, 2]] * 6
    code, res = run_json(capsys, ["perfect", "--diagram", paths["nested"],
                                  "--depth", "5"])
    assert code == 0
    assert res["payload"]["verdict"] == "pass"
    assert len(res["payload"]["pairing"]) == 3


def test_text_format_prints_lists(capsys, tmp_path):
    path = tmp_path / "union.json"
    dg.save_diagram(gen.disjoint_union([gen.odometer(2, 3),
                                        gen.odometer(3, 3)]), str(path))
    code = cli.run(["--format", "text", "extremal", "--diagram", str(path),
                    "--depth", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "status: ok", "kind: min", "depth: 2", "stabilized: True", "paths:",
        "  - 0,0", "  - 2,2"]
    # A list of records: each record's fields, one level deeper, after
    # the diagnostics.
    unfed = tmp_path / "unfed.json"
    unfed.write_text(UNFED_JSON)
    code = cli.run(["--format", "text", "validate", "--diagram", str(unfed)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "status: ok",
        "# [range-surjectivity] level 1: vertex 1 at level 1 has no "
        "incoming edge",
        "valid: False", "violations:",
        "    kind: range-surjectivity", "    level: 1",
        "    detail: vertex 1 at level 1 has no incoming edge"]


def _reference_emit_text(payload, diagnostics, out):
    """The print-based text rendering the CLI had before text went through
    the envelope's chunked writer, kept as a reference for its lines."""
    for line in diagnostics:
        print(f"# {line}", file=out)
    if isinstance(payload, dict) and set(payload) == {"dot"}:
        print(payload["dot"], end="", file=out)
        return
    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)):
                    print(f"{indent}{k}:", file=out)
                    walk(v, indent + "  ")
                else:
                    print(f"{indent}{k}: {v}", file=out)
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + "  ")
                else:
                    print(f"{indent}- {v}", file=out)
        else:
            print(f"{indent}{obj}", file=out)
    walk(payload)


@pytest.fixture
def text_inputs(tmp_path, odo2):
    files = {"odo2": odo2}
    for name, d in (("odo3", gen.odometer(3, 6)),
                    ("union", gen.disjoint_union([gen.odometer(2, 6),
                                                  gen.odometer(3, 6)])),
                    ("b1", dg.telescope(gen.odometer(2, 9),
                                        [1, 3, 5, 7, 9])[0]),
                    ("b2", gen.odometer(4, 4))):
        files[name] = str(tmp_path / f"{name}.json")
        dg.save_diagram(d, files[name])
    files["w"] = str(tmp_path / "w.json")
    with open(files["w"], "w") as f:
        json.dump(soe.intertwining_to_json(
            soe.stationary_intertwining([[2]], [[2]], 4, 4)), f)
    files["system"] = str(tmp_path / "system.json")
    with open(files["system"], "w") as f:
        json.dump(kt.permutation_system_to_json(
            gen.finite_cycle_system([2, 3])[0]), f)
    files["unfed"] = str(tmp_path / "unfed.json")
    with open(files["unfed"], "w") as f:
        f.write(UNFED_JSON)
    return files


@pytest.mark.parametrize("argv", [
    # One of each command the cli-invariants benchmark runs.
    ["validate", "--diagram", "{odo2}"],
    ["rank", "--diagram", "{odo2}", "--path", "1,0,1"],
    ["vershik", "--diagram", "{odo2}", "--path", "1,1,0"],
    ["k0", "{odo2}", "--compare", "--level1", "1", "--vec1", "3",
     "--level2", "2", "--vec2", "6"],
    ["k1", "{union}", "--depth", "5"],
    ["extremal", "--diagram", "{odo2}", "--depth", "4", "--kind", "max"],
    ["perfect", "--diagram", "{union}", "--depth", "5"],
    ["telescope", "--diagram", "{odo2}", "--cuts", "2,3,5,6"],
    ["oracle", "{system}"],
    ["soe", "check", "--b1", "{b1}", "--b2", "{b2}", "--intertwining", "{w}",
     "--depth", "4"],
    # No match: nested lists of rejection records.
    ["soe", "search", "--b1", "{odo2}", "--b2", "{odo3}", "--bound", "2"],
    # Diagnostics before an ok payload, and an error envelope.
    ["validate", "--diagram", "{unfed}"],
    ["rank", "--diagram", "{odo2}", "--path", "1,1,1,1,1,1,1"],
    ["export-dot", "--diagram", "{odo2}"],
])
def test_text_lines_match_the_print_reference(capsys, monkeypatch,
                                              text_inputs, argv):
    envelopes = []
    text_lines = cli._text_lines
    monkeypatch.setattr(cli, "_text_lines",
                        lambda env: envelopes.append(env) or text_lines(env))
    cli.run(["--format", "text"] + [a.format(**text_inputs) for a in argv])
    out = capsys.readouterr().out
    [env] = envelopes
    print(f"status: {env['status']}")
    _reference_emit_text(env["payload"], env["diagnostics"], sys.stdout)
    assert out == capsys.readouterr().out
    assert out.count("\n") >= 2


def _capped_cli(argv):
    """Exit code and envelope of ``bratteli argv`` in a fresh process whose
    address space is capped at 1 GiB, so a lost cap fails fast instead of
    taking the host's memory."""
    src = os.path.dirname(os.path.dirname(bratteli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource\n"
         "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
         "from bratteli import cli\n"
         "cli.main()", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    return proc.returncode, json.loads(proc.stdout)


def test_oversized_inputs_are_domain_errors(tmp_path):
    pytest.importorskip("resource")
    # 80 bytes: one edge and 2 * 10^7 vertices.
    wide = tmp_path / "wide.json"
    wide.write_text('{"num_levels": 1, "vertex_counts": [1, 20000000], '
                    '"edges": [[{"s": 0, "r": 0}]]}')
    # 6,000 vertices on each of two levels joined one to one: 12,000 edges,
    # but a dense K0 map of 36 million entries.
    n = 6000
    dense = tmp_path / "dense.json"
    dg.save_diagram(dg.make_diagram(2, [1, n, n],
                                    [[(0, i) for i in range(n)],
                                     [(i, i) for i in range(n)]]), str(dense))
    k0_message = ("the K0 maps would hold 36000000 entries, more than "
                  "MAX_K0_ENTRIES = 4194304")
    for argv, message in (
            (["validate", "--diagram", str(wide)],
             "20000000 vertices below the root exceed the edge count 1 by "
             "more than MAX_TELESCOPE_EDGES = 131072"),
            (["k0", str(dense)], k0_message),
            (["soe", "search", "--b1", str(dense), "--b2", str(dense),
              "--bound", "0"], k0_message)):
        code, env = _capped_cli(argv)
        assert code == 1
        assert env == {"status": "error", "payload": {"message": message},
                       "diagnostics": [message]}
