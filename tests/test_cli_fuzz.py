"""Fuzz ``cli.run`` over a grammar of every subcommand and flag.

Every argv either exits 0 or 1 with an envelope whose status matches the
code, or is a usage error (``SystemExit(2)``).  Values stay inside the
documented caps, so no example can exhaust memory.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import cli
from bratteli import diagram as dg
from bratteli import generators as gen
from conftest import UNFED_JSON


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    dg.save_diagram(gen.odometer(2, 4), str(root / "odometer.json"))
    (root / "pair.json").write_text("[1, 2]")
    (root / "empty.json").write_text("{}")
    (root / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
    (root / "unfed.json").write_text(UNFED_JSON)
    (root / "dir").mkdir()
    names = ["odometer.json", "pair.json", "empty.json", "nested.json",
             "unfed.json", "dir", "missing.json"]
    return [str(root / n) for n in names]


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_STRINGS = st.text(alphabet="01-,ax ", max_size=5)
_INT = st.one_of(_ints(-3, 9), _STRINGS)
_INTS = st.one_of(
    st.lists(st.integers(-2, 6), max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
    _STRINGS)
_FILE = st.integers(0, 6)          # an index into the files fixture
_LEVELS = st.one_of(_ints(-3, 8), _STRINGS)

# command -> [(flag or None for a positional, token strategy, required)]
GRAMMAR = {
    "validate": [("--diagram", _FILE, True)],
    "telescope": [("--diagram", _FILE, True), ("--cuts", _INTS, True)],
    "vershik": [("--diagram", _FILE, True), ("--path", _INTS, True)],
    "rank": [("--diagram", _FILE, True), ("--path", _INTS, False),
             ("--rank", _INT, False), ("--level", _INT, False),
             ("--vertex", _INT, False)],
    "orbit-shift": [("--diagram", _FILE, True), ("--from", _INTS, True),
                    ("--to", _INTS, True)],
    "extremal": [("--diagram", _FILE, True), ("--depth", _INT, True),
                 ("--kind", st.sampled_from(["min", "max", "mid"]), False)],
    "perfect": [("--diagram", _FILE, True), ("--depth", _INT, True)],
    "k0": [(None, _FILE, True), ("--heights", _INTS, False),
           ("--compare", None, False), ("--level1", _INT, False),
           ("--vec1", _INTS, False), ("--level2", _INT, False),
           ("--vec2", _INTS, False)],
    "k1": [(None, _FILE, True), ("--depth", _INT, True)],
    "oracle": [(None, _FILE, True)],
    "soe": [(None, st.sampled_from(["check", "search", "find"]), True),
            ("--b1", _FILE, True), ("--b2", _FILE, True),
            ("--intertwining", _FILE, False), ("--depth", _INT, False),
            ("--bound", st.one_of(_ints(-3, 3), _STRINGS), False)],
    "generate odometer": [("--base", st.one_of(_ints(-3, 5), _STRINGS), True),
                          ("--levels", _LEVELS, True)],
    "generate stationary": [("--matrix", _FILE, True),
                            ("--levels", _LEVELS, True)],
    "generate union": [(None, _FILE, True), (None, _FILE, False),
                       (None, _FILE, False)],
    "generate cycles": [(None, _INTS, True), ("--levels", _LEVELS, False)],
    "export-dot": [("--diagram", _FILE, True)],
}


@st.composite
def argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text"]))]
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv += command.split()
    for flag, values, required in GRAMMAR[command]:
        # Required arguments are left out now and then: a usage error.
        if draw(st.integers(0, 9)) >= (9 if required else 5):
            continue
        if flag is not None:
            argv.append(flag)
        if values is not None:
            argv.append(draw(values))
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_run_returns_envelope_or_usage_error(files, argv):
    argv = [files[a] if type(a) is int else a for a in argv]
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        assert out.getvalue() == ""
        return
    assert code in (0, 1), argv
    status = "ok" if code == 0 else "error"
    if argv[:2] == ["--format", "text"]:
        assert out.getvalue().splitlines()[0] == f"status: {status}", argv
    else:
        envelope = json.loads(out.getvalue())
        assert set(envelope) == {"status", "payload", "diagnostics"}, argv
        assert envelope["status"] == status, argv
