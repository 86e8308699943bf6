import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from helpers import near_1e17_maxm_instance
from vcspkit import __version__

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# child processes import the checkout's package, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "vcspkit.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=CHILD_ENV,
    )
    return proc


def test_stdout_is_json_and_exit_zero_on_check():
    proc = run_cli("check", str(FIXTURES / "pair-grid.json"), "--property", "laminar")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["holds"] is True


def test_check_crossfree_and_jwp_routes():
    proc = run_cli("check", str(FIXTURES / "maxsat-overlap.json"), "--property", "crossfree")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["holds"] is False
    assert "witness" in doc

    gen = run_cli("gen", "profile", "--scheme", "order", "--types", "<,=",
                  "--n", "4", "--d", "2", "--seed", "3")
    assert gen.returncode == 0
    jwp = run_cli("check", "-", "--property", "jwp", stdin=gen.stdout)
    assert jwp.returncode == 0
    assert json.loads(jwp.stdout)["holds"] is True


def test_solve_reports_solver_id(tmp_path):
    gen = run_cli("gen", "profile", "--scheme", "maxm", "--types", ">M,M",
                  "--n", "5", "--d", "2", "--seed", "4",
                  "-o", str(tmp_path / "wm.json"))
    assert gen.returncode == 0
    proc = run_cli("solve", str(tmp_path / "wm.json"))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["solver"] == "weighted-matching"


def test_classify_empty_profile_on_two_variables():
    gen = run_cli("gen", "profile", "--scheme", "order", "--types", "=",
                  "--n", "2", "--d", "2", "--seed", "1")
    proc = run_cli("classify", "-", "--scheme", "order", stdin=gen.stdout)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["observed"] == []


def test_rename_fixture_routes():
    ok = run_cli("rename", str(FIXTURES / "maxsat-overlap.json"))
    assert ok.returncode == 0
    doc = json.loads(ok.stdout)
    assert doc["renamable"] is True
    assert doc["renaming"] == [False, True, False, False]
    assert doc["result"]["cost"] == "0"

    no = run_cli("rename", str(FIXTURES / "sat-fan.json"))
    assert no.returncode == 0
    assert json.loads(no.stdout) == {"renamable": False}


def test_solve_cfc_writes_dot_files(tmp_path):
    forest = tmp_path / "forest.dot"
    network = tmp_path / "net.dot"
    proc = run_cli(
        "solve-cfc", str(FIXTURES / "pair-grid.json"),
        "--dot-forest", str(forest), "--dot-network", str(network),
    )
    assert proc.returncode == 0
    assert forest.read_text().startswith("digraph")
    assert network.read_text().startswith("digraph")


@pytest.mark.parametrize("args", [
    ("solve-cfc", str(FIXTURES / "pair-grid.json"), "--dot-forest"),
    ("solve-cfc", str(FIXTURES / "pair-grid.json"), "--dot-network"),
    ("gen", "fixture", "--name", "sat-blocks", "-o"),
], ids=["dot-forest", "dot-network", "gen-output"])
def test_unwritable_output_path_exits_three(tmp_path, args):
    path = tmp_path / "missing" / "out.txt"
    proc = run_cli(*args, str(path))
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["error"]["kind"] == "format"
    assert doc["error"]["message"].startswith(f"cannot write {path}")
    assert "Traceback" not in proc.stderr
    assert not path.exists()


def test_solve_cfc_dot_flags_build_forest_and_network_once(tmp_path, monkeypatch, capsys):
    from vcspkit import cfc, cli, renaming

    calls = {"build_laminar_forest": 0, "build_network": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # patched in every module that binds the name
    for name in calls:
        for module in (cfc, cli, renaming):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code = cli.main([
        "solve-cfc", str(FIXTURES / "pair-grid.json"),
        "--dot-forest", str(tmp_path / "forest.dot"),
        "--dot-network", str(tmp_path / "net.dot"),
    ])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["solver"] == "cfc-flow"
    assert (tmp_path / "forest.dot").read_text().startswith("digraph")
    assert (tmp_path / "net.dot").read_text().startswith("digraph")
    assert calls == {"build_laminar_forest": 1, "build_network": 1}


@pytest.mark.parametrize("fixture, g", [
    ("sat-blocks.json", ["inf", "inf", "inf", "inf"]),  # empty finite support
    ("pair-grid.json", ["0", "1", "0"]),  # not convex
])
def test_solve_cfc_dot_flags_leave_the_answer_alone(tmp_path, fixture, g):
    doc = json.loads((FIXTURES / fixture).read_text())
    doc["sets"][0]["g"] = g
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    plain = run_cli("solve-cfc", str(path))
    drawn = run_cli(
        "solve-cfc", str(path),
        "--dot-forest", str(tmp_path / "forest.dot"),
        "--dot-network", str(tmp_path / "net.dot"),
    )
    assert (drawn.returncode, drawn.stdout) == (plain.returncode, plain.stdout)
    assert not (tmp_path / "net.dot").exists()


def test_usage_error_exits_two():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def _usage_error(proc):
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert list(doc) == ["error"] and doc["error"]["kind"] == "usage"
    assert proc.stderr.startswith("usage: vcspkit")
    assert "Traceback" not in proc.stderr
    return doc["error"]["message"]


def test_missing_file_is_a_usage_error_document():
    assert _usage_error(run_cli("solve")) == "the following arguments are required: file"


def test_unknown_command_is_a_usage_error_document():
    assert "invalid choice: 'frobnicate'" in _usage_error(run_cli("frobnicate"))


def test_help_prints_text_and_exits_zero():
    proc = run_cli("solve", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: vcspkit solve")
    assert proc.stderr == ""


def test_classify_range_violation_exits_four():
    gen = run_cli("gen", "profile", "--scheme", "csp", "--types", ">,0,inf",
                  "--n", "3", "--d", "2", "--seed", "5")
    proc = run_cli("classify", "-", "--scheme", "maxcsp", stdin=gen.stdout)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"]["kind"] == "class"


def test_validation_error_exits_three():
    proc = run_cli("solve", "-", stdin="{not json")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["kind"] == "format"


@pytest.mark.parametrize("via", ["path", "stdin"])
def test_non_utf8_input_exits_three(tmp_path, via):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    arg, stdin = (str(path), None) if via == "path" else ("-", path.read_bytes())
    proc = subprocess.run([sys.executable, "-m", "vcspkit.cli", "solve", arg],
                          capture_output=True, input=stdin, env=CHILD_ENV)
    assert proc.returncode == 3
    error = json.loads(proc.stdout)["error"]
    assert error == {"kind": "format", "message": f"cannot read {arg}: not UTF-8 text"}
    assert b"Traceback" not in proc.stderr


def test_text_stdin_is_read_as_is(monkeypatch, capsys):
    """A ``sys.stdin`` with no byte buffer, as in-process callers set it."""
    import io

    from vcspkit import cli

    path = FIXTURES / "pair-grid.json"
    assert cli.main(["solve-cfc", str(path)]) == 0
    from_path, _ = capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    assert cli.main(["solve-cfc", "-"]) == 0
    from_stdin, _ = capsys.readouterr()
    assert from_stdin == from_path


def test_closed_stdin_exits_three():
    # the shell starts Python with descriptor 0 closed, so sys.stdin is None
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m vcspkit.cli solve - <&-', sys.executable],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 3
    error = json.loads(proc.stdout)["error"]
    assert error == {"kind": "format", "message": "cannot read -: standard input is closed"}
    assert "Traceback" not in proc.stderr


def test_deeply_nested_json_exits_three():
    proc = run_cli("solve", "-", stdin="[" * 5000 + "]" * 5000)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["kind"] == "format"
    assert "Traceback" not in proc.stderr


_VARIABLES = [{"name": "x", "domain": ["a", "b"]}, {"name": "y", "domain": ["a", "b"]}]


@pytest.mark.parametrize(
    "args,doc",
    [
        (("solve",), {"format": "vcsp-binary/1", "unary": None}),
        (("solve",), {"format": "vcsp-binary/1", "unary": True}),
        (("classify", "--scheme", "order"), {"format": "vcsp-binary/1", "binary": 7}),
        (("check", "--property", "jwp"), {"format": "vcsp-binary/1", "binary": None}),
        (("rename",), {"format": "vcsp-cfc/1", "sets": None}),
        (("rename",), {"format": "vcsp-cfc/1", "sets": 5}),
        (("solve-cfc",), {"format": "vcsp-cfc/1", "sets": None}),
        (("solve-cfc",), {"format": "vcsp-cfc/1", "sets": 5}),
    ],
)
def test_non_list_top_level_field_exits_three(args, doc):
    text = json.dumps({**doc, "variables": _VARIABLES})
    proc = run_cli(args[0], "-", *args[1:], stdin=text)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["kind"] == "format"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, doc, where", [
    ("solve-cfc", {"format": "vcsp-cfc/1", "sets": [{"assignments": [[0, 0]], "g": ["0", "7" * 5000]}]},
     "sets[0].g[1]"),
    ("solve", {"format": "vcsp-binary/1", "unary": [{"var": 0, "costs": ["7" * 5000, "1"]}]},
     "unary[0].costs[0]"),
], ids=["count", "binary"])
def test_cost_with_more_digits_than_int_reads_exits_three(command, doc, where):
    # 5,000 digits: over the 4,300 that int() converts by default
    proc = run_cli(command, "-", stdin=json.dumps({**doc, "variables": _VARIABLES}))
    assert proc.returncode == 3
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "format"
    assert error["message"].endswith(f"(at {where})")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["solve-cfc", "oracle"])
def test_cost_with_more_digits_than_str_writes_exits_three(command):
    # every string parses (4,300 digits each), but the optimum has 4,301
    doc = {
        "format": "vcsp-cfc/1",
        "variables": [{"name": "x", "domain": ["a"]}],
        "constant": "9" * 4300,
        "sets": [{"assignments": [[0, 0]], "g": ["inf", "9" * 4300]}],
    }
    proc = run_cli(command, "-", stdin=json.dumps(doc))
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {
        "error": {"kind": "format", "message": "cost has more digits than can be written"}
    }
    assert "Traceback" not in proc.stderr


def test_rename_rejects_non_convex_count_function():
    doc = {
        "format": "vcsp-cfc/1",
        "variables": _VARIABLES,
        "sets": [
            {"assignments": [[0, 1], [1, 1]], "g": ["0", "0", "2"]},
            {"assignments": [[0, 0], [1, 1]], "g": ["0", "3", "4"]},
        ],
    }
    proc = run_cli("rename", "-", stdin=json.dumps(doc))
    assert proc.returncode == 4
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "class"
    # [set, count]: set 1 bends down at count 0
    assert err["witness"] == [1, 0]


def test_convexity_is_reported_before_the_family():
    from vcspkit.cfc import NEITHER, check_family, solve_cfc
    from vcspkit.errors import ClassViolation
    from vcspkit.formats import parse_instance

    # sets 0 and 1 cross, and set 1 bends down at count 0
    doc = {
        "format": "vcsp-cfc/1",
        "variables": [{"name": v, "domain": ["a", "b"]} for v in "xyz"],
        "sets": [
            {"assignments": [[0, 0], [1, 0]], "g": ["0", "1", "2"]},
            {"assignments": [[1, 0], [2, 0]], "g": ["0", "3", "4"]},
        ],
    }
    inst = parse_instance(json.dumps(doc))
    assert check_family([a.members for a in inst.sets], inst.universe())[0] == NEITHER
    with pytest.raises(ClassViolation, match="not convex") as raised:
        solve_cfc(inst)
    assert raised.value.witness == [1, 0]
    proc = run_cli("solve-cfc", "-", stdin=json.dumps(doc))
    assert proc.returncode == 4
    assert json.loads(proc.stdout) == {
        "error": {"kind": "class", "message": str(raised.value), "witness": [1, 0]}
    }


_NOT_CROSSFREE = {
    # domains of 3, 1 and 4 values; sets 0 and 2 cross, set 1 crosses nothing
    "format": "vcsp-cfc/1",
    "variables": [{"name": "x", "domain": ["a", "b", "c"]}, {"name": "y", "domain": ["u"]},
                  {"name": "z", "domain": ["p", "q", "r", "s"]}],
    "sets": [
        {"assignments": [[0, 0], [0, 1]], "g": ["0", "1"]},
        {"assignments": [[2, 3]], "g": ["2", "0"]},
        {"assignments": [[0, 1], [0, 2], [2, 0]], "g": ["1", "0", "1"]},
    ],
}
_CROSSING_MEMBERS = [[[0, 0], [0, 1]], [[0, 1], [0, 2], [2, 0]]]


@pytest.mark.parametrize("args, code, stdout", [
    (["check", "--property", "crossfree"], 0, {
        "property": "crossfree", "holds": False, "kind": "NEITHER",
        "witness": {"sets": [0, 2], "members": _CROSSING_MEMBERS},
    }),
    (["solve-cfc"], 4, {"error": {
        "kind": "class",
        "message": "assignment-sets 0 and 2 overlap without covering the universe",
        "witness": _CROSSING_MEMBERS,
    }}),
])
def test_family_witness_names_the_first_crossing_pair(tmp_path, capsys, args, code, stdout):
    from vcspkit import cli
    from vcspkit.formats import dumps

    path = tmp_path / "neither.json"
    path.write_text(json.dumps(_NOT_CROSSFREE), encoding="utf-8")
    assert cli.main([args[0], str(path), *args[1:]]) == code
    assert capsys.readouterr().out == dumps(stdout)


def test_load_pauses_the_collector_and_restores_it(tmp_path, monkeypatch):
    import gc

    from vcspkit import cli
    from vcspkit.errors import FormatError
    from vcspkit.instances import BinaryInstance, CountInstance

    parse, during = cli.parse_instance, []

    def spied(text):
        during.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(cli, "parse_instance", spied)
    good, bad = str(FIXTURES / "pair-grid.json"), tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert isinstance(cli._load(good), CountInstance)
            assert gc.isenabled() is enabled
            for args in ((str(bad),), (good, BinaryInstance)):
                with pytest.raises(FormatError):
                    cli._load(*args)
                assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False] * 6


_SOLVE_AND_LIST_NETWORKX = """
import contextlib, io, json, sys, vcspkit.cli
loaded = ["networkx" in sys.modules]
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        vcspkit.cli.main(["solve", path])
    loaded.append([json.loads(out.getvalue())["solver"], "networkx" in sys.modules])
print(json.dumps(loaded))
"""


def test_cli_import_leaves_networkx_unloaded(matching_binary, in_class_binary):
    # neither the import nor `solve` on either matching route loads networkx
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVE_AND_LIST_NETWORKX, matching_binary, in_class_binary],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [
        False, ["matching-cardinality", False], ["weighted-matching", False]]


@pytest.mark.parametrize("module", ["networkx", "dataclasses"])
def test_no_source_file_imports(module):
    sources = sorted((ROOT / "src" / "vcspkit").rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == module for name in names), path


def test_solve_near_1e17_maxm_is_exact(tmp_path):
    from vcspkit import serialize_instance

    path = tmp_path / "maxm.json"
    path.write_text(serialize_instance(near_1e17_maxm_instance()))
    proc = run_cli("solve", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["solver"] == "weighted-matching"
    assert doc["cost"] == "400000000000000033"


def test_cli_import_leaves_testkit_unloaded():
    # only `gen` and `oracle` use the testkit; no other command compiles it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vcspkit.cli; print('vcspkit.testkit' in sys.modules)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def in_class_binary(tmp_path_factory):
    """A binary instance that `solve` sends to a class solver, not the oracle."""
    from vcspkit import serialize_instance
    from vcspkit.testkit import gen_profile
    from vcspkit.triangles import Scheme

    path = tmp_path_factory.mktemp("binary") / "wm.json"
    path.write_text(serialize_instance(gen_profile(5, 2, {">M", "M"}, Scheme.MAXM, 4)))
    return str(path)


@pytest.fixture(scope="module")
def matching_binary(tmp_path_factory):
    """A binary instance that `solve` sends to the matching-cardinality route."""
    from vcspkit import serialize_instance
    from vcspkit.testkit import gen_profile
    from vcspkit.triangles import Scheme

    path = tmp_path_factory.mktemp("binary") / "mc.json"
    path.write_text(serialize_instance(gen_profile(5, 2, {">", "1"}, Scheme.MAXCSP, 0)))
    return str(path)


@pytest.fixture(scope="module")
def fallback_binary(tmp_path_factory):
    """A binary instance of a JWP cell, which `solve` answers by enumeration."""
    from vcspkit import serialize_instance
    from vcspkit.binary_solvers import dispatch
    from vcspkit.testkit import gen_profile
    from vcspkit.triangles import Scheme

    inst = gen_profile(4, 2, {"<", "="}, Scheme.ORDER, 7)
    assert dispatch(inst).solver == "oracle"
    path = tmp_path_factory.mktemp("binary") / "jwp.json"
    path.write_text(serialize_instance(inst))
    return str(path)


_BASE_MODULES = {"vcspkit", "vcspkit.cli", "vcspkit.costs", "vcspkit.errors",
                 "vcspkit.formats", "vcspkit.frozen", "vcspkit.instances", "vcspkit.results"}
_BINARY_MODULES = {"vcspkit.binary_solvers", "vcspkit.matching", "vcspkit.triangles"}
_COUNT_MODULES = {"vcspkit.cfc", "vcspkit.flow", "vcspkit.renaming"}

_LIST_MODULES = """
import json, sys, vcspkit.cli
try:
    code = vcspkit.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] in ("vcspkit", "networkx", "dataclasses", "inspect"))]))
"""


def _run_and_list_modules(*args):
    """The exit code of one command and the vcspkit, networkx, dataclasses
    and inspect modules its process loaded."""
    proc = subprocess.run([sys.executable, "-c", _LIST_MODULES, *args],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("args, runs, unloaded", [
    (("classify", "BINARY", "--scheme", "maxm"), "vcspkit.triangles",
     _COUNT_MODULES | {"vcspkit.binary_solvers", "vcspkit.matching", "vcspkit.testkit"}),
    (("check", "BINARY", "--property", "jwp"), "vcspkit.triangles",
     _COUNT_MODULES | {"vcspkit.binary_solvers", "vcspkit.matching", "vcspkit.testkit"}),
    (("solve", "BINARY"), "vcspkit.binary_solvers", _COUNT_MODULES | {"vcspkit.testkit"}),
    (("solve", "MATCHING"), "vcspkit.matching", _COUNT_MODULES | {"vcspkit.testkit"}),
    (("solve", "FALLBACK"), "vcspkit.binary_solvers", _COUNT_MODULES | {"vcspkit.testkit"}),
    (("solve-cfc", str(FIXTURES / "pair-grid.json")), "vcspkit.cfc",
     _BINARY_MODULES | {"vcspkit.testkit"}),
    (("rename", str(FIXTURES / "maxsat-overlap.json")), "vcspkit.renaming",
     _BINARY_MODULES | {"vcspkit.testkit"}),
    (("check", str(FIXTURES / "pair-grid.json"), "--property", "laminar"), "vcspkit.cfc",
     _BINARY_MODULES | {"vcspkit.testkit"}),
    (("check", str(FIXTURES / "maxsat-overlap.json"), "--property", "crossfree"), "vcspkit.cfc",
     _BINARY_MODULES | {"vcspkit.testkit"}),
    (("check", str(FIXTURES / "pair-grid.json"), "--property", "convex"), "vcspkit.cfc",
     _BINARY_MODULES | {"vcspkit.testkit"}),
], ids=["classify", "check-jwp", "solve", "solve-matching-cardinality", "solve-fallback", "solve-cfc",
        "rename", "check-laminar", "check-crossfree", "check-convex"])
def test_command_loads_only_its_modules(args, runs, unloaded, in_class_binary, matching_binary,
                                        fallback_binary):
    inputs = {"BINARY": in_class_binary, "MATCHING": matching_binary, "FALLBACK": fallback_binary}
    code, modules = _run_and_list_modules(*(inputs.get(a, a) for a in args))
    assert code == 0
    assert runs in modules
    unloaded = unloaded | {"networkx", "dataclasses", "inspect"}
    assert not modules & unloaded, sorted(modules & unloaded)


@pytest.mark.parametrize("args, code", [
    (("--version",), 0),
    (("--help",), 0),
    (("classify", "--help"), 0),
    (("classify", "x", "--scheme", "bad"), 2),
    (("frobnicate",), 2),
], ids=["version", "help", "classify-help", "bad-scheme", "unknown-command"])
def test_parser_loads_only_the_base_package(args, code):
    assert _run_and_list_modules(*args) == (code, _BASE_MODULES)


def test_parser_schemes_are_the_scheme_values():
    from vcspkit import cli
    from vcspkit.triangles import Scheme

    assert cli.SCHEMES == tuple(s.value for s in Scheme)


def test_class_violation_exits_four():
    proc = run_cli("solve-cfc", str(FIXTURES / "maxsat-overlap.json"))
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"]["kind"] == "class"


def test_instance_error_exits_three():
    # group 0 names variable 5 of a two-variable instance
    proc = run_cli("gen", "nested-gcc", "--n", "2", "--d", "2", "--groups", "0-5")
    message = "set 0 references assignment (5, 0) outside domains"
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"error": {"kind": "instance", "message": message}}
    assert proc.stderr == f"error: {message}\n"


def test_budget_exceeded_exits_five():
    gen = run_cli("gen", "profile", "--scheme", "order", "--types", "<,=",
                  "--n", "6", "--d", "3", "--seed", "2")
    proc = run_cli("oracle", "-", "--budget", "5", stdin=gen.stdout)
    assert proc.returncode == 5
    assert json.loads(proc.stdout)["error"]["kind"] == "budget"


def test_gen_is_byte_deterministic():
    args = ("gen", "profile", "--scheme", "maxcsp", "--types", ">,1",
            "--n", "6", "--d", "3", "--seed", "11")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("scheme, types", [
    ("min0", "0,<0,>0,delta0,other"), ("maxm", "M,<M,>M,deltaM,other"),
])
def test_gen_profile_accepts_the_other_type(scheme, types):
    proc = run_cli("gen", "profile", "--scheme", scheme, "--types", types, "--n", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["format"] == "vcsp-binary/1"
    assert proc.stderr == ""


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "vcspkit" in proc.stdout
    assert proc.stdout.strip() == f"vcspkit {__version__}"


def test_gen_fixture_matches_shipped_file():
    proc = run_cli("gen", "fixture", "--name", "sat-blocks")
    assert proc.returncode == 0
    assert proc.stdout == (FIXTURES / "sat-blocks.json").read_text()


def test_oracle_solves_fixture():
    proc = run_cli("oracle", str(FIXTURES / "sat-blocks.json"))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["solver"] == "oracle"
    assert doc["cost"] == "0"


@pytest.mark.parametrize(
    "args",
    [("soft-gcc", "--bounds", "x"), ("nested-gcc", "--groups", "0-a"), ("profile", "--n", "0"),
     ("maxcut", "--edges", ""), ("matching", "--edges", ""), ("nested-gcc", "--groups", "0-0")],
)
def test_gen_malformed_flag_exits_three(args):
    proc = run_cli("gen", *args)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["kind"] == "format"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("gen", "soft-gcc", "--n", "3", "--d", "-1"), "--d must be at least 1, got -1"),
    (("gen", "maxcut", "--edges", "0-1", "--vertices", "-3"),
     "--vertices must be at least 0, got -3"),
    (("oracle", str(FIXTURES / "pair-grid.json"), "--budget", "-1"),
     "--budget must be at least 0, got -1"),
    (("solve", "BINARY", "--oracle-budget", "-1"), "--oracle-budget must be at least 0, got -1"),
], ids=["gen-d", "gen-vertices", "oracle-budget", "solve-oracle-budget"])
def test_invalid_numeric_option_exits_three(args, message, in_class_binary):
    proc = run_cli(*(in_class_binary if a == "BINARY" else a for a in args))
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"error": {"kind": "format", "message": message}}
    assert proc.stderr == f"error: {message}\n"


def test_gen_soft_gcc_defaults_cycle_bounds_and_solve():
    # the one default bound pair applies to both default values
    gen = run_cli("gen", "soft-gcc")
    assert gen.returncode == 0
    proc = run_cli("solve-cfc", "-", stdin=gen.stdout)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solver"] == "cfc-flow"


def test_internal_error_is_one_json_document(monkeypatch, capsys):
    from vcspkit import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code = cli.main(["check", str(FIXTURES / "pair-grid.json"), "--property", "laminar"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {"error": {"kind": "internal", "message": "RuntimeError: boom"}}
    assert "Traceback" not in err


def _failed_self_check(capsys, argv):
    """Run the CLI in process and check that it reports a failed re-evaluation
    as one error document of kind internal, with exit code 1."""
    from vcspkit import cli

    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == ["error"] and doc["error"]["kind"] == "internal"
    assert doc["error"]["message"].startswith("InternalError: internal check failed: ")
    assert "Traceback" not in err


def test_misreporting_route_is_an_internal_error(monkeypatch, capsys, in_class_binary):
    from vcspkit import binary_solvers
    from vcspkit.costs import Cost

    for solver, route in binary_solvers.SOLVERS.items():
        def misreport(inst, prof, route=route):
            x, total, cert = route(inst, prof)
            return x, total + Cost(1), cert

        monkeypatch.setitem(binary_solvers.SOLVERS, solver, misreport)
    _failed_self_check(capsys, ["solve", in_class_binary])


def test_misreporting_flow_is_an_internal_error(monkeypatch, capsys):
    from vcspkit import cfc
    from vcspkit.costs import Cost
    from vcspkit.flow import Flow

    real = cfc.min_convex_cost_flow

    def misreport(net):
        flow = real(net)
        return Flow(flow.amounts, flow.total + Cost(1))

    monkeypatch.setattr(cfc, "min_convex_cost_flow", misreport)
    _failed_self_check(capsys, ["solve-cfc", str(FIXTURES / "pair-grid.json")])


# The assignments are the cost-0 optima of the flow whose search lists each
# node's artificial arc first; a change that picks another optimum must
# update them on purpose.
_RENAME_STDOUT = {
    "maxsat-overlap.json": {
        "renamable": True,
        "renaming": [False, True, False, False],
        "result": {
            "format": "vcsp-solution/1",
            "assignment": [1, 0, 0, 1, 0],
            "cost": "0",
            "solver": "renamable-cfc",
            "certificate": {"flow_cost": "0", "constant": "0", "sets_after_rewrite": 4,
                            "renamed_constraints": [1]},
        },
    },
    "pair-grid.json": {
        "error": {
            "kind": "class",
            "message": "renaming is defined over Boolean domains; variable 0 has 3 values",
        },
    },
    "sat-blocks.json": {
        "renamable": True,
        "renaming": [False, False, False, False],
        "result": {
            "format": "vcsp-solution/1",
            "assignment": [1, 1, 1, 0, 1, 0],
            "cost": "0",
            "solver": "renamable-cfc",
            "certificate": {"flow_cost": "0", "constant": "0", "sets_after_rewrite": 4,
                            "renamed_constraints": []},
        },
    },
    "sat-fan.json": {"renamable": False},
}


def test_rename_recognises_once(monkeypatch, capsys):
    from vcspkit import cli, renaming
    from vcspkit.formats import dumps

    calls = []
    original = renaming.recognize_renamable

    def counted(inst):
        calls.append(inst)
        return original(inst)

    # patched where the command binds it and where the library binds it
    monkeypatch.setattr(renaming, "recognize_renamable", counted)
    for name, expected in _RENAME_STDOUT.items():
        calls.clear()
        cli.main(["rename", str(FIXTURES / name)])
        out, _ = capsys.readouterr()
        assert len(calls) == 1, name
        assert out == dumps(expected), name
