"""Command-line interface tests."""

import ast
import collections
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import reeslab
from reeslab.cli import _bounds, build_parser, canonical_json, main
from reeslab.decision import SearchBounds
from reeslab.errors import ReesLabError

WORKED_FILE = """\
# the width-1 reference triangle
v1 = -5/6, 5/12
v2 = 1/6, -1/12
v3 = 0, 1
"""

UNIT_RIGHT_FILE = """\
v1 = 0, 0
v2 = 1, 0
v3 = 0, 1
"""

NARROW_FILE = """\
# width 3/4, below the width-1 overlap law
v1 = -1/2, 1/4
v2 = 1/4, -1/8
v3 = 0, 1
"""


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(WORKED_FILE)
    return str(path)


def test_verify_example(capsys):
    assert main(["verify-example"]) == 0
    out = capsys.readouterr().out
    assert "ALL PASS" in out
    assert out.count("PASS") >= 8


def test_analyze_char3_json(worked_file, capsys):
    assert main(["analyze", "--input", worked_file, "--char", "3", "--json"]) == 0
    payload = capsys.readouterr().out.strip()
    report = json.loads(payload)
    assert report["verdict"] == "FG_WITNESS"
    assert report["witness"] == {"kind": "A4", "m": 3}
    assert report["char"] == 3
    assert report["triangle"]["v1"] == ["-5/6", "5/12"]
    assert report["version"]
    # Canonical serialization round-trips byte-identically.
    assert canonical_json(json.loads(payload)) == payload


def test_analyze_char0_text(worked_file, capsys):
    assert main(["analyze", "--input", worked_file, "--char", "0"]) == 0
    out = capsys.readouterr().out
    assert "NOT_FG_EXACT" in out


def test_analyze_char5_bounded(worked_file, capsys):
    code = main(["analyze", "--input", worked_file, "--char", "5",
                 "--rmax", "1", "--jmax", "4", "--mmax", "6", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "NO_WITNESS_UP_TO_BOUNDS"
    assert all(p["h0"] == 0 for p in report["probes"] if "h0" in p)


def test_analyze_malformed_triangle(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("v1 = 0.5, 1\nv2 = 1, 0\nv3 = 0, 1\n")
    assert main(["analyze", "--input", str(bad), "--char", "0"]) == 1
    missing = tmp_path / "absent.txt"
    assert main(["analyze", "--input", str(missing), "--char", "0"]) == 1


def test_bad_flags_exit_code():
    assert main(["analyze", "--char", "0"]) == 1    # missing --input
    assert main(["frobnicate"]) == 1


def test_invalid_search_bounds_exit_code(worked_file, capsys):
    assert main(["analyze", "--input", worked_file, "--char", "3",
                 "--rmax", "-1"]) == 1
    assert "r_max" in capsys.readouterr().err


def _run_cli(*argv):
    repo = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    return subprocess.run([sys.executable, "-m", "reeslab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "--char", "5", "--m", "24", "--l", "12"], "need 0 <= m < l, got m=24, l=12"),
    (["factorize", "--char", "5", "--m", "0"], "m must be a positive integer"),
])
def test_out_of_range_integers_exit_code(worked_file, argv, message):
    # An out-of-range integer is an input error (exit 1), not a traceback.
    run = _run_cli(*argv, "--input", worked_file)
    assert run.returncode == 1
    assert run.stderr == f"input error: {message}\n"


@pytest.mark.parametrize("argv, body", [
    (["analyze", "--char", "0", "--input"], b"v1 = 1/0, 0\nv2 = 1, 0\nv3 = 0, 1\n"),
    (["analyze", "--char", "0", "--input"], b"v1 = 0, 0\nv2 = 1, 0\nv3 = 0, 1 \xff\n"),
    (["scan", "--char", "0", "--step", "0/0"], None),
])
def test_bad_triangle_input_exit_code(tmp_path, argv, body):
    # A zero denominator or a byte that is not UTF-8 is an input error
    # (exit 1), not a traceback.
    if body is not None:
        path = tmp_path / "bad.txt"
        path.write_bytes(body)
        argv = [*argv, str(path)]
    run = _run_cli(*argv)
    assert run.returncode == 1
    assert run.stderr.startswith("input error")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", [["analyze"], ["factorize", "--m", "2"]])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_nonpositive_budget_exit_code(worked_file, capsys, argv, budget):
    # Both commands refuse a branch budget below 1 up front, also where the
    # search would need no branch (factorize at char 5, m = 2 needs none).
    code = main([*argv, "--input", worked_file, "--char", "5", "--budget", budget])
    assert code == 1
    assert capsys.readouterr().err == f"input error: branch_budget must be >= 1, got {budget}\n"


def test_bounds_flags_default_to_search_bounds():
    args = build_parser().parse_args(["analyze", "--input", "t.txt", "--char", "5"])
    assert _bounds(args) == SearchBounds()


def test_version_matches_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    found = re.search(r'^version = "([^"]+)"$', pyproject.read_text(encoding="utf-8"),
                      re.MULTILINE)
    assert found and found.group(1) == reeslab.__version__


def test_package_has_no_assert_statements():
    # Invariants must hold under python -O, which strips assert statements;
    # a violated invariant raises an InternalError subclass (exit code 2).
    package = pathlib.Path(reeslab.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_package_has_no_unused_imports():
    # Every name a module imports must be referenced in that module;
    # __init__.py only re-exports, so it is exempt.
    package = pathlib.Path(reeslab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        offenders.append(f"{path.name}:{node.lineno}:{name}")
    assert offenders == []


def test_package_imports_only_the_standard_library():
    # The benchmark workers run python3 -S, so the runtime must import
    # nothing outside the standard library and the package itself.
    package = pathlib.Path(reeslab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue
            if isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}:{name}" for name in modules
                          if name.split(".")[0] not in sys.stdlib_module_names]
    assert offenders == []


def _package_trees() -> dict:
    package = pathlib.Path(reeslab.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _unreferenced(trees: dict, selected) -> list:
    """Module-level functions and classes whose name passes selected and is
    referenced nowhere in the package outside their own body."""
    def names(node):
        return collections.Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))

    everywhere = sum((names(tree) for tree in trees.values()), collections.Counter())
    return [f"{node.name}:{node.lineno}" for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and selected(node.name)
            and everywhere[node.name] == names(node)[node.name]]


def test_package_has_no_stranded_private_functions():
    # Every module-level private function must be referenced from the package
    # outside its own body, so that no helper is left behind when its callers
    # move out (for instance into the test oracles).
    stranded = _unreferenced(_package_trees(),
                             lambda name: name.startswith("_") and not name.startswith("__"))
    assert stranded == []


def test_package_raises_only_its_own_errors():
    # Every raise names a ReesLabError subclass, so that the CLI maps each
    # failure to its exit code; a bare ValueError or TypeError would read as
    # no InputError.  FieldSpec.inv keeps the arithmetic ZeroDivisionError.
    allowed = {("fields.py", "inv", "ZeroDivisionError")}
    offenders = []
    for name, tree in _package_trees().items():
        module = importlib.import_module(f"reeslab.{name[:-3]}")
        owner = {}   # each raise -> its innermost function; walk goes outside in
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func)
                             if isinstance(node, ast.Raise))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised = exc.id if isinstance(exc, ast.Name) else None
                cls = getattr(module, raised or "", None)
                if (name, owner.get(node), raised) not in allowed and not (
                        isinstance(cls, type) and issubclass(cls, ReesLabError)):
                    offenders.append(f"{name}:{node.lineno}:{raised}")
    assert offenders == []


def test_package_has_no_orphaned_public_names():
    # Every module-level public function or class must be exported by
    # __init__.py or referenced from the package outside its own body, so
    # that no public name survives only as test surface.
    trees = _package_trees()
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    orphans = _unreferenced(trees, lambda name: not name.startswith("_") and name not in exported)
    assert orphans == []


def test_importing_reeslab_leaves_typing_unloaded():
    # No module of the package imports typing at run time: annotations are
    # strings, and Sequence comes from collections.abc.
    repo = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    code = "import sys, reeslab, reeslab.cli; print('typing' in sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@pytest.mark.parametrize("demo, line", [
    ("worked_example.py", "characteristic 2: FG_WITNESS"),
    ("family_scan.py", "g = 13/6   NO_WITNESS_UP_TO_BOUNDS"),
])
def test_demo_runs(demo, line):
    repo = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    run = subprocess.run([sys.executable, str(repo / "demos" / demo)], cwd=repo,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert line in run.stdout


def test_nonprime_characteristic(worked_file):
    assert main(["analyze", "--input", worked_file, "--char", "6"]) == 1


def test_scan_table(capsys):
    code = main(["scan", "--from", "9/4", "--to", "11/4",
                 "--step", "1/4", "--char", "0"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert "NOT_FG_EXACT" in out[0] and "FG_EXACT" in out[1] and "NOT_FG_EXACT" in out[2]


def test_scan_includes_degenerate_endpoint(capsys):
    code = main(["scan", "--from", "5/2", "--to", "3", "--step", "1/2",
                 "--char", "0"])
    assert code == 2
    out = capsys.readouterr().out
    assert "ERROR(TheoremViolation" in out


def test_scan_bad_step():
    assert main(["scan", "--from", "2", "--to", "3", "--step", "0",
                 "--char", "0"]) == 1
    assert main(["scan", "--from", "2", "--to", "3", "--step", "0.25",
                 "--char", "0"]) == 1


def test_cohomology_command(worked_file, capsys):
    code = main(["cohomology", "--input", worked_file, "--char", "5",
                 "--m", "60", "--l", "120", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["h0"], report["h1"], report["rank"]) == (0, 10, 5)
    assert report["consistent"] is True
    assert main(["cohomology", "--input", worked_file, "--char", "5",
                 "--m", "60", "--l", "120"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "window [60, 120) over characteristic 5",
        "h0 = 0, h1 = 10, rank = 5, chi = -10",
        "overlaps: [(50, 60), (60, 72), (70, 84), (80, 96), (90, 108)]",
        "pivot gaps: [(55, 66), (61, 73), (71, 85), (81, 97), (91, 109)]",
    ]


def test_cohomology_below_width_one_exit_code(tmp_path, capsys):
    # Below width 1 the cones may meet off the overlap lattice.  A window
    # where they do is an input outside the law's hypothesis (exit 1), not
    # an internal invariant violation (exit 2).
    path = tmp_path / "narrow.txt"
    path.write_text(NARROW_FILE)
    for char in ("0", "2"):
        assert main(["cohomology", "--input", str(path), "--char", char,
                     "--m", "2", "--l", "6"]) == 1
        assert capsys.readouterr().err == (
            "input error: level 3: cones overlap on columns [2, 2]; "
            "the overlap law needs width 1, got 3/4\n")


def test_factorize_command(worked_file, capsys):
    assert main(["factorize", "--input", worked_file, "--char", "2",
                 "--m", "2"]) == 0
    assert "success" in capsys.readouterr().out
    assert main(["factorize", "--input", worked_file, "--char", "0",
                 "--m", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success"] is False
    assert report["obstruction"]["level"] == 1
    # The same search in text: the gap (1, 1) at level 1 stops it.
    assert main(["factorize", "--input", worked_file, "--char", "0", "--m", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "m = 1, level 2: no factorization",
        "obstruction at level 1: [(1, 1)]",
    ]


def test_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "unit.txt"
    path.write_text(UNIT_RIGHT_FILE)
    code = main(["factorize", "--input", str(path), "--char", "3",
                 "--m", "4", "--budget", "1"])
    assert code == 3


def test_analyze_unit_right_all_chars(tmp_path, capsys):
    path = tmp_path / "unit.txt"
    path.write_text(UNIT_RIGHT_FILE)
    for char in ("0", "2", "7"):
        assert main(["analyze", "--input", str(path), "--char", char,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] in ("FG_EXACT", "FG_WITNESS")
