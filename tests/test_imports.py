"""What an import or a command loads: the package resolves its exports on
first use, and a CLI invocation imports only the modules its command uses.

Module loading is observed in fresh interpreters, since this test process
has imported every module already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricsing

SRC = Path(toricsing.__file__).resolve().parent.parent

# the package's public names by defining module
EXPORTS = {
    "exactalg": ("MultiPoly", "aligned", "as_poly", "poly_sum"),
    "chow": ("ToricModel", "class_of_divisor_coeffs"),
    "ring": ("ChowElement", "chern_class", "class_element",
             "elementary_symmetric_classes", "integrate", "wronski_classes"),
    "catalog": ("ModelSpec", "blowup_line_p3", "blowup_point",
                "blowup_two_points_p3", "builtin", "from_spec_string",
                "multiprojective", "parse_model", "parse_polynomial",
                "projective", "scroll", "serialize_model", "weighted"),
    "formulas": ("AlphaInvariant", "GcdVerdict", "InequalityVerdict",
                 "SearchSolution", "alpha_invariant", "baum_bott_sum",
                 "ci_euler", "ci_sing_count", "complement_euler",
                 "complement_sing_count", "foliation_sing_count",
                 "gcd_obstruction", "general_type_index", "hypersurface_euler",
                 "multidegree", "poincare_check", "regular_search",
                 "restricted_sing_count", "scroll_closed_form",
                 "symbolic_degree", "wci_sing_count", "wci_sing_count_parts"),
    "polyfield": ("ANY_DEGREE", "GradedPoly", "OneFormExpr", "VectorFieldExpr",
                  "check_descends", "check_invariant_hypersurface",
                  "check_quasi_homogeneous", "frobenius_integrable",
                  "radial_fields"),
    "residue": ("IndexQuery", "LocalIndexReport", "index_sum",
                "local_multiplicity", "orbifold_index"),
}

# runs one command with its stdout discarded, then prints its exit status
# and the toricsing submodules loaded, with json, dataclasses and inspect if
# the command loaded them
COMMAND_LOADS = """
import contextlib, io, sys
from toricsing.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    status = run(sys.argv[1:])
modules = sorted(m for m in sys.modules if m.startswith("toricsing.")
                 or m in ("json", "dataclasses", "inspect"))
import json
print(json.dumps([status, modules]))
"""

BARE_IMPORT = """
import json, sys
import toricsing
loaded = sorted(m for m in sys.modules if m.startswith("toricsing."))
catalog = toricsing.catalog
print(json.dumps({
    "loaded": loaded,
    "version": toricsing.__version__,
    "catalog": catalog is sys.modules["toricsing.catalog"],
    "after": sorted(m for m in sys.modules if m.startswith("toricsing.")),
}))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


# the ring is not on a count's path
OFF_THE_COUNT_PATH = {"ring"}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["catalog", "list"], {"catalog"}, {"formulas", "polyfield", "residue"}
     | OFF_THE_COUNT_PATH),
    (["count", "foliation", "--model", "projective:3", "--degree", "2"],
     {"catalog", "formulas"}, {"polyfield", "residue"} | OFF_THE_COUNT_PATH),
    (["residue", "--vars", "z1,z2", "--components", "3*z1^2,3*z2^2"],
     {"residue"}, {"catalog", "chow", "formulas", "polyfield"} | OFF_THE_COUNT_PATH),
    (["search", "--family", "scroll", "--bound", "3", "--scroll-a", "1,1,1"],
     {"catalog", "formulas"}, {"polyfield", "residue"} | OFF_THE_COUNT_PATH),
    (["count", "foliation", "--model", "blowup_point:2", "--symbolic"],
     {"catalog", "formulas"}, {"polyfield", "residue"} | OFF_THE_COUNT_PATH),
    (["euler", "ambient", "--model", "weighted:1,1,2"],
     {"catalog", "chow"}, {"formulas", "polyfield", "residue"} | OFF_THE_COUNT_PATH),
    (["alpha", "--weights", "1,1,1,1", "--ci", "2"],
     {"formulas"}, {"ring", "polyfield", "residue"}),
    (["poincare", "--variant", "wci-curve", "--weights", "1,1,1", "--ci", "2",
      "--degree", "1"], {"formulas"}, {"ring", "polyfield", "residue"}),
    (["poincare", "--variant", "toric-curve", "--model", "projective:3",
      "--class", "1", "--class", "2", "--degree", "1"],
     {"formulas"}, {"ring", "polyfield", "residue"}),
    (["gcd-obstruction", "--model", "projective:2", "--degree-div", "2,2,2"],
     {"formulas"}, {"ring", "polyfield", "residue"}),
    # only --json output imports json
    (["count", "foliation", "--model", "projective:2", "--degree", "1"],
     {"formulas"}, {"json"}),
    (["count", "foliation", "--model", "projective:2", "--degree", "1", "--json"],
     {"formulas", "json"}, set()),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
def test_a_command_loads_only_its_modules(argv, loaded, absent):
    done = _python("-c", COMMAND_LOADS, *argv)
    status, modules = json.loads(done.stdout)
    names = {m.removeprefix("toricsing.") for m in modules}
    assert status == 0, done.stderr
    assert loaded <= names
    assert not absent & names


# the value types outside `residue` are hand-written frozen classes
# (`exactalg._Frozen`), so these commands import neither `dataclasses` nor
# the `inspect` it imports; `residue` keeps its two dataclasses
@pytest.mark.parametrize("argv", [
    ["count", "foliation", "--model", "blowup_point:2", "--symbolic"],
    ["catalog", "list"],
    ["search", "--family", "p1111k", "--bound", "3"],
    ["check", "invariant", "--model", "multiprojective:1,1", "--field", "z0*z1,0,0,0",
     "--poly", "z0"],
    ["poincare", "--variant", "toric-curve", "--model", "projective:3",
     "--class", "1", "--class", "2", "--degree", "1"],
], ids=lambda v: " ".join(v[:2]))
def test_a_command_loads_no_dataclasses(argv):
    done = _python("-c", COMMAND_LOADS, *argv)
    status, modules = json.loads(done.stdout)
    assert status == 0, done.stderr
    assert not {"dataclasses", "inspect"} & set(modules)


# counts every ArgumentParser a fresh interpreter constructs while its CLI
# runs one command, help and usage errors included
PARSERS_BUILT = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from toricsing.cli import run
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        run(sys.argv[1:])
    except SystemExit:
        pass
print(len(built))
"""


@pytest.mark.parametrize("argv, parsers", [
    (["count", "foliation", "--model", "projective:2", "--degree", "1"], 3),
    (["count", "foliation", "--bogus"], 3),
    (["residue", "--vars", "u", "--components", "u^2"], 2),
    (["-h"], 1),
    (["bogus"], 1),
    ([], 1),
], ids=lambda v: " ".join(v) or "no arguments" if isinstance(v, list) else None)
def test_a_command_constructs_only_its_parsers(argv, parsers):
    done = _python("-c", PARSERS_BUILT, *argv)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == parsers


def test_old_ring_and_verdict_paths_resolve():
    from toricsing import chow, formulas, ring
    for name in ("ChowElement", "unit_element", "class_element", "elementary_series",
                 "complete_series"):
        assert getattr(chow, name) is getattr(ring, name), name
    m = toricsing.projective(2)
    for name in ("chern_class", "elementary_symmetric_classes"):
        assert getattr(chow, name)(m, 2) == getattr(ring, name)(m, 2), name
    h = ring.class_element(m, (1,))
    assert chow.wronski_classes([h, h], 2) == ring.wronski_classes([h, h], 2)
    assert chow.integrate(m, h ** 2) == ring.integrate(m, h ** 2) == 1
    # the verdict types are defined in `formulas`, which reads no name lazily
    assert "__getattr__" not in vars(formulas)
    for name in ("AlphaInvariant", "GcdVerdict", "InequalityVerdict"):
        assert vars(formulas)[name].__module__ == "toricsing.formulas", name
        assert getattr(toricsing, name) is getattr(formulas, name), name
    with pytest.raises(ModuleNotFoundError, match="toricsing.verdicts"):
        importlib.import_module("toricsing.verdicts")
    for module in (chow, formulas):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            module.no_such_name


def test_bare_import_loads_no_submodule():
    done = _python("-c", BARE_IMPORT)
    report = json.loads(done.stdout)
    assert report["loaded"] == []
    assert report["version"] == "0.1.0"
    assert report["catalog"] is True
    assert "toricsing.formulas" not in report["after"]


@pytest.mark.parametrize("argv, status", [
    (["catalog", "list"], 0),
    (["count", "foliation", "--model", "projective", "--degree", "1"], 1),
    (["bogus"], 2),
])
def test_module_entry_point_exit_status(argv, status):
    done = _python("-m", "toricsing.cli", *argv)
    assert done.returncode == status
    if status == 0:
        assert "blowup_point  (blowup_point:n)" in done.stdout
        assert done.stderr == ""
    elif status == 1:
        assert done.stdout == ""
        assert done.stderr.startswith("error:") and "projective:n" in done.stderr
    else:
        assert done.stdout == ""
        assert "invalid choice: 'bogus'" in done.stderr


def test_each_export_is_its_module_object():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 61
    assert sorted(toricsing.__all__) == sorted(names)
    for module, exported in EXPORTS.items():
        source = importlib.import_module(f"toricsing.{module}")
        for name in exported:
            assert getattr(toricsing, name) is getattr(source, name), name
    from toricsing import MultiPoly, local_multiplicity
    assert MultiPoly is toricsing.exactalg.MultiPoly
    assert local_multiplicity is toricsing.residue.local_multiplicity


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        toricsing.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from toricsing import no_such_name  # noqa: F401


# the north star: standard library only, and no code built from strings
BUILTIN_CODE_RUNNERS = {"eval", "exec", "compile"}


def _outside_uses(source: str) -> list[str]:
    """Imports of anything but the standard library and this package, and
    calls of `eval`, `exec` or `compile`, as 'line: what' entries."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        found += [f"{node.lineno}: import {m}" for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names | {"toricsing"}]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "builtins":
                name = func.attr
            else:
                name = getattr(func, "id", None)  # a plain name, not re.compile
            if name in BUILTIN_CODE_RUNNERS:
                found.append(f"{node.lineno}: call {name}")
    return found


def test_the_walk_finds_outside_imports_and_code_runners():
    source = ("import numpy.linalg\nfrom sympy import Rational\nimport builtins\n"
              "from . import chow\nfrom toricsing.exactalg import MultiPoly\n"
              "import re, fractions\nre.compile('x')\nx = eval('1')\n"
              "exec('y = 2')\nbuiltins.compile('1', '', 'eval')\n")
    assert _outside_uses(source) == ["1: import numpy.linalg", "2: import sympy",
                                     "8: call eval", "9: call exec", "10: call compile"]


def test_the_package_imports_only_the_standard_library_and_runs_no_strings():
    files = sorted((SRC / "toricsing").glob("*.py"))
    assert len(files) >= 9
    for path in files:
        assert _outside_uses(path.read_text()) == [], path.name


# the argument rule: outside `exactalg`, no type test that raises ValueError
# by hand, and no name of that module read through `chow`
RULE_TYPES = {"int", "bool", "str"}


def _bare_type_test(test) -> bool:
    """Whether the test is `type(x) is not T` alone, T one of RULE_TYPES."""
    return (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot) and isinstance(test.left, ast.Call)
            and getattr(test.left.func, "id", None) == "type"
            and getattr(test.comparators[0], "id", None) in RULE_TYPES)


def _rule_breaks(source: str, rule: set[str]) -> list[str]:
    """Each `if` whose whole test is a bare type test and whose body raises
    ValueError, and each name in `rule` read through `chow`, as 'line: what'
    entries."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and _bare_type_test(node.test) and any(
                isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                and getattr(n.exc.func, "id", None) == "ValueError"
                for stmt in node.body for n in ast.walk(stmt)):
            found.append(f"{node.lineno}: type test")
        elif (isinstance(node, ast.Attribute) and node.attr in rule
              and getattr(node.value, "id", None) == "chow"):
            found.append(f"{node.lineno}: chow.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("chow", "toricsing.chow"):
            found += [f"{node.lineno}: from chow import {alias.name}"
                      for alias in node.names if alias.name in rule]
    return found


def test_the_walk_finds_type_tests_outside_the_rule():
    source = ("from .chow import _tuple, ToricModel\n"
              "if type(n) is not int:\n    raise ValueError(n)\n"
              "if type(s) is not str:\n    if s:\n        raise ValueError(s)\n"
              "if type(b) is not int or b < 1:\n    raise ValueError(b)\n"
              "if type(p) is not int:\n    raise TypeError(p)\n"
              "if type(x) is not Fraction:\n    raise ValueError(x)\n"
              "w = chow._tuple(w, '')\nv = chow._vector_symbols(m, v)\n")
    assert _rule_breaks(source, {"_tuple", "_typed"}) == [
        "1: from chow import _tuple", "2: type test", "4: type test", "13: chow._tuple"]


def test_every_module_checks_types_by_the_rule_of_exactalg():
    tree = ast.parse((SRC / "toricsing" / "exactalg.py").read_text())
    rule = {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    assert {"_entries", "_tuple", "_typed"} <= rule
    for path in sorted((SRC / "toricsing").glob("*.py")):
        if path.name != "exactalg.py":
            assert _rule_breaks(path.read_text(), rule) == [], path.name
