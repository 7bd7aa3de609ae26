"""Exit codes, output determinism, and JSON round trips for the CLI."""

import json
import linecache
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from toricsing import catalog, chow
from toricsing.catalog import parse_polynomial
from toricsing.cli import run
from toricsing.errors import NotWellFormedWarning


# Exit status, stdout and stderr of help and usage-error invocations, written
# by the CLI with COLUMNS=80: under Python 3.11.7, where 3.10.13 and 3.12.1
# write the same, under 3.13.13, whose argparse keeps a long usage line
# whole before its "...", and under 3.13.0, which also quotes the invalid
# choices.  A file named for the exact release is preferred; otherwise the
# file is picked by minor version.
_DATA = Path(__file__).parent / "data"
_EXACT = _DATA / "help_streams_{}.{}.{}.json".format(*sys.version_info[:3])
HELP_STREAMS = json.loads((_EXACT if _EXACT.exists() else _DATA / {
    13: "help_streams_3.13.json"}.get(sys.version_info.minor, "help_streams.json")
).read_text(encoding="utf-8"))


def _run(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_count_foliation_symbolic(capsys):
    status, out, _ = _run(capsys, "count", "foliation",
                          "--model", "blowup_point:2", "--symbolic")
    assert status == 0
    assert out.splitlines()[0] == "result = d1^2 - d2^2 + 3*d1 + d2 + 4"


def test_count_wci_distribution(capsys):
    status, out, _ = _run(capsys, "count", "wci", "--weights", "1,1,1,4",
                          "--ci", "1", "--degree", "8", "--kind", "distribution")
    assert status == 0
    assert out.splitlines()[0] == "result = 25/4"


def test_residue_example(capsys):
    status, out, _ = _run(capsys, "residue", "--vars", "z1,z2",
                          "--components", "3*z1^2,3*z2^2", "--group", "3")
    assert status == 0
    lines = out.splitlines()
    assert "result = 4/3" in lines
    assert "multiplicity = 4" in lines


def test_residue_example_bytes(capsys):
    args = ("residue", "--vars", "z1,z2", "--components", "3*z1^2,3*z2^2",
            "--group", "3")
    _, out, _ = _run(capsys, *args)
    assert out == ("result = 4/3\ngroup_order = 3\nmultiplicity = 4\n"
                   "stabilized_at = 3\n")
    _, out, _ = _run(capsys, *args, "--json")
    assert out == (
        '{\n  "details": {\n    "group_order": 3,\n    "multiplicity": 4,\n'
        '    "stabilized_at": 3\n  },\n  "inputs": {\n    "cap": 64,\n'
        '    "command": "residue",\n    "components": "3*z1^2,3*z2^2",\n'
        '    "group": 3,\n    "vars": "z1,z2"\n  },\n  "operation": "residue",\n'
        '  "result": "4/3"\n}\n')


def test_residue_non_isolated_at_the_default_cap(capsys):
    status, out, err = _run(capsys, "residue", "--vars", "u,v",
                            "--components", "u*v,u^2*v")
    assert status == 1
    assert out == ""
    assert "isolated" in err


def test_output_is_byte_identical(capsys):
    args = ("count", "foliation", "--model", "blowup_line_p3", "--symbolic")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_json_shape_and_round_trip(capsys):
    status, out, _ = _run(capsys, "count", "foliation", "--model",
                          "blowup_point:2", "--symbolic", "--json")
    assert status == 0
    payload = json.loads(out)
    assert set(payload) == {"operation", "inputs", "result", "details"}
    assert payload["operation"] == "count foliation"
    parsed = parse_polynomial(payload["result"], ("d1", "d2"))
    from toricsing.formulas import foliation_sing_count
    assert parsed == foliation_sing_count(catalog.blowup_point(2), "symbolic")


def test_json_rational_round_trip(capsys):
    _, out, _ = _run(capsys, "count", "wci", "--weights", "1,1,1,5",
                     "--ci", "1", "--degree", "10", "--kind", "distribution",
                     "--json")
    payload = json.loads(out)
    assert Fraction(payload["result"]) == Fraction(2 * 25 - 10 + 1, 5)


def test_wci_partial_sums_in_details(capsys):
    _, out, _ = _run(capsys, "count", "wci", "--weights", "1,1,1,1,1,1,2",
                     "--ci", "1,1,2", "--degree", "2", "--kind", "distribution",
                     "--json")
    payload = json.loads(out)
    assert payload["details"]["partial_sums"] == ["8", "-16", "12", "-4"]
    assert payload["result"] == "0"


@pytest.mark.parametrize("argv", [
    ("count", "wci", "--weights", "2,2,2,2", "--ci", "2", "--degree", "1"),
    ("alpha", "--weights", "2,2,2,2", "--ci", "2"),
    ("baumbott", "--weights", "2,2,2,2", "--ci", "2", "--degree", "1"),
    ("general-type", "--weights", "2,2,2,2", "--ci", "2"),
    ("poincare", "--variant", "wci-curve", "--weights", "2,2,2,2", "--ci", "2,2",
     "--degree", "1"),
    ("poincare", "--variant", "wci-general", "--weights", "2,2,2,2", "--ci", "2",
     "--degree", "1"),
])
def test_weights_with_a_common_factor_are_refused(capsys, argv):
    status, out, err = _run(capsys, *argv)
    assert (status, out) == (1, "")
    assert err == "error: weights (2, 2, 2, 2) have gcd 2, expected 1\n"


def test_weight_warnings_name_the_cli_line(capsys):
    # stdout is the count alone; the warning names the command line's call
    for argv in (("count", "wci", "--weights", "1,2,2,3", "--ci", "6", "--degree", "1"),
                 ("euler", "hyp", "--model", "weighted:1,2,2,3", "--hyp", "6")):
        with pytest.warns(NotWellFormedWarning, match="not pairwise coprime") as record:
            status, out, _ = _run(capsys, *argv)
        assert status == 0 and out.startswith("result = ")
        assert Path(record[0].filename).name == "cli.py"


@pytest.mark.parametrize("argv, call", [
    (("count", "wci", "--weights", "1,2,2", "--ci", "2", "--degree", "1"),
     "formulas.wci_sing_count_parts("),
    (("alpha", "--weights", "1,2,2,3", "--ci", "6"), "formulas.alpha_invariant("),
    (("general-type", "--weights", "1,2,2,3", "--ci", "6"),
     "formulas.general_type_index("),
    (("poincare", "--variant", "wci-curve", "--weights", "1,2,2", "--ci", "2,2",
      "--degree", "1"), "formulas.poincare_check("),
    (("poincare", "--variant", "wci-general", "--weights", "1,2,2,3", "--ci", "6",
      "--degree", "1"), "formulas.poincare_check("),
])
def test_weighted_commands_warn_once_at_their_call(capsys, argv, call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, _, _ = _run(capsys, *argv)
    assert status == 0
    assert [c.category for c in caught] == [NotWellFormedWarning]
    assert Path(caught[0].filename).name == "cli.py"
    assert call in linecache.getline(caught[0].filename, caught[0].lineno)


def test_search_json(capsys):
    _, out, _ = _run(capsys, "search", "--family", "scroll", "--bound", "5",
                     "--scroll-a", "1,1,1", "--json")
    payload = json.loads(out)
    assert payload["details"]["solutions"] == [
        {"params": [-2, 0], "annotation": "accepted"}]


def test_p111k_search_at_a_billion_reads_its_empty_solution_set(capsys):
    status, out, _ = _run(capsys, "search", "--family", "p111k",
                          "--bound", "1000000000")
    assert status == 0
    assert out.splitlines()[0] == "result = 0 solution(s)"


def test_scroll_search_at_a_huge_bound_prints_the_bytes_of_bound_ten(capsys):
    argv = ("search", "--family", "scroll", "--scroll-a", "1,1,1", "--bound")
    assert _run(capsys, *argv, "100000000000000000000") == _run(capsys, *argv, "10")


@pytest.mark.parametrize("argv, count", [
    (("--family", "scroll", "--scroll-a", "1"), 1999999999),
    (("--family", "p1111k"), 1000000001),
])
def test_searches_on_a_line_at_a_billion_end_promptly(capsys, argv, count):
    start = time.perf_counter()
    status, out, err = _run(capsys, "search", *argv, "--bound", "1000000000")
    assert time.perf_counter() - start < 1
    assert (status, out) == (1, "")
    assert err == (f"error: {argv[1]} search at bound 1000000000 has {count} "
                   "solutions, more than the 2000000 a search returns\n")


def test_search_rejects_malformed_twists(capsys):
    status, out, err = _run(capsys, "search", "--family", "scroll",
                            "--bound", "3", "--scroll-a", "1,x")
    assert status == 1 and out == ""
    assert "--scroll-a" in err and "1,x" in err and "int()" not in err


def test_search_rejects_twists_for_p_families(capsys):
    status, out, err = _run(capsys, "search", "--family", "p1111k",
                            "--bound", "3", "--scroll-a", "1,1,1")
    assert status == 1 and out == ""
    assert "scroll family only" in err


def test_catalog_list_and_show(capsys):
    status, out, _ = _run(capsys, "catalog", "list")
    assert status == 0 and "blowup_point" in out
    status, out, _ = _run(capsys, "catalog", "show", "--model", "projective:2")
    assert status == 0
    assert "tensor 2 = 1" in out


@pytest.mark.parametrize("spec, divisors", [
    ("blowup_line_p3", "divisor 1 -1\ndivisor 1 -1\ndivisor 1 0\ndivisor 1 0\n"
                       "divisor 0 1\n"),
    ("blowup_two_points_p3", "divisor 1 -1 0\ndivisor 1 -1 -1\ndivisor 1 -1 -1\n"
                             "divisor 1 0 -1\ndivisor 0 1 0\ndivisor 0 0 1\n")],
    ids=["blowup_line_p3", "blowup_two_points_p3"])
def test_catalog_show_prints_the_blowups_as_divisor_classes(capsys, spec, divisors):
    # both used to print chern lines and no divisor lines
    status, out, _ = _run(capsys, "catalog", "show", "--model", spec)
    assert status == 0 and "smooth true\n" + divisors + "tensor 3 " in out
    assert "chern" not in out


def test_blowup_along_a_line_counts_at_divisor_coefficients(capsys):
    # refused with "model Bl_L(P3) records no divisor classes" before
    status, out, _ = _run(capsys, "count", "foliation", "--model", "blowup_line_p3",
                          "--degree-div", "0,0,0,0,1")
    assert (status, out) == (0, "result = 6\n")
    status, out, _ = _run(capsys, "count", "foliation", "--model", "blowup_line_p3",
                          "--symbolic")
    assert (status, out) == (0, "result = d1^3 - 3*d1*d2^2 - 2*d2^3 + 4*d1^2 + 2*d1*d2"
                                " - 2*d2^2 + 7*d1 + 4*d2 + 6\n")


def test_model_file_input(tmp_path, capsys):
    path = tmp_path / "plane.model"
    path.write_text(catalog.serialize_model(catalog.projective(2)),
                    encoding="utf-8")
    status, out, _ = _run(capsys, "euler", "ambient", "--model-file", str(path))
    assert status == 0
    assert out.splitlines()[0] == "result = 3"


def test_check_subcommands(capsys):
    status, out, _ = _run(capsys, "check", "homogeneous", "--model",
                          "weighted:1,1,1,3", "--poly", "z3 - z0^3 - z1^3 - z2^3")
    assert status == 0 and out.splitlines()[0] == "result = degree 3"

    status, out, _ = _run(capsys, "check", "descends", "--model",
                          "weighted:1,7,3,5", "--form=-7*z1,z0,-5*z3,3*z2")
    assert status == 0 and out.splitlines()[0] == "result = true"

    status, out, _ = _run(capsys, "check", "invariant", "--model",
                          "projective:2", "--field", "z0,z1,z2",
                          "--poly", "z0*z1 - z2^2")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "result = true"
    assert "cofactor = 2" in lines


@pytest.mark.parametrize("argv, first", [
    (("euler", "complement", "--model", "projective:2", "--hyp", "1"), "result = 1"),
    # 2 (1 + 4 - 2)^2 on the quadric surface
    (("baumbott", "--weights", "1,1,1,1", "--ci", "2", "--degree", "1"), "result = 18"),
    (("check", "homogeneous", "--model", "projective:2", "--poly", "0"),
     "result = any degree"),
    (("check", "homogeneous", "--model", "projective:2", "--poly", "z0+z1^2"),
     "result = not quasi-homogeneous"),
    # the blow-up's radial fields are its class columns, (1, 1, 1, 0) and
    # (-1, -1, 0, 1), and the rotation of z0 and z1 contracts to 0 with both
    (("check", "descends", "--model", "blowup_point:2", "--form", "z1,-z0,0,0"),
     "result = true"),
    (("check", "descends", "--model", "blowup_point:2", "--form", "z1,0,0,0"),
     "result = false"),
], ids=" ".join)
def test_subcommand_results(capsys, argv, first):
    status, out, _ = _run(capsys, *argv)
    assert status == 0 and out.splitlines()[0] == first


def test_gcd_obstruction_cli(capsys):
    status, out, _ = _run(capsys, "gcd-obstruction", "--model", "projective:2",
                          "--degree-div", "2,0,0")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "result = true"
    assert "chi = 3" in lines and "gcd = 2" in lines


def test_poincare_cli(capsys):
    status, out, _ = _run(capsys, "poincare", "--variant", "toric-curve",
                          "--model", "multiprojective:1,1", "--class", "2,3",
                          "--degree", "1,0")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "result = holds"
    assert "lhs = 12" in lines and "rhs = 13" in lines and "slack = 1" in lines


def test_strict_wci_verdicts_are_refused(capsys):
    # --strict used to be dropped on the wci variants, printing slack 4
    argv = ("poincare", "--variant", "wci-curve", "--weights", "1,1,1", "--ci", "2",
            "--degree", "3")
    assert _run(capsys, *argv)[0] == 0
    status, out, err = _run(capsys, *argv, "--strict")
    assert (status, out) == (1, "")
    assert err == "error: wci-curve has no strict form; only toric-curve has\n"


def test_domain_error_exit_code(capsys):
    status, out, err = _run(capsys, "count", "foliation", "--model",
                            "weighted:2,4,6", "--degree", "1")
    assert status == 1
    assert "error:" in err


def test_malformed_model_spec_is_a_domain_error(capsys):
    status, out, err = _run(capsys, "count", "foliation", "--model",
                            "projective", "--degree", "1")
    assert (status, out) == (1, "")
    assert err.startswith("error:") and "projective:n" in err


def test_a_dangling_star_is_a_domain_error(tmp_path, capsys):
    # a factor missing after '*', on the command line and in a chern line
    status, out, err = _run(capsys, "residue", "--vars", "u,v", "--components", "u*,v")
    assert (status, out, err) == (1, "", "error: dangling '*' in polynomial\n")
    path = tmp_path / "star.model"
    path.write_text("name P2\ndim 2\nrank 1\ngens H\ndivisor 1\ndivisor 1\n"
                    "divisor 1\ntensor 2 = 1\nchern 1 : H*\n", encoding="utf-8")
    status, out, err = _run(capsys, "euler", "ambient", "--model-file", str(path))
    assert (status, out, err) == (1, "", "error: line 9: dangling '*' in polynomial\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["count", "foliation", "--model", "projective:2",
             "--degree", "1", "--symbolic"])
    assert exc.value.code == 2


def test_scrollform_cli(capsys):
    status, out, _ = _run(capsys, "scrollform", "--a", "1,1,1",
                          "--d1", "-2", "--d2", "0")
    assert status == 0
    assert out.splitlines()[0] == "result = 0"


def test_multidegree_cli(capsys):
    status, out, _ = _run(capsys, "multidegree", "--model", "projective:3",
                          "--class", "2", "--class", "3", "--index", "0")
    assert status == 0
    assert out.splitlines()[0] == "result = 6"


def test_alpha_cli(capsys):
    status, out, _ = _run(capsys, "alpha", "--weights", "1,1,1,1,1",
                          "--ci", "2", "--test-divisor", "3")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "result = 2"
    assert "chi = 4" in lines and "divides = false" in lines


def test_count_restricted_and_ci_cli(capsys):
    status, out, _ = _run(capsys, "count", "restricted", "--model",
                          "projective:3", "--degree", "1", "--hyp", "2")
    assert status == 0 and out.splitlines()[0] == "result = 10"
    status, out, _ = _run(capsys, "count", "ci", "--model", "projective:3",
                          "--class", "2", "--degree", "1")
    assert status == 0 and out.splitlines()[0] == "result = 10"
    status, out, _ = _run(capsys, "count", "complement", "--model",
                          "weighted:2,3,5", "--degree", "0", "--hyp", "3")
    assert status == 0 and out.splitlines()[0] == "result = 1/3"


def test_euler_hyp_and_ci_cli(capsys):
    status, out, _ = _run(capsys, "euler", "hyp", "--model", "projective:3",
                          "--hyp", "2")
    assert status == 0 and out.splitlines()[0] == "result = 4"
    status, out, _ = _run(capsys, "euler", "ci", "--model", "projective:2",
                          "--class", "3")
    assert status == 0 and out.splitlines()[0] == "result = 0"


def test_degree_div_flag(capsys):
    for model, div, picard in (("blowup_point:2", "0,0,2,1", "2,1"),
                               ("projective:2", "1,0,0", "1"),
                               ("scroll:1,2", "2,1,0,1", "1,1")):
        status, out, _ = _run(capsys, "count", "foliation", "--model", model,
                              "--degree-div", div)
        assert status == 0
        _, out2, _ = _run(capsys, "count", "foliation", "--model", model,
                          "--degree", picard)
        assert out == out2


@pytest.mark.parametrize("argv, message", [
    # P^2 has three invariant divisors: --degree-div 1 used to be read as the
    # Picard vector (1,) and print "result = 7"
    (("projective:2", "--degree-div", "1"), "expected 3 divisor coefficients"),
    # scroll:1,2 has four; --degree-div 1,1 used to print "result = 16"
    (("scroll:1,2", "--degree-div", "1,1"), "expected 4 divisor coefficients"),
    # P^2 has Picard rank 1: --degree 1,0,0 used to be read as divisor
    # coefficients and print "result = 7"
    (("projective:2", "--degree", "1,0,0"),
     "--degree must have one entry per Picard generator: 1 on P2, got 3"),
    (("scroll:1,2", "--degree", "1"),
     "--degree must have one entry per Picard generator: 2 on F(1,2), got 1"),
])
def test_each_degree_flag_keeps_its_own_meaning(capsys, argv, message):
    model, flag, value = argv
    status, out, err = _run(capsys, "count", "foliation", "--model", model, flag, value)
    assert (status, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    # refused before the file is opened, so it need not exist
    (("count", "foliation", "--model", "projective:2", "--model-file", "unread.model",
      "--degree", "1"), "give exactly one of --model and --model-file"),
    (("count", "foliation", "--degree", "1"),
     "no model given; use --model or --model-file"),
    (("count", "foliation", "--model", "projective:2"),
     "no degree given; use --degree, --degree-div, or --symbolic"),
    (("count", "wci", "--weights", "1,1,1", "--ci", "1"),
     "no degree given; use --degree or --symbolic"),
    (("euler", "ci", "--model", "projective:3"), "no classes given; use --class"),
    (("search", "--family", "scroll", "--bound", "3", "--scroll-a", "1,x"),
     "--scroll-a takes comma-separated integers, got '1,x'"),
    # a wci poincare verdict without weights used to end in an AttributeError
    (("poincare", "--variant", "wci-curve", "--ci", "2", "--degree", "1"),
     "no --weights given"),
    (("poincare", "--variant", "wci-general", "--weights", "1,1,1,1", "--degree", "1"),
     "no --ci given"),
])
def test_missing_and_malformed_arguments_are_domain_errors(capsys, argv, message):
    assert _run(capsys, *argv) == (1, "", f"error: {message}\n")


# each integer-list flag used to print Python's own text, such as "invalid
# literal for int() with base 10: 'x'", without naming the flag
@pytest.mark.parametrize("argv, flag, text", [
    (("count", "foliation", "--model", "projective:2", "--degree", "x"), "--degree", "x"),
    (("count", "foliation", "--model", "projective:2", "--degree", ","), "--degree", ","),
    (("count", "foliation", "--model", "multiprojective:1,1", "--degree", "1,2.5"),
     "--degree", "1,2.5"),
    (("count", "foliation", "--model", "projective:2", "--degree-div", "1,a,1"),
     "--degree-div", "1,a,1"),
    (("gcd-obstruction", "--model", "projective:2", "--degree-div", ""), "--degree-div", ""),
    (("count", "ci", "--model", "projective:3", "--class", "2", "--class", "y",
      "--degree", "1"), "--class", "y"),
    (("euler", "ci", "--model", "projective:3", "--class", "1,"), "--class", "1,"),
    (("count", "restricted", "--model", "projective:3", "--degree", "1", "--hyp", "two"),
     "--hyp", "two"),
    (("euler", "hyp", "--model", "projective:3", "--hyp", "1/2"), "--hyp", "1/2"),
    (("general-type", "--weights", "1,1,,1", "--ci", "2"), "--weights", "1,1,,1"),
    (("count", "wci", "--weights", "1 1 1 1", "--ci", "2", "--degree", "1"),
     "--weights", "1 1 1 1"),
    (("alpha", "--weights", "1,1,1,1", "--ci", "two"), "--ci", "two"),
    (("baumbott", "--weights", "1,1,1,1", "--ci", "2;3", "--degree", "1"), "--ci", "2;3"),
    (("scrollform", "--a", "1;2", "--d1", "1", "--d2", "1"), "--a", "1;2"),
    (("search", "--family", "scroll", "--bound", "3", "--scroll-a", ",,"),
     "--scroll-a", ",,"),
])
def test_malformed_integer_lists_name_their_flag(capsys, argv, flag, text):
    message = f"error: {flag} takes comma-separated integers, got {text!r}\n"
    assert _run(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize("argv", [
    ("count", "wci", "--weights", "1,1,1,1", "--ci", "2", "--degree", "x"),
    ("baumbott", "--weights", "1,1,1,1", "--ci", "2", "--degree", "1,2"),
    ("poincare", "--variant", "wci-curve", "--weights", "1,1,1", "--ci", "2",
     "--degree", "one"),
])
def test_a_malformed_scalar_degree_names_its_flag(capsys, argv):
    message = f"error: --degree takes an integer, got {argv[-1]!r}\n"
    assert _run(capsys, *argv) == (1, "", message)


# the three answered for a multidegree <= 0: -4, alpha 6 with chi 0, and 0
@pytest.mark.parametrize("argv", [
    ("general-type", "--weights", "1,1,1,1", "--ci", "0"),
    ("general-type", "--weights", "1,1,1,1", "--ci", "-2"),
    ("alpha", "--weights", "1,1,1,1", "--ci", "0"),
    ("baumbott", "--weights", "1,1,1,1", "--ci", "0", "--degree", "1"),
    ("poincare", "--variant", "wci-curve", "--weights", "1,1,1", "--ci", "0",
     "--degree", "1"),
])
def test_multidegrees_that_are_not_positive_are_refused(capsys, argv):
    message = "error: complete-intersection multidegrees must be positive\n"
    assert _run(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize("case", HELP_STREAMS,
                         ids=lambda case: " ".join(case["argv"]) or "no arguments")
def test_help_and_usage_streams_are_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = run(list(case["argv"]))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (
        case["status"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv, symbol", [
    (("count", "foliation", "--model", "projective:2", "--symbolic", "2"), "'2'"),
    (("count", "foliation", "--model", "projective:2", "--symbolic", " "), "''"),
    (("count", "foliation", "--model", "multiprojective:1,1", "--symbolic", "a,2b"),
     "'2b'"),
    (("count", "wci", "--weights", "1,1,1,2", "--ci", "2", "--symbolic", "H,d"),
     "'H,d'"),
    (("count", "wci", "--weights", "1,1,1,2", "--ci", "2", "--symbolic", " "), "' '"),
])
def test_symbols_the_parser_cannot_read_back_are_domain_errors(capsys, argv, symbol):
    status, out, err = _run(capsys, *argv)
    assert (status, out) == (1, "")
    assert err.startswith(f"error: degree symbol {symbol} ")


def test_named_symbols_read_back(capsys):
    status, out, _ = _run(capsys, "count", "wci", "--weights", "1,1,1,2", "--ci", "2",
                          "--symbolic", "t_1")
    assert status == 0
    value = out.splitlines()[0].removeprefix("result = ")
    assert parse_polynomial(value, ("t_1",)).canonical_string() == value


@pytest.mark.parametrize("spec", ["projective:3", "weighted:1,2,3,5",
                                  "multiprojective:1,1,1", "scroll:1,2,0",
                                  "blowup_two_points_p3", "blowup_line_p3"])
def test_euler_ambient_is_the_integral_of_the_top_chern_class(capsys, spec):
    status, out, _ = _run(capsys, "euler", "ambient", "--model", spec)
    m = catalog.from_spec_string(spec)
    expected = chow.integrate(m, chow.chern_class(m, m.dim)).canonical_string()
    assert (status, out) == (0, f"result = {expected}\n")
