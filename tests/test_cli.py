"""Exit codes, output determinism, and JSON round trips for the CLI."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from toricsing import catalog, chow
from toricsing.catalog import parse_polynomial
from toricsing.cli import run


# Exit status, stdout and stderr of help and usage-error invocations, written
# by the CLI with COLUMNS=80 under Python 3.11 (argparse's layout varies
# between Python versions).
HELP_STREAMS = json.loads(
    (Path(__file__).parent / "data" / "help_streams.json").read_text(encoding="utf-8"))


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
    status, out, _ = _run(capsys, "count", "foliation", "--model",
                          "blowup_point:2", "--degree-div", "0,0,2,1")
    assert status == 0
    _, out2, _ = _run(capsys, "count", "foliation", "--model",
                      "blowup_point:2", "--degree", "2,1")
    assert out == out2


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
