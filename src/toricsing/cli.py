"""Command-line surface over the counting formulas, checks, and the local
index oracle.

One subcommand per formula keeps the mapping legible:

    toricsing count foliation --model blowup_point:2 --symbolic
    toricsing count wci --weights 1,1,1,4 --ci 1 --degree 8 --kind distribution
    toricsing residue --vars z1,z2 --components "3*z1^2,3*z2^2" --group 3

Plain output prints `result = <canonical value>` plus sorted detail lines;
`--json` prints one object {operation, inputs, result, details}.  Identical
invocations produce byte-identical output.  Exit status: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog, chow, formulas, polyfield, residue
from .errors import ToricError
from .exactalg import MultiPoly, poly_sum


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, details = args.handler(args)
    except (ToricError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, result, details)
    return 0


def _emit(args, result: str, details: dict) -> None:
    if getattr(args, "json", False):
        payload = {
            "operation": args.operation,
            "inputs": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("handler", "operation", "json")
                       and v is not None},
            "result": result,
            "details": details,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if "\n" in result:
            print(result)
        else:
            print(f"result = {result}")
        for key in sorted(details):
            value = details[key]
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, dict) and "params" in item:
                        rendered = "(" + ", ".join(str(x) for x in item["params"]) + ")"
                        note = item.get("annotation")
                        print(f"{key} = {rendered}" + (f" {note}" if note else ""))
                    else:
                        print(f"{key} = {item}")
            else:
                print(f"{key} = {value}")


def _canonical(value) -> str:
    if isinstance(value, MultiPoly):
        return value.canonical_string()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# argument plumbing


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _model_from_args(args) -> chow.ToricModel:
    spec = getattr(args, "model", None)
    path = getattr(args, "model_file", None)
    if spec and path:
        raise ToricError("give exactly one of --model and --model-file")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return catalog.parse_model(fh.read())
    if spec:
        return catalog.from_spec_string(spec)
    raise ToricError("no model given; use --model or --model-file")


def _degree_from_args(args, model) -> object:
    if getattr(args, "symbolic", None) is not None:
        names = _split_names(args.symbolic)
        return formulas.symbolic_degree(model, names)
    if getattr(args, "degree_div", None):
        return _ints(args.degree_div)
    if getattr(args, "degree", None) is not None:
        return _ints(args.degree)
    raise ToricError("no degree given; use --degree, --degree-div, or --symbolic")


def _split_names(text: str):
    if not text:
        return None
    return tuple(s.strip() for s in text.split(","))


def _scalar_degree_from_args(args) -> object:
    if getattr(args, "symbolic", None) is not None:
        name = args.symbolic or "d"
        return MultiPoly.variable(name, (name,))
    if args.degree is None:
        raise ToricError("no degree given; use --degree or --symbolic")
    return int(args.degree)


def _class_list_from_args(args):
    if not getattr(args, "cls", None):
        raise ToricError("no classes given; use --class")
    return [_ints(c) for c in args.cls]


def _add_model_flags(sub):
    sub.add_argument("--model", help="builtin model, e.g. blowup_point:2 or weighted:1,1,2")
    sub.add_argument("--model-file", help="path to a model file")


def _add_degree_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--degree", help="Picard-basis degree vector, e.g. 2 or 2,5")
    group.add_argument("--degree-div", help="divisor-coefficient degree vector")
    group.add_argument("--symbolic", nargs="?", const="",
                       help="symbolic degree; optionally name the symbols")


def _add_json_flag(sub):
    sub.add_argument("--json", action="store_true", help="emit one JSON object")


def _parse_components(text: str, variables, synonyms=None):
    return tuple(catalog.parse_polynomial(chunk, variables, synonyms)
                 for chunk in text.split(","))


def _coordinate_synonyms(model):
    return {f"z{i}": name for i, name in enumerate(model.coord_names)}


# ---------------------------------------------------------------------------
# handlers


def _handle_catalog_list(args):
    lines = [f"{name}  ({syntax})" for name, syntax in sorted(catalog.FAMILIES.items())]
    return "\n".join(lines), {}


def _handle_catalog_show(args):
    model = _model_from_args(args)
    return catalog.serialize_model(model).rstrip("\n"), {}


def _handle_count_foliation(args):
    model = _model_from_args(args)
    count = formulas.foliation_sing_count(model, _degree_from_args(args, model))
    return _canonical(count), {}


def _handle_count_restricted(args):
    model = _model_from_args(args)
    count = formulas.restricted_sing_count(
        model, _degree_from_args(args, model), _ints(args.hyp), kind=args.kind)
    return _canonical(count), {}


def _handle_count_complement(args):
    model = _model_from_args(args)
    count = formulas.complement_sing_count(
        model, _degree_from_args(args, model), _ints(args.hyp))
    return _canonical(count), {}


def _handle_count_wci(args):
    degree = _scalar_degree_from_args(args)
    parts = formulas.wci_sing_count_parts(
        _ints(args.weights), _ints(args.ci), degree, kind=args.kind)
    total = poly_sum(parts)
    return _canonical(total), {"partial_sums": [_canonical(p) for p in parts]}


def _handle_count_ci(args):
    model = _model_from_args(args)
    count = formulas.ci_sing_count(
        model, _class_list_from_args(args), _degree_from_args(args, model),
        kind=args.kind)
    return _canonical(count), {}


def _handle_euler_ambient(args):
    model = _model_from_args(args)
    value = chow.integrate(model, chow.chern_class(model, model.dim))
    return _canonical(value), {}


def _handle_euler_hyp(args):
    model = _model_from_args(args)
    value = formulas.hypersurface_euler(model, _ints(args.hyp))
    return _canonical(value), {}


def _handle_euler_complement(args):
    model = _model_from_args(args)
    value = formulas.complement_euler(model, _ints(args.hyp))
    return _canonical(value), {}


def _handle_euler_ci(args):
    model = _model_from_args(args)
    value = formulas.ci_euler(model, _class_list_from_args(args))
    return _canonical(value), {}


def _handle_baumbott(args):
    value = formulas.baum_bott_sum(
        _ints(args.weights), _ints(args.ci), _scalar_degree_from_args(args))
    return _canonical(value), {}


def _handle_alpha(args):
    info = formulas.alpha_invariant(_ints(args.weights), _ints(args.ci))
    details = {"chi": _canonical(info.chi)}
    if args.test_divisor is not None:
        details["divides"] = _canonical(info.divides(args.test_divisor))
    return _canonical(info.alpha), details


def _handle_general_type(args):
    value = formulas.general_type_index(_ints(args.weights), _ints(args.ci))
    return _canonical(value), {}


def _handle_multidegree(args):
    model = _model_from_args(args)
    value = formulas.multidegree(
        model, _class_list_from_args(args), args.index, generator=args.generator)
    return _canonical(value), {}


def _handle_poincare(args):
    if args.variant == "toric-curve":
        model = _model_from_args(args)
        verdict = formulas.poincare_check(
            args.variant, model=model, classes=_class_list_from_args(args),
            degree=_degree_from_args(args, model), strict=args.strict)
    else:
        degree = _scalar_degree_from_args(args)
        verdict = formulas.poincare_check(
            args.variant, weights=_ints(args.weights), classes=_ints(args.ci),
            degree=degree)
    result = ("holds" if verdict.holds else "fails") if verdict.holds is not None \
        else "indeterminate"
    details = {
        "lhs": _canonical(verdict.lhs),
        "rhs": _canonical(verdict.rhs),
        "slack": _canonical(verdict.slack),
    }
    return result, details


def _handle_search(args):
    scroll_a = None
    if args.scroll_a:
        try:
            scroll_a = _ints(args.scroll_a)
        except ValueError:
            raise ToricError(f"--scroll-a takes comma-separated integers, "
                             f"got {args.scroll_a!r}") from None
    solutions = formulas.regular_search(args.family, args.bound, scroll_a=scroll_a)
    details = {
        "solutions": [
            {"params": list(s.params), "annotation": s.annotation}
            for s in solutions
        ],
    }
    return f"{len(solutions)} solution(s)", details


def _handle_scrollform(args):
    twists = _ints(args.a)
    value = formulas.scroll_closed_form(len(twists), twists, args.d1, args.d2)
    return _canonical(value), {}


def _handle_residue(args):
    variables = tuple(s.strip() for s in args.vars.split(","))
    components = _parse_components(args.components, variables)
    query = residue.IndexQuery(components, group_order=args.group,
                               degree_cap=args.cap)
    report = residue.local_multiplicity(query)
    details = {
        "multiplicity": report.multiplicity,
        "group_order": report.group_order,
        "stabilized_at": report.stabilized_at,
    }
    return _canonical(report.orbifold_index), details


def _handle_check_homogeneous(args):
    model = _model_from_args(args)
    poly = catalog.parse_polynomial(args.poly, model.coord_names,
                                    _coordinate_synonyms(model))
    degree = polyfield.check_quasi_homogeneous(model, poly)
    if degree is polyfield.ANY_DEGREE:
        return "any degree", {}
    if degree is None:
        return "not quasi-homogeneous", {}
    rendered = str(degree[0]) if model.rank == 1 else \
        "(" + ", ".join(str(x) for x in degree) + ")"
    return f"degree {rendered}", {}


def _handle_check_descends(args):
    model = _model_from_args(args)
    comps = _parse_components(args.form, model.coord_names,
                              _coordinate_synonyms(model))
    form = polyfield.OneFormExpr(model, comps)
    return _canonical(polyfield.check_descends(model, form)), {}


def _handle_check_invariant(args):
    model = _model_from_args(args)
    synonyms = _coordinate_synonyms(model)
    comps = _parse_components(args.field, model.coord_names, synonyms)
    field = polyfield.VectorFieldExpr(model, comps)
    hyp = catalog.parse_polynomial(args.poly, model.coord_names, synonyms)
    verdict = polyfield.check_invariant_hypersurface(field, hyp)
    details = {}
    if verdict.invariant:
        details["cofactor"] = verdict.cofactor.canonical_string()
    return _canonical(verdict.invariant), details


def _handle_gcd_obstruction(args):
    model = _model_from_args(args)
    verdict = formulas.gcd_obstruction(model, _ints(args.degree_div))
    details = {"chi": _canonical(verdict.chi), "gcd": verdict.gcd}
    return _canonical(verdict.forces_singular), details


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricsing",
        description="Exact singularity counts on compact toric orbifolds.")
    top = parser.add_subparsers(dest="command", required=True)

    cat = top.add_parser("catalog", help="list or show builtin models")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    p = cat_sub.add_parser("list")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_catalog_list, operation="catalog list")
    p = cat_sub.add_parser("show")
    _add_model_flags(p)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_catalog_show, operation="catalog show")

    count = top.add_parser("count", help="singularity counts")
    count_sub = count.add_subparsers(dest="subcommand", required=True)

    p = count_sub.add_parser("foliation")
    _add_model_flags(p)
    _add_degree_flags(p)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_count_foliation, operation="count foliation")

    p = count_sub.add_parser("restricted")
    _add_model_flags(p)
    _add_degree_flags(p)
    p.add_argument("--hyp", required=True, help="hypersurface class (Picard vector)")
    p.add_argument("--kind", choices=formulas.KINDS, default="foliation")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_count_restricted, operation="count restricted")

    p = count_sub.add_parser("complement")
    _add_model_flags(p)
    _add_degree_flags(p)
    p.add_argument("--hyp", required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_count_complement, operation="count complement")

    p = count_sub.add_parser("wci")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--ci", required=True, help="comma-separated multidegrees")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--degree", help="integer degree")
    group.add_argument("--symbolic", nargs="?", const="",
                       help="symbolic degree; optionally name the symbol")
    p.add_argument("--kind", choices=formulas.KINDS, default="foliation")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_count_wci, operation="count wci")

    p = count_sub.add_parser("ci")
    _add_model_flags(p)
    _add_degree_flags(p)
    p.add_argument("--class", dest="cls", action="append",
                   help="complete-intersection class (repeatable)")
    p.add_argument("--kind", choices=formulas.KINDS, default="foliation")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_count_ci, operation="count ci")

    euler = top.add_parser("euler", help="Euler characteristics")
    euler_sub = euler.add_subparsers(dest="subcommand", required=True)
    p = euler_sub.add_parser("ambient")
    _add_model_flags(p)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_euler_ambient, operation="euler ambient")
    p = euler_sub.add_parser("hyp")
    _add_model_flags(p)
    p.add_argument("--hyp", required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_euler_hyp, operation="euler hyp")
    p = euler_sub.add_parser("complement")
    _add_model_flags(p)
    p.add_argument("--hyp", required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_euler_complement, operation="euler complement")
    p = euler_sub.add_parser("ci")
    _add_model_flags(p)
    p.add_argument("--class", dest="cls", action="append")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_euler_ci, operation="euler ci")

    p = top.add_parser("baumbott", help="sum of Baum-Bott indices on a surface")
    p.add_argument("--weights", required=True)
    p.add_argument("--ci", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--degree")
    group.add_argument("--symbolic", nargs="?", const="")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_baumbott, operation="baumbott")

    p = top.add_parser("alpha", help="divisibility invariant and chi")
    p.add_argument("--weights", required=True)
    p.add_argument("--ci", required=True)
    p.add_argument("--test-divisor", type=int)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_alpha, operation="alpha")

    p = top.add_parser("general-type", help="canonical-degree index of a surface")
    p.add_argument("--weights", required=True)
    p.add_argument("--ci", required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_general_type, operation="general-type")

    p = top.add_parser("multidegree", help="k-degree of a complete intersection")
    _add_model_flags(p)
    p.add_argument("--class", dest="cls", action="append")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--generator", action="store_true",
                   help="treat the index as a generator index")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_multidegree, operation="multidegree")

    p = top.add_parser("poincare", help="degree-bound verdicts")
    p.add_argument("--variant", required=True,
                   choices=("wci-curve", "wci-general", "toric-curve"))
    p.add_argument("--weights")
    p.add_argument("--ci")
    _add_model_flags(p)
    p.add_argument("--class", dest="cls", action="append")
    _add_degree_flags(p)
    p.add_argument("--strict", action="store_true",
                   help="projective-space sharpening of the bound")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_poincare, operation="poincare")

    p = top.add_parser("search", help="bounded enumeration of regular degree data")
    p.add_argument("--family", required=True, choices=("p111k", "p1111k", "scroll"))
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--scroll-a", help="twists for the scroll family")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_search, operation="search")

    p = top.add_parser("scrollform", help="closed-form scroll expression")
    p.add_argument("--a", required=True, help="comma-separated twists")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_scrollform, operation="scrollform")

    p = top.add_parser("residue", help="local multiplicity and orbifold index")
    p.add_argument("--vars", required=True, help="comma-separated chart variables")
    p.add_argument("--components", required=True,
                   help="comma-separated map components")
    p.add_argument("--group", type=int, default=1, help="isotropy group order")
    p.add_argument("--cap", type=int, default=residue.DEFAULT_DEGREE_CAP)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_residue, operation="residue")

    check = top.add_parser("check", help="homogeneity, descent, invariance")
    check_sub = check.add_subparsers(dest="subcommand", required=True)
    p = check_sub.add_parser("homogeneous")
    _add_model_flags(p)
    p.add_argument("--poly", required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_check_homogeneous, operation="check homogeneous")
    p = check_sub.add_parser("descends")
    _add_model_flags(p)
    p.add_argument("--form", required=True, help="comma-separated components")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_check_descends, operation="check descends")
    p = check_sub.add_parser("invariant")
    _add_model_flags(p)
    p.add_argument("--field", required=True, help="comma-separated components")
    p.add_argument("--poly", required=True, help="hypersurface polynomial")
    _add_json_flag(p)
    p.set_defaults(handler=_handle_check_invariant, operation="check invariant")

    p = top.add_parser("gcd-obstruction", help="divisibility obstruction")
    _add_model_flags(p)
    p.add_argument("--degree-div", required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_handle_gcd_obstruction, operation="gcd-obstruction")

    return parser


if __name__ == "__main__":
    main()
