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

An invocation imports only the modules its command uses, and argparse builds
only that command's parser, with the parsers of the groups above it:
`residue` never loads `formulas` or `polyfield`, and `catalog list` loads
none of `formulas`, `polyfield` or `residue`.  No count loads `ring` or
`verdicts`.  Handlers import their modules inside the function and call them
as module attributes (`formulas.foliation_sing_count(...)`).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import ToricError
from .exactalg import MultiPoly, _check_symbol, parse_polynomial, poly_sum


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


def _ints(text: str | None, flag: str) -> tuple[int, ...]:
    """The comma-separated integers given to `flag`; a missing or malformed
    text is a domain error naming the flag and the text."""
    if text is None:
        raise ToricError(f"no {flag} given")
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ToricError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _model_from_args(args):
    from . import catalog
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
        from . import formulas
        names = _split_names(args.symbolic)
        return formulas.symbolic_degree(model, names)
    if getattr(args, "degree_div", None):
        from . import chow
        return chow.class_of_divisor_coeffs(model, _ints(args.degree_div, "--degree-div"))
    if getattr(args, "degree", None) is not None:
        degree = _ints(args.degree, "--degree")
        if len(degree) != model.rank:
            raise ToricError("--degree must have one entry per Picard generator: "
                             f"{model.rank} on {model.name}, got {len(degree)}")
        return degree
    raise ToricError("no degree given; use --degree, --degree-div, or --symbolic")


def _split_names(text: str):
    if not text:
        return None
    return tuple(s.strip() for s in text.split(","))


def _scalar_degree_from_args(args) -> object:
    if getattr(args, "symbolic", None) is not None:
        name = _check_symbol(args.symbolic or "d")
        return MultiPoly.variable(name, (name,))
    if args.degree is None:
        raise ToricError("no degree given; use --degree or --symbolic")
    try:
        return int(args.degree)
    except ValueError:
        raise ToricError(f"--degree takes an integer, got {args.degree!r}") from None


def _weights_from_args(args):
    return _ints(args.weights, "--weights"), _ints(args.ci, "--ci")


def _class_list_from_args(args):
    if not getattr(args, "cls", None):
        raise ToricError("no classes given; use --class")
    return [_ints(c, "--class") for c in args.cls]


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
    return tuple(parse_polynomial(chunk, variables, synonyms)
                 for chunk in text.split(","))


def _coordinate_synonyms(model):
    return {f"z{i}": name for i, name in enumerate(model.coord_names)}


# ---------------------------------------------------------------------------
# handlers


def _handle_catalog_list(args):
    from . import catalog
    lines = [f"{name}  ({syntax})" for name, syntax in sorted(catalog.FAMILIES.items())]
    return "\n".join(lines), {}


def _handle_catalog_show(args):
    from . import catalog
    model = _model_from_args(args)
    return catalog.serialize_model(model).rstrip("\n"), {}


def _handle_count_foliation(args):
    from . import formulas
    model = _model_from_args(args)
    count = formulas.foliation_sing_count(model, _degree_from_args(args, model))
    return _canonical(count), {}


def _handle_count_restricted(args):
    from . import formulas
    model = _model_from_args(args)
    count = formulas.restricted_sing_count(
        model, _degree_from_args(args, model), _ints(args.hyp, "--hyp"), kind=args.kind)
    return _canonical(count), {}


def _handle_count_complement(args):
    from . import formulas
    model = _model_from_args(args)
    count = formulas.complement_sing_count(
        model, _degree_from_args(args, model), _ints(args.hyp, "--hyp"))
    return _canonical(count), {}


def _handle_count_wci(args):
    from . import formulas
    degree = _scalar_degree_from_args(args)
    parts = formulas.wci_sing_count_parts(
        *_weights_from_args(args), degree, kind=args.kind)
    total = poly_sum(parts)
    return _canonical(total), {"partial_sums": [_canonical(p) for p in parts]}


def _handle_count_ci(args):
    from . import formulas
    model = _model_from_args(args)
    count = formulas.ci_sing_count(
        model, _class_list_from_args(args), _degree_from_args(args, model),
        kind=args.kind)
    return _canonical(count), {}


def _handle_euler_ambient(args):
    from . import chow
    model = _model_from_args(args)
    value = chow.integrate_count(model)
    return _canonical(value), {}


def _handle_euler_hyp(args):
    from . import formulas
    model = _model_from_args(args)
    value = formulas.hypersurface_euler(model, _ints(args.hyp, "--hyp"))
    return _canonical(value), {}


def _handle_euler_complement(args):
    from . import formulas
    model = _model_from_args(args)
    value = formulas.complement_euler(model, _ints(args.hyp, "--hyp"))
    return _canonical(value), {}


def _handle_euler_ci(args):
    from . import formulas
    model = _model_from_args(args)
    value = formulas.ci_euler(model, _class_list_from_args(args))
    return _canonical(value), {}


def _handle_baumbott(args):
    from . import formulas
    value = formulas.baum_bott_sum(
        *_weights_from_args(args), _scalar_degree_from_args(args))
    return _canonical(value), {}


def _handle_alpha(args):
    from . import formulas
    info = formulas.alpha_invariant(*_weights_from_args(args))
    details = {"chi": _canonical(info.chi)}
    if args.test_divisor is not None:
        details["divides"] = _canonical(info.divides(args.test_divisor))
    return _canonical(info.alpha), details


def _handle_general_type(args):
    from . import formulas
    value = formulas.general_type_index(*_weights_from_args(args))
    return _canonical(value), {}


def _handle_multidegree(args):
    from . import formulas
    model = _model_from_args(args)
    value = formulas.multidegree(
        model, _class_list_from_args(args), args.index, generator=args.generator)
    return _canonical(value), {}


def _handle_poincare(args):
    from . import formulas
    if args.variant == "toric-curve":
        model = _model_from_args(args)
        data = dict(model=model, classes=_class_list_from_args(args),
                    degree=_degree_from_args(args, model))
    else:
        degree = _scalar_degree_from_args(args)
        weights, classes = _weights_from_args(args)
        data = dict(weights=weights, classes=classes, degree=degree)
    verdict = formulas.poincare_check(args.variant, strict=args.strict, **data)
    result = ("holds" if verdict.holds else "fails") if verdict.holds is not None \
        else "indeterminate"
    details = {
        "lhs": _canonical(verdict.lhs),
        "rhs": _canonical(verdict.rhs),
        "slack": _canonical(verdict.slack),
    }
    return result, details


def _handle_search(args):
    from . import formulas
    scroll_a = _ints(args.scroll_a, "--scroll-a") if args.scroll_a else None
    solutions = formulas.regular_search(args.family, args.bound, scroll_a=scroll_a)
    details = {
        "solutions": [
            {"params": list(s.params), "annotation": s.annotation}
            for s in solutions
        ],
    }
    return f"{len(solutions)} solution(s)", details


def _handle_scrollform(args):
    from . import formulas
    twists = _ints(args.a, "--a")
    value = formulas.scroll_closed_form(len(twists), twists, args.d1, args.d2)
    return _canonical(value), {}


def _handle_residue(args):
    from . import residue
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
    from . import catalog, polyfield
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
    from . import polyfield
    model = _model_from_args(args)
    comps = _parse_components(args.form, model.coord_names,
                              _coordinate_synonyms(model))
    form = polyfield.OneFormExpr(model, comps)
    return _canonical(polyfield.check_descends(model, form)), {}


def _handle_check_invariant(args):
    from . import catalog, polyfield
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
    from . import formulas
    model = _model_from_args(args)
    verdict = formulas.gcd_obstruction(model, _ints(args.degree_div, "--degree-div"))
    details = {"chi": _canonical(verdict.chi), "gcd": verdict.gcd}
    return _canonical(verdict.forces_singular), details


# ---------------------------------------------------------------------------
# parser assembly
#
# `_Commands` registers every name of a table up front, with its help line,
# so usage lines, help listings and "invalid choice" errors name them all,
# but constructs and fills a parser only when argparse dispatches to it: an
# invocation builds one path of the tree, `count foliation` the top, `count`
# and `foliation` parsers.  A fill adds a command's own arguments; every
# command then gets `--json` and its handler.


def _fill_count_foliation(p):
    _add_model_flags(p)
    _add_degree_flags(p)


def _fill_count_restricted(p):
    from . import formulas
    _add_model_flags(p)
    _add_degree_flags(p)
    p.add_argument("--hyp", required=True, help="hypersurface class (Picard vector)")
    p.add_argument("--kind", choices=formulas.KINDS, default="foliation")


def _fill_count_complement(p):
    _add_model_flags(p)
    _add_degree_flags(p)
    p.add_argument("--hyp", required=True)


def _fill_count_wci(p):
    from . import formulas
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--ci", required=True, help="comma-separated multidegrees")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--degree", help="integer degree")
    group.add_argument("--symbolic", nargs="?", const="",
                       help="symbolic degree; optionally name the symbol")
    p.add_argument("--kind", choices=formulas.KINDS, default="foliation")


def _fill_count_ci(p):
    from . import formulas
    _add_model_flags(p)
    _add_degree_flags(p)
    p.add_argument("--class", dest="cls", action="append",
                   help="complete-intersection class (repeatable)")
    p.add_argument("--kind", choices=formulas.KINDS, default="foliation")


def _fill_euler_hyp(p):
    _add_model_flags(p)
    p.add_argument("--hyp", required=True)


def _fill_euler_ci(p):
    _add_model_flags(p)
    p.add_argument("--class", dest="cls", action="append")


def _add_weight_flags(p):
    p.add_argument("--weights", required=True)
    p.add_argument("--ci", required=True)


def _fill_baumbott(p):
    _add_weight_flags(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--degree")
    group.add_argument("--symbolic", nargs="?", const="")


def _fill_alpha(p):
    _add_weight_flags(p)
    p.add_argument("--test-divisor", type=int)


def _fill_multidegree(p):
    _add_model_flags(p)
    p.add_argument("--class", dest="cls", action="append")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--generator", action="store_true",
                   help="treat the index as a generator index")


def _fill_poincare(p):
    p.add_argument("--variant", required=True,
                   choices=("wci-curve", "wci-general", "toric-curve"))
    p.add_argument("--weights")
    p.add_argument("--ci")
    _add_model_flags(p)
    p.add_argument("--class", dest="cls", action="append")
    _add_degree_flags(p)
    p.add_argument("--strict", action="store_true",
                   help="projective-space sharpening of the bound")


def _fill_search(p):
    p.add_argument("--family", required=True, choices=("p111k", "p1111k", "scroll"))
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--scroll-a", help="twists for the scroll family")


def _fill_scrollform(p):
    p.add_argument("--a", required=True, help="comma-separated twists")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)


def _fill_residue(p):
    from . import residue
    p.add_argument("--vars", required=True, help="comma-separated chart variables")
    p.add_argument("--components", required=True,
                   help="comma-separated map components")
    p.add_argument("--group", type=int, default=1, help="isotropy group order")
    p.add_argument("--cap", type=int, default=residue.DEFAULT_DEGREE_CAP)


def _fill_check_homogeneous(p):
    _add_model_flags(p)
    p.add_argument("--poly", required=True)


def _fill_check_descends(p):
    _add_model_flags(p)
    p.add_argument("--form", required=True, help="comma-separated components")


def _fill_check_invariant(p):
    _add_model_flags(p)
    p.add_argument("--field", required=True, help="comma-separated components")
    p.add_argument("--poly", required=True, help="hypersurface polynomial")


def _fill_gcd_obstruction(p):
    _add_model_flags(p)
    p.add_argument("--degree-div", required=True)


# name -> (help, command or group); a command is (handler, fill or None) and
# a group maps each child name to a command (children show no help)
COMMANDS = {
    "catalog": ("list or show builtin models", {
        "list": (_handle_catalog_list, None),
        "show": (_handle_catalog_show, _add_model_flags),
    }),
    "count": ("singularity counts", {
        "foliation": (_handle_count_foliation, _fill_count_foliation),
        "restricted": (_handle_count_restricted, _fill_count_restricted),
        "complement": (_handle_count_complement, _fill_count_complement),
        "wci": (_handle_count_wci, _fill_count_wci),
        "ci": (_handle_count_ci, _fill_count_ci),
    }),
    "euler": ("Euler characteristics", {
        "ambient": (_handle_euler_ambient, _add_model_flags),
        "hyp": (_handle_euler_hyp, _fill_euler_hyp),
        "complement": (_handle_euler_complement, _fill_euler_hyp),
        "ci": (_handle_euler_ci, _fill_euler_ci),
    }),
    "baumbott": ("sum of Baum-Bott indices on a surface",
                 (_handle_baumbott, _fill_baumbott)),
    "alpha": ("divisibility invariant and chi", (_handle_alpha, _fill_alpha)),
    "general-type": ("canonical-degree index of a surface",
                     (_handle_general_type, _add_weight_flags)),
    "multidegree": ("k-degree of a complete intersection",
                    (_handle_multidegree, _fill_multidegree)),
    "poincare": ("degree-bound verdicts", (_handle_poincare, _fill_poincare)),
    "search": ("bounded enumeration of regular degree data",
               (_handle_search, _fill_search)),
    "scrollform": ("closed-form scroll expression",
                   (_handle_scrollform, _fill_scrollform)),
    "residue": ("local multiplicity and orbifold index",
                (_handle_residue, _fill_residue)),
    "check": ("homogeneity, descent, invariance", {
        "homogeneous": (_handle_check_homogeneous, _fill_check_homogeneous),
        "descends": (_handle_check_descends, _fill_check_descends),
        "invariant": (_handle_check_invariant, _fill_check_invariant),
    }),
    "gcd-obstruction": ("divisibility obstruction",
                        (_handle_gcd_obstruction, _fill_gcd_obstruction)),
}


class _Commands(argparse._SubParsersAction):
    """The subparsers of one table, each constructed and filled when argparse
    dispatches to it.

    `path` names the enclosing group, empty at the top level; `table` is
    `COMMANDS` there and a group's children below it.  Each name maps to
    None until its parser is constructed.  argparse reads only the names of
    that map before dispatch, and offers no public hook at dispatch, hence
    the subclass of its subparsers action.
    """

    def __init__(self, *args, path, table, **kwargs):
        super().__init__(*args, **kwargs)
        self._path, self._table = path, table
        for name, entry in table.items():
            self._name_parser_map[name] = None
            if not path:  # a group's children show no help line
                self._choices_actions.append(self._ChoicesPseudoAction(name, (), entry[0]))

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        path = (*self._path, name)
        # the parser `add_parser` would construct, in the name's place in the map
        sub = self._name_parser_map[name] = self._parser_class(
            prog=f"{self._prog_prefix} {name}")
        body = self._table[name] if self._path else self._table[name][1]
        if isinstance(body, dict):
            _add_commands(sub, path, body)
        else:
            handler, fill = body
            if fill is not None:
                fill(sub)
            _add_json_flag(sub)
            sub.set_defaults(handler=handler, operation=" ".join(path))
        super().__call__(parser, namespace, values, option_string)


def _add_commands(parser, path, table):
    parser.add_subparsers(dest="subcommand" if path else "command", required=True,
                          action=_Commands, path=path, table=table)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricsing",
        description="Exact singularity counts on compact toric orbifolds.")
    _add_commands(parser, (), COMMANDS)
    return parser


if __name__ == "__main__":
    main()
