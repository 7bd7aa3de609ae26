"""Golden values of the Chow layer and of every count in `formulas`.

`compute()` evaluates a fixed list of calls on the builtin families and
records, for each, the canonical string, the variable table and the
coefficient type names of its result (or the type and text of the error it
raises).  `tests/test_goldens.py` recomputes the list and compares it with
`tests/data/chow_goldens.json`, so a refactor of the series or the degree
classes that changes any printed value, table or coefficient type shows.

Write the file again, from the source tree, with

    PYTHONPATH=src python tests/chow_goldens.py
"""

from __future__ import annotations

import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from toricsing import catalog, chow, formulas
from toricsing.chow import ChowElement
from toricsing.exactalg import MultiPoly, _Frozen

PATH = Path(__file__).parent / "data" / "chow_goldens.json"

SPECS = (
    "projective:1", "projective:2", "projective:4",
    "weighted:1,2,3", "weighted:1,1,2", "weighted:1,2,3,5",
    "multiprojective:1,1", "multiprojective:1,2", "multiprojective:1,1,1",
    "scroll:1,2,0", "scroll:0,0", "scroll:2,1",
    "blowup_point:2", "blowup_point:3",
    "blowup_two_points_p3", "blowup_line_p3",
)

# wide symbolic counts: many degree symbols, or a long series
LARGE = ("multiprojective:1,1,1,1,1,1", "multiprojective:1,1,1,1,2,2", "projective:50")

WCI = (((1, 1, 1, 1), (2,)), ((1, 1, 1, 2), (3,)), ((1, 1, 2, 3, 5), (6, 10)),
       ((1, 1, 1, 1, 1), (2, 2)))


def record(value):
    """The printed form of a result: canonical string, table and coefficient
    types of polynomials and elements, field by field for verdicts."""
    if isinstance(value, ChowElement):
        return {"gens": list(value.gens), **record(value.poly)}
    if isinstance(value, MultiPoly):
        return {"string": value.canonical_string(), "vars": list(value.vars),
                "types": sorted({type(c).__name__ for c in value.terms.values()})}
    if isinstance(value, (list, tuple)):
        return [record(v) for v in value]
    if isinstance(value, _Frozen):
        return {name: record(getattr(value, name)) for name in value._fields}
    return {"string": str(value), "type": type(value).__name__}


def call(fn, *args, **kwargs):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return record(fn(*args, **kwargs))
    except Exception as exc:  # the error is part of the golden value
        return {"error": type(exc).__name__, "message": str(exc)}


def _degrees(m):
    """Numeric, divisor-coefficient, "symbolic" and named-symbolic degrees."""
    out = {"picard": tuple(range(2, 2 + m.rank)), "symbolic": "symbolic",
           "named": formulas.symbolic_degree(m, tuple(f"s{k}" for k in range(m.rank)))}
    if m.rank == 1:
        out["scalar"] = 3
    out["divisor"] = tuple((k % 3) for k in range(m.dim + m.rank))
    return out


def _model_goldens(spec):
    m = catalog.from_spec_string(spec)
    n, r = m.dim, m.rank
    out = {}
    for j in range(n + 1):
        out[f"chern_class {j}"] = call(chow.chern_class, m, j)
        out[f"elementary_symmetric_classes {j}"] = call(
            chow.elementary_symmetric_classes, m, j)
    gens = [chow.class_element(m, m._units[k]) for k in range(r)]
    lists = {"generators": gens,
             "divisors": [chow.class_element(m, v) for v in m.divisor_classes]}
    lists["symbolic"] = [*gens, formulas.degree_class(m, "symbolic")]
    for name, items in lists.items():
        for j in range(n + 1):
            out[f"wronski_classes {name} {j}"] = call(chow.wronski_classes, items, j)
        out[f"elementary_series {name}"] = call(chow.elementary_series, items, n)
        out[f"complete_series {name}"] = call(chow.complete_series, items, n)
    hyp = (1,) * r if spec.startswith("blowup") else tuple(range(1, r + 1))
    for label, d in _degrees(m).items():
        out[f"degree_class {label}"] = call(formulas.degree_class, m, d)
        out[f"foliation_sing_count {label}"] = call(formulas.foliation_sing_count, m, d)
        out[f"complement_sing_count {label}"] = call(
            formulas.complement_sing_count, m, d, hyp)
        out[f"hypersurface_euler {label}"] = call(formulas.hypersurface_euler, m, d)
        out[f"complement_euler {label}"] = call(formulas.complement_euler, m, d)
        for kind in formulas.KINDS:
            out[f"restricted_sing_count {label} {kind}"] = call(
                formulas.restricted_sing_count, m, d, hyp, kind)
            out[f"ci_sing_count {label} {kind}"] = call(
                formulas.ci_sing_count, m, [hyp] * (n - 1), d, kind)
        out[f"ci_euler {label}"] = call(formulas.ci_euler, m, [hyp, d][:n - 1])
        out[f"multidegree {label}"] = call(formulas.multidegree, m, [d], 0)
        out[f"multidegree generator {label}"] = call(
            formulas.multidegree, m, [d], r - 1, generator=True)
        for strict in (False, True)[:n - 1]:  # a curve needs n >= 2
            out[f"poincare_check toric-curve {label} {strict}"] = call(
                formulas.poincare_check, "toric-curve", model=m,
                classes=[hyp] * (n - 1), degree=d, strict=strict)
    out["gcd_obstruction"] = call(
        formulas.gcd_obstruction, m, tuple(2 * (k % 2) for k in range(n + r)))
    return out


def _scalar_goldens():
    d = MultiPoly.variable("d", ("d",))
    t = MultiPoly.variable("t", ("t",))
    e2 = MultiPoly(("e", "d"), {(1, 0): 2, (0, 1): Fraction(-1, 3)})
    lists = {
        "ints": [1, 2, 3, -4],
        "fractions": [Fraction(1, 2), Fraction(-2, 3), 5],
        "symbols": [d, 2, e2, Fraction(3, 4)],
        "empty": [],
    }
    out = {}
    for name, items in lists.items():
        for k in range(5):
            out[f"elementary_series {name} {k}"] = call(chow.elementary_series, items, k)
            out[f"complete_series {name} {k}"] = call(chow.complete_series, items, k)
        out[f"elementary_symmetric_scalars {name}"] = call(
            formulas.elementary_symmetric_scalars, items, 2)
    for w, a in WCI:
        for label, deg in (("numeric", 4), ("fraction", Fraction(5, 2)),
                           ("symbolic", d), ("named", t)):
            for kind in formulas.KINDS:
                out[f"wci_sing_count_parts {w} {a} {label} {kind}"] = call(
                    formulas.wci_sing_count_parts, w, a, deg, kind)
                out[f"wci_sing_count {w} {a} {label} {kind}"] = call(
                    formulas.wci_sing_count, w, a, deg, kind)
            out[f"baum_bott_sum {w} {a} {label}"] = call(formulas.baum_bott_sum, w, a, deg)
            for variant in ("wci-curve", "wci-general"):
                out[f"poincare_check {variant} {w} {a} {label}"] = call(
                    formulas.poincare_check, variant, weights=w, classes=a, degree=deg)
        out[f"alpha_invariant {w} {a}"] = call(formulas.alpha_invariant, w, a)
        out[f"general_type_index {w} {a}"] = call(formulas.general_type_index, w, a)
    for n, a in ((3, (1, 2, 0)), (4, (0, 0, 1, 1)), (5, (2, 0, 1, 3, 0)),
                 (6, (1, 1, 1, 1, 1, 1)), (7, (0, 3, 0, 2, 0, 1, 0)),
                 (8, (4, 0, 0, 1, 2, 0, 0, 5))):
        for label, (d1, d2) in (("numeric", (2, -1)), ("fraction", (Fraction(7, 2), 3)),
                                ("symbolic", (d, t))):
            out[f"scroll_closed_form {n} {a} {label}"] = call(
                formulas.scroll_closed_form, n, a, d1, d2)
    for family, bound, twists in (("p111k", 12, None), ("p1111k", 12, None),
                                  ("scroll", 4, (1, 1, 1))):
        out[f"regular_search {family} {bound}"] = call(
            formulas.regular_search, family, bound, twists)
    return out


def _large_goldens():
    out = {}
    for spec in LARGE:
        m = catalog.from_spec_string(spec)
        for fn in (formulas.foliation_sing_count, formulas.hypersurface_euler):
            out[f"{spec} {fn.__name__}"] = call(fn, m, "symbolic")
    return out


def compute() -> dict:
    return {"large": _large_goldens(),
            "models": {spec: _model_goldens(spec) for spec in SPECS},
            "scalars": _scalar_goldens()}


if __name__ == "__main__":
    PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {PATH}", file=sys.stderr)
