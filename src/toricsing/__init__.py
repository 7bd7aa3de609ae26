"""Exact singularity counting for one-dimensional foliations and
codimension-one distributions on compact toric orbifolds and their complete
intersections.

The names below are exported lazily (PEP 562): `import toricsing` loads no
submodule, and the first use of a name imports only the module defining it,
so a CLI command or a script pays for the modules it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "exactalg": "MultiPoly aligned as_poly poly_sum",
    "chow": "ToricModel class_of_divisor_coeffs",
    "ring": """ChowElement chern_class class_element elementary_symmetric_classes
        integrate wronski_classes""",
    "catalog": """ModelSpec blowup_line_p3 blowup_point blowup_two_points_p3
        builtin from_spec_string multiprojective parse_model parse_polynomial
        projective scroll serialize_model weighted""",
    "formulas": """SearchSolution alpha_invariant baum_bott_sum ci_euler ci_sing_count
        complement_euler complement_sing_count foliation_sing_count gcd_obstruction
        general_type_index hypersurface_euler multidegree poincare_check
        regular_search restricted_sing_count scroll_closed_form symbolic_degree
        wci_sing_count wci_sing_count_parts""",
    "polyfield": """ANY_DEGREE GradedPoly OneFormExpr VectorFieldExpr
        check_descends check_invariant_hypersurface check_quasi_homogeneous
        frobenius_integrable radial_fields""",
    "residue": "IndexQuery LocalIndexReport index_sum local_multiplicity orbifold_index",
    "verdicts": "AlphaInvariant GcdVerdict InequalityVerdict",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
_SUBMODULES = frozenset(
    ("catalog", "chow", "cli", "errors", "exactalg", "formulas", "polyfield", "residue",
     "ring", "verdicts"))

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
