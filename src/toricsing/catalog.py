"""Builtin toric models and the textual model-file format.

Builtins cover projective spaces, weighted projective spaces,
multiprojective spaces, rational normal scrolls, and three blow-ups of
projective space.  Every model is its divisor classes.  A builder checks its
parameters and builds fields that are canonical by construction, so it
stores them through `ToricModel._trusted`, without the model's own checks.
User models travel as line-oriented UTF-8 text, read through the checking
constructor:

    name P(1,2,3)
    dim 2
    rank 1
    gens H
    smooth false
    divisor 1
    divisor 2
    divisor 3
    tensor 2 = 1/6

`#` starts a comment.  `divisor` lines give one Picard vector per invariant
divisor (all n+r of them), line i, counted from 0, the class of the
coordinate z_i; `tensor` lines map an exponent vector to a
rational (omitted keys are zero, duplicates are an error); optional
`chern j : ...` lines state Chern classes as signed-term polynomials in the
generators, checked against the divisor classes and not stored; so are
optional `radial` lines, whose k-th must be the k-th column of the
divisor classes, the diagonal of the k-th radial vector field.
`serialize_model` writes every column as a `radial` line.
"""

from __future__ import annotations

import os
import sys
import warnings
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from typing import Sequence

from .chow import NOT_A_MODEL, ToricModel, integrate_count
from .errors import ModelFormatError, NotWellFormedWarning
from .exactalg import MultiPoly, _entries, _Frozen, _typed, _variable_table, parse_polynomial


class ModelSpec(_Frozen):
    """A builtin family name plus its integer parameters.  A family that is
    not a str, or parameters that are a str or no sequence, raise
    ModelFormatError naming the field; `builtin` checks the parameters
    against the family."""

    _fields = ("family", "params")

    def __init__(self, family: str, params: tuple[int, ...] = ()):
        _typed(family, str, "model family must be a str, got {!r}", ModelFormatError)
        self.__dict__.update(family=family, params=_entries(
            params, None, "model parameters must be a sequence of ints, got {!r}",
            error=ModelFormatError))


FAMILIES = {
    "projective": "projective:n",
    "weighted": "weighted:w0,...,wn",
    "multiprojective": "multiprojective:n1,...,nk",
    "scroll": "scroll:a1,...,an",
    "blowup_point": "blowup_point:n",
    "blowup_two_points_p3": "blowup_two_points_p3",
    "blowup_line_p3": "blowup_line_p3",
}


def builtin(spec: ModelSpec) -> ToricModel:
    """Construct the builtin model a spec names; a value that is not a
    `ModelSpec` raises ModelFormatError naming it."""
    if type(spec) is not ModelSpec:
        raise ModelFormatError(f"model spec must be a ModelSpec, got {spec!r}")
    fam, params = spec.family, spec.params
    if fam not in FAMILIES:
        raise ModelFormatError(f"unknown model family {fam!r}")
    _check_params(fam, params)
    if fam == "projective":
        return projective(*params)
    if fam == "weighted":
        return weighted(*params)
    if fam == "multiprojective":
        return multiprojective(*params)
    if fam == "scroll":
        return scroll(*params)
    if fam == "blowup_point":
        return blowup_point(*params)
    if fam == "blowup_two_points_p3":
        return blowup_two_points_p3()
    return blowup_line_p3()


def _check_params(fam: str, params: tuple) -> None:
    """Hold the parameters to the family's syntax in FAMILIES: none without
    a colon, a nonempty list where it ends in `...`, otherwise one per name."""
    syntax = FAMILIES[fam]
    _, colon, names = syntax.partition(":")
    if not colon:
        ok = not params
    elif "..." in names:
        ok = bool(params)
    else:
        ok = len(params) == names.count(",") + 1
    if not ok:
        raise ModelFormatError(
            f"{fam} is written {syntax}; got {len(params)} parameter(s)")
    for p in params:
        if type(p) is not int:
            raise ModelFormatError(
                f"{fam} is written {syntax}; parameter {p!r} is not an integer")


def from_spec_string(text: str) -> ToricModel:
    """Parse `family` or `family:p1,p2,...` into a builtin model; a value
    that is not a str raises ModelFormatError naming it."""
    if not isinstance(text, str):
        raise ModelFormatError(f"model spec must be a str, got {text!r}")
    fam, _, tail = text.partition(":")
    fam = fam.strip()
    if fam not in FAMILIES:
        raise ModelFormatError(
            f"unknown model family {fam!r}; known: {', '.join(sorted(FAMILIES))}")
    try:
        params = tuple(int(p) for p in tail.split(",")) if tail.strip() else ()
    except ValueError:
        raise ModelFormatError(
            f"{fam} is written {FAMILIES[fam]}; parameters {tail.strip()!r} "
            "are not integers") from None
    return builtin(ModelSpec(fam, params))


def projective(n: int) -> ToricModel:
    _typed(n, int, "projective parameter {!r} is not an int")
    if n < 1:
        raise ModelFormatError("projective space needs positive dimension")
    return ToricModel._trusted(
        name=f"P{n}",
        dim=n,
        rank=1,
        gens=("H",),
        divisor_classes=tuple((1,) for _ in range(n + 1)),
        tensor={(n,): Fraction(1)},
        smooth=True,
    )


def weighted(*w: int) -> ToricModel:
    """Weighted projective space with the given positive weights.

    The overall gcd must be 1.  Non pairwise-coprime weights are accepted
    with a warning (`_warn_shared_factors`): the counting formulas still
    apply whenever the singularities stay isolated, but the hypotheses of
    the complete-intersection statements are not met.
    """
    _entries(w, int, "weighted parameters {!r} are not a sequence",
             "weighted parameter {x!r} is not an int")
    if len(w) < 2:
        raise ModelFormatError("need at least two weights")
    if any(x < 1 for x in w):
        raise ModelFormatError("weights must be positive")
    g = gcd(*w)
    if g != 1:
        raise ModelFormatError(f"weights {w} have gcd {g}, expected 1")
    _warn_shared_factors(w)
    n = len(w) - 1
    return ToricModel._trusted(
        name="P(" + ",".join(str(x) for x in w) + ")",
        dim=n,
        rank=1,
        gens=("H",),
        divisor_classes=tuple((x,) for x in w),
        tensor={(n,): Fraction(1, prod(w))},
        smooth=all(x == 1 for x in w),
    )


def multiprojective(*ns: int) -> ToricModel:
    _entries(ns, int, "multiprojective parameters {!r} are not a sequence",
             "multiprojective parameter {x!r} is not an int")
    if not ns or any(n < 1 for n in ns):
        raise ModelFormatError("factor dimensions must be positive")
    k, zero = len(ns), (0,) * len(ns)
    # the n_i + 1 coordinates of the i-th factor have class H_i
    classes = tuple(chain.from_iterable(
        [zero[:i] + (1,) + zero[i + 1:]] * (ni + 1) for i, ni in enumerate(ns)))
    return ToricModel._trusted(
        name="x".join(f"P{ni}" for ni in ns),
        dim=sum(ns),
        rank=k,
        gens=tuple(f"H{i + 1}" for i in range(k)) if k > 1 else ("H",),
        divisor_classes=classes,
        tensor={ns: Fraction(1)},
        smooth=True,
    )


def _check_scroll_twists(a: Sequence) -> None:
    """The scroll builder's argument checks, which need no model: a
    ValueError for a twist that is not an int, a ModelFormatError for none."""
    _entries(a, int, "scroll parameters {!r} are not a sequence",
             "scroll parameter {x!r} is not an int")
    if not a:
        raise ModelFormatError("scroll needs at least one twist")


def scroll(*a: int) -> ToricModel:
    """Rational normal scroll over the line with twists a1..an (any integers)."""
    _check_scroll_twists(a)
    n = len(a)
    classes = [(1, 0), (1, 0)] + [(-ai, 1) for ai in a]
    tensor = {(0, n): Fraction(sum(a)), (1, n - 1): Fraction(1)}
    return ToricModel._trusted(
        name="F(" + ",".join(str(x) for x in a) + ")",
        dim=n,
        rank=2,
        gens=("L", "M"),
        divisor_classes=tuple(classes),
        tensor=tensor,
        smooth=True,
    )


def blowup_point(n: int) -> ToricModel:
    _typed(n, int, "blowup_point parameter {!r} is not an int")
    if n < 2:
        raise ModelFormatError("blow-up of a point needs ambient dimension >= 2")
    classes = [(1, -1)] * n + [(1, 0), (0, 1)]
    tensor = {
        (n, 0): Fraction(1),
        (0, n): Fraction((-1) ** (n + 1)),
    }
    return ToricModel._trusted(
        name=f"Bl_p(P{n})",
        dim=n,
        rank=2,
        gens=("H", "E"),
        divisor_classes=tuple(classes),
        tensor=tensor,
        smooth=True,
    )


def blowup_two_points_p3() -> ToricModel:
    """P^3 blown up at two torus-fixed points, in the basis (H, E1, E2)."""
    tensor = {
        (3, 0, 0): Fraction(1),
        (0, 3, 0): Fraction(1),
        (0, 0, 3): Fraction(1),
    }
    return ToricModel._trusted(
        name="Bl_pq(P3)",
        dim=3,
        rank=3,
        gens=("H", "E1", "E2"),
        divisor_classes=((1, -1, 0), (1, -1, -1), (1, -1, -1), (1, 0, -1),
                         (0, 1, 0), (0, 0, 1)),
        tensor=tensor,
        smooth=True,
    )


def blowup_line_p3() -> ToricModel:
    """P^3 blown up along a torus-invariant line, in the basis (H, E)."""
    tensor = {
        (3, 0): Fraction(1),
        (1, 2): Fraction(-1),
        (0, 3): Fraction(-2),
    }
    return ToricModel._trusted(
        name="Bl_L(P3)",
        dim=3,
        rank=2,
        gens=("H", "E"),
        divisor_classes=((1, -1), (1, -1), (1, 0), (1, 0), (0, 1)),
        tensor=tensor,
        smooth=True,
    )


def _pairwise_coprime(w) -> bool:
    """Whether positive integers are pairwise coprime: exactly when their
    lcm is their product."""
    return lcm(*w) == prod(w)


# the library's frames: files in this directory, the command line excepted
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
_CLI_FILE = _PACKAGE_DIR + "cli.py"


def _outside_stacklevel() -> int:
    """The `stacklevel` at which a warning issued by this function's caller
    names the first frame outside the library, however deep the call.  The
    command line is a caller, so its warnings name the line in `cli` that
    asked.  By hand: `warnings.warn(skip_file_prefixes=...)` needs 3.12."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(
            _PACKAGE_DIR) and frame.f_code.co_filename != _CLI_FILE:
        level, frame = level + 1, frame.f_back
    return level


def _warn_shared_factors(w: tuple[int, ...]) -> None:
    """Warn, at the caller outside the library, when weights share a factor:
    if n of the n + 1 do, as in P(1,2,2), the space is not well formed;
    otherwise, as in P(1,2,2,3), its singular locus is not isolated."""
    if not _pairwise_coprime(w):
        formed = all(gcd(*w[:i], *w[i + 1:]) == 1 for i in range(len(w)))
        warnings.warn(f"weights {w} are not pairwise coprime; " + (
            "the singular locus is not isolated" if formed
            else "the space is not well formed"), NotWellFormedWarning,
            stacklevel=_outside_stacklevel())


# ---------------------------------------------------------------------------
# model files


def serialize_model(model: ToricModel) -> str:
    """Render a model in the line format `parse_model` reads back.

    A name that line format cannot carry raises ModelFormatError: an empty
    one, one with `#` or a line break, or one with edge whitespace.
    """
    _typed(model, ToricModel, NOT_A_MODEL)
    name = model.name
    if "#" in name or name.splitlines() != [name] or name != name.strip():
        raise ModelFormatError(
            f"model name {name!r} cannot be written: a name must be nonempty, "
            "without '#', line breaks, or leading or trailing whitespace")
    lines = [
        f"name {model.name}",
        f"dim {model.dim}",
        f"rank {model.rank}",
        "gens " + " ".join(model.gens),
        f"smooth {'true' if model.smooth else 'false'}",
    ]
    for vec in model.divisor_classes:
        lines.append("divisor " + " ".join(str(x) for x in vec))
    for key in sorted(model.tensor, reverse=True):
        value = model.tensor[key]
        lines.append("tensor " + " ".join(str(e) for e in key) + f" = {value}")
    for column in zip(*model.divisor_classes):
        lines.append("radial " + " ".join(str(x) for x in column))
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> ToricModel:
    """Parse the model file format; inverse of `serialize_model`.

    Raises ModelFormatError with a line number on syntax errors and
    repeated lines, and with the violated invariant named on semantic
    errors, a `chern` line that disagrees with the divisor classes
    (`_check_chern`) and a `radial` line that is not their column among
    them, and naming the value when it is not a str.
    """
    if not isinstance(text, str):
        raise ModelFormatError(f"model file text must be a str, got {text!r}")
    fields: dict[str, object] = {}
    divisors: list[tuple[int, ...]] = []
    tensor: dict[tuple[int, ...], Fraction] = {}
    chern_lines: dict[int, tuple[int, str]] = {}
    radial_lines: list[tuple[int, tuple[int, ...]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if word in fields:
                raise ModelFormatError(f"duplicate {word} line")
            if word == "name":
                if not rest:
                    raise ModelFormatError("empty name")
                fields["name"] = rest
            elif word in ("dim", "rank"):
                fields[word] = int(rest)
            elif word == "gens":
                fields["gens"] = _variable_table(rest.split())
            elif word == "smooth":
                if rest not in ("true", "false"):
                    raise ModelFormatError("smooth must be true or false")
                fields["smooth"] = rest == "true"
            elif word == "divisor":
                divisors.append(tuple(int(x) for x in rest.split()))
            elif word == "tensor":
                lhs, _, value = rest.partition("=")
                if not _:
                    raise ModelFormatError("tensor line needs '='")
                key = tuple(int(x) for x in lhs.split())
                if key in tensor:
                    raise ModelFormatError(f"duplicate tensor key {key}")
                tensor[key] = Fraction(value.strip())
            elif word == "chern":
                degree, _, poly = rest.partition(":")
                if not _:
                    raise ModelFormatError("chern line needs ':'")
                j = int(degree)
                if j in chern_lines:
                    raise ModelFormatError(f"duplicate chern degree {j}")
                chern_lines[j] = lineno, poly.strip()
            elif word == "radial":
                radial_lines.append((lineno, tuple(int(x) for x in rest.split())))
            else:
                raise ModelFormatError(f"unknown keyword {word!r}")
        except ModelFormatError as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from None

    for required in ("name", "dim", "rank", "gens"):
        if required not in fields:
            raise ModelFormatError(f"missing required line: {required}")
    gens = fields["gens"]
    chern = {}
    for j, (lineno, poly_text) in chern_lines.items():
        try:
            if not 1 <= j <= fields["dim"]:
                raise ModelFormatError(
                    f"Chern override degree {j} out of range 1..{fields['dim']}")
            chern[j] = parse_polynomial(poly_text, gens)
        except ModelFormatError as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from None
    try:
        model = ToricModel(
            name=fields["name"],
            dim=fields["dim"],
            rank=fields["rank"],
            gens=gens,
            divisor_classes=tuple(divisors),
            tensor=tensor,
            smooth=fields.get("smooth", True),
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    for j in sorted(chern):
        _check_chern(model, j, chern[j])
    columns = tuple(zip(*model.divisor_classes))
    for k, (lineno, row) in enumerate(radial_lines):
        if k >= model.rank:
            raise ModelFormatError(
                f"line {lineno}: radial line {k + 1} on a model of rank {model.rank}")
        if row != columns[k]:
            raise ModelFormatError(
                f"line {lineno}: radial row {row} is not column {k + 1} of the "
                f"divisor classes, {columns[k]}")
    return model


def _check_chern(model: ToricModel, j: int, poly: MultiPoly) -> None:
    """A file's c_j against the model's own: paired with each support
    monomial m of degree n - j, in lexicographic order, it must give the
    count `integrate_count` gives, the integral of m * c(X).  Every count
    is a sum of such integrals, and off the support both vanish."""
    order = model._support_index.order
    for mono in sorted(e for e in order if sum(e) == model.dim - j):
        paired = sum(c * model.tensor.get(tuple(a + b for a, b in zip(e, mono)), 0)
                     for e, c in poly.terms.items())
        factors = [u for u, x in zip(model._units, mono) for _ in range(x)]
        if integrate_count(model, factors).constant_value() != paired:
            raise ModelFormatError(
                f"Chern routes disagree in degree {j} against monomial {mono}")
