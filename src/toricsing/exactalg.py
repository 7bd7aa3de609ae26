"""Exact rational scalars and a sparse multivariate polynomial engine.

A polynomial is a mapping from exponent tuples to rational coefficients over
a fixed, ordered variable table:

    MultiPoly(("d1", "d2"), {(2, 0): 1, (0, 2): -1})   # d1^2 - d2^2

Coefficients are `fractions.Fraction`, so every operation is exact: counts
with cubic terms at degrees in the hundreds stay precise because Python
integers are arbitrary precision.  Zero coefficients are never stored, and
values are immutable after construction, the term table included (a
read-only view), so they may be cached and shared freely between threads.

Arithmetic requires both operands to live on the same variable table;
`aligned()` merges tables when callers hold values from different contexts,
by the one merge (`_merged_table`) and move (`_moved_terms`) `chow` uses too.

`parse_polynomial` reads signed-term syntax such as `3*x^2*y - 1/2*y`
onto a given variable table; model files, the CLI and round trips share it.
Text it cannot read raises ModelFormatError naming the fault.

Every module checks its arguments by one rule, kept here (`_typed`,
`_entries`, `_tuple`): a type test is on the exact type, so a bool is no
int, and a float or a `Fraction` is refused, never truncated; a str is no
sequence of strs, though Python iterates it as one; and the ValueError
(or the error a caller names, such as ModelFormatError for model data)
names the argument, and the entry at fault.

The package's frozen value types outside `residue` share one base here
(`_Frozen`), with the equality, hash, repr and refusals of
`dataclasses.dataclass(frozen=True)` over a class tuple of field names, so
that no command but `residue` imports `dataclasses`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Union

from .errors import AlignmentError, ModelFormatError

Exponent = tuple[int, ...]
ScalarLike = Union[int, Fraction, "MultiPoly"]


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing graded-lexicographic order (higher sorts later)."""
    return (sum(exponent), exponent)


def _variable_table(variables: Sequence[str]) -> tuple[str, ...]:
    """The table as a tuple: a str or no sequence of strs, or a name twice,
    raises ValueError naming it."""
    variables = _entries(variables, str, *_NOT_A_TABLE)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables!r}")
    return variables


def _tuple(value, refusal: str, error: type[Exception] = ValueError) -> tuple:
    """The value as a tuple; when it is not iterable (an int, say), an
    `error`, a ValueError unless named, with the text refusal.format(value),
    which names the field."""
    try:
        return tuple(value)
    except TypeError:
        raise error(refusal.format(value)) from None


def _typed(value, kind: type, refusal: str, error: type[Exception] = ValueError) -> None:
    """An `error`, a ValueError unless named, with the text
    refusal.format(value) unless the type of the value is `kind` itself."""
    if type(value) is not kind:
        raise error(refusal.format(value))


def _entries(values, kind: type | None, refusal: str, entry: str = "",
             error: type[Exception] = ValueError) -> tuple:
    """The values as a tuple, `_tuple` with `refusal`, each of the type
    `kind` itself, or of any type when kind is None.  A str is refused
    with `refusal` too when its characters would pass as entries (kind str
    or None).  The first entry x of another type raises an `error` with
    the text entry.format(values=<the tuple>, x=x); `error` is a ValueError
    unless named."""
    if (kind is str or kind is None) and isinstance(values, str):
        raise error(refusal.format(values))
    values = _tuple(values, refusal, error)
    if kind is not None:
        for x in values:
            if type(x) is not kind:
                raise error(entry.format(values=values, x=x))
    return values


# the refusals of a variable table that is a str or no sequence of strs
_NOT_A_TABLE = ("variables must be a sequence of strs, got {!r}", "variable {x!r} is not a str")


def _position(name, variables: tuple[str, ...]) -> int:
    """The index of `name` in the table; a ValueError naming both if it is
    not there."""
    try:
        return variables.index(name)
    except ValueError:
        raise ValueError(f"variable {name!r} is not in the table {variables!r}") from None


def _check_exact(value) -> None:
    """A float is not exact data (0.1 would become its binary expansion),
    and a bool is no number, though Python takes True for 1: either raises
    ValueError naming it."""
    if isinstance(value, float):
        raise ValueError(f"coefficient {value!r} is a float, not exact data")
    if value is True or value is False:
        raise ValueError(f"coefficient {value!r} is a bool, not exact data")


def _exact_coefficient(value) -> Fraction:
    """The value, an int or a Fraction, as a Fraction.  Anything else raises
    ValueError naming it, as `as_poly` does: a float or a bool as
    `_check_exact` does, and a str, None or a Decimal, which `Fraction`
    would read or refuse without naming the coefficient."""
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    _check_exact(value)
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficient {value!r} is not an int or a Fraction")
    return Fraction(value)


class _Frozen:
    """A frozen value of the fields named in the class tuple `_fields`.

    Equality, hash and repr are those `dataclasses.dataclass(frozen=True)`
    generates: two values are equal when they are of the same class and
    their field tuples are equal, the hash is that of the field tuple, and
    the repr is `Name(field=value, ...)`.  Assigning or deleting any
    attribute raises `dataclasses.FrozenInstanceError` with the dataclass's
    text; `dataclasses` is imported on that path only.  Each subclass
    writes its own `__init__`, which stores its fields through `__dict__`
    (or `object.__setattr__` when it has slots)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class MultiPoly:
    """A sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Exponent, int | Fraction] | None = None):
        variables = _variable_table(variables)
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise ValueError(f"terms must map exponents to coefficients, got {terms!r}")
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            exp = _tuple(exp, "exponents must be nonnegative integers: {!r}")
            if len(exp) != len(variables):
                raise ValueError(
                    f"exponent {exp!r} does not match variables {variables!r}")
            if any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"exponents must be nonnegative integers: {exp!r}")
            coeff = _exact_coefficient(coeff)
            if coeff:
                clean[exp] = clean.get(exp, Fraction(0)) + coeff
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms",
                           MappingProxyType({e: c for e, c in clean.items() if c}))

    @classmethod
    def _trusted(cls, variables: tuple[str, ...],
                 terms: dict[Exponent, Fraction]) -> MultiPoly:
        """Wrap the result of this package's own arithmetic: the table and
        the exponents are known to be valid and the coefficients are
        Fractions, so only zero coefficients are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vars", variables)
        object.__setattr__(poly, "terms",
                           MappingProxyType({e: c for e, c in terms.items() if c}))
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MultiPoly values are immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, value: int | Fraction,
              variables: Sequence[str] = ()) -> MultiPoly:
        variables = _variable_table(variables)
        return cls._trusted(variables, {(0,) * len(variables): _exact_coefficient(value)})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> MultiPoly:
        """The variable `name` on the table; a name not in it raises
        ValueError naming both."""
        variables = _variable_table(variables)
        exp = [0] * len(variables)
        exp[_position(name, variables)] = 1
        return cls._trusted(variables, {tuple(exp): Fraction(1)})

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> MultiPoly:
        return cls._trusted(_variable_table(variables), {})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree among terms; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial.  Raises if any variable occurs."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self.canonical_string()}")
        return next(iter(self.terms.values()))

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    def used_vars(self) -> tuple[str, ...]:
        used = [False] * len(self.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    # -- table management --------------------------------------------------

    def extended(self, variables: Sequence[str]) -> MultiPoly:
        """Re-embed into a table containing all current variables; a table
        that is a str or no sequence of strs raises ValueError naming it."""
        variables = _variable_table(variables)
        if variables == self.vars:
            return self
        if not set(self.vars).issubset(variables):
            raise AlignmentError(
                f"cannot embed table {self.vars!r} into {variables!r}")
        terms = dict(_moved_terms(self.terms.items(), self.vars, variables))
        return MultiPoly._trusted(variables, terms)

    def _check_table(self, other: MultiPoly) -> None:
        if self.vars != other.vars:
            raise AlignmentError(
                f"variable tables differ: {self.vars!r} vs {other.vars!r}")

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, value: ScalarLike) -> MultiPoly | None:
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.const(value, self.vars)
        return None

    def __add__(self, other: ScalarLike) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_table(other)
        return MultiPoly._trusted(self.vars, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: ScalarLike) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: ScalarLike) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_table(other)
        return MultiPoly._trusted(self.vars, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        # a bool is an int to Python, but no power
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"polynomial power must be a natural number: {exponent!r}")
        result = MultiPoly.const(1, self.vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if other is True or other is False:
            return NotImplemented  # no number, so == answers False
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        a, b = aligned(self, other)
        return a.terms == b.terms

    __hash__ = None  # equality aligns tables, so no per-table hash agrees with it

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> MultiPoly:
        """The partial derivative in `name`; a name not in the table raises
        ValueError naming both."""
        i = _position(name, self.vars)
        terms: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + coeff * exp[i]
        return MultiPoly(self.vars, terms)

    def substitute(self, values: Mapping[str, ScalarLike]) -> MultiPoly:
        """Replace variables by polynomials (or scalars) and expand.

        The result lives on the table made of the untouched variables
        followed by any new variables the replacement values introduce.
        Values that are not a mapping raise ValueError naming them.
        """
        if not isinstance(values, Mapping):
            raise ValueError(
                f"values must map variables to polynomials or scalars, got {values!r}")
        kept = tuple(v for v in self.vars if v not in values)
        table = list(kept)
        images: dict[str, MultiPoly] = {}
        for name in self.vars:
            if name in values:
                val = values[name]
                if not isinstance(val, MultiPoly):
                    val = MultiPoly.const(val)
                for v in val.vars:
                    if v not in table:
                        table.append(v)
                images[name] = val
        table_t = tuple(table)
        result = MultiPoly.zero(table_t)
        lifted = {name: img.extended(table_t) for name, img in images.items()}
        for exp, coeff in self.terms.items():
            term = MultiPoly.const(coeff, table_t)
            for name, e in zip(self.vars, exp):
                if e == 0:
                    continue
                factor = lifted.get(name)
                if factor is None:
                    factor = MultiPoly.variable(name, table_t)
                term = term * factor ** e
            result = result + term
        return result

    def evaluate(self, values: Mapping[str, int | Fraction]) -> Fraction:
        """Evaluate at a rational point; every variable must be assigned an
        int or a Fraction (a bool is an int to Python, but True is no
        point).  Values that are not a mapping raise ValueError naming
        them."""
        if not isinstance(values, Mapping):
            raise ValueError(f"values must map variables to ints or Fractions, got {values!r}")
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"unassigned variables: {missing}")
        point = []
        for name in self.vars:
            x = values[name]
            if type(x) is not int and not isinstance(x, Fraction):
                raise ValueError(f"value {x!r} of {name} is not an int or a Fraction")
            point.append(Fraction(x))
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exp):
                if e:
                    term *= x ** e
            total += term
        return total

    # -- printing ------------------------------------------------------------

    def canonical_string(self) -> str:
        """Deterministic rendering: graded-lex descending in the declared
        variable order, `*` between factors, `^` for powers, unit
        coefficients suppressed before variables."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exp in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[exp]
            body = _term_body(abs(coeff), self.vars, exp)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.canonical_string()!r})"


def _term_body(coeff: Fraction, variables: tuple[str, ...], exp: Exponent) -> str:
    factors = []
    for name, e in zip(variables, exp):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return "*".join(factors)


def add_terms(a: Mapping[Exponent, ScalarLike], b: Mapping[Exponent, ScalarLike]) -> dict:
    """The sum of two term tables on one variable table, zeros dropped."""
    out = dict(a)
    for exp, coeff in b.items():
        prev = out.get(exp)
        out[exp] = coeff if prev is None else prev + coeff
    return {e: c for e, c in out.items() if c}


def mul_terms(a: Mapping[Exponent, ScalarLike], b: Mapping[Exponent, ScalarLike]) -> dict:
    """The product of two term tables on one variable table.  Coefficients
    that cancel stay as zeros: every caller drops them where it reads out."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(map(add, ea, eb))
            prev = out.get(exp)
            out[exp] = ca * cb if prev is None else prev + ca * cb
    return out


def aligned(*polys: MultiPoly) -> tuple[MultiPoly, ...]:
    """Re-embed polynomials on their tables merged by `_merged_table`: the
    first operand's order, then unseen names as later operands declare them.
    An operand that is not a MultiPoly raises a ValueError naming it."""
    for p in polys:
        _typed(p, MultiPoly, "operand {!r} is not a MultiPoly")
    if all(p.vars == polys[0].vars for p in polys[1:]):
        return polys
    table = _merged_table(p.vars for p in polys)
    return tuple(p.extended(table) for p in polys)


def _merged_table(tables: Iterable[Sequence[str]],
                  leave_out: Sequence[str] = ()) -> tuple[str, ...]:
    """The names of the tables in order of first appearance, less those in
    leave_out: the one merge of variable tables (`aligned`, and the degree
    symbols beside the generators in `chow`, which leaves those out)."""
    return tuple(dict.fromkeys(v for t in tables for v in t if v not in leave_out))


def _moved_terms(items, src: tuple[str, ...], table: tuple[str, ...]):
    """(exponent, coefficient) items over the names src, each exponent moved
    onto the table: a name src lacks gets exponent 0, and one the table
    lacks is dropped, so it must be unused there (`extended` refuses any
    such name first).  Equal tables give the items back as they are."""
    if src == table:
        return items
    at = [src.index(v) if v in src else None for v in table]
    return [(tuple(0 if i is None else e[i] for i in at), c) for e, c in items]


def as_poly(value: ScalarLike, variables: Sequence[str] = ()) -> MultiPoly:
    """Coerce an int or Fraction to a constant polynomial; pass polys through.
    Anything else raises ValueError naming it: a float or a bool as
    `_check_exact` does, and a str or a Decimal, which `Fraction` would read."""
    if isinstance(value, MultiPoly):
        return value
    _check_exact(value)
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficient {value!r} is not an int, a Fraction or a MultiPoly")
    return MultiPoly.const(value, variables)


def poly_sum(items: Iterable[ScalarLike]) -> MultiPoly:
    """Sum over possibly differently-tabled values, aligning as needed."""
    polys = [as_poly(v) for v in _entries(
        items, None, "items must be a sequence of MultiPolys or exact numbers, got {!r}")]
    if not polys:
        return MultiPoly.zero()
    polys = aligned(*polys)
    total = polys[0]
    for p in polys[1:]:
        total = total + p
    return total


# ---------------------------------------------------------------------------
# polynomial term parser (model files, chern lines, the CLI and round trips)

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# a token, or in group 2 the first character that starts none
_TOKEN = re.compile(rf"\s*(?:(\^|\*|[+-]|[0-9]+(?:/[0-9]+)?|{_NAME.pattern})|(\S))")


def _check_symbol(name: str) -> str:
    """The name of a degree symbol, if the parser reads it back as one
    variable; otherwise a ValueError naming it."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"degree symbol {name!r} must be a letter or _ "
                         "followed by letters, digits or _")
    return name


def parse_polynomial(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse signed-term polynomial syntax onto the given variable table.

    Terms look like `c*G1^e1*G2^e2` with the coefficient omitted when 1 and
    rationals written `p/q`.  Text that is not a str, or a table that is a
    str or no sequence of strs, raises a ValueError naming it.
    """
    _typed(text, str, "polynomial text must be a str, got {!r}")
    variables = _entries(variables, str, *_NOT_A_TABLE)
    index = {v: i for i, v in enumerate(variables)}
    tokens = []
    for m in _TOKEN.finditer(text):
        if m[2]:
            raise ModelFormatError(f"bad character {m[2]!r} in polynomial")
        tokens.append(m[1])
    if not tokens:
        raise ModelFormatError("empty polynomial")
    tokens.append("")  # the end marker: no token is empty

    terms: dict[Exponent, Fraction] = {}
    coeff, exps = Fraction(1), [0] * len(variables)
    i, joint = 0, ""  # joint: the token before tokens[i], "" at the start
    while True:
        tok = tokens[i]
        if joint != "*" and tok in ("+", "-"):  # the signs that open a term
            if tok == "-":
                coeff = -coeff
            i, joint = i + 1, tok
            continue
        if not tok:
            raise ModelFormatError("dangling '*' in polynomial" if joint == "*"
                                   else "dangling sign in polynomial")
        if tok[0].isdigit():
            try:
                coeff *= Fraction(tok)
            except ZeroDivisionError:
                raise ModelFormatError(f"zero denominator in {tok!r}") from None
        elif tok in index:
            exp = 1
            if tokens[i + 1] == "^":
                i += 2
                if not tokens[i].isdigit():
                    raise ModelFormatError("expected integer exponent after '^'")
                exp = int(tokens[i])
            exps[index[tok]] += exp
        else:
            raise ModelFormatError(f"unknown symbol {tok!r} in polynomial")
        i += 1
        joint = tokens[i]
        if joint == "*":
            i += 1
            continue
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
        if not joint:
            return MultiPoly(variables, terms)
        if joint not in ("+", "-"):
            raise ModelFormatError(f"expected '+' or '-' before {joint!r}")
        coeff, exps = Fraction(1), [0] * len(variables)
