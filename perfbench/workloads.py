"""The in-process workloads: seeded op lists with their reference checks.

Each builder takes the seed and returns a list of `Op`s.  `Op.call` runs
the code under test and is the only part timed; `Op.check` compares its
answer with `oracles`, after the batch.  Op-class counts are fixed per
workload and the seed draws the parameters inside each class, so two seeds
do the same kinds and amounts of work on different inputs.

counts    one count per op on a model built inside the op from its spec
          string; no spec string repeats within a run (model reuse 0).
search    scroll searches (one model reused (2B+1)^2 times per op) mixed
          with p111k / p1111k searches that never touch `chow`.
residue   `local_multiplicity` on germs built during set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable

import oracles as ref
from toricsing import catalog, formulas, residue
from toricsing.errors import NonIsolatedZeroError
from toricsing.exactalg import MultiPoly


@dataclass
class Op:
    """One operation of a batch.  An op fails if `check` rejects its
    answer or it runs past `deadline` seconds; in-process ops cannot be
    killed, so theirs is only a verdict.  A `known_failure` is an op that
    fails at the seed by design and does not make the run incorrect."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    spec: str = ""
    deadline: float = 10.0
    known_failure: bool = False


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# --------------------------------------------------------------------------
# counts

# Criterion 1 goldens for the two blow-ups whose Chern classes are recorded
# directly, with the symbol names the criterion uses.
BLOWUP_GOLDENS = {
    "blowup_two_points_p3": (
        ("d0", "d1", "d2"),
        "d0^3 + d1^3 + d2^3 + 4*d0^2 - 2*d1^2 - 2*d2^2 + 6*d0 + 8"),
    "blowup_line_p3": (
        ("d1", "d2"),
        "d1^3 - 3*d1*d2^2 - 2*d2^3 + 4*d1^2 + 2*d1*d2 - 2*d2^2 + 7*d1 + 4*d2 + 6"),
}

# One op per projective space; the kind is fixed per dimension so that the
# heavy spaces cost the same whatever the seed.
PROJECTIVE_KINDS = {
    10: "foliation", 9: "symbolic", 8: "restricted", 7: "complement",
    6: "ci", 5: "ci_euler", 4: "hyp_euler", 3: "ci", 2: "foliation",
}
WEIGHTED_PLANE_KINDS = ("foliation", "symbolic", "restricted",
                        "complement_line", "hyp_euler")
WEIGHTED_PLANES_PER_KIND = 12
# number of weighted spaces per dimension, and of scrolls per twist count
WEIGHTED_BY_DIM = {3: 12, 4: 10, 5: 8, 6: 8, 7: 6, 8: 5}
SCROLLS_BY_LENGTH = {1: 4, 2: 12, 3: 12, 4: 8, 5: 6}
# the rank-2 products with factors of dimension <= 3, not both P^1
MULTIPROJECTIVE_MIXED = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3))
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _foliation_reference(spec: str, d) -> Fraction:
    family, _, n = spec.partition(":")
    if family == "projective":
        return Fraction(ref.projective_foliation_count(int(n), d[0]))
    return ref.foliation_count(spec, d)


def _count_op(kind: str, spec: str, rng: random.Random) -> Op:
    """One count on `spec`, with degrees and classes drawn from `rng`.  The
    reference value is computed only when the answer is checked."""
    family = spec.partition(":")[0]
    rank = len(ref.model_data(spec)[1][0])

    def vec(lo, hi):
        return tuple(rng.randint(lo, hi) for _ in range(rank))

    if kind == "symbolic":
        points = [vec(-3, 5) for _ in range(2)]
        return Op(f"symbolic:{family}",
                  lambda: formulas.foliation_sing_count(
                      catalog.from_spec_string(spec), "symbolic"),
                  lambda r: all(ref.evaluate(r, p) == _foliation_reference(spec, p)
                                for p in points), spec)
    d = vec(-2, 4) if rank > 1 else vec(0, 4)
    if kind == "complement_line":
        hyp = (ref.model_data(spec)[1][rng.randrange(3)][0],)
    else:
        hyp = vec(1, 4)
    classes = [vec(1, 3) for _ in range(rng.randint(1, 2))]
    call, reference = {
        "foliation": (lambda m: formulas.foliation_sing_count(m, d),
                      lambda: _foliation_reference(spec, d)),
        "restricted": (lambda m: formulas.restricted_sing_count(m, d, hyp),
                       lambda: ref.ci_count(spec, [hyp], d)),
        "complement": (lambda m: formulas.complement_sing_count(m, d, hyp),
                       lambda: ref.complement_count(spec, d, hyp)),
        # the complement of a coordinate line z_k = 0 on a weighted plane
        # keeps one singular point of a degree-0 foliation, of index 1/w_k
        "complement_line": (lambda m: formulas.complement_sing_count(m, (0,), hyp),
                            lambda: Fraction(1, hyp[0])),
        "hyp_euler": (lambda m: formulas.hypersurface_euler(m, hyp),
                      lambda: ref.ci_euler(spec, [hyp])),
        "ci": (lambda m: formulas.ci_sing_count(m, classes, d),
               lambda: ref.ci_count(spec, classes, d)),
        "ci_euler": (lambda m: formulas.ci_euler(m, classes),
                     lambda: ref.ci_euler(spec, classes)),
    }[kind]
    return Op(f"{kind}:{family}", lambda: call(catalog.from_spec_string(spec)),
              lambda r: ref.constant(r) == reference(), spec)


def _golden_op(spec: str) -> Op:
    names, golden = BLOWUP_GOLDENS[spec]

    def call():
        model = catalog.from_spec_string(spec)
        return formulas.foliation_sing_count(
            model, formulas.symbolic_degree(model, names))

    return Op(f"golden:{spec}", call,
              lambda r: r.canonical_string() == golden, spec)


def _distinct(draw, count: int, used: set) -> list[str]:
    """`count` spec strings from `draw` that are not in `used` yet."""
    out = []
    while len(out) < count:
        item = draw()
        if item not in used:
            used.add(item)
            out.append(item)
    return out


def _spec(family: str, params) -> str:
    return family + ":" + ",".join(map(str, params))


def _coprime_weights(rng: random.Random, length: int) -> tuple[int, ...]:
    """Sorted pairwise-coprime weights, not all 1 (that would be P^n)."""
    k = rng.randint(1, min(length, 4))
    primes = rng.sample(PRIMES, k)
    weights = [p ** rng.randint(1, 2 if p < 6 else 1) for p in primes]
    return tuple(sorted(weights + [1] * (length - k)))


def _plane_weights(rng: random.Random) -> tuple[int, ...]:
    while True:
        w = tuple(sorted(rng.randint(1, 13) for _ in range(3)))
        if w != (1, 1, 1) and all(gcd(w[i], w[j]) == 1
                                  for i in range(3) for j in range(i + 1, 3)):
            return w


def build_counts(seed: int) -> list[Op]:
    rng = _rng("counts", seed)
    used: set = set()
    ops = [_count_op(kind, f"projective:{n}", rng)
           for n, kind in sorted(PROJECTIVE_KINDS.items())]

    planes = _distinct(lambda: _spec("weighted", _plane_weights(rng)),
                       WEIGHTED_PLANES_PER_KIND * len(WEIGHTED_PLANE_KINDS), used)
    for i, spec in enumerate(planes):
        ops.append(_count_op(WEIGHTED_PLANE_KINDS[i % len(WEIGHTED_PLANE_KINDS)],
                             spec, rng))

    for dim, count in WEIGHTED_BY_DIM.items():
        specs = _distinct(lambda: _spec("weighted", _coprime_weights(rng, dim + 1)),
                           count, used)
        for i, spec in enumerate(specs):
            ops.append(_count_op(("foliation", "symbolic")[i % 2], spec, rng))

    for length, count in SCROLLS_BY_LENGTH.items():
        specs = _distinct(lambda: _spec("scroll", (rng.randint(-2, 4)
                                                    for _ in range(length))),
                          count, used)
        for i, spec in enumerate(specs):
            ops.append(_count_op(("foliation", "symbolic")[i % 2], spec, rng))

    for n in range(2, 7):
        ops.append(_count_op(("symbolic", "foliation")[n % 2],
                             f"blowup_point:{n}", rng))
    for spec in BLOWUP_GOLDENS:
        ops.append(_golden_op(spec))

    for k in range(2, 6):
        ops.append(_count_op("symbolic", _spec("multiprojective", [1] * k), rng))
    for dims in MULTIPROJECTIVE_MIXED:
        ops.append(_count_op(rng.choice(("foliation", "symbolic")),
                             _spec("multiprojective", dims), rng))

    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# search

# (twist count, bound) strata of the scroll searches, and their sizes
SCROLL_STRATA = {(3, 2): 12, (3, 3): 12, (4, 2): 12}
# p-family bounds, two ops per family each.  The cost grows like B^3 and
# sets the median, so the bounds are fixed and the seed only orders them.
P_BOUNDS = range(20, 100, 5)


def _scroll_search_op(a, bound) -> Op:
    return Op(f"scroll:{len(a)}:B{bound}",
              lambda: formulas.regular_search("scroll", bound, scroll_a=a),
              lambda r: [s.params for s in r] == ref.scroll_zero_set(a, bound)
              and all(s.family == "scroll" and s.annotation == "accepted" for s in r))


def _p_search_op(family, bound) -> Op:
    return Op(family, lambda: formulas.regular_search(family, bound),
              lambda r: [(s.params, s.annotation) for s in r]
              == ref.p_family_solutions(family, bound)
              and all(s.family == family for s in r))


def build_search(seed: int) -> list[Op]:
    rng = _rng("search", seed)
    ops = []
    for (length, bound), count in SCROLL_STRATA.items():
        for _ in range(count):
            a = tuple(rng.randint(-2, 3) for _ in range(length))
            ops.append(_scroll_search_op(a, bound))
    for family in ("p111k", "p1111k"):
        for bound in P_BOUNDS:
            ops += [_p_search_op(family, bound)] * 2
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# residue

TABLE2 = ("u", "v")
TABLE3 = ("u", "v", "w")
# (components, degree cap): germs whose zero set at the origin is a curve
NON_ISOLATED = (
    (("u*v", "u^2*v"), 8), (("u^2", "u*v"), 8), (("u*v", "v^2"), 8),
    (("u", "v^2", "v*w"), 6), (("u*v", "v*w", "u*w"), 6),
)
CHART_TRIPLES = 12


def _diagonal(exps, table):
    return tuple(catalog.parse_polynomial(f"{v}^{e}", table)
                 for v, e in zip(table, exps))


def _invertible(rng, size):
    while True:
        m = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if _det(m):
            return m


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _linear_change(comps, table, rng):
    """Substitute x_k -> sum_i m[k][i] x_i for a random invertible m."""
    m = _invertible(rng, len(table))
    images = {
        v: MultiPoly(table, {tuple(int(j == i) for j in range(len(table))): m[k][i]
                             for i in range(len(table)) if m[k][i]})
        for k, v in enumerate(table)}
    return tuple(p.substitute(images) for p in comps)


def _multiplicity_op(kind, comps, multiplicity, group=1, cap=None) -> Op:
    kwargs = {"group_order": group}
    if cap is not None:
        kwargs["degree_cap"] = cap
    query = residue.IndexQuery(comps, **kwargs)
    index = Fraction(multiplicity, group)
    return Op(kind, lambda: residue.local_multiplicity(query),
              lambda r: r.multiplicity == multiplicity and r.group_order == group
              and r.orbifold_index == index)


def _non_isolated_op(comps, cap) -> Op:
    query = residue.IndexQuery(comps, degree_cap=cap)

    def call():
        try:
            return residue.local_multiplicity(query)
        except NonIsolatedZeroError as exc:
            return exc

    return Op("non_isolated", call, lambda r: isinstance(r, NonIsolatedZeroError))


def build_residue(seed: int) -> list[Op]:
    rng = _rng("residue", seed)
    ops = []
    pairs = [(a, b) for a in range(1, 9) for b in range(a, 9)]
    for a, b in pairs:
        exps = (a, b) if rng.random() < 0.5 else (b, a)
        ops.append(_multiplicity_op("diagonal2", _diagonal(exps, TABLE2), a * b))
    triples = [(a, b, c) for a in range(1, 4) for b in range(a, 4) for c in range(b, 4)]
    for exps in triples + [(4, 4, 4)]:
        exps = tuple(rng.sample(exps, 3))
        ops.append(_multiplicity_op("diagonal3", _diagonal(exps, TABLE3),
                                    exps[0] * exps[1] * exps[2]))
    for a, b in [p for p in pairs if p[1] <= 6]:
        comps = _linear_change(_diagonal((a, b), TABLE2), TABLE2, rng)
        ops.append(_multiplicity_op("changed2", comps, a * b))
    for exps in triples:
        comps = _linear_change(_diagonal(exps, TABLE3), TABLE3, rng)
        ops.append(_multiplicity_op("changed3", comps, exps[0] * exps[1] * exps[2]))
    for _ in range(CHART_TRIPLES):
        ops.extend(_chart_ops(rng))
    for comps, cap in NON_ISOLATED * 2:
        table = TABLE2 if len(comps) == 2 else TABLE3
        ops.append(_non_isolated_op(
            tuple(catalog.parse_polynomial(c, table) for c in comps), cap))
    rng.shuffle(ops)
    return ops


def _chart_ops(rng) -> list[Op]:
    """The three vertex-chart germs of the diagonal field
    sum_k a_k z_k d/dz_k on a weighted plane (criterion 8).  Each is linear
    with multiplicity 1 in a chart of isotropy order w_i; the three indices
    1/w_i sum to the global count at degree 0, which the benchmark's tests
    check against `oracles.foliation_count`."""
    w = _plane_weights(rng)
    while True:
        a = tuple(Fraction(rng.randint(1, 30)) for _ in range(3))
        if all(a[i] * w[j] != a[j] * w[i] for i in range(3) for j in range(3) if i != j):
            break
    ops = []
    for i in range(3):
        others = [k for k in range(3) if k != i]
        comps = tuple((a[k] - a[i] * Fraction(w[k], w[i])) * MultiPoly.variable(v, TABLE2)
                      for k, v in zip(others, TABLE2))
        ops.append(_multiplicity_op("chart", comps, 1, group=w[i]))
    return ops


BUILDERS = {"counts": build_counts, "search": build_search, "residue": build_residue}
