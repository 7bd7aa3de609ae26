"""Spans around the public functions of each `toricsing` module, recorded
from outside the package.

`Tracer.install()` replaces each name in `TARGETS` by a wrapper that
records one span per call: name, start, end, parent span and op id.  The
spans stay in flat arrays until the run ends; `layer_metrics` then turns
them into the per-layer numbers.  A span's self time is its duration minus
the durations of its direct children; calls nest on one thread, so the
children never overlap.

Only names reached through a module or class attribute are wrapped, since a
`from ... import` copy inside another module would bypass the wrapper.
`__rmul__` is an alias bound when its class is created, so it is wrapped
as a name of its own.  A name that no longer exists is recorded in
`absent` instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
from array import array
from time import perf_counter

# (module, attribute path) pairs; the first component names the layer.
TARGETS = (
    ("toricsing.exactalg", "MultiPoly.__init__"),
    ("toricsing.exactalg", "MultiPoly.__mul__"),
    ("toricsing.exactalg", "MultiPoly.__rmul__"),
    ("toricsing.chow", "chern_class"),
    ("toricsing.chow", "elementary_symmetric_classes"),
    ("toricsing.chow", "wronski_classes"),
    ("toricsing.chow", "integrate"),
    ("toricsing.chow", "ChowElement.__mul__"),
    ("toricsing.chow", "ChowElement.__rmul__"),
    ("toricsing.catalog", "from_spec_string"),
    ("toricsing.catalog", "builtin"),
    ("toricsing.catalog", "projective"),
    ("toricsing.catalog", "weighted"),
    ("toricsing.catalog", "multiprojective"),
    ("toricsing.catalog", "scroll"),
    ("toricsing.catalog", "blowup_point"),
    ("toricsing.catalog", "blowup_two_points_p3"),
    ("toricsing.catalog", "blowup_line_p3"),
    ("toricsing.catalog", "parse_model"),
    ("toricsing.catalog", "parse_polynomial"),
    ("toricsing.formulas", "foliation_sing_count"),
    ("toricsing.formulas", "restricted_sing_count"),
    ("toricsing.formulas", "complement_sing_count"),
    ("toricsing.formulas", "hypersurface_euler"),
    ("toricsing.formulas", "complement_euler"),
    ("toricsing.formulas", "ci_sing_count"),
    ("toricsing.formulas", "ci_euler"),
    ("toricsing.formulas", "wci_sing_count"),
    ("toricsing.formulas", "wci_sing_count_parts"),
    ("toricsing.formulas", "multidegree"),
    ("toricsing.formulas", "alpha_invariant"),
    ("toricsing.formulas", "elementary_symmetric_scalars"),
    ("toricsing.formulas", "regular_search"),
    ("toricsing.residue", "local_multiplicity"),
    ("toricsing.polyfield", "check_quasi_homogeneous"),
    ("toricsing.polyfield", "check_descends"),
    ("toricsing.polyfield", "check_invariant_hypersurface"),
    ("toricsing.polyfield", "frobenius_integrable"),
    ("toricsing.cli", "run"),
)


def span_name(module: str, path: str) -> str:
    return module.rsplit(".", 1)[1] + "." + path


MODEL_BUILDERS = {span_name("toricsing.catalog", p) for p in (
    "from_spec_string", "builtin", "projective", "weighted", "multiprojective",
    "scroll", "blowup_point", "blowup_two_points_p3", "blowup_line_p3",
    "parse_model")}
COUNTS = {span_name("toricsing.formulas", p) for p in (
    "foliation_sing_count", "restricted_sing_count", "complement_sing_count",
    "hypersurface_euler", "complement_euler", "ci_sing_count", "ci_euler",
    "wci_sing_count", "wci_sing_count_parts", "multidegree", "alpha_invariant")}
CHECKS = {span_name("toricsing.polyfield", p) for p in (
    "check_quasi_homogeneous", "check_descends",
    "check_invariant_hypersurface", "frobenius_integrable")}
POLY_MUL = {"exactalg.MultiPoly.__mul__", "exactalg.MultiPoly.__rmul__"}
ELEMENT_MUL = {"chow.ChowElement.__mul__", "chow.ChowElement.__rmul__"}

# status codes of a span
RETURNED, NON_ISOLATED, RAISED = 0, 1, 2


def _probe_terms(args, result):
    """Term count of a polynomial product (peak_terms)."""
    terms = getattr(result, "terms", None)
    return (len(terms), 0) if terms is not None else (0, 0)


def _probe_integrate(args, result):
    """Terms passed to integrate, and those landing on a nonzero tensor key."""
    model, elem = args[0], args[1]
    poly = getattr(elem, "poly", None)
    if poly is None:
        return 0, 0
    r = len(elem.gens)
    useful = 0
    for exp in poly.terms:
        g = exp[:r]
        if sum(g) == model.dim and model.tensor.get(g):
            useful += 1
    return len(poly.terms), useful


def _probe_depth(args, result):
    return result.stabilized_at + 1, 0


PROBES = {
    "exactalg.MultiPoly.__mul__": _probe_terms,
    "exactalg.MultiPoly.__rmul__": _probe_terms,
    "chow.integrate": _probe_integrate,
    "residue.local_multiplicity": _probe_depth,
}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.info = array("q")
        self.info2 = array("q")
        self.stack: list[int] = []
        self.op_id = -1          # -1 marks set-up; ops count from 0
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        from toricsing.errors import NonIsolatedZeroError
        self._non_isolated = NonIsolatedZeroError
        for module, path in TARGETS:
            name = span_name(module, path)
            owner = importlib.import_module(module)
            *chain, attr = path.split(".")
            for part in chain:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            ix = len(self.names)
            self.names.append(name)
            setattr(owner, attr, self._wrap(ix, original, PROBES.get(name)))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, ix, fn, probe):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.start)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.name.append(ix)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer.status.append(RETURNED)
            tracer.info.append(0)
            tracer.info2.append(0)
            tracer.stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[sid] = perf_counter()
                tracer.status[sid] = (NON_ISOLATED if isinstance(
                    exc, tracer._non_isolated) else RAISED)
                raise
            finally:
                tracer.stack.pop()
            tracer.end[sid] = perf_counter()
            if probe is not None and result is not NotImplemented:
                tracer.info[sid], tracer.info2[sid] = probe(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- persistence ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "absent": self.absent,
            "columns": ["parent", "name", "op", "start", "end", "status",
                        "info", "info2"],
            "spans": [list(col) for col in (
                self.parent, self.name, self.op, self.start, self.end,
                self.status, self.info, self.info2)],
        }

    def merge(self, data: dict, op_id: int) -> None:
        """Append spans dumped by another process, re-tagged with `op_id`."""
        offset = len(self.start)
        remap = []
        for name in data["names"]:
            if name not in self.names:
                self.names.append(name)
            remap.append(self.names.index(name))
        parent, name, _, start, end, status, info, info2 = data["spans"]
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.name.extend(remap[i] for i in name)
        self.op.extend(op_id for _ in name)
        self.start.extend(start)
        self.end.extend(end)
        self.status.extend(status)
        self.info.extend(info)
        self.info2.extend(info2)
        for missing in data["absent"]:
            if missing not in self.absent:
                self.absent.append(missing)

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(self.dump(), fh)

    # -- metrics -------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        """Calls per wrapped name over the whole trace, set-up included."""
        out = {name: 0 for name in self.names}
        for ix in self.name:
            out[self.names[ix]] += 1
        return out


def _outermost(names_of, parent, group: set[str]) -> list[bool]:
    """True for spans in `group` with no ancestor in `group`; spans are
    stored in start order, so a parent always precedes its children."""
    inside = [False] * len(parent)   # some ancestor-or-self is in the group
    keep = [False] * len(parent)
    for i, p in enumerate(parent):
        own = names_of[i] in group
        above = p >= 0 and inside[p]
        inside[i] = own or above
        keep[i] = own and not above
    return keep


def layer_metrics(tr: Tracer, cli_import_ms: list[float] | None = None,
                  invocation_ms: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics of the timed batch (op id >= 0).

    `catalog.parse_polynomial_s` also counts set-up, where the residue
    workload parses its germs.  The cli numbers come from the launcher
    (`cli_import_ms`) and from the parent's per-invocation wall times.
    """
    n = len(tr.start)
    names_of = [tr.names[i] for i in tr.name]
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tr.parent):
        if p >= 0:
            child[p] += dur[i]
    batch = [op >= 0 for op in tr.op]

    def self_s(group):
        return sum(dur[i] - child[i] for i in range(n)
                   if batch[i] and names_of[i] in group)

    def inclusive_s(group, everywhere=False):
        keep = _outermost(names_of, tr.parent, group)
        return sum(dur[i] for i in range(n)
                   if keep[i] and (everywhere or batch[i]))

    def spans(group):
        return [i for i in range(n) if batch[i] and names_of[i] in group]

    mul = spans(POLY_MUL)
    integ = spans({"chow.integrate"})
    terms_in = sum(tr.info[i] for i in integ)
    res = spans({"residue.local_multiplicity"})
    searches = set(spans({"formulas.regular_search"}))
    run_ms = [dur[i] * 1000 for i in spans({"cli.run"})]
    run_med = statistics.median(run_ms) if run_ms else 0.0
    wall_med = statistics.median(invocation_ms) if invocation_ms else 0.0

    return {
        "exactalg.mul_calls": len(mul),
        "exactalg.mul_self_s": self_s(POLY_MUL),
        "exactalg.polys_built": len(spans({"exactalg.MultiPoly.__init__"})),
        "exactalg.init_self_s": self_s({"exactalg.MultiPoly.__init__"}),
        "exactalg.peak_terms": max((tr.info[i] for i in mul), default=0),
        "chow.chern_class_calls": len(spans({"chow.chern_class"})),
        "chow.chern_class_s": inclusive_s({"chow.chern_class"}),
        "chow.esym_calls": len(spans({"chow.elementary_symmetric_classes"})),
        "chow.wronski_s": inclusive_s({"chow.wronski_classes"}),
        "chow.element_mul_calls": len(spans(ELEMENT_MUL)),
        "chow.integrate_calls": len(integ),
        "chow.integrate_self_s": self_s({"chow.integrate"}),
        "chow.integrate_useful_ratio": (
            sum(tr.info2[i] for i in integ) / terms_in if terms_in else 0.0),
        "catalog.model_build_s": inclusive_s(MODEL_BUILDERS),
        "catalog.parse_polynomial_s": inclusive_s(
            {"catalog.parse_polynomial"}, everywhere=True),
        "formulas.count_self_s": self_s(COUNTS),
        "formulas.search_s": inclusive_s({"formulas.regular_search"}),
        "formulas.search_count_calls": sum(
            1 for i in spans({"formulas.foliation_sing_count"})
            if tr.parent[i] in searches),
        "residue.isolated_s": sum(dur[i] for i in res if tr.status[i] == RETURNED),
        "residue.nonisolated_s": sum(
            dur[i] for i in res if tr.status[i] == NON_ISOLATED),
        "residue.depth_sum": sum(tr.info[i] for i in res if tr.status[i] == RETURNED),
        "polyfield.check_s": inclusive_s(CHECKS),
        "cli.import_ms": statistics.median(cli_import_ms) if cli_import_ms else 0.0,
        "cli.run_ms": run_med,
        "cli.startup_share": (wall_med - run_med) / wall_med if wall_med else 0.0,
        "trace.absent_names": len(tr.absent),
    }
