"""Tests of the benchmark itself: wrapper coverage, determinism of the
traced counts, and the reference routes the answers are checked against.

    PYTHONPATH=src python3 -m pytest perfbench -q

Coverage and determinism run one op of each kind per workload, so they
reach every op class in a few seconds.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cli_workload
import oracles as ref
import tracer as tracing
import worker
import workloads
from toricsing import catalog, formulas

HERE = Path(__file__).resolve().parent

# The wrapped names each workload must reach.  Two names no workload
# reaches: the CLI has no frobenius subcommand and `count wci` calls the
# per-power parts, not their sum.
EXPECTED = {
    "counts": {
        "exactalg.MultiPoly.__init__", "exactalg.MultiPoly.__mul__",
        "exactalg.MultiPoly.__rmul__", "chow.chern_class",
        "chow.elementary_symmetric_classes", "chow.wronski_classes",
        "chow.integrate", "chow.ChowElement.__mul__", "chow.ChowElement.__rmul__",
        "catalog.from_spec_string", "catalog.builtin", "catalog.projective",
        "catalog.weighted", "catalog.multiprojective", "catalog.scroll",
        "catalog.blowup_point", "catalog.blowup_two_points_p3",
        "catalog.blowup_line_p3", "formulas.foliation_sing_count",
        "formulas.restricted_sing_count", "formulas.complement_sing_count",
        "formulas.hypersurface_euler", "formulas.ci_sing_count", "formulas.ci_euler",
    },
    "search": {
        "formulas.regular_search", "formulas.foliation_sing_count",
        "catalog.scroll", "chow.chern_class", "chow.integrate",
        "exactalg.MultiPoly.__mul__",
    },
    "residue": {"residue.local_multiplicity", "catalog.parse_polynomial"},
    "cli": {
        "cli.run", "catalog.parse_model", "catalog.parse_polynomial",
        "formulas.complement_euler", "formulas.wci_sing_count_parts",
        "formulas.multidegree", "formulas.alpha_invariant",
        "formulas.elementary_symmetric_scalars", "polyfield.check_quasi_homogeneous",
        "polyfield.check_descends", "polyfield.check_invariant_hypersurface",
        "residue.local_multiplicity",
    },
}
UNREACHED = {"polyfield.frobenius_integrable", "formulas.wci_sing_count"}
# counts that must repeat exactly between two traced runs
COUNTS = ("exactalg.mul_calls", "exactalg.polys_built", "exactalg.peak_terms",
          "chow.chern_class_calls", "chow.esym_calls", "chow.element_mul_calls",
          "chow.integrate_calls", "chow.integrate_useful_ratio",
          "formulas.search_count_calls", "residue.depth_sum")


def one_per_kind(ops):
    """The first op of each kind, leaving out the slow known failures."""
    seen = {}
    for op in ops:
        if not op.known_failure:
            seen.setdefault(op.kind, op)
    return list(seen.values())


def traced(workload: str, seed: int, trace_dir: str):
    tr = tracing.Tracer()
    tr.install()
    try:
        ops = one_per_kind(worker.build(workload, seed))
        os.environ[cli_workload.TRACE_DIR_ENV] = trace_dir
        try:
            answers, raw, _ = worker.run_batch(ops, float("inf"), tr)
        finally:
            del os.environ[cli_workload.TRACE_DIR_ENV]
    finally:
        tr.uninstall()
    extra = cli_workload.collect(tr, answers, raw) if workload == "cli" else {}
    return tr, ops, answers, tracing.layer_metrics(tr, **extra)


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_each_wrapped_name_is_reached(workload, tmp_path):
    tr, ops, answers, _ = traced(workload, 1, str(tmp_path))
    calls = tr.calls()
    assert not tr.absent
    assert sorted(n for n in EXPECTED[workload] if not calls.get(n)) == []
    assert all(worker.judge(ops, answers, [0.0] * len(ops)))


def test_every_wrapped_name_is_expected_somewhere():
    names = {tracing.span_name(m, p) for m, p in tracing.TARGETS}
    assert names == set().union(*EXPECTED.values()) | UNREACHED


def test_uninstall_restores_every_original():
    before = [_lookup(m, p) for m, p in tracing.TARGETS]
    tr = tracing.Tracer()
    tr.install()
    assert all(_lookup(m, p) is not b for (m, p), b in zip(tracing.TARGETS, before))
    tr.uninstall()
    assert all(_lookup(m, p) is b for (m, p), b in zip(tracing.TARGETS, before))


def _lookup(module, path):
    owner = importlib.import_module(module)
    *chain, attr = path.split(".")
    for part in chain:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_a_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("toricsing.formulas", "elementary_symmetric_vanished"),))
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["formulas.elementary_symmetric_vanished"]


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.names = ["formulas.foliation_sing_count", "exactalg.MultiPoly.__init__"]
    for parent, name, start, end in ((-1, 0, 0.0, 10.0), (0, 1, 1.0, 4.0),
                                     (0, 1, 5.0, 6.0)):
        for col, value in ((tr.parent, parent), (tr.name, name), (tr.op, 0),
                           (tr.start, start), (tr.end, end), (tr.status, 0),
                           (tr.info, 0), (tr.info2, 0)):
            col.append(value)
    # the count lasts 10 s, 4 s of them inside its two children
    metrics = tracing.layer_metrics(tr)
    assert metrics["formulas.count_self_s"] == 6.0
    assert metrics["exactalg.init_self_s"] == 4.0
    assert metrics["exactalg.polys_built"] == 2


SNIPPET = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[3])
import test_benchmark as t
with tempfile.TemporaryDirectory(dir=sys.argv[4]) as d:
    tr, ops, answers, metrics = t.traced(sys.argv[1], int(sys.argv[2]), d)
print(json.dumps({"answers": [repr(a) for a in answers], "calls": tr.calls(),
                  "counts": {k: metrics[k] for k in t.COUNTS}}))
"""


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    runs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-c", SNIPPET, workload, "7", str(HERE), str(tmp_path)],
            capture_output=True, text=True, check=True, env=os.environ)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert runs[0] == runs[1]
    assert any(runs[0]["counts"].values())


# -- reference routes ------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_counts_never_reuse_a_model(seed):
    specs = [op.spec for op in workloads.build_counts(seed)]
    assert all(specs) and len(specs) == len(set(specs))


@pytest.mark.parametrize("n", range(1, 8))
def test_projective_closed_form_matches_the_product_route(n):
    for d in range(-2, 5):
        assert ref.projective_foliation_count(n, d) == ref.foliation_count(
            f"projective:{n}", (d,))


@pytest.mark.parametrize("seed", range(3))
def test_chart_indices_sum_to_the_global_count(seed):
    rng = random.Random(seed)
    for _ in range(10):
        w = workloads._plane_weights(rng)
        total = ref.foliation_count("weighted:" + ",".join(map(str, w)), (0,))
        assert sum(Fraction(1, x) for x in w) == total


def test_p_family_reference_matches_a_direct_enumeration():
    assert formulas.regular_search("p111k", 100) == []
    found = sorted((s.params, s.annotation)
                   for s in formulas.regular_search("p1111k", 100))
    for bound in range(1, 101):
        assert [f for f in found if max(f[0]) <= bound] == \
            ref.p_family_solutions("p1111k", bound)


def test_scroll_closed_form_zero_set_matches_the_product_route():
    rng = random.Random(3)
    twists = [a for n in (3, 4) for a in itertools.product(range(-2, 4), repeat=n)]
    for a in rng.sample(twists, 40):
        spec = "scroll:" + ",".join(map(str, a))
        want = [(d1, d2) for d1 in range(-3, 4) for d2 in range(-3, 4)
                if ref.foliation_count(spec, (d1, d2)) == 0]
        assert ref.scroll_zero_set(a, 3) == want


@pytest.mark.parametrize("workload", ["counts", "search", "residue"])
def test_checks_reject_a_wrong_answer(workload):
    for op in one_per_kind(workloads.BUILDERS[workload](2)):
        answer = op.call()
        assert op.check(answer), op.kind
        assert not op.check(_perturbed(answer)), op.kind


def _perturbed(answer):
    if isinstance(answer, list):  # search solutions
        return answer[1:] if answer else [formulas.SearchSolution("x", (0,))]
    if dataclasses.is_dataclass(answer):  # local index report
        return dataclasses.replace(answer, multiplicity=answer.multiplicity + 1)
    if isinstance(answer, Exception):
        return None
    return answer + 1


def test_model_file_case_is_the_readme_plane():
    model = catalog.parse_model(Path(cli_workload.MODEL_FILE).read_text())
    assert formulas.foliation_sing_count(model, 0) == Fraction(11, 6)
