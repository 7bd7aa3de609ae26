"""The `cli` workload: whole `toricsing` invocations, one child at a time.

Each op starts `launcher.py` with the current interpreter and the
worker's environment, which has `src` on PYTHONPATH, so nothing needs
installing.  It compares stdout and exit status with bytes written by hand
from the README examples and the `tests/test_cli.py` goldens.  The regular
ops are every case below, plain and `--json`, twice each in a seeded order.
The three boundary invocations run once per batch under a short deadline;
all three fail at the seed by design (see BOUNDARY).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Op

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"
MODEL_FILE = str(HERE / "p123.model")
# set by the worker while the traced batch runs; each child then writes its
# spans to <dir>/<op index>.json, which the worker merges after the batch
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
SPANS_ENV = "PERFBENCH_SPANS"
REGULAR_DEADLINE_S = 20.0
BOUNDARY_DEADLINE_S = 2.0
REPEATS = 2


@dataclass
class Case:
    """argv, the plain stdout, and the `--json` payload as a dict (None
    for error cases, which also give the expected exit status)."""

    argv: list[str]
    plain: str
    payload: dict | None = None
    status: int = 0


def _payload(operation, inputs, result, details=None):
    return {"operation": operation, "inputs": inputs, "result": result,
            "details": details or {}}


CATALOG_LIST = (
    "blowup_line_p3  (blowup_line_p3)\n"
    "blowup_point  (blowup_point:n)\n"
    "blowup_two_points_p3  (blowup_two_points_p3)\n"
    "multiprojective  (multiprojective:n1,...,nk)\n"
    "projective  (projective:n)\n"
    "scroll  (scroll:a1,...,an)\n"
    "weighted  (weighted:w0,...,wn)")
SCROLL_12 = (
    "name F(1,2)\ndim 2\nrank 2\ngens L M\nsmooth true\n"
    "divisor 1 0\ndivisor 1 0\ndivisor -1 1\ndivisor -2 1\n"
    "tensor 1 1 = 1\ntensor 0 2 = 3\n"
    "radial 1 1 -1 -2\nradial 0 0 1 1")
BLOWUP_2 = "d1^2 - d2^2 + 3*d1 + d2 + 4"
BLOWUP_LINE = ("d1^3 - 3*d1*d2^2 - 2*d2^3 + 4*d1^2 + 2*d1*d2 - 2*d2^2"
               " + 7*d1 + 4*d2 + 6")

CASES = [
    Case(["catalog", "list"], CATALOG_LIST + "\n",
         _payload("catalog list", {"command": "catalog", "subcommand": "list"},
                  CATALOG_LIST)),
    Case(["catalog", "show", "--model", "scroll:1,2"], SCROLL_12 + "\n",
         _payload("catalog show", {"command": "catalog", "subcommand": "show",
                                   "model": "scroll:1,2"}, SCROLL_12)),
    Case(["count", "foliation", "--model", "blowup_point:2", "--symbolic"],
         f"result = {BLOWUP_2}\n",
         _payload("count foliation", {"command": "count", "subcommand": "foliation",
                                      "model": "blowup_point:2", "symbolic": ""},
                  BLOWUP_2)),
    Case(["count", "foliation", "--model", "blowup_line_p3", "--symbolic"],
         f"result = {BLOWUP_LINE}\n",
         _payload("count foliation", {"command": "count", "subcommand": "foliation",
                                      "model": "blowup_line_p3", "symbolic": ""},
                  BLOWUP_LINE)),
    # degree 0 on P(1,2,3): e_2(1,2,3) / 6
    Case(["count", "foliation", "--model-file", MODEL_FILE, "--degree", "0"],
         "result = 11/6\n",
         _payload("count foliation", {"command": "count", "subcommand": "foliation",
                                      "model_file": MODEL_FILE, "degree": "0"}, "11/6")),
    # P^3 at degree 2: 1 + 3 + 9 + 27
    Case(["count", "foliation", "--model", "projective:3", "--degree", "2"],
         "result = 40\n",
         _payload("count foliation", {"command": "count", "subcommand": "foliation",
                                      "model": "projective:3", "degree": "2"}, "40")),
    Case(["count", "restricted", "--model", "projective:3", "--degree", "1",
          "--hyp", "2"], "result = 10\n",
         _payload("count restricted", {"command": "count", "subcommand": "restricted",
                                       "model": "projective:3", "degree": "1",
                                       "hyp": "2", "kind": "foliation"}, "10")),
    Case(["count", "complement", "--model", "weighted:2,3,5", "--degree", "0",
          "--hyp", "3"], "result = 1/3\n",
         _payload("count complement", {"command": "count", "subcommand": "complement",
                                       "model": "weighted:2,3,5", "degree": "0",
                                       "hyp": "3"}, "1/3")),
    # (1/4) * (1*8^2 - 6*8 + 9) with the distribution signs, per power of d
    Case(["count", "wci", "--weights", "1,1,1,4", "--ci", "1", "--degree", "8",
          "--kind", "distribution"],
         "result = 25/4\npartial_sums = 16\npartial_sums = -12\npartial_sums = 9/4\n",
         _payload("count wci", {"command": "count", "subcommand": "wci",
                                "weights": "1,1,1,4", "ci": "1", "degree": "8",
                                "kind": "distribution"},
                  "25/4", {"partial_sums": ["16", "-12", "9/4"]})),
    Case(["count", "ci", "--model", "projective:3", "--class", "2", "--degree", "1"],
         "result = 10\n",
         _payload("count ci", {"command": "count", "subcommand": "ci",
                               "model": "projective:3", "cls": ["2"], "degree": "1",
                               "kind": "foliation"}, "10")),
    # Euler number of P^n is n + 1
    Case(["euler", "ambient", "--model", "projective:4"], "result = 5\n",
         _payload("euler ambient", {"command": "euler", "subcommand": "ambient",
                                    "model": "projective:4"}, "5")),
    Case(["euler", "hyp", "--model", "projective:3", "--hyp", "2"], "result = 4\n",
         _payload("euler hyp", {"command": "euler", "subcommand": "hyp",
                                "model": "projective:3", "hyp": "2"}, "4")),
    # P^2 minus a line is the affine plane
    Case(["euler", "complement", "--model", "projective:2", "--hyp", "1"],
         "result = 1\n",
         _payload("euler complement", {"command": "euler", "subcommand": "complement",
                                       "model": "projective:2", "hyp": "1"}, "1")),
    # a plane cubic is an elliptic curve
    Case(["euler", "ci", "--model", "projective:2", "--class", "3"], "result = 0\n",
         _payload("euler ci", {"command": "euler", "subcommand": "ci",
                               "model": "projective:2", "cls": ["3"]}, "0")),
    # quadric surface in P^3: 2 * (1 + 4 - 2)^2
    Case(["baumbott", "--weights", "1,1,1,1", "--ci", "2", "--degree", "1"],
         "result = 18\n",
         _payload("baumbott", {"command": "baumbott", "weights": "1,1,1,1",
                               "ci": "2", "degree": "1"}, "18")),
    Case(["alpha", "--weights", "1,1,1,1,1", "--ci", "2", "--test-divisor", "3"],
         "result = 2\nchi = 4\ndivides = false\n",
         _payload("alpha", {"command": "alpha", "weights": "1,1,1,1,1", "ci": "2",
                            "test_divisor": 3}, "2",
                  {"chi": "4", "divides": "false"})),
    # quintic surface: 5 - 4
    Case(["general-type", "--weights", "1,1,1,1", "--ci", "5"], "result = 1\n",
         _payload("general-type", {"command": "general-type", "weights": "1,1,1,1",
                                   "ci": "5"}, "1")),
    Case(["multidegree", "--model", "projective:3", "--class", "2", "--class", "3",
          "--index", "0"], "result = 6\n",
         _payload("multidegree", {"command": "multidegree", "model": "projective:3",
                                  "cls": ["2", "3"], "index": 0, "generator": False},
                  "6")),
    Case(["poincare", "--variant", "toric-curve", "--model", "multiprojective:1,1",
          "--class", "2,3", "--degree", "1,0"],
         "result = holds\nlhs = 12\nrhs = 13\nslack = 1\n",
         _payload("poincare", {"command": "poincare", "variant": "toric-curve",
                               "model": "multiprojective:1,1", "cls": ["2,3"],
                               "degree": "1,0", "strict": False},
                  "holds", {"lhs": "12", "rhs": "13", "slack": "1"})),
    Case(["search", "--family", "scroll", "--bound", "2", "--scroll-a", "1,1,1"],
         "result = 1 solution(s)\nsolutions = (-2, 0) accepted\n",
         _payload("search", {"command": "search", "family": "scroll", "bound": 2,
                             "scroll_a": "1,1,1"}, "1 solution(s)",
                  {"solutions": [{"params": [-2, 0], "annotation": "accepted"}]})),
    Case(["search", "--family", "p1111k", "--bound", "3"],
         "result = 4 solution(s)\n"
         "solutions = (1, 2, 1) accepted\n"
         "solutions = (2, 1, 1) excluded-by-cohomology\n"
         "solutions = (2, 2, 2) accepted\n"
         "solutions = (3, 2, 3) accepted\n",
         _payload("search", {"command": "search", "family": "p1111k", "bound": 3},
                  "4 solution(s)",
                  {"solutions": [
                      {"params": [1, 2, 1], "annotation": "accepted"},
                      {"params": [2, 1, 1], "annotation": "excluded-by-cohomology"},
                      {"params": [2, 2, 2], "annotation": "accepted"},
                      {"params": [3, 2, 3], "annotation": "accepted"}]})),
    Case(["search", "--family", "p111k", "--bound", "20"], "result = 0 solution(s)\n",
         _payload("search", {"command": "search", "family": "p111k", "bound": 20},
                  "0 solution(s)", {"solutions": []})),
    Case(["scrollform", "--a", "1,1,1", "--d1", "-2", "--d2", "0"], "result = 0\n",
         _payload("scrollform", {"command": "scrollform", "a": "1,1,1", "d1": -2,
                                 "d2": 0}, "0")),
    # (z1^2, z2^2) has multiplicity 4; c(D) is 1, 3, 4, 4 for D = 1..4
    Case(["residue", "--vars", "z1,z2", "--components", "3*z1^2,3*z2^2",
          "--group", "3"],
         "result = 4/3\ngroup_order = 3\nmultiplicity = 4\nstabilized_at = 3\n",
         _payload("residue", {"command": "residue", "vars": "z1,z2",
                              "components": "3*z1^2,3*z2^2", "group": 3, "cap": 64},
                  "4/3", {"multiplicity": 4, "group_order": 3, "stabilized_at": 3})),
    Case(["check", "homogeneous", "--model", "weighted:1,1,1,3",
          "--poly", "z3 - z0^3 - z1^3 - z2^3"], "result = degree 3\n",
         _payload("check homogeneous", {"command": "check", "subcommand": "homogeneous",
                                        "model": "weighted:1,1,1,3",
                                        "poly": "z3 - z0^3 - z1^3 - z2^3"},
                  "degree 3")),
    Case(["check", "descends", "--model", "weighted:1,7,3,5",
          "--form=-7*z1,z0,-5*z3,3*z2"], "result = true\n",
         _payload("check descends", {"command": "check", "subcommand": "descends",
                                     "model": "weighted:1,7,3,5",
                                     "form": "-7*z1,z0,-5*z3,3*z2"}, "true")),
    Case(["check", "invariant", "--model", "projective:2", "--field", "z0,z1,z2",
          "--poly", "z0*z1 - z2^2"], "result = true\ncofactor = 2\n",
         _payload("check invariant", {"command": "check", "subcommand": "invariant",
                                      "model": "projective:2", "field": "z0,z1,z2",
                                      "poly": "z0*z1 - z2^2"},
                  "true", {"cofactor": "2"})),
    Case(["gcd-obstruction", "--model", "projective:2", "--degree-div", "2,0,0"],
         "result = true\nchi = 3\ngcd = 2\n",
         _payload("gcd-obstruction", {"command": "gcd-obstruction",
                                      "model": "projective:2", "degree_div": "2,0,0"},
                  "true", {"chi": "3", "gcd": 2})),
    # errors: a non-isolated germ under an explicit cap, a weight gcd, usage
    Case(["residue", "--vars", "u,v", "--components", "u*v,u^2*v", "--cap", "8"],
         "", status=1),
    Case(["count", "foliation", "--model", "weighted:2,4,6", "--degree", "1"],
         "", status=1),
    Case(["count", "foliation", "--model", "projective:2", "--degree", "1",
          "--symbolic"], "", status=2),
]

# (name, argv, expected stdout, expected status, text stderr must contain)
BOUNDARY = [
    ("boundary:projective200",
     ["count", "foliation", "--model", "projective:200", "--degree", "1"],
     f"result = {2 ** 201 - 1}\n", 0, ""),
    ("boundary:non_isolated_default_cap",
     ["residue", "--vars", "u,v", "--components", "u*v,u^2*v"], "", 1, "isolated"),
    ("boundary:projective_no_params",
     ["count", "foliation", "--model", "projective", "--degree", "1"],
     "", 1, "projective:n"),
]


@dataclass
class Invocation:
    status: int | None       # None when killed at the deadline
    stdout: str
    stderr: str
    # where a traced child writes its spans; not part of the answer
    spans: str | None = field(default=None, repr=False, compare=False)


def _invoke(index: int, argv: list[str], deadline: float) -> Invocation:
    env = dict(os.environ)
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    spans = os.path.join(trace_dir, f"{index}.json") if trace_dir else None
    if spans:
        env[SPANS_ENV] = spans
    with subprocess.Popen([sys.executable, str(LAUNCHER), *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as child:
        try:
            out, err = child.communicate(timeout=deadline)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
            return Invocation(None, out, err, spans)
    return Invocation(child.returncode, out, err, spans)


def _op(index, kind, argv, stdout, status, stderr_has="", deadline=REGULAR_DEADLINE_S,
        known_failure=False) -> Op:
    def check(r: Invocation) -> bool:
        if r.status != status or r.stdout != stdout:
            return False
        if status == 0:
            return r.stderr == ""
        return r.stderr.startswith(("error:", "usage:")) and stderr_has in r.stderr

    return Op(kind, lambda: _invoke(index, argv, deadline), check,
              deadline=deadline, known_failure=known_failure)


def build(seed: int) -> list[Op]:
    """The batch; importing `toricsing.cli` here makes the set-up a cold
    import of the CLI, which is what every invocation pays."""
    import toricsing.cli  # noqa: F401

    rng = random.Random(f"cli/{seed}")
    plans = []
    for case in CASES:
        name = "cli:" + " ".join(case.argv)
        plans.append((name, case.argv, case.plain, case.status, ""))
        if case.payload is not None:
            text = json.dumps(case.payload, indent=2, sort_keys=True) + "\n"
            plans.append((name + " --json", case.argv + ["--json"], text, 0, ""))
    plans = plans * REPEATS
    rng.shuffle(plans)
    for boundary in BOUNDARY:
        plans.insert(rng.randrange(len(plans) + 1), boundary)
    ops = []
    for index, (kind, argv, stdout, status, stderr_has) in enumerate(plans):
        if kind.startswith("boundary:"):
            ops.append(_op(index, kind, argv, stdout, status, stderr_has,
                           BOUNDARY_DEADLINE_S, known_failure=True))
        else:
            ops.append(_op(index, kind, argv, stdout, status))
    return ops


def collect(tracer, answers, samples: list[float]) -> dict:
    """Merge the spans the traced children wrote, tagged with their op's
    position in the batch; a child killed at its deadline wrote none.
    Returns the launcher-side import times and the wall times of the
    invocations that reported."""
    import_ms, invocation_ms = [], []
    for position, (answer, sample) in enumerate(zip(answers, samples)):
        path = getattr(answer, "spans", None)
        if path is None or not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        tracer.merge(data, position)
        import_ms.append(data["import_ms"])
        invocation_ms.append(sample * 1000)
    return {"cli_import_ms": import_ms, "invocation_ms": invocation_ms}
