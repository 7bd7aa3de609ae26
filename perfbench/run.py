"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload counts --seed 1 --seconds 30 --trace 0

Run from the repository root; standard library only, nothing to install.
The workload runs in a fresh process (`worker.py`) as a closed loop with
one caller.  With `--trace 0` the last line of stdout is the JSON result
with every end-to-end metric of BENCHMARK.json; `setup_s` is the median,
over several fresh interpreters, of the time from process start until the
workload's inputs are built.  Times are rescaled for the machine's speed
as described in `calibration.py`.  With `--trace 1` it carries every per-layer
metric instead, and the spans are written to `.perfbench/spans-<workload>.json.gz`.
The exit status is nonzero, and no result is printed, if the package
sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import SPAWN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 11
# Fresh worker processes per untraced run, each running the same seeded
# batch.  The run pools their ops, so it measures about 20 s of work, long
# enough to average over the seconds-long slow and fast spells of a shared
# machine; processes share no state, so no model is reused across them.
PASSES = {"counts": 5, "search": 3, "residue": 8, "cli": 1}
# every run must end within 180 s
WORKER_TIMEOUT_S = 170.0


def _worker(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def _setup_seconds(cmd, env) -> float:
    """Process start until the worker reports its inputs built, rescaled
    by the interpreter start-ups timed just before and after (see
    `calibration`)."""
    before = SPAWN.measure()
    start = perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up run failed with status {child.returncode}")
    return elapsed * SPAWN.factor(before, SPAWN.measure())


def _end_to_end(passes) -> dict[str, float]:
    good = [ok for p in passes for ok in p["good"]]
    ms = [s * 1000 for p in passes for s in p["samples"]]
    return {
        "ops_per_s": sum(good) / sum(s for p in passes for s in p["samples"]),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "correct_share": sum(good) / len(good),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def _run_worker(cmd, env, deadline) -> dict:
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(deadline - perf_counter(), 1.0))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricsing" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # set-up is measured with bytecode already compiled
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    deadline = perf_counter() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            passes = [_run_worker(_worker(args, "--trace", "1", "--spans", str(
                OUT / f"spans-{args.workload}.json.gz")), env, deadline)]
        else:
            setup = [_setup_seconds(_worker(args, "--setup-only"), env)
                     for _ in range(SETUP_SAMPLES)]
            count = PASSES[args.workload]
            cmd = _worker(args, "--seconds", str(args.seconds / count))
            passes = [_run_worker(cmd, env, deadline) for _ in range(count)]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        measured = passes[0]["metrics"]
    else:
        measured = _end_to_end(passes)
        measured["setup_s"] = statistics.median(setup)
    unexpected = sorted({kind for p in passes for kind in p["unexpected"]})
    if unexpected:
        print("unexpected failures: " + ", ".join(unexpected), file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
