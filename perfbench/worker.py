"""One workload run in a process of its own.

    python perfbench/worker.py --workload counts --seed 1 --seconds 30 --trace 0

`run.py` starts this with `src` on PYTHONPATH.  With `--setup-only` it
imports the package, builds the workload's inputs, prints `ready` and
exits; `run.py` times that from outside.  Otherwise it runs the seeded
batch as a closed loop with one caller, checks every answer after the
batch, and prints one JSON line.

Untraced, the line carries each op's rescaled time (see `calibration`) and
verdict and the peak resident memory; `run.py` pools them over passes.
Traced, the wrappers of `tracer.py` are installed before set-up, the batch
runs once traced, the wrappers are removed, and the same batch runs again
untraced; the line carries the per-layer metrics and `trace.overhead`, the
ratio of the two runs' `ops_per_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from time import perf_counter

from calibration import LOOP, SPAWN


def build(workload: str, seed: int):
    if workload == "cli":
        import cli_workload
        return cli_workload.build(seed)
    import workloads
    return workloads.BUILDERS[workload](seed)


# calibrate at least this often between ops
CALIBRATION_EVERY_S = 0.025


def run_batch(ops, seconds: float, tracer=None, calibration=LOOP):
    """Run the ops in order, each after the previous one ends, until the
    list or the time runs out.  Returns the answers, each op's seconds, and
    those seconds rescaled by the calibrations taken before and after it
    (see `calibration`); calibration time is outside every op's time."""
    answers, samples, scaled = [], [], []
    start = perf_counter()
    before, since = calibration.measure(), perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            answer = op.call()
        except Exception as exc:  # an unexpected exception is a failed op
            answer = exc
        samples.append(perf_counter() - t0)
        answers.append(answer)
        last = i == len(ops) - 1 or perf_counter() - start >= seconds
        if last or perf_counter() - since >= CALIBRATION_EVERY_S:
            after = calibration.measure()
            scale = calibration.factor(before, after)
            scaled.extend(s * scale for s in samples[len(scaled):])
            before, since = after, perf_counter()
        if last:
            break
    if tracer is not None:
        tracer.op_id = -1
    return answers, samples, scaled


def judge(ops, answers, samples) -> list[bool]:
    good = []
    for op, answer, sample in zip(ops, answers, samples):
        try:
            ok = op.check(answer) and sample <= op.deadline
        except Exception:  # a malformed answer is a failed op
            ok = False
        good.append(bool(ok))
    return good


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def summary(ops, good) -> dict:
    failed = [op for op, ok in zip(ops, good) if not ok]
    return {
        "attempted": len(good),
        "failed": len(failed),
        "unexpected": [op.kind for op in failed if not op.known_failure],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("counts", "search", "residue", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float("inf"),
                        help="stop starting ops after this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    calibration = SPAWN if args.workload == "cli" else LOOP
    if tracer is None:
        answers, raw, samples = run_batch(ops, args.seconds, calibration=calibration)
        rss = peak_rss_mb(args.workload)
        good = judge(ops, answers, raw)
        print(json.dumps({**summary(ops, good), "samples": samples, "good": good,
                          "peak_rss_mb": rss}))
        return 0

    import tracer as tracing
    extra = {}
    if args.workload == "cli":
        import cli_workload
        scratch = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as trace_dir:
            os.environ[cli_workload.TRACE_DIR_ENV] = trace_dir
            answers, raw, samples = run_batch(ops, float("inf"), tracer, calibration)
            del os.environ[cli_workload.TRACE_DIR_ENV]
            extra = cli_workload.collect(tracer, answers, raw)
    else:
        answers, raw, samples = run_batch(ops, float("inf"), tracer, calibration)
    tracer.uninstall()
    plain_answers, plain_raw, plain_samples = run_batch(
        ops, float("inf"), calibration=calibration)
    good = judge(ops, answers, raw)
    plain_good = judge(ops, plain_answers, plain_raw)
    metrics = tracing.layer_metrics(tracer, **extra)
    metrics["trace.overhead"] = ((sum(good) / sum(samples))
                                 / (sum(plain_good) / sum(plain_samples))
                                 if sum(plain_good) else 0.0)
    if args.spans:
        tracer.write(args.spans)
    if tracer.absent:
        print("absent wrapped names: " + ", ".join(tracer.absent), file=sys.stderr)
    result = summary(ops, [a and b for a, b in zip(good, plain_good)])
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
