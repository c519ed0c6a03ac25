"""
One workload in one fresh process: import srt from the checkout's `src`,
build the seeded inputs, run a warm-up op, then the timed (or traced) rounds,
and print the raw measurements as one JSON line. bench/run.py starts this
process and turns its output into metrics.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only] --workdir DIR
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402  (srt.groups needs it; recorded in the run record)
import srt  # noqa: E402

if not Path(srt.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"srt imported from {srt.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402

# a timed run stops after this many times --seconds, so that a much slower
# commit still ends within the time the caller allows; the ops not run count
# as failed
RUN_CAP = 6
# share of --seconds that the traced pass's rounds take untraced
TRACE_SHARE = 0.2


# The shared box's speed changes by up to 1.7 times within seconds, as other
# tenants load the cores, far beyond any bound a change could be held to. So
# after every op the worker times a fixed reference kernel that needs the same
# machine resources as the workload, and run.py scales each op's latency by
# how much slower than nominal the kernel ran around it. Neither kernel
# touches srt.


def python_reference():
    """Interpreter-bound exact rational arithmetic, like srt's exact layers."""
    s = Fraction(0)
    for i in range(1, 1000):
        s += Fraction(1, i)
    return s


_REFERENCE_DATA = numpy.random.default_rng(0).integers(0, 1 << 40, size=20_000)


def numpy_reference():
    """Sort, deduplicate and search an int64 array, like the BFS closure."""
    seen = numpy.unique(_REFERENCE_DATA)
    return numpy.searchsorted(seen, _REFERENCE_DATA)


# kernel and its time in seconds on the reference machine when the benchmark
# was set up
REFERENCES = {
    "python": (python_reference, 0.0033),
    "numpy": (numpy_reference, 0.0065),
}


def slowness(reference):
    """Time of the reference kernel, with the garbage collector off, over its
    nominal time: 1.0 at nominal speed, 1.5 when the box runs 1.5 times slower."""
    kernel, nominal = REFERENCES[reference]
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) / nominal
    finally:
        gc.enable()


class OpTimeout(BaseException):
    """Raised by the alarm when an op exceeds its time limit. A BaseException,
    so that the `except Exception` handlers inside srt cannot swallow it."""


class Alarm:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def run(self, call, limit):
        """(seconds, result, error message or None) of one call."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            result = call()
            return time.perf_counter() - start, result, None
        except OpTimeout:
            return time.perf_counter() - start, None, f"over the {limit} s limit"
        except Exception as exc:
            return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """Latencies and failures of a sequence of ops."""

    def __init__(self):
        self.latencies = []
        self.slowness = []  # reference slowness before the first op and after each op
        self.labels = []
        self.failures = []
        self.ok = 0
        self.busy_s = 0.0

    def record(self, label, seconds, error, limit):
        self.busy_s += seconds
        if error is None and seconds > limit:
            error = f"took {seconds:.3f} s, over the {limit} s limit"
        if error is None:
            self.ok += 1
        else:
            self.failures.append(f"{label}: {error}")
            # a failed op counts as missing the latency limit
            seconds = max(seconds, limit)
        self.latencies.append(seconds)
        self.labels.append(label)


def run_pass(alarm, rounds, limit, cap_s=math.inf, reference=None):
    out = Pass()
    start = time.perf_counter()
    if reference:
        out.slowness.append(slowness(reference))
    for ops in rounds:
        for label, call, check in ops:
            if time.perf_counter() - start > cap_s:
                out.record(label, 0.0, "not run: the run passed its time cap", limit)
                out.slowness.extend(out.slowness[-1:])
                continue
            seconds, result, error = alarm.run(call, limit)
            if reference:
                out.slowness.append(slowness(reference))
            if error is None:
                try:
                    check(result)
                except workloads.WrongAnswer as exc:
                    error = f"wrong answer: {exc}"
            out.record(label, seconds, error, limit)
    out.wall_s = time.perf_counter() - start
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    # one CPU for the whole run: the two CPUs of the shared box run at
    # different speeds, and the reference kernel must run where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]
    n_rounds = max(2, round(args.seconds / workload.round_s))
    rng = random.Random(f"{args.workload}:{args.seed}")
    warmup, rounds = workloads.build_rounds(workload, rng, n_rounds, args.workdir)
    alarm = Alarm()
    warm = run_pass(alarm, [[warmup]], workload.op_limit_s)
    first_op_at = time.monotonic()
    result = {
        "first_op_at": first_op_at,
        "warmup_failures": warm.failures,
        "setup_slowness": slowness(workload.reference),
    }
    if args.setup_only:
        print(json.dumps(result))
        return

    result.update(python=sys.version.split()[0], numpy=numpy.__version__)
    if args.trace:
        k = max(1, round(TRACE_SHARE * args.seconds / workload.round_s))
        rounds = rounds[:k]
        untraced = run_pass(alarm, rounds, workload.op_limit_s)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_pass(alarm, rounds, workload.op_limit_s)
        with tracing.counting_vp() as vp_calls:
            counted = run_pass(alarm, rounds, workload.op_limit_s)
        spans_path = Path(args.workdir) / "spans.jsonl"
        tracer.write(spans_path)
        ops = len(traced.latencies)
        result.update(
            rounds=k,
            ops=ops,
            spans=len(tracer.spans),
            failures=untraced.failures + traced.failures + counted.failures,
            attempted=3 * ops,
            metrics=tracing.per_layer_metrics(
                tracer, ops, traced.busy_s, untraced.busy_s, vp_calls[0], counted.busy_s
            ),
        )
    else:
        timed = run_pass(
            alarm, rounds, workload.op_limit_s, RUN_CAP * args.seconds, workload.reference
        )
        by_class = {}
        for label, seconds in zip(timed.labels, timed.latencies):
            by_class.setdefault(label, []).append(seconds * 1e3)
        result.update(
            rounds=n_rounds,
            ops=len(timed.latencies),
            latencies_ms=[s * 1e3 for s in timed.latencies],
            wall_s=timed.wall_s,
            slowness=timed.slowness,
            ok=timed.ok,
            failures=timed.failures,
            attempted=len(timed.latencies),
            class_median_ms={k: statistics.median(v) for k, v in sorted(by_class.items())},
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
