"""
Benchmark of srt, one workload per invocation:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload runs in its own fresh worker process (bench/worker.py) with the
checkout's `src` on the path, so nothing needs installing and the peak RSS
read from getrusage(RUSAGE_CHILDREN) belongs to that workload alone. The
workloads, their metrics and what each metric should move are described in
bench/README.md.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run. The lines before it print the metrics with their units and the run
record (git sha, nproc, Python and numpy versions, seed, sample counts and
the percentile behind latency_tail_ms), which is also written to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# the names in workloads.WORKLOADS; this process does not import srt
WORKLOADS = ["monodromy", "splitting_sweep", "tail_expansion", "group_closure", "cli_mix"]
# set-up is timed in the measuring worker and in this many more fresh
# workers that stop after their warm-up op; setup_s is the median
SETUP_RUNS = 4
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def git_sha():
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git has no sha)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, workdir, setup_only=False):
    """Start one worker, wait for it, and return (its JSON result, monotonic
    time just before it started)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "SRT_CONFIG"}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {args.workload} ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} exited {proc.returncode}:\n{err}")
    try:
        return json.loads(out.strip().splitlines()[-1]), started
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker for {args.workload} printed no result ({exc}):\n{out}{err}")


def tail_latency(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n


def timing_metrics(setups, ok, latencies_ms):
    """setup_s, ops_per_s (ops answered correctly per second of op time),
    latency_p50_ms and latency_tail_ms."""
    tail, percentile = tail_latency(latencies_ms)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ok / (sum(latencies_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
    }, percentile


def op_slowness(refs, i):
    """Slowness of the box during op i: the median of the reference times
    taken around it (refs[i] just before it, refs[i + 1] just after), which
    damps the jitter of a single reference run."""
    return statistics.median(refs[max(0, i - 1):i + 3])


def end_to_end(args, workdir):
    """The bounded timings are scaled to the reference machine's nominal
    speed: each op's latency by the box's slowness around it, each set-up by
    the slowness its worker measured right after it. The raw timings go to
    the run record."""
    main, started = run_worker(args, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setups = [(main["first_op_at"] - started, main["setup_slowness"])]
    warmup_failures = list(main["warmup_failures"])
    for _ in range(SETUP_RUNS):
        setup, started = run_worker(args, workdir, setup_only=True)
        setups.append((setup["first_op_at"] - started, setup["setup_slowness"]))
        warmup_failures += setup["warmup_failures"]
    raw, _ = timing_metrics([s for s, _ in setups], main["ok"], main["latencies_ms"])
    metrics, percentile = timing_metrics(
        [s / f for s, f in setups],
        main["ok"],
        [ms / op_slowness(main["slowness"], i) for i, ms in enumerate(main["latencies_ms"])],
    )
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    attempted = main["attempted"] + 1 + SETUP_RUNS
    failures = warmup_failures + main["failures"]
    record = {
        "rounds": main["rounds"],
        "latency_samples": len(main["latencies_ms"]),
        "latency_tail_percentile": percentile,
        "latency_tail_beyond": TAIL_BEYOND,
        "raw": {name: value for name, (value, unit) in raw.items()},
        "raw_ops_per_s_of_wall_time": main["ok"] / main["wall_s"],
        "slowness_quartiles": statistics.quantiles(main["slowness"], n=4),
        "setup_samples": setups,
        "wall_s": main["wall_s"],
        "class_median_ms": main["class_median_ms"],
    }
    return main, metrics, attempted, failures, record


def per_layer(args, workdir):
    main, _ = run_worker(args, workdir)
    metrics = {name: tuple(value_unit) for name, value_unit in main["metrics"].items()}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    shutil.move(str(Path(workdir) / "spans.jsonl"), spans)
    record = {"rounds": main["rounds"], "traced_ops": main["ops"], "spans": main["spans"],
              "spans_file": str(spans.relative_to(ROOT))}
    failures = main["warmup_failures"] + main["failures"]
    return main, metrics, main["attempted"] + 1, failures, record


def run_one(args):
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        measure = per_layer if args.trace else end_to_end
        main, metrics, attempted, failures, details = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": main["python"],
        "numpy": main["numpy"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:10],
        **details,
    }
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload:16} {metric:40} {value:14.6g} {unit}")
    print(f"{args.workload:16} {'failed_ratio':40} {failed / attempted:14.6g} ratio")
    print("record " + json.dumps(record))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload, each through its own run.py process."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        ok &= json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
